//! Shared test-support helpers for the integration suites.
//!
//! Each `tests/*.rs` binary compiles this module separately via
//! `mod common;`, so not every binary uses every helper — hence the
//! allow.
#![allow(dead_code)]

/// Chaos seed count: 4 locally, elevated in CI's chaos-smoke and
/// chaos-soak jobs via `NONSTRICT_CHAOS_SEEDS`.
pub fn chaos_seeds() -> u64 {
    std::env::var("NONSTRICT_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Seeded fuzz-case count: 64 locally, elevated in CI's fuzz-smoke job
/// via `NONSTRICT_FUZZ_CASES`.
pub fn fuzz_cases() -> usize {
    std::env::var("NONSTRICT_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Storage-fault seed count: 4 locally, elevated in CI's
/// disk-chaos-smoke job via `NONSTRICT_DISK_SEEDS`.
pub fn disk_seeds() -> u64 {
    std::env::var("NONSTRICT_DISK_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// A session store that keeps nothing and signals once, from its first
/// accepted unit: a test waits on the receiver for "this client is
/// mid-stream" instead of sleeping a guessed head start.
pub struct FirstUnitSignal(Option<std::sync::mpsc::Sender<()>>);

impl FirstUnitSignal {
    /// The store to hand the client, and the receiver to wait on.
    pub fn new() -> (Box<FirstUnitSignal>, std::sync::mpsc::Receiver<()>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (Box::new(FirstUnitSignal(Some(tx))), rx)
    }
}

impl nonstrict_wire::SessionStore for FirstUnitSignal {
    fn warm_start(&mut self) -> Option<nonstrict_wire::WarmSession> {
        None
    }

    fn on_pin(&mut self, _: u32, _: &[u8]) -> Result<(), nonstrict_wire::StoreFault> {
        Ok(())
    }

    fn on_unit(
        &mut self,
        _: u32,
        _: u32,
        _: u32,
        _: u32,
        _: &[u8],
    ) -> Result<(), nonstrict_wire::StoreFault> {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(());
        }
        Ok(())
    }

    fn on_reset_class(&mut self, _: u32, _: u32, _: u32) -> Result<(), nonstrict_wire::StoreFault> {
        Ok(())
    }

    fn on_truncate(&mut self, _: u32, _: u32) -> Result<(), nonstrict_wire::StoreFault> {
        Ok(())
    }

    fn on_reset_all(&mut self) -> Result<(), nonstrict_wire::StoreFault> {
        Ok(())
    }

    fn on_complete(&mut self) -> Result<(), nonstrict_wire::StoreFault> {
        Ok(())
    }
}
