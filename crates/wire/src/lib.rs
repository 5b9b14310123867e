//! # nonstrict-wire
//!
//! The non-strict transfer protocol promoted to a real wire.
//!
//! Everything below the session simulator in this workspace models the
//! paper's protocol — unit-delimited class streaming, CRC'd units, the
//! resume checkpoint, the NSUM unit manifest — at cycle granularity.
//! This crate defines the **actual byte protocol** those models stand in
//! for, and a small threaded server/client stack that speaks it over
//! TCP:
//!
//! * [`crc`] — the canonical CRC32 (IEEE 802.3, reflected). The netsim
//!   unit trailer, the NSJL journal log, the NSUM manifest, and every wire
//!   frame all use this one implementation, so the simulator is a test
//!   double for the same integrity arithmetic the wire uses.
//! * [`frame`] — CRC-framed protocol messages with length-prefix sanity
//!   caps: a decoder rejects an absurd declared length with a typed
//!   [`frame::FrameError::Oversized`] *before* allocating anything.
//! * [`config`] — the shared link / ordering / fault-knob vocabulary.
//!   The CLI simulator, the server, and the loadgen all parse the same
//!   spellings through this module, so a scenario moves between the
//!   simulated and real wire without translation.
//! * [`manifest`] — the NSUM unit manifest: the content-addressed
//!   digest table a client pins from its first Welcome and verifies
//!   every delivered unit against. Moving it here (from `core`) puts
//!   the integrity arithmetic at the bottom of the stack, where both
//!   the simulator and the wire client reach it.
//! * [`plan`] — the server's content model ([`plan::ServePlan`]): real
//!   restructured class-file bytes split at unit boundaries, plus the
//!   watermark-based resume negotiation with typed
//!   [`plan::ResumeVerdict`]s.
//! * [`server`] — each admitted connection streams on a handler thread
//!   of its own, reused from a finished connection when one is parked
//!   (the `accept` module); the socket send buffer is the bounded
//!   queue. The full robustness ladder: token-bucket admission
//!   ([`AdmissionController`]) with typed retry-after,
//!   per-connection read/write deadlines, slow-consumer (slow-loris)
//!   eviction, and graceful drain at unit boundaries.
//! * [`client`] — the resumable mirror-fleet client: watermark
//!   journal, capped-backoff reconnect, EWMA mirror health scoring,
//!   mid-stream failover at unit boundaries, trust-on-first-use
//!   manifest pinning with per-unit digest verification, and
//!   quarantine of equivocating or forging mirrors.
//! * [`fleet`] — the process-level supervisor: N mirrors behind stable
//!   slot addresses, seeded crash/restart plans, health probes, and
//!   live epoch rollovers behind graceful drain fences.
//! * [`loadgen`] — replays a seeded fleet arrival schedule against a
//!   server (or mirror fleet) and reports wall-clock tail latency plus
//!   the cross-client convergence invariant.
//! * [`chaos`] — an interposed proxy that injects socket-level faults
//!   (mid-frame cuts, aborts, byte corruption, stalls, frame
//!   reordering) between client and server, deterministically per
//!   seeded connection.
//!
//! The crate is dependency-free on the rest of the workspace on
//! purpose: it sits at the *bottom* of the stack so the simulator
//! crates can reuse its primitives, and the `core::serve` bridge (which
//! knows how to build a [`plan::ServePlan`] from a benchmark) sits
//! above both.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accept;
pub mod chaos;
pub mod client;
pub mod config;
pub mod crc;
pub mod fleet;
pub mod frame;
pub mod loadgen;
pub mod manifest;
pub mod plan;
pub mod server;

pub use chaos::{ChaosConfig, ChaosProxy};
pub use client::{
    boost_health, decay_health, ewma_health, ClientConfig, ClientError, ClientReport, SessionStore,
    StoreFault, WarmClass, WarmSession, WireClient, HEALTH_FULL_PPM,
};
pub use config::{parse_mirrors, ConfigError, FaultKnobs, LinkSpec};
pub use crc::crc32;
pub use fleet::{CrashPlan, FleetConfig, FleetReport, FleetSupervisor, MirrorStatus, PlanFactory};
pub use frame::{
    ClassAdvert, EvictReason, Frame, FrameError, ResumeEntry, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use manifest::{
    content_digest_of, ManifestError, UnitManifest, MANIFEST_MAGIC, MANIFEST_VERSION,
};
pub use plan::{ClassPlan, ResumeVerdict, ServePlan};
pub use server::{
    AdmissionController, DrainReport, Rejected, ServerConfig, ServerStats, WireServer,
};

/// Sanity caps shared by every length-prefixed decoder in the
/// workspace: the wire frames and the NSUM manifest here, and the
/// session checkpoint decoder in `nonstrict-core`. A decoder must check the
/// declared count against the cap (and against the bytes actually
/// remaining) *before* allocating — a forged length field may ask for
/// gigabytes the frame never carries.
pub mod caps {
    /// Maximum classes any frame, journal, or manifest may declare.
    pub const MAX_CLASSES: usize = 1 << 20;
    /// Maximum units a single class may declare (same dimension, and
    /// therefore the same cap, as the per-method bitmaps).
    pub const MAX_UNITS_PER_CLASS: usize = 1 << 24;
    /// Maximum entries in a per-method bitmap.
    pub const MAX_BITMAP_BITS: usize = 1 << 24;
    /// Maximum entries in a journal fetch log.
    pub const MAX_FETCH_LOG: usize = 1 << 24;
}

/// SplitMix64: the workspace's standard small seeded generator, used
/// here for arrival jitter and per-connection chaos plans.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in parts-per-million space: true with probability
    /// `rate_pm / 1_000_000`.
    pub fn hit_pm(&mut self, rate_pm: u32) -> bool {
        if rate_pm == 0 {
            return false;
        }
        self.next_u64() % 1_000_000 < u64::from(rate_pm)
    }

    /// A draw in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_rates_bound() {
        let mut a = SplitMix64(7);
        let mut b = SplitMix64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64(1);
        assert!((0..1000).all(|_| !r.hit_pm(0)));
        assert!((0..1000).all(|_| r.hit_pm(1_000_000)));
        assert!((0..1000).all(|_| r.below(10) < 10));
    }
}
