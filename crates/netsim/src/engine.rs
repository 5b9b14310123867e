//! The transfer-engine abstraction the co-simulator drives.

/// The cycles the fault layer ([`crate::faults::FaultLayer`]) added to
/// one arrival on top of its perfect-link engine's timeline, by cause.
/// The layer's `unit_ready` minus the bare engine's `unit_ready` is
/// exactly [`Surcharge::total`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Surcharge {
    /// Fault recovery: timeouts, retransmissions, backoff, reconnects,
    /// droop stretch, and (in a replica set) the serving mirror's
    /// bandwidth spread and outage wait.
    pub recovery: u64,
    /// Hedging: the deadline wait before each winning duplicate plus
    /// every issue/cancel overhead.
    pub hedge: u64,
    /// Transfer integrity: digest checks, divergence refetches, audit
    /// rounds, and epoch-fence re-pins.
    pub integrity: u64,
}

impl Surcharge {
    /// The sum of all three causes (saturating).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.recovery
            .saturating_add(self.hedge)
            .saturating_add(self.integrity)
    }
}

/// A transfer engine answers one question for the executing program:
/// *when do the bytes I need arrive?* Implementations simulate the
/// network timeline forward on demand.
///
/// The co-simulator guarantees `now` is non-decreasing across calls, and
/// that after a call returning `t > now` the next call's `now` is at
/// least `t` (execution stalls until the bytes arrive). Engines rely on
/// this to never need to rewind their timeline.
pub trait TransferEngine {
    /// The cycle at which unit `unit` of class `class` has fully
    /// arrived. If the class is not yet transferring and the engine
    /// supports demand fetching, the request itself may start it (a
    /// misprediction fetch at cycle `now`).
    fn unit_ready(&mut self, class: usize, unit: usize, now: u64) -> u64;

    /// The cycle at which every byte of every class has arrived,
    /// assuming no further demand fetches.
    fn finish_time(&mut self) -> u64;

    /// Total bytes this engine would transfer to completion.
    fn total_bytes(&self) -> u64;
}
