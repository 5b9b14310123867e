//! The transfer-engine abstraction the co-simulator drives.

use crate::byzantine::IntegrityStats;
use crate::faults::FaultStats;
use crate::replica::ReplicaStats;

/// The cycles a decorating engine added to one arrival on top of its
/// inner engine's timeline, by cause. `unit_ready` minus the bare inner
/// engine's `unit_ready` is exactly [`Surcharge::total`].
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

    /// Aggregate fault-protocol counters. Perfect-link engines report
    /// all zeros; [`crate::faults::FaultedEngine`] overrides this.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// The surcharge embedded in the most recent
    /// [`TransferEngine::unit_ready`] answer, split by cause (all zero
    /// on a perfect single-origin link). The co-simulator uses this to
    /// split a stall into transfer-wait, fault-recovery, hedging, and
    /// integrity time.
    fn last_surcharge(&self) -> Surcharge {
        Surcharge::default()
    }

    /// Cumulative fault events (retransmissions) charged to `class`,
    /// for graceful-degradation pressure accounting.
    fn class_fault_events(&self, _class: usize) -> u64 {
        0
    }

    /// Aggregate replica-set counters. Single-origin engines report
    /// all zeros; [`crate::replica::ReplicaEngine`] overrides this.
    fn replica_stats(&self) -> ReplicaStats {
        ReplicaStats::default()
    }

    /// The replica that served (or will serve) the given unit. The
    /// single origin of a non-replicated engine is replica 0.
    fn serving_replica(&self, _class: usize, _unit: usize) -> u32 {
        0
    }

    /// Aggregate integrity-layer counters. Engines without a manifest
    /// layer report all zeros; [`crate::replica::ReplicaEngine`]
    /// overrides this when armed with a [`crate::byzantine::ByzantinePlan`].
    fn integrity_stats(&self) -> IntegrityStats {
        IntegrityStats::default()
    }
}

impl<E: TransferEngine + ?Sized> TransferEngine for Box<E> {
    fn unit_ready(&mut self, class: usize, unit: usize, now: u64) -> u64 {
        (**self).unit_ready(class, unit, now)
    }

    fn finish_time(&mut self) -> u64 {
        (**self).finish_time()
    }

    fn total_bytes(&self) -> u64 {
        (**self).total_bytes()
    }

    fn fault_stats(&self) -> FaultStats {
        (**self).fault_stats()
    }

    fn last_surcharge(&self) -> Surcharge {
        (**self).last_surcharge()
    }

    fn class_fault_events(&self, class: usize) -> u64 {
        (**self).class_fault_events(class)
    }

    fn replica_stats(&self) -> ReplicaStats {
        (**self).replica_stats()
    }

    fn serving_replica(&self, class: usize, unit: usize) -> u32 {
        (**self).serving_replica(class, unit)
    }

    fn integrity_stats(&self) -> IntegrityStats {
        (**self).integrity_stats()
    }
}
