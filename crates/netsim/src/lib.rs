//! # nonstrict-netsim
//!
//! The network half of the paper's cycle-level co-simulation:
//!
//! * [`link`] — link models in machine cycles per byte (the paper's T1 =
//!   3,815 and 28.8 K modem = 134,698 on a 500 MHz Alpha).
//! * [`unit`](mod@unit) — transfer units: each class file becomes a *prelude*
//!   (global data, or just the needed-first slice under data
//!   partitioning), one unit per method (GMD + local data + code +
//!   method delimiter), and a *trailing* unit of unused globals.
//! * [`schedule`] — the greedy parallel-transfer schedule (§5.1):
//!   first-use class order plus unique-byte dependency thresholds.
//! * [`engine`] — the [`engine::TransferEngine`] abstraction the
//!   co-simulator drives: `unit_ready`, `finish_time`, `total_bytes`,
//!   the perfect-link timeline and nothing else.
//! * [`parallel`] — fluid multi-stream transfer with fair bandwidth
//!   sharing, a concurrent-file limit, threshold-triggered starts, and
//!   demand-fetch correction on misprediction.
//! * [`interleaved`] — the single virtual interleaved file (§5.2).
//! * [`strict`] — sequential whole-class transfer (baseline and
//!   ablation).
//! * [`faults`] — seeded, deterministic fault injection
//!   ([`faults::FaultPlan`]) and the one fault layer over any
//!   perfect-link engine ([`faults::FaultLayer`]). Built once, from a
//!   single-origin plan or a replica set, it keeps one per-class
//!   [`engine::Surcharge`] prefix table, the droop remap, per-class
//!   fault events, the serving-replica assignment, and the fault,
//!   replica and integrity counters. The single-origin protocol:
//!   CRC32-verified units, retry with capped exponential backoff,
//!   resumable streams after a drop, and piecewise-linear droop-window
//!   time remapping.
//! * [`outage`] — full connection losses ([`outage::OutagePlan`]):
//!   seeded per-period outage events with duration distributions that
//!   freeze the client and the link together, and the monotone
//!   base-to-wall time shift ([`outage::OutageSchedule`]) the session
//!   layer uses for checkpoint/resume accounting.
//! * [`replica`] — replica-set transfer ([`replica::ReplicaSet`], routed
//!   by the fault layer): N independently seeded mirrors with EWMA
//!   health-scored routing, hedged duplicate fetches past a stall
//!   deadline, and mid-stream failover at unit boundaries.
//! * [`byzantine`] — seeded Byzantine misbehavior plans
//!   ([`byzantine::ByzantinePlan`]): stale-epoch, equivocating, and
//!   manifest-colluding mirrors, plus the cross-mirror audit sampler
//!   and the integrity counters the manifest layer reports.
//! * [`contention`] — the multi-client server model: deficit-round-
//!   robin fair sharing of one egress pipe over per-client unit
//!   queues, a token-bucket admission controller with typed
//!   [`contention::Rejected`] backpressure, and the three-rung
//!   load-shedding ladder ([`contention::ShedLadder`]).
//!
//! All engines are **event-driven fluid** simulators: transfer progress
//! is piecewise linear, so the engines jump from event to event (unit
//! boundary, stream completion, dependency-threshold crossing) instead
//! of stepping the ~10^10 cycles a modem-link run covers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod byzantine;
pub mod contention;
pub mod engine;
pub mod faults;
pub mod interleaved;
pub mod link;
pub mod outage;
pub mod parallel;
pub mod replica;
pub mod schedule;
pub mod strict;
pub mod unit;

pub use byzantine::{
    ByzantineMode, ByzantinePlan, IntegrityStats, AUDIT_COMPARE_CYCLES, DIGEST_CHECK_CYCLES,
    DIVERGENCE_RATE_PM, QUARANTINE_CYCLES,
};
pub use contention::{
    drr_schedule, jitter, AdmissionController, ClientDemand, ClientService, LadderError, Rejected,
    ShedAction, ShedLadder,
};
pub use engine::{Surcharge, TransferEngine};
pub use faults::{FaultLayer, FaultPlan, FaultStats};
pub use interleaved::InterleavedEngine;
pub use link::{Link, LinkError};
pub use outage::{OutageEvent, OutagePlan, OutageSchedule, OUTAGE_PERIOD_CYCLES};
pub use parallel::ParallelEngine;
pub use replica::{
    replica_seed, ReplicaHealth, ReplicaProfile, ReplicaSet, ReplicaStats, HEDGE_OVERHEAD_CYCLES,
    MAX_REPLICAS,
};
pub use schedule::{greedy_schedule, ParallelSchedule, ScheduleError, Weights};
pub use strict::StrictEngine;
pub use unit::{
    add_checksum_overhead, class_units, crc32, ClassUnits, CHECKSUM_BYTES, DELIMITER_BYTES,
};
