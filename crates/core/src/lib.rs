//! # nonstrict-core
//!
//! The paper's primary contribution, assembled: **non-strict execution**
//! of mobile programs with transfer/execution overlap, plus the
//! cycle-level co-simulation that evaluates it.
//!
//! * [`model`] — one configuration type ([`model::SimConfig`]) spanning
//!   the paper's whole design space: execution model (strict vs
//!   non-strict), ordering source (source order, static call graph,
//!   Train profile, Test profile), transfer policy (strict sequential,
//!   parallel with a concurrent-file limit, interleaved), and data
//!   layout (whole vs partitioned globals).
//! * [`linker`] — the incremental JVM linking model of §3.1:
//!   verification steps keyed to what has arrived, preparation at
//!   global-data arrival, lazy resolution at first execution.
//! * [`sim`] — the event-driven co-simulator: replays a real execution
//!   trace against a transfer engine, stalling at method delimiters that
//!   have not arrived ([`sim::simulate`] / [`sim::Session`]).
//! * [`journal`] — the durable session checkpoint journal: per-class
//!   delivered/verified watermarks plus a CRC'd manifest epoch, with
//!   torn-write detection and the reconnect negotiation that decides
//!   between resume, targeted invalidation, and fail-closed restart.
//! * [`manifest`] — builds the content-addressed unit manifest (the
//!   NSUM codec lives in `nonstrict_wire::manifest`) that the
//!   Byzantine-tolerant transfer layer pins from the origin before any
//!   unit flows: per-unit digests bound to the restructure epoch.
//! * [`fleet`] — the multi-client fleet driver: N sessions behind one
//!   server egress pipe with token-bucket admission, deficit-round-
//!   robin fair sharing, the load-shed ladder, and the exact seventh
//!   `queue_cycles` accounting bucket.
//! * [`chaos`] — the chaos conductor: composed cross-layer fault
//!   scenarios ([`chaos::ChaosScenario`], serialized as `NSCR` repro
//!   artifacts), a crash-anywhere differential engine, a global
//!   invariant checker, and a delta-debugging scenario shrinker.
//! * [`metrics`] — normalized execution time and reduction helpers,
//!   plus the seven-bucket [`metrics::CycleLedger`] exactness check.
//! * [`jit`] — the paper's §8 extension, implemented: JIT compilation
//!   overlapped with transfer versus inline compile-at-first-use.
//! * [`experiment`] — one runner per paper table and figure
//!   (Tables 2–10, Figure 6), with the paper's published numbers for
//!   side-by-side comparison.
//! * [`report`] — paper-style text rendering of every experiment.
//! * [`export`] — CSV export of every experiment for plotting/regression.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod experiment;
pub mod export;
pub mod fleet;
pub mod jit;
pub mod journal;
pub mod linker;
pub mod manifest;
pub mod metrics;
pub mod model;
pub mod report;
pub mod serve;
pub mod sim;

pub use chaos::{
    crash_anywhere, replay_repro, run_scenario, shrink, ChaosReport, ChaosScenario, ChaosViolation,
    DifferentialReport, DiskDims, InterruptDims, OverloadDims, ScenarioError, ShrinkOutcome,
};
pub use fleet::{run_fleet, AdmissionSettings, ClientOutcome, FleetClient, FleetResult, FleetSpec};
pub use journal::{negotiate, JournalError, Negotiation, SessionJournal, SessionManifest};
pub use manifest::build_manifest;
pub use metrics::CycleLedger;
pub use model::{
    ByzantineConfig, DataLayout, ExecutionModel, FaultConfig, OrderingSource, OutageConfig,
    ReplicaConfig, ReplicaKill, SimConfig, TransferPolicy, VerifyMode,
};
pub use serve::{
    build_plan, ordering_from_wire, ordering_to_wire, plan_from_session, verify_payloads,
    ServeError,
};
pub use sim::{
    simulate, FaultSummary, IntegritySummary, InterruptSpec, OutageSummary, ReplicaSummary,
    RunOutcome, Session, SimResult, VERIFY_CYCLES_PER_GLOBAL_BYTE,
};
