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
//! * [`sim`] — the event-driven co-simulator: replays a real execution
//!   trace against a transfer engine, stalling at method delimiters that
//!   have not arrived ([`sim::simulate`] / [`sim::Session`]).
//! * [`journal`] — the durable session checkpoint: per-class
//!   delivered/verified watermarks plus a manifest epoch, persisted as
//!   one record of the store's `NSJL` log, and the reconnect
//!   negotiation that decides between resume, targeted invalidation,
//!   and fail-closed restart.
//! * [`manifest`] — builds the content-addressed unit manifest (the
//!   NSUM codec lives in `nonstrict_wire::manifest`) that the
//!   Byzantine-tolerant transfer layer pins from the origin before any
//!   unit flows: per-unit digests bound to the restructure epoch.
//! * [`fleet`] — the multi-client fleet driver: N sessions behind one
//!   server egress pipe with token-bucket admission, deficit-round-
//!   robin fair sharing, the load-shed ladder, and the exact seventh
//!   accounting bucket, `queue`.
//! * [`chaos`] — the chaos conductor: composed cross-layer fault
//!   scenarios ([`chaos::ChaosScenario`], serialized as `NSCR` repro
//!   artifacts), a crash-anywhere differential engine, a global
//!   invariant checker, and a delta-debugging scenario shrinker.
//! * [`metrics`] — normalized execution time and reduction helpers,
//!   plus the eight-bucket [`metrics::CycleLedger`] exactness check.
//! * [`jit`] — the paper's §8 extension, implemented: JIT compilation
//!   overlapped with transfer versus inline compile-at-first-use.
//! * [`experiment`] — one runner per paper table and figure
//!   (Tables 2–10, Figure 6), with the paper's published numbers for
//!   side-by-side comparison.
//! * [`table`] — the one table value every result is declared as, with
//!   its two renderers: aligned text and CSV.
//! * [`report`] — every paper table, the headline summary and the
//!   robustness sweeps, each declared once as a [`table::Table`].
//! * [`export`] — CSV export of every result for plotting/regression.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod experiment;
pub mod export;
pub mod fleet;
pub mod jit;
pub mod journal;
pub mod manifest;
pub mod metrics;
pub mod model;
pub mod report;
pub mod serve;
pub mod sim;
pub mod table;

pub use chaos::{
    crash_anywhere, replay_repro, run_scenario, shrink, ChaosReport, ChaosScenario, ChaosViolation,
    DifferentialReport, DiskDims, OverloadDims, ScenarioError, ShrinkOutcome,
};
pub use fleet::{run_fleet, AdmissionSettings, ClientOutcome, FleetClient, FleetResult, FleetSpec};
pub use journal::{negotiate, Negotiation, SessionJournal, SessionManifest};
pub use manifest::build_manifest;
pub use metrics::CycleLedger;
pub use model::{
    DataLayout, ExecutionModel, OrderingSource, ReplicaConfig, ReplicaKill, SimConfig,
    TransferPolicy, VerifyMode,
};
pub use serve::{
    build_plan, ordering_from_wire, ordering_to_wire, plan_from_session, verify_payloads,
    ServeError,
};
pub use sim::{
    simulate, InterruptSpec, OutageSummary, RunOutcome, Session, SimResult,
    VERIFY_CYCLES_PER_GLOBAL_BYTE,
};
