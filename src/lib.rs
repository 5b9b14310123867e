//! # nonstrict
//!
//! Non-strict execution for mobile programs: overlap program execution
//! with network transfer, a from-scratch Rust reproduction of
//!
//! > Chandra Krintz, Brad Calder, Han Bok Lee, Benjamin G. Zorn.
//! > *Overlapping Execution with Transfer Using Non-Strict Execution for
//! > Mobile Programs.* ASPLOS-VIII, 1998.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`classfile`] — JVM class-file substrate with exact wire sizes
//! * [`bytecode`] — instruction set, control-flow graphs, interpreter
//! * [`profile`] — execution traces and first-use profiling
//! * [`workloads`] — the six ASPLOS '98 benchmarks rebuilt as bytecode
//! * [`reorder`] — first-use reordering, restructuring, data partitioning
//! * [`netsim`] — links, transfer schedules, parallel/interleaved engines
//! * [`core`] — the non-strict co-simulator, metrics, and experiments
//!
//! ## Quickstart
//!
//! ```
//! use nonstrict::prelude::*;
//!
//! // Build a benchmark, reorder it by static first-use estimation, and
//! // simulate non-strict interleaved transfer over a modem link.
//! let app = nonstrict::workloads::hanoi::build();
//! let config = SimConfig {
//!     transfer: TransferPolicy::Interleaved,
//!     ..SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
//! };
//! let result = simulate(&app, Input::Test, &config).unwrap();
//! let strict = simulate(&app, Input::Test, &SimConfig::strict(Link::MODEM_28_8)).unwrap();
//! assert!(result.total_cycles < strict.total_cycles);
//! ```

pub use nonstrict_bytecode as bytecode;
pub use nonstrict_classfile as classfile;
pub use nonstrict_core as core;
pub use nonstrict_netsim as netsim;
pub use nonstrict_profile as profile;
pub use nonstrict_reorder as reorder;
pub use nonstrict_workloads as workloads;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use nonstrict_bytecode::program::{Application, Input};
    pub use nonstrict_core::chaos::{
        crash_anywhere, replay_repro, run_scenario, shrink, ChaosReport, ChaosScenario,
        ChaosViolation, DifferentialReport, OverloadDims, ScenarioError, ShrinkOutcome,
    };
    pub use nonstrict_core::fleet::{
        run_fleet, AdmissionSettings, ClientOutcome, FleetClient, FleetResult, FleetSpec,
    };
    pub use nonstrict_core::metrics::{normalized_percent, CycleLedger};
    pub use nonstrict_core::model::{
        DataLayout, ExecutionModel, OrderingSource, ReplicaConfig, ReplicaKill, SimConfig,
        TransferPolicy, VerifyMode,
    };
    pub use nonstrict_core::sim::{
        simulate, InterruptSpec, OutageSummary, RunOutcome, Session, SimResult,
    };
    pub use nonstrict_netsim::byzantine::{ByzantineMode, ByzantinePlan, IntegrityStats};
    pub use nonstrict_netsim::contention::{drr_schedule, ClientDemand, ShedAction, ShedLadder};
    pub use nonstrict_netsim::faults::FaultPlan;
    pub use nonstrict_netsim::link::Link;
    pub use nonstrict_netsim::outage::OutagePlan;
}
