//! The bridge between the simulator's content model and the real wire.
//!
//! `nonstrict-wire` deliberately knows nothing about class files,
//! benchmarks, or journals — it streams opaque unit bytes and
//! negotiates opaque watermarks. This module supplies the content side:
//!
//! * [`build_plan`] turns a benchmark into a [`ServePlan`]: compute the
//!   one ordering it serves (the profile orderings run the program once,
//!   on their own input; the static ones run nothing), restructure by
//!   it, then split every restructured class file into its **actual**
//!   non-strict transfer units
//!   (`nonstrict_classfile::stream_units` — prelude bytes first, then
//!   one delimiter-closed unit per method), with per-class epochs
//!   derived from the real unit digests and the NSUM manifest frame
//!   attached for clients to pin.
//! * [`verify_payloads`] feeds delivered unit bytes back through the
//!   class-file [`StreamLoader`] — the same verified-prefix validation
//!   a live non-strict JVM applies — which is what the wire-level
//!   crash-anywhere differential uses to show that an interrupted,
//!   resumed session verifies identically to an uninterrupted one.

use nonstrict_bytecode::InterpError;
use nonstrict_classfile::stream::{stream_digests, stream_units};
use nonstrict_classfile::{ClassFileError, StreamLoader};
use nonstrict_netsim::crc32;
use nonstrict_profile::collect;
use nonstrict_reorder::{restructure, static_first_use, RestructuredApp};
use nonstrict_wire::{ClassPlan, ServePlan, UnitManifest};

use crate::journal::SessionManifest;
use crate::model::OrderingSource;
use crate::sim::{first_use_order, Session};

/// Why a serve plan could not be built.
#[derive(Debug)]
pub enum ServeError {
    /// The benchmark name is not one of the six workloads.
    UnknownBenchmark(String),
    /// Profiling the workload failed.
    Interp(InterpError),
    /// Serializing a restructured class failed.
    ClassFile(ClassFileError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownBenchmark(name) => {
                write!(
                    f,
                    "unknown benchmark {name:?}; use bit|hanoi|javacup|jess|jhlzip|testdes"
                )
            }
            ServeError::Interp(e) => write!(f, "profiling failed: {e}"),
            ServeError::ClassFile(e) => write!(f, "class serialization failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<InterpError> for ServeError {
    fn from(e: InterpError) -> Self {
        ServeError::Interp(e)
    }
}

impl From<ClassFileError> for ServeError {
    fn from(e: ClassFileError) -> Self {
        ServeError::ClassFile(e)
    }
}

/// Maps a wire ordering code (see `nonstrict_wire::config::ORDERINGS`)
/// to the simulator's [`OrderingSource`].
#[must_use]
pub fn ordering_from_wire(code: u8) -> Option<OrderingSource> {
    match code {
        0 => Some(OrderingSource::StaticCallGraph),
        1 => Some(OrderingSource::TrainProfile),
        2 => Some(OrderingSource::TestProfile),
        3 => Some(OrderingSource::SourceOrder),
        _ => None,
    }
}

/// Maps an [`OrderingSource`] to its wire code.
#[must_use]
pub fn ordering_to_wire(source: OrderingSource) -> u8 {
    match source {
        OrderingSource::StaticCallGraph => 0,
        OrderingSource::TrainProfile => 1,
        OrderingSource::TestProfile => 2,
        OrderingSource::SourceOrder => 3,
    }
}

/// Builds the serve plan for `benchmark` under `ordering`: the complete
/// pipeline from workload to wire-ready bytes. Only `ordering` is
/// computed, so the plan equals [`plan_from_session`]'s for the same
/// benchmark without profiling both inputs or restructuring four times.
///
/// # Errors
///
/// [`ServeError::UnknownBenchmark`] for names outside the six
/// workloads; profiling and serialization failures otherwise.
pub fn build_plan(benchmark: &str, ordering: OrderingSource) -> Result<ServePlan, ServeError> {
    let app = nonstrict_workloads::build_by_name(benchmark)
        .ok_or_else(|| ServeError::UnknownBenchmark(benchmark.to_owned()))?;
    let run = ordering
        .profile_input()
        .map(|input| collect(&app, input))
        .transpose()?;
    let order = first_use_order(
        &app.program,
        ordering,
        &static_first_use(&app.program),
        run.as_ref().map(|r| &r.profile),
    );
    plan_from_restructured(&restructure(&app, &order), benchmark).map_err(ServeError::from)
}

/// [`build_plan`] for an already-profiled [`Session`] (the differential
/// tests reuse one session across many plans).
///
/// # Errors
///
/// Propagates serialization failures from the restructured classes.
pub fn plan_from_session(
    session: &Session,
    benchmark: &str,
    ordering: OrderingSource,
) -> Result<ServePlan, ClassFileError> {
    plan_from_restructured(session.restructured(ordering), benchmark)
}

/// Splits every class of `restructured` into its stream units and pins
/// them in a fresh plan for `benchmark`.
fn plan_from_restructured(
    restructured: &RestructuredApp,
    benchmark: &str,
) -> Result<ServePlan, ClassFileError> {
    let mut payloads = Vec::with_capacity(restructured.classes.len());
    let mut class_epochs = Vec::with_capacity(restructured.classes.len());
    let mut method_counts = Vec::with_capacity(restructured.classes.len());
    for class in &restructured.classes {
        payloads.push(stream_units(class)?);
        let digests = stream_digests(class)?;
        // Per-class layout epoch: a CRC over the real unit digests, so
        // any byte change in any unit moves the epoch and invalidates
        // resume watermarks recorded under the old layout.
        let mut digest_bytes = Vec::with_capacity(8 * digests.len());
        for d in &digests {
            digest_bytes.extend_from_slice(&d.to_le_bytes());
        }
        class_epochs.push(crc32(&digest_bytes));
        method_counts.push(class.methods.len());
    }
    let session = SessionManifest::new(class_epochs, method_counts);
    let manifest_epoch = session.epoch;
    // The wire manifest digests the units' actual bytes (not their
    // sizes, as the co-simulator's size-granular model does): the
    // client verifies every delivered unit's content against this
    // pinned table, so a mirror serving same-size wrong bytes is
    // caught at the first divergent unit.
    let manifest = UnitManifest::from_payloads(&payloads, manifest_epoch).encode();
    let classes = session
        .class_epochs
        .into_iter()
        .zip(payloads)
        .map(|(epoch, units)| ClassPlan { epoch, units })
        .collect();
    Ok(ServePlan {
        benchmark: benchmark.to_ascii_lowercase(),
        // Fresh plans start at generation 0; the fleet supervisor
        // stamps the live generation on every restart and rollover.
        generation: 0,
        manifest_epoch,
        manifest,
        classes,
    })
}

/// Feeds delivered per-class unit payloads back through the class-file
/// [`StreamLoader`] — the verified-prefix validation a non-strict JVM
/// performs on arrival — and checks every class reassembles completely.
/// Returns the total number of methods verified.
///
/// # Errors
///
/// A description of the first class that fails validation or arrives
/// incomplete.
pub fn verify_payloads(payloads: &[Vec<Vec<u8>>]) -> Result<usize, String> {
    let mut methods = 0usize;
    for (ci, units) in payloads.iter().enumerate() {
        let mut loader = StreamLoader::new();
        for unit in units {
            loader
                .feed(unit)
                .map_err(|e| format!("class {ci}: stream validation failed: {e}"))?;
        }
        if !loader.is_complete() {
            return Err(format!(
                "class {ci}: incomplete after {} units ({} methods)",
                units.len(),
                loader.methods_received()
            ));
        }
        methods += loader.methods_received();
        loader
            .finish()
            .map_err(|e| format!("class {ci}: reassembly failed: {e}"))?;
    }
    Ok(methods)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_codes_round_trip() {
        for source in [
            OrderingSource::StaticCallGraph,
            OrderingSource::TrainProfile,
            OrderingSource::TestProfile,
            OrderingSource::SourceOrder,
        ] {
            assert_eq!(ordering_from_wire(ordering_to_wire(source)), Some(source));
        }
        assert_eq!(ordering_from_wire(99), None);
    }

    #[test]
    fn plan_serves_real_units_that_reassemble() {
        let plan = build_plan("hanoi", OrderingSource::StaticCallGraph).unwrap();
        assert!(!plan.classes.is_empty());
        assert!(plan.total_units() > plan.classes.len(), "methods stream");
        // Every class's units reassemble through the stream loader.
        let payloads: Vec<Vec<Vec<u8>>> = plan.classes.iter().map(|c| c.units.clone()).collect();
        let methods = verify_payloads(&payloads).unwrap();
        assert!(methods > 0);
        // The manifest frame decodes and matches the served layout.
        let manifest = UnitManifest::decode(&plan.manifest).unwrap();
        assert_eq!(manifest.epoch, plan.manifest_epoch);
        assert_eq!(manifest.unit_digests.len(), plan.classes.len());
    }

    #[test]
    fn unknown_benchmark_is_a_typed_error() {
        assert!(matches!(
            build_plan("fortran", OrderingSource::StaticCallGraph),
            Err(ServeError::UnknownBenchmark(_))
        ));
    }

    /// `build_plan` computes only the ordering it serves, yet serves
    /// exactly the plan of a fully prepared [`Session`], for every
    /// benchmark and ordering.
    #[test]
    fn build_plan_equals_the_session_plan_everywhere() {
        for app in nonstrict_workloads::build_all() {
            let name = app.name.to_ascii_lowercase();
            let session = Session::new(app).unwrap();
            for ordering in [
                OrderingSource::SourceOrder,
                OrderingSource::StaticCallGraph,
                OrderingSource::TrainProfile,
                OrderingSource::TestProfile,
            ] {
                assert_eq!(
                    build_plan(&name, ordering).unwrap(),
                    plan_from_session(&session, &name, ordering).unwrap(),
                    "{name} {ordering:?}"
                );
            }
        }
    }

    #[test]
    fn orderings_move_epochs_when_layouts_differ() {
        let app = nonstrict_workloads::build_by_name("hanoi").unwrap();
        let session = Session::new(app).unwrap();
        let source = plan_from_session(&session, "hanoi", OrderingSource::SourceOrder).unwrap();
        let scg = plan_from_session(&session, "hanoi", OrderingSource::StaticCallGraph).unwrap();
        // Restructuring permutes methods; any class whose order moved
        // must carry a moved epoch.
        let moved = source
            .classes
            .iter()
            .zip(&scg.classes)
            .filter(|(a, b)| a.units != b.units)
            .count();
        let epochs_moved = source
            .classes
            .iter()
            .zip(&scg.classes)
            .filter(|(a, b)| a.epoch != b.epoch)
            .count();
        assert_eq!(moved, epochs_moved);
    }
}
