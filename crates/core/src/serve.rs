//! The bridge between the simulator's content model and the real wire.
//!
//! `nonstrict-wire` deliberately knows nothing about class files,
//! benchmarks, or journals — it streams opaque unit bytes and
//! negotiates opaque watermarks. This module supplies the content side:
//!
//! * [`build_plan`] turns a benchmark into a [`ServePlan`]: profile,
//!   order, restructure, then split every restructured class file into
//!   its **actual** non-strict transfer units
//!   (`nonstrict_classfile::stream_units` — prelude bytes first, then
//!   one delimiter-closed unit per method), with per-class epochs
//!   derived from the real unit digests and the NSUM manifest frame
//!   attached for clients to pin.
//! * [`resume_entries_from_journal`] and [`journal_from_report`]
//!   convert between the NSJR session journal and the compact
//!   watermarks the wire's Hello frame carries, so an evicted client's
//!   resume offer is exactly what its journal proves it holds.
//! * [`verify_payloads`] feeds delivered unit bytes back through the
//!   class-file [`StreamLoader`] — the same verified-prefix validation
//!   a live non-strict JVM applies — which is what the wire-level
//!   crash-anywhere differential uses to show that an interrupted,
//!   resumed session verifies identically to an uninterrupted one.

use nonstrict_bytecode::InterpError;
use nonstrict_classfile::stream::{stream_digests, stream_units};
use nonstrict_classfile::{ClassFileError, StreamLoader};
use nonstrict_netsim::crc32;
use nonstrict_wire::{content_digest_of, ClassPlan, ResumeEntry, ServePlan, UnitManifest};

use crate::journal::{ClassCheckpoint, SessionJournal, SessionManifest};
use crate::model::OrderingSource;
use crate::sim::Session;

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
/// pipeline from workload to wire-ready bytes.
///
/// # Errors
///
/// [`ServeError::UnknownBenchmark`] for names outside the six
/// workloads; profiling and serialization failures otherwise.
pub fn build_plan(benchmark: &str, ordering: OrderingSource) -> Result<ServePlan, ServeError> {
    let app = nonstrict_workloads::build_by_name(benchmark)
        .ok_or_else(|| ServeError::UnknownBenchmark(benchmark.to_owned()))?;
    let session = Session::new(app)?;
    plan_from_session(&session, benchmark, ordering).map_err(ServeError::from)
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
    let restructured = session.restructured(ordering);
    let mut classes = Vec::with_capacity(restructured.classes.len());
    let mut class_epochs = Vec::with_capacity(restructured.classes.len());
    let mut method_counts = Vec::with_capacity(restructured.classes.len());
    for class in &restructured.classes {
        let units = stream_units(class)?;
        let digests = stream_digests(class)?;
        // Per-class layout epoch: a CRC over the real unit digests, so
        // any byte change in any unit moves the epoch and invalidates
        // resume watermarks recorded under the old layout.
        let mut digest_bytes = Vec::with_capacity(8 * digests.len());
        for d in &digests {
            digest_bytes.extend_from_slice(&d.to_le_bytes());
        }
        let epoch = crc32(&digest_bytes);
        class_epochs.push(epoch);
        method_counts.push(class.methods.len());
        classes.push(ClassPlan { epoch, units });
    }
    let manifest_epoch = SessionManifest::new(class_epochs, method_counts).epoch;
    // The wire manifest digests the units' actual bytes (not their
    // sizes, as the co-simulator's size-granular model does): the
    // client verifies every delivered unit's content against this
    // pinned table, so a mirror serving same-size wrong bytes is
    // caught at the first divergent unit.
    let unit_digests = classes
        .iter()
        .enumerate()
        .map(|(ci, class)| {
            let ci = u32::try_from(ci).expect("class index fits u32");
            class
                .units
                .iter()
                .enumerate()
                .map(|(ui, payload)| {
                    let ui = u32::try_from(ui).expect("unit index fits u32");
                    content_digest_of(manifest_epoch, ci, ui, payload)
                })
                .collect()
        })
        .collect();
    let manifest = UnitManifest {
        epoch: manifest_epoch,
        unit_digests,
    }
    .encode();
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

/// Extracts the wire resume watermarks an NSJR journal proves: one
/// entry per class with a nonzero delivered count. A journal that fails
/// to decode yields no watermarks — the fail-closed reading — so the
/// session restarts fresh rather than resuming from untrusted state.
#[must_use]
pub fn resume_entries_from_journal(bytes: &[u8]) -> Vec<ResumeEntry> {
    let Ok(journal) = SessionJournal::decode(bytes) else {
        return Vec::new();
    };
    journal
        .classes
        .iter()
        .enumerate()
        .filter(|(_, cp)| cp.delivered > 0)
        .map(|(ci, cp)| ResumeEntry {
            class: u32::try_from(ci).unwrap_or(u32::MAX),
            epoch: cp.epoch,
            delivered: cp.delivered,
        })
        .collect()
}

/// Builds the NSJR journal a wire client checkpoints: per-class epochs
/// and delivered watermarks from the session report, everything else
/// pristine. Encoding this and handing it to
/// [`resume_entries_from_journal`] round-trips exactly the watermarks
/// the report held — the persistence path an evicted client uses
/// between connections.
#[must_use]
pub fn journal_from_report(report: &nonstrict_wire::ClientReport) -> SessionJournal {
    let classes = report
        .delivered
        .iter()
        .zip(&report.epochs)
        .zip(&report.units)
        .map(|((&delivered, &epoch), &units)| {
            // Unit 0 is the prelude, so a class with U units has U-1
            // methods.
            let methods = units.saturating_sub(1) as usize;
            let mut cp = ClassCheckpoint::fresh(epoch, methods);
            cp.delivered = delivered;
            cp
        })
        .collect();
    SessionJournal {
        manifest_epoch: report.manifest_epoch,
        manifest_digest: report.manifest_crc,
        next_event: 0,
        clock: 0,
        exec_cycles: 0,
        stall_cycles: 0,
        recovery_cycles: 0,
        verify_cycles: 0,
        resume_cycles: 0,
        hedge_cycles: 0,
        integrity_cycles: 0,
        stalls: 0,
        outages: 0,
        resumes: report.evictions + report.stream_faults,
        refetched_classes: 0,
        invocation_latency: None,
        session_degraded: false,
        classes,
        fetch_log: Vec::new(),
    }
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

    #[test]
    fn journal_round_trips_wire_watermarks() {
        let report = nonstrict_wire::ClientReport {
            delivered: vec![3, 0, 5],
            units: vec![4, 2, 5],
            epochs: vec![0xaaaa, 0xbbbb, 0xcccc],
            manifest_epoch: 0x1234_5678,
            manifest_crc: 0x9abc_def0,
            ..Default::default()
        };
        let journal = journal_from_report(&report);
        let entries = resume_entries_from_journal(&journal.encode());
        assert_eq!(
            entries,
            vec![
                ResumeEntry {
                    class: 0,
                    epoch: 0xaaaa,
                    delivered: 3
                },
                ResumeEntry {
                    class: 2,
                    epoch: 0xcccc,
                    delivered: 5
                },
            ]
        );
        // A torn journal yields no watermarks: fail closed to fresh.
        let mut torn = journal.encode();
        torn.truncate(torn.len() / 2);
        assert!(resume_entries_from_journal(&torn).is_empty());
    }
}
