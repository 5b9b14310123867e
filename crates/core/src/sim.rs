//! The co-simulator: execution replay against a transfer engine.
//!
//! A real execution trace (from the interpreter) is replayed at the
//! per-program CPI; every `Enter` event is a potential stall point where
//! the paper's non-strict JVM checks for the method's delimiter. The
//! transfer side is a fluid engine ([`nonstrict_netsim`]); both sides
//! share one cycle clock, giving exactly the paper's "overlap execution
//! with transfer" accounting, including demand fetches on misprediction
//! and transfer termination when execution finishes first.

use nonstrict_bytecode::{method_verify_cost, Application, Input, InterpError, Program};
use nonstrict_netsim::{
    add_checksum_overhead, class_units, crc32, greedy_schedule, ClassUnits, FaultLayer, FaultStats,
    IntegrityStats, InterleavedEngine, Link, OutageSchedule, ParallelEngine, ReplicaSet,
    ReplicaStats, StrictEngine, Surcharge, TransferEngine, Weights, DELIMITER_BYTES,
    DIGEST_CHECK_CYCLES,
};
use nonstrict_profile::{collect, Collected, FirstUseProfile, TraceEvent};
use nonstrict_reorder::{
    partition_app, restructure, static_first_use, ClassPartition, FirstUseOrder, RestructuredApp,
};
use nonstrict_store::JournalLog;
use nonstrict_wire::UnitManifest;

use crate::journal::{
    negotiate, ClassCheckpoint, FetchRecord, Negotiation, SessionJournal, SessionManifest,
};
use crate::manifest::build_manifest;
use crate::metrics::CycleLedger;
use crate::model::{
    DataLayout, ExecutionModel, OrderingSource, SimConfig, TransferPolicy, VerifyMode,
};

/// Per-byte cycle charge for verification steps 1–2: structural checks
/// and constant-pool cross-references over a class's global data, run
/// once when the prelude (global data) finishes arriving.
pub const VERIFY_CYCLES_PER_GLOBAL_BYTE: u64 = 2;

/// The outcome of one simulated remote execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimResult {
    /// Total cycles from transfer initiation to program completion
    /// (remaining transfer is terminated, as in the paper), formed from
    /// the replay clock independently of the ledger.
    pub total_cycles: u64,
    /// Where every cycle of `total_cycles` went: the eight exact
    /// accounting buckets.
    pub ledger: CycleLedger,
    /// Invocation latency: cycles until the entry method could begin
    /// (Table 4).
    pub invocation_latency: u64,
    /// Number of stall events.
    pub stalls: u32,
    /// Incremental-linking event counts (§3.1).
    pub link_stats: LinkStats,
    /// Fault-protocol counters of the transfer engine (all zero on a
    /// perfect link). A non-zero `forced` count means the retry cap did
    /// real work — worth a warning in any report.
    pub faults: FaultStats,
    /// Classes demoted from non-strict streaming to strict demand-fetch
    /// by degradation pressure.
    pub degraded_classes: u32,
    /// Whether the whole session fell back to strict execution.
    pub session_degraded: bool,
    /// Whether execution ran to completion (always true: the retry cap
    /// bounds every delivery, so no run can livelock).
    pub completed: bool,
    /// Outage-and-resume counts.
    pub outage: OutageSummary,
    /// Replica-set routing, hedging, and failover counters (all zero
    /// when replica routing is inactive).
    pub replica: ReplicaStats,
    /// Manifest-integrity counters (all zero when no Byzantine
    /// protection is armed). `manifest_pins` includes the initial
    /// origin pin and any reconnect re-pin.
    pub integrity: IntegrityStats,
}

/// Incremental-linking counts of one run (§3.1). Linking performs
/// verification, preparation and resolution; a non-strict JVM splits
/// them across arrival events: steps 1–2 and preparation when a class's
/// global data arrives, step 3 as each method arrives, step 4 and lazy
/// resolution at each method's first execution. The paper charges no
/// cycles for these steps, so the replay only records them, in its
/// checkpoint's linker bitmaps, and the counts are read off those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Classes whose global data was verified (steps 1–2).
    pub classes_verified: usize,
    /// Methods verified on arrival (step 3).
    pub methods_verified: usize,
    /// Methods resolved at first execution (step 4 + lazy resolution).
    pub methods_resolved: usize,
}

impl LinkStats {
    /// Counts the linker bits set in `classes`.
    fn of(classes: &[ClassCheckpoint]) -> LinkStats {
        let set = |bits: &[bool]| bits.iter().filter(|&&b| b).count();
        LinkStats {
            classes_verified: classes.iter().filter(|cp| cp.linker_globals).count(),
            methods_verified: classes.iter().map(|cp| set(&cp.linker_verified)).sum(),
            methods_resolved: classes.iter().map(|cp| set(&cp.linker_resolved)).sum(),
        }
    }
}

/// Outage-and-resume counts of one run: full connection losses
/// survived and journal-backed resumes performed. The cycles they cost
/// are the ledger's `resume` bucket. All-zero when nothing interrupted
/// the run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OutageSummary {
    /// Full connection losses the session survived.
    pub outages: u32,
    /// Journal-backed resumes performed.
    pub resumes: u32,
    /// Classes invalidated and refetched after a manifest-epoch
    /// mismatch (targeted invalidation, not a full restart).
    pub refetched_classes: u32,
    /// Whether an unreadable journal forced the fail-closed path: the
    /// cache was discarded and the session restarted under strict
    /// execution.
    pub failed_closed: bool,
}

/// Where to kill a run and how long the client stays down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct InterruptSpec {
    /// Base-timeline cycle at which the connection and client die
    /// together; the run checkpoints at the first trace-event boundary
    /// at or past it.
    pub at_cycle: u64,
    /// Cycles the client stays down before reconnecting, charged to the
    /// resume bucket on top of whatever the negotiation finds.
    pub outage_cycles: u64,
}

/// What [`Session::run_until`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The run completed before the interrupt point. Boxed: a full
    /// [`SimResult`] dwarfs the checkpoint variant.
    Finished(Box<SimResult>),
    /// The run was killed; the [`SessionJournal`] is the checkpoint the
    /// client persists (as one record of a [`JournalLog`]) to resume
    /// from.
    Interrupted(SessionJournal),
}

/// Everything a replay reads besides its state, bundled so the replay
/// signature stays readable.
#[derive(Clone, Copy)]
struct ReplayEnv<'a> {
    config: &'a SimConfig,
    units: &'a [ClassUnits],
    /// The unit manifest the client pins, built once per run; `None`
    /// when no byzantine plan is armed.
    manifest: Option<&'a UnitManifest>,
    /// Kill the run at the first trace-event boundary at or past this
    /// base cycle (if the run lasts that long).
    stop_at: Option<u64>,
    /// Manifest re-pins the reconnect negotiation performed; the
    /// checkpoint record does not carry them.
    repins: u32,
}

impl RunOutcome {
    /// The result of a replay that has no interrupt point.
    fn finished(self) -> SimResult {
        match self {
            RunOutcome::Finished(r) => *r,
            RunOutcome::Interrupted(_) => {
                unreachable!("a replay with no interrupt point always finishes")
            }
        }
    }
}

/// Applies a config's ambient outages to a base-timeline result: the
/// closed-form baseline's, or a finished replay's. An outage freezes the
/// client and the link together, so the base timeline is undisturbed:
/// wall time is base time plus the downtime of every outage that began
/// before it, and each crossed outage is one journal-backed resume.
/// Returns the downtime, the wall-clock invocation latency, and the
/// outage counts.
fn ambient_shift(
    config: &SimConfig,
    base_total: u64,
    base_latency: u64,
) -> (u64, u64, OutageSummary) {
    let Some(oc) = config.active_outages() else {
        return (0, base_latency, OutageSummary::default());
    };
    let mut sched = OutageSchedule::new(oc);
    let shift = sched.shift_before(base_total);
    let n = sched.outages_before(base_total);
    let outage = OutageSummary {
        outages: n,
        resumes: n,
        ..OutageSummary::default()
    };
    (shift, sched.remap(base_latency), outage)
}

/// What pinning `manifest` costs: its wire transfer on `link` plus one
/// frame verification.
fn pin_cost(link: Link, manifest: &UnitManifest) -> u64 {
    link.cycles_for(manifest.wire_bytes()) + DIGEST_CHECK_CYCLES
}

/// The first-use ordering `source` of `program`. `scg` is the static
/// call-graph order, which the profile orderings also use to place the
/// methods their run never reached; `profile` is the first-use profile
/// of the run on [`OrderingSource::profile_input`], read only by those
/// orderings.
///
/// # Panics
///
/// If `source` is a profile ordering and `profile` is `None`.
pub(crate) fn first_use_order(
    program: &Program,
    source: OrderingSource,
    scg: &FirstUseOrder,
    profile: Option<&FirstUseProfile>,
) -> FirstUseOrder {
    match source {
        OrderingSource::SourceOrder => FirstUseOrder::source_order(program),
        OrderingSource::StaticCallGraph => scg.clone(),
        OrderingSource::TrainProfile | OrderingSource::TestProfile => FirstUseOrder::from_profile(
            program,
            profile.expect("a profile ordering is built from its run"),
            scg,
        ),
    }
}

/// A prepared benchmark: traces collected on both inputs, orderings and
/// partitions computed once, ready to simulate any [`SimConfig`]
/// cheaply.
///
/// ```
/// use nonstrict_core::{OrderingSource, Session, SimConfig};
/// use nonstrict_netsim::Link;
/// use nonstrict_bytecode::Input;
///
/// # fn main() -> Result<(), nonstrict_bytecode::InterpError> {
/// let session = Session::new(nonstrict_workloads::hanoi::build())?;
/// let strict = session.simulate(Input::Test, &SimConfig::strict(Link::MODEM_28_8));
/// let ns = session.simulate(
///     Input::Test,
///     &SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph),
/// );
/// assert!(ns.invocation_latency < strict.invocation_latency);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    /// The application under test.
    pub app: Application,
    /// Instrumented Test-input run.
    pub test: Collected,
    /// Instrumented Train-input run.
    pub train: Collected,
    orders: [FirstUseOrder; 4],
    restructured: [RestructuredApp; 4],
    partitions: Vec<ClassPartition>,
}

/// The orderings a [`Session`] holds, in slot order.
const ORDER_SLOTS: [OrderingSource; 4] = [
    OrderingSource::SourceOrder,
    OrderingSource::StaticCallGraph,
    OrderingSource::TrainProfile,
    OrderingSource::TestProfile,
];

fn order_slot(source: OrderingSource) -> usize {
    ORDER_SLOTS
        .iter()
        .position(|&s| s == source)
        .expect("every ordering has a slot")
}

impl Session {
    /// Runs both inputs under instrumentation and precomputes orderings,
    /// layouts, and partitions.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults from the profiling runs.
    pub fn new(app: Application) -> Result<Self, InterpError> {
        let test = collect(&app, Input::Test)?;
        let train = collect(&app, Input::Train)?;
        let scg = static_first_use(&app.program);
        let orders = ORDER_SLOTS.map(|source| {
            let profile = source.profile_input().map(|input| match input {
                Input::Test => &test.profile,
                Input::Train => &train.profile,
            });
            first_use_order(&app.program, source, &scg, profile)
        });
        let restructured = orders.each_ref().map(|order| restructure(&app, order));
        let partitions = partition_app(&app);
        Ok(Session {
            app,
            test,
            train,
            orders,
            restructured,
            partitions,
        })
    }

    /// The first-use ordering for `source`.
    #[must_use]
    pub fn order(&self, source: OrderingSource) -> &FirstUseOrder {
        &self.orders[order_slot(source)]
    }

    /// The restructured layout for `source`.
    #[must_use]
    pub fn restructured(&self, source: OrderingSource) -> &RestructuredApp {
        &self.restructured[order_slot(source)]
    }

    /// The per-class global-data partitions.
    #[must_use]
    pub fn partitions(&self) -> &[ClassPartition] {
        &self.partitions
    }

    /// Transfer units for one configuration.
    #[must_use]
    pub fn units_for(&self, config: &SimConfig) -> Vec<ClassUnits> {
        let delim = match config.execution {
            ExecutionModel::NonStrict => DELIMITER_BYTES,
            ExecutionModel::Strict => 0,
        };
        let parts = match config.data_layout {
            DataLayout::Whole => None,
            DataLayout::Partitioned => Some(self.partitions.as_slice()),
        };
        let mut units = class_units(&self.app, self.restructured(config.ordering), parts, delim);
        if config.active_faults().is_some() {
            // The resilient protocol CRC32-stamps every non-empty unit so
            // corruption is detectable; the trailer bytes ride the wire.
            add_checksum_overhead(&mut units);
        }
        units
    }

    /// Pure execution cycles on `input`.
    #[must_use]
    pub fn exec_cycles(&self, input: Input) -> u64 {
        self.collected(input).trace.total_instructions() * self.app.cpi
    }

    /// Cycles to verify class `c`'s global data (steps 1–2).
    fn global_verify_cost(&self, c: usize) -> u64 {
        u64::from(self.app.classes[c].global_data_size()) * VERIFY_CYCLES_PER_GLOBAL_BYTE
    }

    /// Cycles to verify one method of class `c` (steps 3–4).
    fn method_verify_cost_at(&self, c: usize, m: usize) -> u64 {
        method_verify_cost(&self.app.program.classes()[c].methods[m])
    }

    /// Cycles to verify class `c` in full: global data plus every
    /// method. Charged on whole-file verification and on the full-file
    /// re-verify a degradation demotion forces.
    fn class_verify_cost(&self, c: usize) -> u64 {
        let methods: u64 = self.app.program.classes()[c]
            .methods
            .iter()
            .map(method_verify_cost)
            .sum();
        self.global_verify_cost(c) + methods
    }

    /// Cycles to verify the whole application, as the strict baseline
    /// must before running.
    fn full_verify_cost(&self) -> u64 {
        (0..self.app.classes.len())
            .map(|c| self.class_verify_cost(c))
            .sum()
    }

    /// The instrumented run for `input`.
    #[must_use]
    pub fn collected(&self, input: Input) -> &Collected {
        match input {
            Input::Test => &self.test,
            Input::Train => &self.train,
        }
    }

    /// Simulates one configuration on `input`.
    #[must_use]
    pub fn simulate(&self, input: Input, config: &SimConfig) -> SimResult {
        if !config.is_baseline() {
            return self.replay_fresh(input, config, None).finished();
        }
        // The paper's base case: one class at a time in source order,
        // execution strictly after transfer — total is the exact sum
        // (Table 3). When verification is on, every class is verified in
        // full as it loads, before execution.
        let units = self.units_for(config);
        let exec_cycles = self.exec_cycles(input);
        let entry_class = self.app.program.entry().class.0 as usize;
        let (verify_cycles, entry_verify) = match config.verify {
            VerifyMode::Off => (0, 0),
            VerifyMode::Stream | VerifyMode::Full => {
                (self.full_verify_cost(), self.class_verify_cost(entry_class))
            }
        };
        let class_order: Vec<usize> = (0..units.len()).collect();
        let mut strict = StrictEngine::new(config.link, &units, &class_order);
        let perfect_finish = strict.finish_time();
        // Under faults the same transfer runs through the fault layer:
        // everything beyond the perfect-link finish is recovery time.
        // The strict baseline downloads from the primary mirror, whose
        // seed and link are exactly the session's — replica routing
        // never perturbs it, and with no mirror choice there is nothing
        // for a byzantine plan to subvert.
        let mut engine = FaultLayer::new(
            Box::new(strict),
            &units,
            config.link,
            config.active_faults(),
            None,
        );
        let entry_unit = units[entry_class].unit_count() - 1;
        let base_latency = engine.unit_ready(entry_class, entry_unit, 0) + entry_verify;
        let finish = engine.finish_time();
        let base_total = finish + verify_cycles + exec_cycles;
        let (resume, invocation_latency, outage) = ambient_shift(config, base_total, base_latency);
        let mut ledger = CycleLedger {
            exec: exec_cycles,
            verify: verify_cycles,
            resume,
            ..CycleLedger::default()
        };
        ledger.charge_stall(
            finish,
            Surcharge {
                recovery: finish - perfect_finish,
                ..Surcharge::default()
            },
        );
        let total_cycles = base_total + resume;
        ledger.assert_exact(total_cycles, "strict baseline");
        SimResult {
            total_cycles,
            ledger,
            invocation_latency,
            stalls: 1,
            link_stats: LinkStats::default(),
            faults: engine.fault_stats(),
            degraded_classes: 0,
            session_degraded: false,
            completed: true,
            outage,
            replica: ReplicaStats::default(),
            integrity: IntegrityStats::default(),
        }
    }

    /// Builds the transfer engine for one configuration: the perfect-link
    /// engine its transfer policy names, under the fault layer. Resume
    /// uses this too: a journal is replayed against a *fresh* engine
    /// built exactly like the one that died.
    fn build_engine(&self, env: &ReplayEnv<'_>) -> FaultLayer {
        let ReplayEnv {
            config,
            units,
            manifest,
            ..
        } = *env;
        let order = self.order(config.ordering);
        let class_order_fu: Vec<usize> = order.class_order().iter().map(|c| c.0 as usize).collect();
        let weights = match config.ordering {
            OrderingSource::TrainProfile => Weights::Profile(&self.train.profile),
            OrderingSource::TestProfile => Weights::Profile(&self.test.profile),
            _ => Weights::Static,
        };
        let base: Box<dyn TransferEngine> = match config.transfer {
            TransferPolicy::Strict => {
                Box::new(StrictEngine::new(config.link, units, &class_order_fu))
            }
            TransferPolicy::Parallel { limit } => {
                let layouts = &self.restructured(config.ordering).layouts;
                let schedule = greedy_schedule(&self.app, order, units, layouts, weights);
                Box::new(ParallelEngine::new(
                    config.link,
                    units.to_vec(),
                    &schedule,
                    limit,
                ))
            }
            TransferPolicy::Interleaved => Box::new(InterleavedEngine::new(
                &self.app,
                self.restructured(config.ordering),
                units,
                order,
                config.link,
            )),
        };
        // Each mirror runs the session's fault and outage rates under its
        // own sub-seed; an active byzantine plan arms the manifest
        // layer on top of the routing.
        let profiles = config
            .active_replicas()
            .map(|rc| rc.profiles(config))
            .unwrap_or_default();
        let set = config.active_replicas().map(|rc| ReplicaSet {
            profiles: &profiles,
            hedge_deadline: rc.hedge_deadline_cycles,
            byzantine: config.active_byzantine(),
            manifest_bytes: manifest.map_or(0, UnitManifest::wire_bytes),
        });
        FaultLayer::new(base, units, config.link, config.active_faults(), set)
    }

    /// Replays `config` on `input` from a fresh checkpoint, killed per
    /// `stop_at`.
    fn replay_fresh(&self, input: Input, config: &SimConfig, stop_at: Option<u64>) -> RunOutcome {
        let units = self.units_for(config);
        let session = self.manifest_of(&units);
        let manifest = self.byzantine_manifest(config, &units, &session);
        let mut journal = SessionJournal::fresh(&session);
        if let Some(m) = &manifest {
            // Manifest pinning: before any unit flows, the client
            // fetches the content-addressed unit manifest from the
            // origin, verifies its frame, and pins its digest — the
            // trust root every later digest check compares against.
            let pin = pin_cost(config.link, m);
            journal.clock += pin;
            journal.ledger.integrity += pin;
            journal.manifest_digest = m.digest();
        }
        let env = ReplayEnv {
            config,
            units: &units,
            manifest: manifest.as_ref(),
            stop_at,
            repins: 0,
        };
        self.replay(input, &env, journal)
    }

    /// Replays the input's trace from checkpoint `j` against a fresh
    /// engine. The checkpoint is the replay's only mutable state: the
    /// replay reads and advances it in place and, when killed at
    /// `env.stop_at`, stamps the delivered watermarks and returns it as
    /// the record the client persists.
    ///
    /// The replay runs entirely on the **base timeline**: an outage
    /// freezes the client and the link together, so everything that
    /// happens after a resume happens at exactly the base instants it
    /// would have without the outage. Downtime is accounted separately
    /// in the resume bucket and added to wall time at the end.
    fn replay(&self, input: Input, env: &ReplayEnv<'_>, mut j: SessionJournal) -> RunOutcome {
        let ReplayEnv {
            config,
            units,
            stop_at,
            repins,
            ..
        } = *env;
        let layouts = &self.restructured(config.ordering).layouts;
        let mut engine = self.build_engine(env);
        let events = self.collected(input).trace.events();
        let cpi = self.app.cpi;
        let nclasses = units.len();

        // Verified-prefix bookkeeping: which prefixes have already paid
        // their verification charge. Steps 1–2 run once per class when
        // its global data is first needed; steps 3–4 run once per method
        // at its delimiter. Execution may not pass a gate until the
        // prefix behind it is verified, so every charge advances the
        // clock.
        let verify = config.verify;

        // Graceful degradation (fault protocol): when the combined
        // misprediction-plus-fault pressure on a class crosses the
        // threshold, the class is demoted from non-strict streaming to
        // strict demand-fetch — every later entry waits for the whole
        // class, trading overlap for stability. When a majority of
        // classes degrade, the whole session falls back to strict
        // execution.
        let degrade_threshold = config.active_faults().map_or(0, |fc| fc.degrade_threshold);

        // Failing closed from the sole surviving mirror: when a kill
        // leaves the replica set with one live mirror, every entry from
        // that base instant on executes strictly.
        let strict_from = config
            .active_replicas()
            .and_then(|rc| rc.sole_survivor_from());

        // Cross-session cache consistency: the server's transfer state
        // is reconstructed by replaying the demand-request log (empty on
        // a fresh run) against the fresh engine. Every scheduling
        // decision an engine makes is driven by first requests, so
        // identical requests at identical base instants rebuild
        // identical state. Only first requests drive engine state, so
        // the log also says which `(class, unit)` pairs were requested.
        let mut requested: Vec<Vec<bool>> =
            units.iter().map(|u| vec![false; u.unit_count()]).collect();
        for f in &j.fetch_log {
            let _ = engine.unit_ready(f.class as usize, f.unit as usize, f.at);
            requested[f.class as usize][f.unit as usize] = true;
        }

        while j.next_event < events.len() as u64 {
            if stop_at.is_some_and(|at| j.clock >= at) {
                // The connection (and client) die here. Streams deliver
                // strictly in order, so the first unit not yet arrived
                // is the exact watermark. The probe may demand-start an
                // idle class inside the dying engine, but that engine
                // dies with this crash — the resumed engine is rebuilt
                // from the fetch log alone.
                for (c, cp) in j.classes.iter_mut().enumerate() {
                    let arrived = (0..units[c].unit_count())
                        .take_while(|&u| engine.unit_ready(c, u, j.clock) <= j.clock)
                        .count();
                    cp.delivered = u32::try_from(arrived).expect("unit count fits u32");
                }
                return RunOutcome::Interrupted(j);
            }
            match events[j.next_event as usize] {
                TraceEvent::Enter(m) => {
                    let c = m.class.0 as usize;
                    let pos = layouts[c].position_of(m.method);
                    if !j.session_degraded && strict_from.is_some_and(|t| j.clock >= t) {
                        j.session_degraded = true;
                    }
                    // Whole-file verification cannot begin before the
                    // whole file arrived, so `VerifyMode::Full` forfeits
                    // non-strict overlap and gates on the last unit.
                    let strict_entry = config.execution == ExecutionModel::Strict
                        || j.session_degraded
                        || j.classes[c].demoted
                        || verify == VerifyMode::Full;
                    let unit = if strict_entry {
                        // Strict execution waits for the entire class.
                        units[c].unit_count() - 1
                    } else {
                        ClassUnits::method_unit(pos)
                    };
                    if !requested[c][unit] {
                        requested[c][unit] = true;
                        j.fetch_log.push(FetchRecord {
                            class: u32::try_from(c).expect("class index fits u32"),
                            unit: u32::try_from(unit).expect("unit index fits u32"),
                            replica: engine.serving_replica(c, unit),
                            at: j.clock,
                        });
                    }
                    let ready = engine.unit_ready(c, unit, j.clock);
                    if ready > j.clock {
                        j.ledger
                            .charge_stall(ready - j.clock, engine.last_surcharge());
                        j.stalls += 1;
                        j.classes[c].stall_events += 1;
                        j.clock = ready;
                    }
                    if degrade_threshold > 0 && !j.classes[c].demoted {
                        let pressure = j.classes[c].stall_events + engine.class_fault_events(c);
                        if pressure >= u64::from(degrade_threshold) {
                            j.classes[c].demoted = true;
                            let demoted = j.classes.iter().filter(|cp| cp.demoted).count();
                            if demoted * 2 > nclasses {
                                j.session_degraded = true;
                            }
                            if verify == VerifyMode::Stream {
                                // Demotion refetches the class as one
                                // strict file; the incremental
                                // verdicts are discarded and the whole
                                // file is re-verified from scratch.
                                let cost = self.class_verify_cost(c);
                                j.ledger.verify += cost;
                                j.clock += cost;
                                j.classes[c].globals_verified = true;
                                j.classes[c].methods_verified.fill(true);
                            }
                        }
                    }
                    let cp = &mut j.classes[c];
                    if verify != VerifyMode::Off {
                        if !cp.globals_verified {
                            // Steps 1–2: the class's global data just
                            // became needed; verify it before any of
                            // its methods may run.
                            cp.globals_verified = true;
                            let cost = self.global_verify_cost(c);
                            j.ledger.verify += cost;
                            j.clock += cost;
                        }
                        if strict_entry {
                            // The whole file is present: verify every
                            // still-unverified method before entry.
                            for (mi, v) in cp.methods_verified.iter_mut().enumerate() {
                                if !*v {
                                    *v = true;
                                    let cost = self.method_verify_cost_at(c, mi);
                                    j.ledger.verify += cost;
                                    j.clock += cost;
                                }
                            }
                        } else {
                            let mi = m.method as usize;
                            if !cp.methods_verified[mi] {
                                cp.methods_verified[mi] = true;
                                // Steps 3–4 run for real in checked
                                // builds: the method is re-verified
                                // against the finished program, exactly
                                // what the streaming loader does at
                                // delimiter arrival.
                                debug_assert_eq!(
                                    self.app.program.verify_method(m),
                                    Ok(()),
                                    "streamed method failed re-verification"
                                );
                                let cost = self.method_verify_cost_at(c, mi);
                                j.ledger.verify += cost;
                                j.clock += cost;
                            }
                        }
                    }
                    // Linking (§3.1): the prelude, the method's bytes
                    // and its first execution all lie behind this one
                    // gate, so the three steps are recorded together.
                    cp.linker_globals = true;
                    cp.linker_verified[pos] = true;
                    cp.linker_resolved[pos] = true;
                    if j.invocation_latency.is_none() {
                        j.invocation_latency = Some(j.clock);
                    }
                }
                TraceEvent::Run { method: _, count } => {
                    j.clock += count * cpi;
                    j.ledger.exec += count * cpi;
                }
                TraceEvent::Exit(_) => {}
            }
            j.next_event += 1;
        }

        debug_assert_eq!(
            j.ledger.exec,
            self.exec_cycles(input),
            "the replay must execute the whole trace"
        );
        CycleLedger {
            resume: 0,
            ..j.ledger
        }
        .assert_exact(
            j.clock,
            "every base-clock advance must land in exactly one accounting bucket",
        );
        let (shift, invocation_latency, crossed) =
            ambient_shift(config, j.clock, j.invocation_latency.unwrap_or(0));
        j.ledger.resume += shift;
        let total_cycles = j.clock + j.ledger.resume;
        j.ledger.assert_exact(total_cycles, "replay completion");
        let mut integrity = engine.integrity_stats();
        // The engine counts epoch-fence re-pins; the replay charges the
        // initial origin pin, and a reconnect negotiation may have
        // re-pinned a moved manifest.
        integrity.manifest_pins += u32::from(integrity.armed) + repins;
        let degraded_classes = j.classes.iter().filter(|cp| cp.demoted).count();
        RunOutcome::Finished(Box::new(SimResult {
            total_cycles,
            ledger: j.ledger,
            invocation_latency,
            stalls: j.stalls,
            link_stats: LinkStats::of(&j.classes),
            faults: engine.fault_stats(),
            degraded_classes: u32::try_from(degraded_classes).expect("class count fits u32"),
            session_degraded: j.session_degraded,
            completed: true,
            outage: OutageSummary {
                outages: j.outages + crossed.outages,
                resumes: j.resumes + crossed.resumes,
                refetched_classes: j.refetched_classes,
                failed_closed: false,
            },
            replica: engine.replica_stats(),
            integrity,
        }))
    }

    /// The server's current view of the session's transfer manifest
    /// under `config`: a CRC fingerprint of every class's restructured
    /// unit layout. Restructuring a class between sessions (different
    /// ordering, data layout, checksum overhead, …) moves exactly that
    /// class's epoch, which is what lets reconnect negotiation
    /// invalidate stale classes without touching the rest.
    #[must_use]
    pub fn manifest(&self, config: &SimConfig) -> SessionManifest {
        self.manifest_of(&self.units_for(config))
    }

    /// [`Session::manifest`] of an already-built unit layout.
    fn manifest_of(&self, units: &[ClassUnits]) -> SessionManifest {
        let class_epochs = units
            .iter()
            .map(|u| crc32(&u.sizes().flat_map(u64::to_le_bytes).collect::<Vec<_>>()))
            .collect();
        let method_counts = self
            .app
            .program
            .classes()
            .iter()
            .map(|c| c.methods.len())
            .collect();
        SessionManifest::new(class_epochs, method_counts)
    }

    /// The unit manifest the client pins under `config`, bound to the
    /// `session` layout epoch, or `None` when no byzantine plan is armed
    /// (unarmored runs pin nothing, so they stay byte-identical). Built
    /// once per run and passed to whatever needs its pin cost or digest.
    fn byzantine_manifest(
        &self,
        config: &SimConfig,
        units: &[ClassUnits],
        session: &SessionManifest,
    ) -> Option<UnitManifest> {
        config.active_byzantine()?;
        Some(build_manifest(units, session.epoch))
    }

    /// Runs `config` on `input` but kills the session — connection and
    /// client together — at the first trace-event boundary at or past
    /// base cycle `at_cycle`, returning the checkpoint the client
    /// persists. Completes normally if the run finishes first.
    #[must_use]
    pub fn run_until(&self, input: Input, config: &SimConfig, at_cycle: u64) -> RunOutcome {
        if !config.is_baseline() {
            return self.replay_fresh(input, config, Some(at_cycle));
        }
        let r = self.simulate(input, config);
        if at_cycle >= r.total_cycles {
            return RunOutcome::Finished(Box::new(r));
        }
        // The strict baseline has no replay state to checkpoint: its
        // journal is a ledger entry, and the sequential download resumes
        // from its byte watermark with nothing lost.
        let mut journal = SessionJournal::fresh(&self.manifest(config));
        journal.clock = at_cycle;
        journal.ledger.stall = at_cycle;
        RunOutcome::Interrupted(journal)
    }

    /// Reconnects with the checkpoint stored in `log` after `downtime`
    /// cycles of outage and runs the session to completion.
    ///
    /// The negotiation validates the checkpoint first: a torn, rotted,
    /// empty or out-of-shape log **fails closed** (cache discarded,
    /// strict restart); a structurally incompatible one starts fresh;
    /// otherwise classes whose manifest epoch moved are refetched and
    /// re-verified inside the resume window while every intact
    /// watermark survives. A successfully resumed run reproduces the
    /// uninterrupted run's base timeline exactly: every bucket except
    /// `resume` is identical, and `total = uninterrupted total +
    /// resume`. Invocation latency stays on the base timeline (wall
    /// latency is recoverable by adding the resume cycles that preceded
    /// it).
    #[must_use]
    pub fn resume(
        &self,
        input: Input,
        config: &SimConfig,
        log: &JournalLog,
        downtime: u64,
    ) -> SimResult {
        let units = self.units_for(config);
        let session = self.manifest_of(&units);
        let (mut journal, stale) = match negotiate(log, &session) {
            Negotiation::Resume { journal, stale } => (*journal, stale),
            Negotiation::Fresh => return self.restart_fail_closed(input, config, downtime, false),
            Negotiation::FailClosed(_) => {
                return self.restart_fail_closed(input, config, downtime, true)
            }
        };
        let unit_counts: Vec<usize> = units.iter().map(ClassUnits::unit_count).collect();
        let trace_len = self.collected(input).trace.events().len();
        if journal.check_replayable(&unit_counts, trace_len).is_err() {
            return self.restart_fail_closed(input, config, downtime, true);
        }
        if config.is_baseline() {
            // The sequential download resumes from its byte watermark:
            // nothing pre-crash is lost or redone.
            let mut r = self.simulate(input, config);
            let carried = journal.ledger.resume + downtime;
            r.total_cycles += carried;
            r.ledger.resume += carried;
            r.outage.outages += journal.outages + 1;
            r.outage.resumes += journal.resumes + 1;
            return r;
        }
        // The reconnect itself lands in the checkpoint before the replay
        // continues from it: the downtime, the targeted refetch of stale
        // classes, and this outage and resume.
        let mut extra = downtime;
        for &c in &stale {
            extra += self.refetch_cost(
                config,
                &units,
                &mut journal.classes[c],
                session.class_epochs[c],
                c,
            );
        }
        // Epoch fencing across the outage: if the origin re-restructured
        // while the client was away, the pinned manifest digest no
        // longer matches — re-pin the new manifest inside the resume
        // window before any further digest check can be trusted.
        let current = self.byzantine_manifest(config, &units, &session);
        let mut repins = 0;
        if let Some(m) = current
            .as_ref()
            .filter(|m| m.digest() != journal.manifest_digest)
        {
            extra += pin_cost(config.link, m);
            repins = 1;
        }
        journal.ledger.resume += extra;
        journal.outages += 1;
        journal.resumes += 1;
        journal.refetched_classes += u32::try_from(stale.len()).unwrap_or(u32::MAX);
        let env = ReplayEnv {
            config,
            units: &units,
            manifest: current.as_ref(),
            stop_at: None,
            repins,
        };
        self.replay(input, &env, journal).finished()
    }

    /// Charges the targeted invalidation of one stale class: refetch
    /// the delivered prefix through the link and re-verify every
    /// verdict the journal held, all inside the resume window. The
    /// restored state then matches the pre-crash state exactly, under
    /// the new epoch.
    fn refetch_cost(
        &self,
        config: &SimConfig,
        units: &[ClassUnits],
        cp: &mut ClassCheckpoint,
        new_epoch: u32,
        c: usize,
    ) -> u64 {
        let delivered_bytes = match cp.delivered {
            0 => 0,
            d => units[c].boundary(d as usize - 1),
        };
        let mut cost = config.link.cycles_for(delivered_bytes);
        if config.verify != VerifyMode::Off {
            if cp.globals_verified {
                cost += self.global_verify_cost(c);
            }
            for (mi, &v) in cp.methods_verified.iter().enumerate() {
                if v {
                    cost += self.method_verify_cost_at(c, mi);
                }
            }
        }
        cp.epoch = new_epoch;
        cost
    }

    /// The fail-closed restart: the cached units and journal are
    /// discarded and the session reruns under strict execution (the
    /// safe fallback), with the outage downtime charged to the resume
    /// bucket. The pre-crash wall time is unrecoverable by construction
    /// — the journal that recorded it is exactly the thing that could
    /// not be trusted — so the restarted ledger begins at zero.
    fn restart_fail_closed(
        &self,
        input: Input,
        config: &SimConfig,
        downtime: u64,
        failed_closed: bool,
    ) -> SimResult {
        let strict = SimConfig {
            verify: config.verify,
            faults: config.faults,
            ..SimConfig::strict(config.link)
        };
        let mut r = self.simulate(input, &strict);
        r.total_cycles += downtime;
        r.ledger.resume = downtime;
        r.outage = OutageSummary {
            outages: 1,
            resumes: 0,
            refetched_classes: 0,
            failed_closed,
        };
        r
    }

    /// One-shot interrupt-and-resume: kills the run per `spec`, then
    /// reconnects with the checkpoint persisted to an in-memory log. The
    /// headline invariant — a run interrupted at **any** cycle resumes
    /// to identical results plus exactly the outage cost — is proven by
    /// the round trip through the encoded record: any serialization or
    /// reconstruction bug breaks the equality.
    #[must_use]
    pub fn simulate_interrupted(
        &self,
        input: Input,
        config: &SimConfig,
        spec: &InterruptSpec,
    ) -> SimResult {
        match self.run_until(input, config, spec.at_cycle) {
            RunOutcome::Finished(r) => *r,
            RunOutcome::Interrupted(journal) => {
                self.resume(input, config, &journal.in_memory(), spec.outage_cycles)
            }
        }
    }
}

/// One-shot convenience: prepares a [`Session`] and simulates a single
/// configuration. Prefer building a [`Session`] when sweeping
/// configurations — profiling runs dominate the cost.
///
/// # Errors
///
/// Propagates interpreter faults from the profiling runs.
pub fn simulate(
    app: &Application,
    input: Input,
    config: &SimConfig,
) -> Result<SimResult, InterpError> {
    let session = Session::new(app.clone())?;
    Ok(session.simulate(input, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonstrict_netsim::Link;

    fn session() -> Session {
        Session::new(nonstrict_workloads::hanoi::build()).unwrap()
    }

    fn all_nonstrict_configs(link: Link) -> Vec<SimConfig> {
        let mut out = Vec::new();
        for ordering in [
            OrderingSource::StaticCallGraph,
            OrderingSource::TrainProfile,
            OrderingSource::TestProfile,
        ] {
            for transfer in [
                TransferPolicy::Parallel { limit: 1 },
                TransferPolicy::Parallel { limit: 4 },
                TransferPolicy::Parallel { limit: usize::MAX },
                TransferPolicy::Interleaved,
            ] {
                for data_layout in [DataLayout::Whole, DataLayout::Partitioned] {
                    out.push(SimConfig {
                        transfer,
                        data_layout,
                        ..SimConfig::non_strict(link, ordering)
                    });
                }
            }
        }
        out
    }

    #[test]
    fn baseline_total_is_exec_plus_transfer() {
        let s = session();
        let base = s.simulate(Input::Test, &SimConfig::strict(Link::MODEM_28_8));
        assert_eq!(base.total_cycles, base.ledger.exec + base.ledger.stall);
        assert!(base.invocation_latency > 0);
    }

    #[test]
    fn non_strict_beats_baseline_on_modem() {
        let s = session();
        let base = s.simulate(Input::Test, &SimConfig::strict(Link::MODEM_28_8));
        for config in all_nonstrict_configs(Link::MODEM_28_8) {
            let r = s.simulate(Input::Test, &config);
            assert!(
                r.total_cycles <= base.total_cycles,
                "{config:?} regressed: {} vs base {}",
                r.total_cycles,
                base.total_cycles
            );
        }
    }

    #[test]
    fn total_cycles_never_below_exec_or_latency_plus_exec() {
        let s = session();
        for config in all_nonstrict_configs(Link::T1) {
            let r = s.simulate(Input::Test, &config);
            assert!(r.total_cycles >= r.ledger.exec);
            assert!(r.total_cycles >= r.invocation_latency + r.ledger.exec);
            assert_eq!(r.total_cycles, r.ledger.exec + r.ledger.stall);
        }
    }

    #[test]
    fn perfect_profile_never_loses_to_train_or_scg_on_average() {
        let s = session();
        let run = |ordering| {
            let config = SimConfig {
                transfer: TransferPolicy::Interleaved,
                ..SimConfig::non_strict(Link::MODEM_28_8, ordering)
            };
            s.simulate(Input::Test, &config).total_cycles
        };
        let test = run(OrderingSource::TestProfile);
        let scg = run(OrderingSource::StaticCallGraph);
        assert!(
            test <= scg,
            "perfect interleaved order cannot lose to SCG: {test} vs {scg}"
        );
    }

    #[test]
    fn linker_sees_every_executed_method_once() {
        let s = session();
        let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph);
        let r = s.simulate(Input::Test, &config);
        let executed = s.test.profile.executed_method_count();
        assert_eq!(r.link_stats.methods_resolved, executed);
        assert_eq!(r.link_stats.methods_verified, executed);
        assert!(r.link_stats.classes_verified <= s.app.classes.len());
    }

    #[test]
    fn invocation_latency_orders_strict_nonstrict_partitioned() {
        let s = session();
        let strict = s.simulate(Input::Test, &SimConfig::strict(Link::MODEM_28_8));
        let ns = s.simulate(
            Input::Test,
            &SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph),
        );
        let mut part_cfg = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
        part_cfg.data_layout = DataLayout::Partitioned;
        let part = s.simulate(Input::Test, &part_cfg);
        assert!(ns.invocation_latency < strict.invocation_latency);
        assert!(part.invocation_latency <= ns.invocation_latency);
    }

    #[test]
    fn results_are_deterministic() {
        let s = session();
        let config = SimConfig::non_strict(Link::T1, OrderingSource::TrainProfile);
        let a = s.simulate(Input::Test, &config);
        let b = s.simulate(Input::Test, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn verify_off_charges_nothing_and_matches_legacy_results() {
        let s = session();
        for config in all_nonstrict_configs(Link::MODEM_28_8) {
            let off = s.simulate(Input::Test, &config);
            assert_eq!(off.ledger.verify, 0);
            assert_eq!(
                off,
                s.simulate(Input::Test, &config.with_verify(VerifyMode::Off))
            );
        }
    }

    #[test]
    fn verify_accounting_identity_holds_in_every_mode() {
        let s = session();
        let mut rc = crate::model::ReplicaConfig::seeded(0x5e7);
        rc.replicas = 3;
        rc.hedge_deadline_cycles = 500_000;
        let mut fc = nonstrict_netsim::faults::FaultPlan::seeded(0x5e7);
        fc.loss_pm = 50_000;
        fc.corrupt_pm = 10_000;
        for mode in [VerifyMode::Off, VerifyMode::Stream, VerifyMode::Full] {
            for base in [
                SimConfig::strict(Link::MODEM_28_8),
                SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph),
                SimConfig::non_strict(Link::T1, OrderingSource::TrainProfile),
                SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
                    .with_replicas(rc),
                SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
                    .with_faults(fc)
                    .with_replicas(rc),
            ] {
                let r = s.simulate(Input::Test, &base.with_verify(mode));
                assert_eq!(
                    r.total_cycles,
                    r.ledger.exec
                        + r.ledger.stall
                        + r.ledger.recovery
                        + r.ledger.verify
                        + r.ledger.resume
                        + r.ledger.hedge,
                    "{mode:?} {base:?}"
                );
                if mode == VerifyMode::Off {
                    assert_eq!(r.ledger.verify, 0);
                } else {
                    assert!(r.ledger.verify > 0, "{mode:?} must charge verification");
                }
            }
        }
    }

    #[test]
    fn single_mirror_replica_config_is_byte_identical() {
        let s = session();
        for base in [
            SimConfig::strict(Link::MODEM_28_8),
            SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph),
            SimConfig::non_strict(Link::T1, OrderingSource::TrainProfile),
        ] {
            let solo = base.with_replicas(crate::model::ReplicaConfig::seeded(0xabc));
            assert_eq!(
                s.simulate(Input::Test, &base),
                s.simulate(Input::Test, &solo),
                "one mirror must be the single origin, bit for bit: {base:?}"
            );
        }
    }

    #[test]
    fn replica_runs_are_deterministic_and_report_the_set() {
        let s = session();
        let mut rc = crate::model::ReplicaConfig::seeded(11);
        rc.replicas = 3;
        let mut fc = nonstrict_netsim::faults::FaultPlan::seeded(11);
        fc.loss_pm = 100_000;
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
            .with_faults(fc)
            .with_replicas(rc);
        let a = s.simulate(Input::Test, &config);
        assert_eq!(a, s.simulate(Input::Test, &config));
        assert_eq!(a.replica.replicas, 3);
        assert!(a.completed);
        assert!(
            a.replica.health[..3].iter().any(|h| h.units_served > 0),
            "someone must serve the units"
        );
    }

    #[test]
    fn sole_surviving_mirror_fails_closed_to_strict() {
        let s = session();
        let mut rc = crate::model::ReplicaConfig::seeded(21);
        rc.replicas = 2;
        rc.kill = Some(crate::model::ReplicaKill {
            replica: 1,
            at_cycle: 0,
        });
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
            .with_replicas(rc);
        let r = s.simulate(Input::Test, &config);
        assert!(r.replica.sole_survivor, "mirror 1 died before unit one");
        assert!(
            r.session_degraded,
            "a sole survivor must fail closed to strict execution"
        );
        assert!(r.completed);
        assert!(!r.replica.health[1].alive);
    }

    #[test]
    fn stream_verification_keeps_overlap_full_forfeits_it() {
        let s = session();
        let base = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
        let off = s.simulate(Input::Test, &base);
        let stream = s.simulate(Input::Test, &base.with_verify(VerifyMode::Stream));
        let full = s.simulate(Input::Test, &base.with_verify(VerifyMode::Full));
        // Streaming verification charges cycles but keeps the gate at
        // the method delimiter; whole-file verification waits for the
        // entire class, so it can only be slower.
        assert!(stream.total_cycles >= off.total_cycles);
        assert!(full.total_cycles >= stream.total_cycles);
        assert!(full.invocation_latency >= stream.invocation_latency);
        // Stream only verifies executed classes' prefixes; full pays
        // for whole classes at strict gates — equal only if every
        // method of every entered class executes.
        assert!(stream.ledger.verify <= full.ledger.verify);
    }

    #[test]
    fn interrupt_and_resume_reproduces_the_uninterrupted_run() {
        let s = session();
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
        let base = s.simulate(Input::Test, &config);
        let spec = InterruptSpec {
            at_cycle: base.total_cycles / 2,
            outage_cycles: 2_000_000,
        };
        let r = s.simulate_interrupted(Input::Test, &config, &spec);
        // Every bucket except resume is byte-identical to the
        // uninterrupted run; the total grows by exactly the downtime.
        assert_eq!(r.ledger.exec, base.ledger.exec);
        assert_eq!(r.ledger.stall, base.ledger.stall);
        assert_eq!(r.ledger.verify, base.ledger.verify);
        assert_eq!(r.faults, base.faults);
        assert_eq!(
            (r.degraded_classes, r.session_degraded, r.completed),
            (base.degraded_classes, base.session_degraded, base.completed)
        );
        assert_eq!(r.link_stats, base.link_stats);
        assert_eq!(r.invocation_latency, base.invocation_latency);
        assert_eq!(r.stalls, base.stalls);
        assert_eq!(r.ledger.resume, spec.outage_cycles);
        assert_eq!(r.outage.outages, 1);
        assert_eq!(r.outage.resumes, 1);
        assert_eq!(r.outage.refetched_classes, 0);
        assert!(!r.outage.failed_closed);
        assert_eq!(r.total_cycles, base.total_cycles + spec.outage_cycles);
    }

    #[test]
    fn interrupt_past_the_end_finishes_normally() {
        let s = session();
        let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph);
        let base = s.simulate(Input::Test, &config);
        let spec = InterruptSpec {
            at_cycle: base.total_cycles + 1,
            outage_cycles: 1_000,
        };
        assert_eq!(s.simulate_interrupted(Input::Test, &config, &spec), base);
    }

    #[test]
    fn ambient_outages_insert_pure_downtime() {
        let s = session();
        let mut oc = nonstrict_netsim::outage::OutagePlan::seeded(7);
        oc.rate_pm = 600_000;
        oc.min_cycles = 1 << 20;
        oc.max_cycles = 1 << 24;
        for base_cfg in [
            SimConfig::strict(Link::MODEM_28_8),
            SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph),
        ] {
            let base = s.simulate(Input::Test, &base_cfg);
            let r = s.simulate(Input::Test, &base_cfg.with_outages(oc));
            assert!(
                r.outage.outages > 0,
                "a stormy modem run must cross outages"
            );
            assert_eq!(r.outage.resumes, r.outage.outages);
            assert_eq!(r.ledger.exec, base.ledger.exec);
            assert_eq!(r.ledger.stall, base.ledger.stall);
            assert_eq!(r.ledger.verify, base.ledger.verify);
            assert_eq!(r.total_cycles, base.total_cycles + r.ledger.resume);
            assert!(r.invocation_latency >= base.invocation_latency);
        }
    }

    /// The checkpoint of a modem run killed halfway.
    fn midway_checkpoint(s: &Session, config: &SimConfig) -> SessionJournal {
        let base = s.simulate(Input::Test, config);
        let RunOutcome::Interrupted(journal) =
            s.run_until(Input::Test, config, base.total_cycles / 2)
        else {
            panic!("mid-run interrupt must produce a journal");
        };
        journal
    }

    /// Asserts `r` is the fail-closed strict restart plus `downtime`.
    fn assert_failed_closed(s: &Session, r: &SimResult, downtime: u64) {
        let strict = s.simulate(Input::Test, &SimConfig::strict(Link::MODEM_28_8));
        assert!(r.outage.failed_closed);
        assert_eq!(r.outage.resumes, 0);
        assert!(r.completed);
        assert_eq!(r.total_cycles, strict.total_cycles + downtime);
        assert_eq!(r.ledger.exec, strict.ledger.exec);
    }

    #[test]
    fn torn_journal_fails_closed_to_strict() {
        let s = session();
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
        let fs = std::sync::Arc::new(nonstrict_store::FaultFs::new(
            nonstrict_store::FaultKnobs::quiet(1),
        ));
        let log = JournalLog::new(fs.clone(), "j.nsjl");
        log.append_record(&midway_checkpoint(&s, &config).encode())
            .unwrap();
        let mut bytes = fs.durable("j.nsjl").unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs.set_durable("j.nsjl", bytes);
        let r = s.resume(Input::Test, &config, &log, 1_000_000);
        assert_failed_closed(&s, &r, 1_000_000);
    }

    #[test]
    fn forged_fetch_log_unit_fails_closed_instead_of_panicking() {
        let s = session();
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
        let mut journal = midway_checkpoint(&s, &config);
        journal.fetch_log[0].unit = 9999;
        let r = s.resume(Input::Test, &config, &journal.in_memory(), 1_000);
        assert_failed_closed(&s, &r, 1_000);
        let mut journal = midway_checkpoint(&s, &config);
        journal.fetch_log[0].class = 9999;
        let r = s.resume(Input::Test, &config, &journal.in_memory(), 1_000);
        assert_failed_closed(&s, &r, 1_000);
    }

    #[test]
    fn forged_next_event_fails_closed_instead_of_panicking() {
        let s = session();
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
        let mut journal = midway_checkpoint(&s, &config);
        journal.next_event = u64::MAX;
        let r = s.resume(Input::Test, &config, &journal.in_memory(), 1_000);
        assert_failed_closed(&s, &r, 1_000);
    }

    #[test]
    fn forged_clock_fails_closed_instead_of_panicking() {
        let s = session();
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
        let mut journal = midway_checkpoint(&s, &config);
        journal.clock = u64::MAX - 5;
        let r = s.resume(Input::Test, &config, &journal.in_memory(), 1_000);
        assert_failed_closed(&s, &r, 1_000);
    }

    #[test]
    fn forged_outage_count_fails_closed_instead_of_panicking() {
        let s = session();
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
        let mut journal = midway_checkpoint(&s, &config);
        journal.outages = u32::MAX;
        let r = s.resume(Input::Test, &config, &journal.in_memory(), 1_000);
        assert_failed_closed(&s, &r, 1_000);
    }

    #[test]
    fn epoch_bump_triggers_targeted_refetch_only() {
        let s = session();
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
        let mut journal = midway_checkpoint(&s, &config);
        let clean = s.resume(Input::Test, &config, &journal.in_memory(), 0);
        // The server restructured one class while the client was away:
        // re-stamp that class's epoch in the stored checkpoint so the
        // reconnect negotiation sees a mismatch against the manifest.
        journal.classes[0].epoch ^= 0xdead_beef;
        let bumped = s.resume(Input::Test, &config, &journal.in_memory(), 0);
        assert_eq!(bumped.outage.refetched_classes, 1);
        assert!(!bumped.outage.failed_closed);
        // Targeted invalidation charges the refetch to the resume
        // bucket and nothing else: the base timeline is untouched.
        assert_eq!(bumped.ledger.exec, clean.ledger.exec);
        assert_eq!(bumped.ledger.stall, clean.ledger.stall);
        assert_eq!(bumped.ledger.verify, clean.ledger.verify);
        assert!(bumped.ledger.resume >= clean.ledger.resume);
        assert_eq!(
            bumped.total_cycles - bumped.ledger.resume,
            clean.total_cycles - clean.ledger.resume
        );
    }

    #[test]
    fn stream_verifies_each_executed_method_once() {
        let s = session();
        let base = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph);
        let r = s.simulate(Input::Test, &base.with_verify(VerifyMode::Stream));
        // Each executed method is charged exactly once, plus each
        // entered class's global data exactly once.
        let expected: u64 = s
            .app
            .program
            .iter_methods()
            .filter(|(id, _)| s.test.profile.executed(*id))
            .map(|(_, m)| nonstrict_bytecode::method_verify_cost(m))
            .sum();
        assert!(r.ledger.verify >= expected, "per-method charges present");
    }
}
