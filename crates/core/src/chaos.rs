//! The chaos conductor: composed cross-layer fault scenarios.
//!
//! Seven fault dimensions — link faults, semantic quarantine,
//! outages/checkpoint-resume, replica kills/hedging, fleet overload,
//! Byzantine mirrors, and storage faults (the interrupt checkpoint is
//! persisted to a fault-injecting store) — are each swept alone
//! elsewhere. This module composes **any subset** of them into one
//! seeded, deterministic run and checks the composition against the
//! global contracts the per-dimension suites established:
//!
//! * [`ChaosScenario`] — a declarative, serializable description of one
//!   composed run: benchmark, the [`SimConfig`] (structure plus the
//!   link-fault, outage, replica and Byzantine plans), and the fleet,
//!   crash and disk dimensions, each optional. The text form
//!   ([`ChaosScenario::encode`] / [`ChaosScenario::decode`], `NSCR 1`)
//!   is the repro artifact format replayed by `paper chaos --repro`.
//! * [`run_scenario`] — runs the scenario and applies the **global
//!   invariant checker**: eight-bucket ledger exactness (checked in
//!   release builds too, not just via `debug_assert`), all-dimensions-
//!   quiet byte-identity, journal watermark/clock monotonicity,
//!   fail-closed degradation on a torn journal, and a mid-run
//!   crash/resume equivalence probe.
//! * [`crash_anywhere`] — the differential engine: interrupts and
//!   resumes the composed run at **every** unit boundary (found by
//!   binary search on the journal's delivered watermark, the PR 3
//!   pattern lifted to arbitrary compositions) and records any bucket
//!   that diverges from the uninterrupted run instead of panicking, so
//!   the shrinker can consume failures.
//! * [`shrink`] — a delta-debugging minimizer: drops whole dimensions,
//!   then binary-searches rates, seeds, and interrupt points down to a
//!   minimal still-failing scenario, bounded by a predicate-call
//!   budget.
//! * [`replay_repro`] — decodes a repro artifact, rebuilds the
//!   benchmark session, reruns the scenario, and renders a
//!   deterministic report — same text, bit for bit, on every replay.
//!
//! The overload dimension drives [`crate::fleet::run_fleet`] and is
//! checked for per-client ledger exactness; it cannot be combined with
//! an interrupt point (a fleet has no single journal to crash), which
//! [`ChaosScenario::validate`] rejects as [`ScenarioError::Conflict`].

use std::fmt;
use std::sync::Arc;

use nonstrict_bytecode::Input;
use nonstrict_netsim::byzantine::{ByzantineMode, ByzantinePlan};
use nonstrict_netsim::contention::ShedLadder;
use nonstrict_netsim::faults::FaultPlan;
use nonstrict_netsim::outage::OutagePlan;
use nonstrict_netsim::Link;
use nonstrict_store::{FaultFs, FaultKnobs, JournalLog};
use nonstrict_wire::SplitMix64;

use crate::fleet::{run_fleet, AdmissionSettings, FleetClient, FleetSpec};
use crate::journal::{SessionJournal, CHECKPOINT_LOG};
use crate::model::{
    DataLayout, ExecutionModel, OrderingSource, ReplicaConfig, ReplicaKill, SimConfig,
    TransferPolicy, VerifyMode,
};
use crate::sim::{InterruptSpec, RunOutcome, Session, SimResult};

/// Magic first line of the serialized scenario format.
pub const SCENARIO_MAGIC: &str = "NSCR";

/// Current scenario format version.
pub const SCENARIO_VERSION: u32 = 1;

/// The overload dimension: how many clients contend for the scenario
/// link as a shared egress pipe, under which admission and shed
/// settings. Lowered to a [`crate::fleet::FleetSpec`] by
/// [`run_scenario`]. Inactive below two clients, mirroring the other
/// dimensions' armed-but-quiet normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OverloadDims {
    /// Fleet seed: arrival offsets and backoff jitter.
    pub seed: u64,
    /// Number of contending clients (all running this scenario's
    /// benchmark); 0 or 1 is no contention at all.
    pub clients: u32,
    /// Per-client access-link spread (ppm): client `i`'s
    /// cycles-per-byte is the scenario link's scaled by
    /// `1 + i * spread_pm / 1e6`.
    pub spread_pm: u32,
    /// Token-bucket admission rate per period; 0 disables admission
    /// control.
    pub admit_rate: u32,
    /// Load-shed ladder; `None` serves every client unmodified.
    pub ladder: Option<ShedLadder>,
}

impl OverloadDims {
    /// Largest fleet a scenario may describe: one row per client in
    /// `simulate`'s outcome table.
    pub const MAX_CLIENTS: u32 = 64;

    /// An overload config with a single client under `seed` — the
    /// fleet machinery is armed but there is no one to contend with.
    #[must_use]
    pub fn seeded(seed: u64) -> OverloadDims {
        OverloadDims {
            seed,
            clients: 1,
            spread_pm: ReplicaConfig::DEFAULT_SPREAD_PM,
            admit_rate: 0,
            ladder: None,
        }
    }

    /// Whether any contention can actually occur.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.clients >= 2
    }
}

/// The storage-fault dimension: the checkpoint written at a crash no
/// longer lives in perfect memory but is appended to an `NSJL` log on
/// a [`nonstrict_store::FaultFs`] with these knobs — torn appends, fsync
/// lies, post-hoc bit rot. The invariant is the store's contract: a
/// checkpoint that survives the round trip intact resumes exactly; one
/// that does not must be *detected* and degrade to a fail-closed
/// restart that still completes. Inactive with all rates zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiskDims {
    /// Storage-fault seed.
    pub seed: u64,
    /// Per-append probability (ppm) the power cut tears the write at a
    /// seeded byte.
    pub torn_pm: u32,
    /// Per-operation probability (ppm) an acknowledged write never
    /// becomes durable.
    pub lie_pm: u32,
    /// Per-file probability (ppm) of one flipped bit after the crash.
    pub bitrot_pm: u32,
}

impl DiskDims {
    /// A disk config armed under `seed` with every fault rate zero.
    #[must_use]
    pub fn seeded(seed: u64) -> DiskDims {
        DiskDims {
            seed,
            torn_pm: 0,
            lie_pm: 0,
            bitrot_pm: 0,
        }
    }

    /// Whether any storage fault can actually fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.torn_pm > 0 || self.lie_pm > 0 || self.bitrot_pm > 0
    }
}

/// One composed chaos scenario: a [`SimConfig`] — the structural
/// dimensions and the link-fault, outage, replica and Byzantine plans —
/// plus the fleet, crash and disk dimensions, fully seeded and
/// deterministic. Equal scenarios produce bit-identical runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChaosScenario {
    /// Benchmark name ([`nonstrict_workloads::build_by_name`]).
    pub bench: String,
    /// The single-client run; its link is also the fleet egress under
    /// overload.
    pub config: SimConfig,
    /// Overload dimension (fleet contention).
    pub overload: Option<OverloadDims>,
    /// Crash/resume dimension: the kill cycle and the client downtime
    /// charged to the resume bucket.
    pub interrupt: Option<InterruptSpec>,
    /// Storage-fault dimension (the journal's disk round trip).
    pub disk: Option<DiskDims>,
}

impl ChaosScenario {
    /// A scenario running `config` on `bench`, with the fleet, crash
    /// and disk dimensions absent.
    #[must_use]
    pub fn new(bench: &str, config: SimConfig) -> ChaosScenario {
        ChaosScenario {
            bench: bench.to_owned(),
            config,
            overload: None,
            interrupt: None,
            disk: None,
        }
    }

    /// This scenario with the overload dimension set.
    #[must_use]
    pub fn with_overload(mut self, ov: OverloadDims) -> Self {
        self.overload = Some(ov);
        self
    }

    /// This scenario with the crash/resume dimension set.
    #[must_use]
    pub fn with_interrupt(mut self, at_cycle: u64, downtime: u64) -> Self {
        self.interrupt = Some(InterruptSpec {
            at_cycle,
            outage_cycles: downtime,
        });
        self
    }

    /// This scenario with the storage-fault dimension set.
    #[must_use]
    pub fn with_disk(mut self, d: DiskDims) -> Self {
        self.disk = Some(d);
        self
    }

    /// The overload dimension, if it can actually contend.
    #[must_use]
    pub fn active_overload(&self) -> Option<OverloadDims> {
        self.overload.filter(OverloadDims::is_active)
    }

    /// The storage-fault dimension, if any fault can actually fire.
    #[must_use]
    pub fn active_disk(&self) -> Option<DiskDims> {
        self.disk.filter(DiskDims::is_active)
    }

    /// Whether every fault dimension is absent or armed-but-inactive:
    /// such a scenario must be byte-identical to the stripped run (the
    /// all-rates-zero identity every per-dimension suite pins).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        let c = &self.config;
        c.active_faults().is_none()
            && c.active_outages().is_none()
            && c.active_replicas().is_none()
            && c.active_byzantine().is_none()
            && self.active_overload().is_none()
            && self.interrupt.is_none()
            && self.active_disk().is_none()
    }

    /// Short `+`-joined label of the *active* dimensions, `"quiet"`
    /// when none are.
    #[must_use]
    pub fn label(&self) -> String {
        let c = &self.config;
        let mut parts = Vec::new();
        if c.active_faults().is_some() {
            parts.push("faults");
        }
        if c.verify != VerifyMode::Off {
            parts.push("verify");
        }
        if c.active_outages().is_some() {
            parts.push("outage");
        }
        if c.active_replicas().is_some() {
            parts.push("replicas");
        }
        if c.active_byzantine().is_some() {
            parts.push("byz");
        }
        if self.active_overload().is_some() {
            parts.push("overload");
        }
        if self.interrupt.is_some() {
            parts.push("crash");
        }
        if self.active_disk().is_some() {
            parts.push("disk");
        }
        if parts.is_empty() {
            "quiet".to_owned()
        } else {
            parts.join("+")
        }
    }

    /// Serializes this scenario as an `NSCR 1` repro artifact:
    /// newline-terminated `key = value` lines in a fixed order, so
    /// `encode ∘ decode` is the identity and equal scenarios produce
    /// identical bytes.
    #[must_use]
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let c = &self.config;
        let mut s = format!("{SCENARIO_MAGIC} {SCENARIO_VERSION}\n");
        let _ = writeln!(s, "bench = {}", self.bench);
        let ordering =
            nonstrict_wire::config::ordering_name(crate::serve::ordering_to_wire(c.ordering))
                .expect("every ordering has a wire spelling");
        let _ = writeln!(s, "link = {}", c.link.spelling());
        let _ = writeln!(s, "ordering = {ordering}");
        let _ = writeln!(s, "transfer = {}", c.transfer.spelling());
        let _ = writeln!(s, "layout = {}", c.data_layout.spelling());
        let _ = writeln!(s, "execution = {}", c.execution.spelling());
        let _ = writeln!(s, "verify = {}", c.verify.label());
        if let Some(fc) = c.faults {
            let _ = writeln!(s, "fault.seed = {}", fc.seed);
            let _ = writeln!(s, "fault.loss_pm = {}", fc.loss_pm);
            let _ = writeln!(s, "fault.corrupt_pm = {}", fc.corrupt_pm);
            let _ = writeln!(s, "fault.drop_pm = {}", fc.drop_pm);
            let _ = writeln!(s, "fault.droop_pm = {}", fc.droop_pm);
            let _ = writeln!(s, "fault.semantic_pm = {}", fc.semantic_pm);
            let _ = writeln!(s, "fault.reconnect_cycles = {}", fc.reconnect_cycles);
            let _ = writeln!(s, "fault.degrade_threshold = {}", fc.degrade_threshold);
        }
        if let Some(oc) = c.outages {
            let _ = writeln!(s, "outage.seed = {}", oc.seed);
            let _ = writeln!(s, "outage.rate_pm = {}", oc.rate_pm);
            let _ = writeln!(s, "outage.min_cycles = {}", oc.min_cycles);
            let _ = writeln!(s, "outage.max_cycles = {}", oc.max_cycles);
            let _ = writeln!(s, "outage.negotiation_cycles = {}", oc.negotiation_cycles);
        }
        if let Some(rc) = c.replicas {
            let _ = writeln!(s, "replica.seed = {}", rc.seed);
            let _ = writeln!(s, "replica.replicas = {}", rc.replicas);
            let _ = writeln!(s, "replica.spread_pm = {}", rc.spread_pm);
            let _ = writeln!(
                s,
                "replica.hedge_deadline_cycles = {}",
                rc.hedge_deadline_cycles
            );
            if let Some(k) = rc.kill {
                let _ = writeln!(s, "replica.kill = {}@{}", k.replica, k.at_cycle);
            }
        }
        if let Some(bc) = c.byzantine {
            let _ = writeln!(s, "byz.seed = {}", bc.seed);
            let _ = writeln!(s, "byz.mirrors = {}", bc.mirrors);
            let _ = writeln!(s, "byz.mode = {}", bc.mode.label());
            let _ = writeln!(s, "byz.audit_rate_pm = {}", bc.audit_rate_pm);
        }
        if let Some(ov) = self.overload {
            let _ = writeln!(s, "overload.seed = {}", ov.seed);
            let _ = writeln!(s, "overload.clients = {}", ov.clients);
            let _ = writeln!(s, "overload.spread_pm = {}", ov.spread_pm);
            let _ = writeln!(s, "overload.admit_rate = {}", ov.admit_rate);
            if let Some(l) = ov.ladder {
                let _ = writeln!(
                    s,
                    "overload.ladder = {}/{}/{}",
                    l.drop_hedges, l.force_strict, l.shed
                );
            }
        }
        if let Some(i) = self.interrupt {
            let _ = writeln!(s, "interrupt.at_cycle = {}", i.at_cycle);
            let _ = writeln!(s, "interrupt.downtime = {}", i.outage_cycles);
        }
        if let Some(d) = self.disk {
            let _ = writeln!(s, "disk.seed = {}", d.seed);
            let _ = writeln!(s, "disk.torn_pm = {}", d.torn_pm);
            let _ = writeln!(s, "disk.lie_pm = {}", d.lie_pm);
            let _ = writeln!(s, "disk.bitrot_pm = {}", d.bitrot_pm);
        }
        s
    }

    /// Parses an `NSCR 1` repro artifact (the inverse of
    /// [`Self::encode`]): every `key = value` line through
    /// [`Self::set`], then [`Self::validate`]. Accepts blank lines and
    /// `#` comments; keys may appear at most once.
    ///
    /// # Errors
    ///
    /// Every malformed input maps to a typed [`ScenarioError`] — the
    /// repro loader never panics on hostile bytes.
    pub fn decode(text: &str) -> Result<ChaosScenario, ScenarioError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or(ScenarioError::BadMagic)?;
        let mut hp = header.split_ascii_whitespace();
        if hp.next() != Some(SCENARIO_MAGIC) {
            return Err(ScenarioError::BadMagic);
        }
        let version: u32 = hp
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(ScenarioError::BadMagic)?;
        if version != SCENARIO_VERSION {
            return Err(ScenarioError::BadVersion(version));
        }
        if hp.next().is_some() {
            return Err(ScenarioError::BadMagic);
        }

        let mut sc = ChaosScenario::new(
            "",
            SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph),
        );
        let mut seen: Vec<&str> = Vec::new();
        for raw in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| ScenarioError::BadLine(line.to_owned()))?;
            if seen.contains(&key) {
                return Err(ScenarioError::DuplicateKey(key.to_owned()));
            }
            seen.push(key);
            sc.set(key, value)?;
        }
        sc.validate()?;
        Ok(sc)
    }

    /// Sets one `NSCR` key — the single setter behind both the repro
    /// format and `nonstrict simulate`'s flags. A fault dimension's
    /// section opens with seeded defaults at its first key; the two
    /// dependent keys, `replica.kill` and `overload.ladder`, need their
    /// section opened by an earlier key. Range rules are
    /// [`Self::validate`]'s.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownKey`], [`ScenarioError::BadValue`], or
    /// [`ScenarioError::MissingKey`] for a dependent key without its
    /// section.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let bad = || ScenarioError::BadValue {
            key: key.to_owned(),
            value: value.to_owned(),
        };
        // Parses the value into `field` of the section at `dim`,
        // opening the section.
        macro_rules! put {
            ($($dim:ident).+, $field:ident, $fresh:expr) => {
                self.$($dim).+.get_or_insert($fresh).$field = value.parse().map_err(|_| bad())?
            };
        }
        match key {
            "bench" => self.bench = value.to_owned(),
            "link" => self.config.link = Link::parse(value).ok_or_else(bad)?,
            "ordering" => {
                self.config.ordering = nonstrict_wire::config::ordering_code(value)
                    .ok()
                    .and_then(crate::serve::ordering_from_wire)
                    .ok_or_else(bad)?;
            }
            "transfer" => self.config.transfer = TransferPolicy::parse(value).ok_or_else(bad)?,
            "layout" => self.config.data_layout = DataLayout::parse(value).ok_or_else(bad)?,
            "execution" => {
                self.config.execution = ExecutionModel::parse(value).ok_or_else(bad)?;
            }
            "verify" => self.config.verify = VerifyMode::parse(value).ok_or_else(bad)?,
            "fault.seed" => put!(config.faults, seed, FaultPlan::seeded(0)),
            "fault.loss_pm" => put!(config.faults, loss_pm, FaultPlan::seeded(0)),
            "fault.corrupt_pm" => put!(config.faults, corrupt_pm, FaultPlan::seeded(0)),
            "fault.drop_pm" => put!(config.faults, drop_pm, FaultPlan::seeded(0)),
            "fault.droop_pm" => put!(config.faults, droop_pm, FaultPlan::seeded(0)),
            "fault.semantic_pm" => put!(config.faults, semantic_pm, FaultPlan::seeded(0)),
            "fault.reconnect_cycles" => put!(config.faults, reconnect_cycles, FaultPlan::seeded(0)),
            "fault.degrade_threshold" => {
                put!(config.faults, degrade_threshold, FaultPlan::seeded(0))
            }
            "outage.seed" => put!(config.outages, seed, OutagePlan::seeded(0)),
            "outage.rate_pm" => put!(config.outages, rate_pm, OutagePlan::seeded(0)),
            "outage.min_cycles" => put!(config.outages, min_cycles, OutagePlan::seeded(0)),
            "outage.max_cycles" => put!(config.outages, max_cycles, OutagePlan::seeded(0)),
            "outage.negotiation_cycles" => {
                put!(config.outages, negotiation_cycles, OutagePlan::seeded(0));
            }
            "replica.seed" => put!(config.replicas, seed, ReplicaConfig::seeded(0)),
            "replica.replicas" => put!(config.replicas, replicas, ReplicaConfig::seeded(0)),
            "replica.spread_pm" => put!(config.replicas, spread_pm, ReplicaConfig::seeded(0)),
            "replica.hedge_deadline_cycles" => {
                put!(
                    config.replicas,
                    hedge_deadline_cycles,
                    ReplicaConfig::seeded(0)
                );
            }
            "replica.kill" => {
                let (r, at) = value.split_once('@').ok_or_else(bad)?;
                let kill = ReplicaKill {
                    replica: r.parse().map_err(|_| bad())?,
                    at_cycle: at.parse().map_err(|_| bad())?,
                };
                let rc = self
                    .config
                    .replicas
                    .as_mut()
                    .ok_or(ScenarioError::MissingKey("replica.seed"))?;
                rc.kill = Some(kill);
            }
            "byz.seed" => put!(config.byzantine, seed, ByzantinePlan::seeded(0)),
            "byz.mirrors" => put!(config.byzantine, mirrors, ByzantinePlan::seeded(0)),
            "byz.mode" => {
                self.config
                    .byzantine
                    .get_or_insert(ByzantinePlan::seeded(0))
                    .mode = ByzantineMode::parse(value).ok_or_else(bad)?;
            }
            "byz.audit_rate_pm" => put!(config.byzantine, audit_rate_pm, ByzantinePlan::seeded(0)),
            "overload.seed" => put!(overload, seed, OverloadDims::seeded(0)),
            "overload.clients" => put!(overload, clients, OverloadDims::seeded(0)),
            "overload.spread_pm" => put!(overload, spread_pm, OverloadDims::seeded(0)),
            "overload.admit_rate" => put!(overload, admit_rate, OverloadDims::seeded(0)),
            "overload.ladder" => {
                // Rungs `H/S/J`; `H,S,J`, the `--shed-ladder` spelling,
                // reads the same. Their ordering is a range rule.
                let ladder = if value == "off" {
                    None
                } else {
                    let rungs: Vec<u64> = value
                        .split(['/', ','])
                        .map(|p| p.trim().parse())
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad())?;
                    let &[drop_hedges, force_strict, shed] = rungs.as_slice() else {
                        return Err(bad());
                    };
                    Some(ShedLadder {
                        drop_hedges,
                        force_strict,
                        shed,
                    })
                };
                let ov = self
                    .overload
                    .as_mut()
                    .ok_or(ScenarioError::MissingKey("overload.seed"))?;
                ov.ladder = ladder;
            }
            "interrupt.at_cycle" => put!(interrupt, at_cycle, InterruptSpec::default()),
            "interrupt.downtime" => put!(interrupt, outage_cycles, InterruptSpec::default()),
            "disk.seed" => put!(disk, seed, DiskDims::seeded(0)),
            "disk.torn_pm" => put!(disk, torn_pm, DiskDims::seeded(0)),
            "disk.lie_pm" => put!(disk, lie_pm, DiskDims::seeded(0)),
            "disk.bitrot_pm" => put!(disk, bitrot_pm, DiskDims::seeded(0)),
            _ => return Err(ScenarioError::UnknownKey(key.to_owned())),
        }
        Ok(())
    }

    /// The range rules every scenario must meet, wherever it was
    /// spelled: a benchmark is named; a replica set has 1..=8 mirrors;
    /// Byzantine mirrors leave at least one honest mirror (a scenario
    /// without a replica set has one, the origin) and audit at most
    /// every unit (1e6 ppm); a fleet has 1..=64 clients and an ordered
    /// shed ladder; and an active fleet is never interrupted (it has no
    /// single journal to crash).
    ///
    /// # Errors
    ///
    /// The first rule broken, as a typed [`ScenarioError`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        fn within(key: &'static str, value: u32, min: u32, max: u32) -> Result<(), ScenarioError> {
            if (min..=max).contains(&value) {
                Ok(())
            } else {
                Err(ScenarioError::OutOfRange {
                    key,
                    value,
                    min,
                    max,
                })
            }
        }
        if self.bench.is_empty() {
            return Err(ScenarioError::MissingKey("bench"));
        }
        let replicas = self.config.replicas.map_or(Ok(1), |rc| {
            within(
                "replica.replicas",
                rc.replicas,
                1,
                ReplicaConfig::MAX_REPLICAS,
            )
            .map(|()| rc.replicas)
        })?;
        if let Some(bc) = self.config.byzantine {
            if bc.mirrors >= replicas {
                return Err(ScenarioError::NoHonestMirror {
                    mirrors: bc.mirrors,
                    replicas,
                });
            }
            within("byz.audit_rate_pm", bc.audit_rate_pm, 0, 1_000_000)?;
        }
        if let Some(ov) = self.overload {
            within("overload.clients", ov.clients, 1, OverloadDims::MAX_CLIENTS)?;
            if let Some(l) = ov.ladder {
                ShedLadder::new(l.drop_hedges, l.force_strict, l.shed).map_err(|_| {
                    ScenarioError::BadValue {
                        key: "overload.ladder".to_owned(),
                        value: format!("{}/{}/{}", l.drop_hedges, l.force_strict, l.shed),
                    }
                })?;
            }
        }
        if self.active_overload().is_some() && self.interrupt.is_some() {
            return Err(ScenarioError::Conflict(
                "interrupt cannot compose with overload: a fleet has no single journal to crash",
            ));
        }
        Ok(())
    }
}

/// Typed decoding errors for the `NSCR` repro format: hostile or stale
/// artifacts fail closed with a diagnosable reason, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The first line is not `NSCR <version>`.
    BadMagic,
    /// A version this reader does not understand.
    BadVersion(u32),
    /// A line that is neither blank, a comment, nor `key = value`.
    BadLine(String),
    /// A key this reader does not know.
    UnknownKey(String),
    /// A key appeared twice.
    DuplicateKey(String),
    /// A value failed to parse for its key.
    BadValue {
        /// The offending key.
        key: String,
        /// The offending value.
        value: String,
    },
    /// A required key is missing (or a dependent key appeared without
    /// its section anchor).
    MissingKey(&'static str),
    /// A count or rate outside its key's range.
    OutOfRange {
        /// The offending key.
        key: &'static str,
        /// The value given.
        value: u32,
        /// Smallest legal value.
        min: u32,
        /// Largest legal value.
        max: u32,
    },
    /// Every mirror of the replica set is Byzantine: the origin-pinned
    /// manifest's refetch path has no honest mirror to fail over to.
    NoHonestMirror {
        /// Byzantine mirrors requested.
        mirrors: u32,
        /// Mirrors in the set (1 without a replica section).
        replicas: u32,
    },
    /// Two dimensions that cannot compose were both requested.
    Conflict(&'static str),
    /// The benchmark name matches no known workload.
    UnknownBench(String),
}

/// The noun and accepted spellings of each enumerated key, for
/// diagnostics.
const SPELLED_KEYS: [(&str, &str, &str); 9] = [
    ("link", "link", "t1|modem|cpb:N"),
    ("ordering", "ordering", "scg|train|test|source"),
    ("transfer", "transfer", "strict|parN|parinf|interleaved"),
    ("layout", "layout", "whole|part"),
    ("execution", "execution model", "strict|nonstrict"),
    ("verify", "verify mode", "off|stream|full"),
    (
        "byz.mode",
        "byzantine mode",
        "stale-epoch|equivocate|collude",
    ),
    ("replica.kill", "replica kill", "MIRROR@CYCLE"),
    (
        "overload.ladder",
        "shed ladder",
        "off or three ordered cycle counts H,S,J",
    ),
];

impl ScenarioError {
    /// The message with each key it names spelled by `name`: the key
    /// itself for [`fmt::Display`], the flag that sets it for
    /// `nonstrict simulate`.
    #[must_use]
    pub fn render(&self, name: &dyn Fn(&str) -> String) -> String {
        match self {
            ScenarioError::BadMagic => {
                format!("not a scenario file: expected `{SCENARIO_MAGIC} {SCENARIO_VERSION}`")
            }
            ScenarioError::BadVersion(v) => {
                format!("scenario version {v} is not supported (max {SCENARIO_VERSION})")
            }
            ScenarioError::BadLine(l) => format!("malformed line: {l}"),
            ScenarioError::UnknownKey(k) => format!("unknown key: {k}"),
            ScenarioError::DuplicateKey(k) => format!("duplicate key: {k}"),
            ScenarioError::BadValue { key, value } => {
                match SPELLED_KEYS.iter().find(|(k, _, _)| k == key) {
                    Some((_, noun, choices)) => {
                        format!("unknown {noun} {value:?} for {}; use {choices}", name(key))
                    }
                    None => format!("bad value for {}: {value}", name(key)),
                }
            }
            ScenarioError::MissingKey(k) => format!("missing key: {}", name(k)),
            ScenarioError::OutOfRange {
                key,
                value,
                min,
                max,
            } => format!("{} expects {min}..={max}, got {value}", name(key)),
            ScenarioError::NoHonestMirror { mirrors, replicas } => format!(
                "{} expects at most {} - 1 (at least one honest mirror), got {mirrors} of {replicas}",
                name("byz.mirrors"),
                name("replica.replicas")
            ),
            ScenarioError::Conflict(why) => format!("conflicting dimensions: {why}"),
            ScenarioError::UnknownBench(b) => format!("unknown benchmark: {b}"),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(&str::to_owned))
    }
}

impl std::error::Error for ScenarioError {}

/// One global-invariant violation found by [`run_scenario`] or
/// [`crash_anywhere`]. A passing scenario produces none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosViolation {
    /// `total_cycles` is not the eight-bucket sum.
    LedgerInexact {
        /// Fleet client index (0 for single-client scenarios).
        client: u32,
        /// The reported total.
        total: u64,
        /// The bucket sum.
        sum: u64,
    },
    /// An all-dimensions-quiet scenario diverged from the stripped run.
    ZeroIdentityBroken,
    /// A later checkpoint delivered fewer units than an earlier one.
    WatermarkRegression {
        /// Interrupt cycle of the later checkpoint.
        at_cycle: u64,
        /// Units delivered at the earlier checkpoint.
        prev: u64,
        /// Units delivered at the later checkpoint.
        next: u64,
    },
    /// A later checkpoint's journal clock ran backwards.
    ClockRegression {
        /// Interrupt cycle of the later checkpoint.
        at_cycle: u64,
        /// Clock at the earlier checkpoint.
        prev: u64,
        /// Clock at the later checkpoint.
        next: u64,
    },
    /// A torn journal did not degrade fail-closed (or the fail-closed
    /// restart did not complete).
    FailOpen(&'static str),
    /// A crash/resume round trip diverged from the uninterrupted run.
    CrashDivergence(BoundaryDivergence),
    /// The composed run did not execute the program to completion.
    Incomplete,
}

impl fmt::Display for ChaosViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosViolation::LedgerInexact { client, total, sum } => write!(
                f,
                "ledger inexact for client {client}: total {total} != bucket sum {sum}"
            ),
            ChaosViolation::ZeroIdentityBroken => {
                write!(f, "quiet scenario diverged from the stripped run")
            }
            ChaosViolation::WatermarkRegression {
                at_cycle,
                prev,
                next,
            } => write!(
                f,
                "delivered watermark regressed at cycle {at_cycle}: {prev} -> {next}"
            ),
            ChaosViolation::ClockRegression {
                at_cycle,
                prev,
                next,
            } => write!(
                f,
                "journal clock regressed at cycle {at_cycle}: {prev} -> {next}"
            ),
            ChaosViolation::FailOpen(why) => write!(f, "fail-closed violation: {why}"),
            ChaosViolation::CrashDivergence(d) => write!(f, "{d}"),
            ChaosViolation::Incomplete => write!(f, "program did not run to completion"),
        }
    }
}

/// One diverging field of a crash/resume round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryDivergence {
    /// The interrupt cycle probed.
    pub at_cycle: u64,
    /// Units delivered at the checkpoint.
    pub delivered: u64,
    /// The diverging quantity.
    pub field: &'static str,
    /// Its value in the uninterrupted run.
    pub base: u64,
    /// Its value in the resumed run.
    pub resumed: u64,
}

impl fmt::Display for BoundaryDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crash at cycle {} ({} units delivered): {} diverged, base {} vs resumed {}",
            self.at_cycle, self.delivered, self.field, self.base, self.resumed
        )
    }
}

/// Aggregate fleet numbers for overload scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetDigest {
    /// Clients in the fleet.
    pub clients: u32,
    /// Median per-client total cycles.
    pub p50_total: u64,
    /// 99th-percentile per-client total cycles.
    pub p99_total: u64,
    /// Admission rejections across the fleet.
    pub rejections: u64,
    /// Queue cycles across the fleet.
    pub queue_cycles: u64,
}

/// What [`run_scenario`] produced: the composed result plus every
/// invariant violation the global checker found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The scenario run.
    pub scenario: ChaosScenario,
    /// The final result: resumed when the interrupt dimension is set,
    /// client 0's outcome under overload, the plain run otherwise.
    pub result: SimResult,
    /// Fleet aggregates, for overload scenarios.
    pub fleet: Option<FleetDigest>,
    /// Invariant violations, in discovery order; empty on a pass.
    pub violations: Vec<ChaosViolation>,
}

impl ChaosReport {
    /// Whether every global invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one composed scenario on a prepared `session` (which must be
/// the scenario's benchmark) and applies the global invariant checker.
/// Deterministic: equal scenarios produce equal reports, bit for bit.
#[must_use]
pub fn run_scenario(session: &Session, sc: &ChaosScenario) -> ChaosReport {
    let config = sc.config;
    let mut violations = Vec::new();

    // Overload path: the fleet has no single journal, so the interrupt
    // dimension is rejected by `validate` and ignored here.
    if let Some(ov) = sc.active_overload() {
        let spec = FleetSpec {
            admission: (ov.admit_rate > 0).then(|| AdmissionSettings::per_period(ov.admit_rate)),
            ladder: ov.ladder,
            egress: config.link,
            ..FleetSpec::seeded(ov.seed)
        };
        let clients: Vec<FleetClient> = (0..ov.clients)
            .map(|i| FleetClient {
                name: &sc.bench,
                session,
                link: config.link.spread(ov.spread_pm, i),
                weight: 1,
            })
            .collect();
        let fleet = run_fleet(&spec, &clients, Input::Test, &config);
        for (i, c) in fleet.clients.iter().enumerate() {
            check_ledger(
                &c.result,
                u32::try_from(i).unwrap_or(u32::MAX),
                &mut violations,
            );
            if !c.result.completed {
                violations.push(ChaosViolation::Incomplete);
            }
        }
        let result = fleet.clients[0].result;
        return ChaosReport {
            scenario: sc.clone(),
            result,
            fleet: Some(FleetDigest {
                clients: ov.clients,
                p50_total: fleet.p50_total,
                p99_total: fleet.p99_total,
                rejections: fleet.rejections(),
                queue_cycles: fleet.queue_cycles(),
            }),
            violations,
        };
    }

    let base = session.simulate(Input::Test, &config);
    check_ledger(&base, 0, &mut violations);
    if !base.completed {
        violations.push(ChaosViolation::Incomplete);
    }

    // All-rates-zero byte-identity: an armed-but-quiet scenario must
    // match the fully stripped config exactly.
    if sc.is_quiet() {
        let stripped = SimConfig {
            faults: None,
            outages: None,
            replicas: None,
            byzantine: None,
            ..config
        };
        if base != session.simulate(Input::Test, &stripped) {
            violations.push(ChaosViolation::ZeroIdentityBroken);
        }
    }

    check_watermarks(session, &config, base.total_cycles, &mut violations);
    check_fail_closed(session, &config, base.total_cycles, &mut violations);

    // The storage dimension alone (no interrupt point chosen): probe a
    // fixed grid of crash cycles, persisting each checkpoint to the
    // fault store to verify the detect-or-resume-exactly contract.
    if sc.interrupt.is_none() {
        if let Some(dims) = sc.active_disk() {
            const PROBES: u64 = 4;
            for p in 1..=PROBES {
                let at = base.total_cycles * p / (PROBES + 1);
                let RunOutcome::Interrupted(journal) = session.run_until(Input::Test, &config, at)
                else {
                    break;
                };
                check_disk_resume(session, &config, &journal, &dims, p, None, &mut violations);
            }
        }
    }

    let result = match sc.interrupt {
        None => base,
        Some(i) => {
            let r = match session.run_until(Input::Test, &config, i.at_cycle) {
                RunOutcome::Finished(r) => *r,
                RunOutcome::Interrupted(journal) => match sc.active_disk() {
                    // The checkpoint is persisted to a faulty disk.
                    Some(dims) => {
                        let r = check_disk_resume(
                            session,
                            &config,
                            &journal,
                            &dims,
                            0,
                            Some(i.outage_cycles),
                            &mut violations,
                        );
                        let Some(r) = r else {
                            // The store failed closed and the cold
                            // restart completed: that is the composed
                            // result.
                            return ChaosReport {
                                scenario: sc.clone(),
                                result: base,
                                fleet: None,
                                violations,
                            };
                        };
                        r
                    }
                    None => {
                        session.resume(Input::Test, &config, &journal.in_memory(), i.outage_cycles)
                    }
                },
            };
            check_ledger(&r, 0, &mut violations);
            for d in compare_resume(&base, &r, &config, i.at_cycle) {
                violations.push(ChaosViolation::CrashDivergence(d));
            }
            r
        }
    };

    ChaosReport {
        scenario: sc.clone(),
        result,
        fleet: None,
        violations,
    }
}

/// Eight-bucket exactness, checked in release builds too (the sim's own
/// `debug_assert` vanishes exactly where soak runs live).
fn check_ledger(r: &SimResult, client: u32, violations: &mut Vec<ChaosViolation>) {
    let sum = r.ledger.total();
    if sum != r.total_cycles {
        violations.push(ChaosViolation::LedgerInexact {
            client,
            total: r.total_cycles,
            sum,
        });
    }
}

/// Journal watermark/clock monotonicity: checkpoints taken later in
/// the run never deliver fewer units or report an earlier clock.
/// Probes a fixed grid of interrupt points (the exhaustive walk is
/// [`crash_anywhere`]'s job).
fn check_watermarks(
    session: &Session,
    config: &SimConfig,
    total: u64,
    violations: &mut Vec<ChaosViolation>,
) {
    const PROBES: u64 = 8;
    let mut prev: Option<(u64, u64)> = None; // (delivered, clock)
    for p in 1..=PROBES {
        let at = total * p / (PROBES + 1);
        let RunOutcome::Interrupted(journal) = session.run_until(Input::Test, config, at) else {
            break;
        };
        let delivered: u64 = journal.classes.iter().map(|c| u64::from(c.delivered)).sum();
        if let Some((pd, pc)) = prev {
            if delivered < pd {
                violations.push(ChaosViolation::WatermarkRegression {
                    at_cycle: at,
                    prev: pd,
                    next: delivered,
                });
            }
            if journal.clock < pc {
                violations.push(ChaosViolation::ClockRegression {
                    at_cycle: at,
                    prev: pc,
                    next: journal.clock,
                });
            }
        }
        prev = Some((delivered, journal.clock));
    }
}

/// Fail-closed degradation ordering: a mid-run checkpoint whose log
/// file rotted must be detected, resume nothing, and still complete
/// under the strict fallback.
fn check_fail_closed(
    session: &Session,
    config: &SimConfig,
    total: u64,
    violations: &mut Vec<ChaosViolation>,
) {
    let RunOutcome::Interrupted(journal) = session.run_until(Input::Test, config, total / 2) else {
        return;
    };
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(0)));
    let log = JournalLog::new(fs.clone(), CHECKPOINT_LOG);
    log.append_record(&journal.encode())
        .expect("an honest in-memory store takes every checkpoint");
    let mut bytes = fs.durable(CHECKPOINT_LOG).expect("the append is durable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs.set_durable(CHECKPOINT_LOG, bytes);
    let r = session.resume(Input::Test, config, &log, 1_000_000);
    if !r.outage.failed_closed {
        violations.push(ChaosViolation::FailOpen("torn journal was not detected"));
        return;
    }
    if r.outage.resumes != 0 {
        violations.push(ChaosViolation::FailOpen("torn journal resumed watermarks"));
    }
    if !r.completed {
        violations.push(ChaosViolation::FailOpen(
            "fail-closed restart did not complete",
        ));
    }
}

/// Persists one interrupt checkpoint through a seeded [`FaultFs`] —
/// append to a fresh log under the scenario's storage-fault knobs,
/// then a power cut — and returns the log a warm restart reads.
/// `salt` decorrelates multiple probes of the same scenario.
fn disk_checkpoint(journal: &SessionJournal, d: &DiskDims, salt: u64) -> JournalLog {
    let fs = Arc::new(FaultFs::new(FaultKnobs {
        seed: d.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        torn_pm: 0,
        lie_pm: d.lie_pm,
        bitrot_pm: d.bitrot_pm,
    }));
    let log = JournalLog::new(fs.clone(), CHECKPOINT_LOG);
    let mut rng = SplitMix64(d.seed ^ salt ^ 0x6469_736b);
    if rng.hit_pm(d.torn_pm) {
        // The power cut lands mid-append: kill at the header write or
        // the frame write, leaving a seeded prefix of it durable.
        fs.set_kill_at(1 + rng.below(2));
    }
    let _ = log.append_record(&journal.encode());
    fs.crash();
    log
}

/// Applies the storage-dimension contract to one interrupt checkpoint:
/// a checkpoint that survives its disk round trip intact resumes
/// normally (result returned for the caller's resume-equivalence
/// check); one the store lost or rejected must degrade to a restart
/// that is fail-closed **and still completes** (returns `None`).
fn check_disk_resume(
    session: &Session,
    config: &SimConfig,
    journal: &SessionJournal,
    dims: &DiskDims,
    salt: u64,
    downtime: Option<u64>,
    violations: &mut Vec<ChaosViolation>,
) -> Option<SimResult> {
    let downtime = downtime.unwrap_or(1_000_000);
    let log = disk_checkpoint(journal, dims, salt);
    match SessionJournal::load(&log) {
        Ok(back) if back == *journal => Some(session.resume(Input::Test, config, &log, downtime)),
        Ok(_) => {
            // Recovery handed back different bytes it believed valid —
            // the store's own detection contract is broken.
            violations.push(ChaosViolation::FailOpen(
                "disk round trip altered the journal undetected",
            ));
            None
        }
        Err(_) => {
            let r = session.resume(Input::Test, config, &log, downtime);
            if !r.outage.failed_closed {
                violations.push(ChaosViolation::FailOpen(
                    "journal lost to storage faults was not detected",
                ));
            }
            if !r.completed {
                violations.push(ChaosViolation::FailOpen(
                    "fail-closed restart after storage loss did not complete",
                ));
            }
            None
        }
    }
}

/// Compares a resumed run against the uninterrupted run under the
/// composed-resume contract: the base timeline is untouched (every
/// bucket except resume identical), the wall clock is base plus the
/// resume bucket's growth, and exactly one more outage/resume is
/// recorded. Invocation latency is compared only when no ambient
/// outage schedule is active: ambient outages remap latency onto the
/// wall clock, which an interrupt legitimately shifts.
fn compare_resume(
    base: &SimResult,
    r: &SimResult,
    config: &SimConfig,
    at_cycle: u64,
) -> Vec<BoundaryDivergence> {
    let mut out = Vec::new();
    let delivered = 0; // caller-specific; crash_anywhere overwrites it
    let mut diff = |field: &'static str, b: u64, v: u64| {
        if b != v {
            out.push(BoundaryDivergence {
                at_cycle,
                delivered,
                field,
                base: b,
                resumed: v,
            });
        }
    };
    if r.outage.failed_closed {
        diff("failed_closed", 0, 1);
        return out;
    }
    let (b, l) = (&base.ledger, &r.ledger);
    diff("exec_cycles", b.exec, l.exec);
    diff("stall_cycles", b.stall, l.stall);
    diff("verify_cycles", b.verify, l.verify);
    diff("recovery_cycles", b.recovery, l.recovery);
    diff("hedge_cycles", b.hedge, l.hedge);
    diff("integrity_cycles", b.integrity, l.integrity);
    diff("queue_cycles", b.queue, l.queue);
    diff("retries", base.faults.retries, r.faults.retries);
    diff("drops", base.faults.drops, r.faults.drops);
    diff("corrupted", base.faults.corrupted, r.faults.corrupted);
    diff("quarantined", base.faults.quarantined, r.faults.quarantined);
    diff("stalls", u64::from(base.stalls), u64::from(r.stalls));
    diff(
        "degraded_classes",
        u64::from(base.degraded_classes),
        u64::from(r.degraded_classes),
    );
    diff("hedges", base.replica.hedges, r.replica.hedges);
    diff("failovers", base.replica.failovers, r.replica.failovers);
    diff(
        "divergent_units",
        base.integrity.divergent_units,
        r.integrity.divergent_units,
    );
    diff("audits", base.integrity.audits, r.integrity.audits);
    // Base-timeline equality: total minus the resume bucket matches.
    diff(
        "base_timeline_total",
        base.total_cycles - b.resume,
        r.total_cycles - l.resume,
    );
    diff(
        "outages",
        u64::from(base.outage.outages) + 1,
        u64::from(r.outage.outages),
    );
    diff(
        "resumes",
        u64::from(base.outage.resumes) + 1,
        u64::from(r.outage.resumes),
    );
    if config.active_outages().is_none() {
        diff(
            "invocation_latency",
            base.invocation_latency,
            r.invocation_latency,
        );
    }
    out
}

/// What the differential engine found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Distinct unit boundaries interrupted.
    pub boundaries: u32,
    /// Every divergence found, in boundary order; empty on a pass.
    pub divergences: Vec<BoundaryDivergence>,
}

impl DifferentialReport {
    /// Whether crash-anywhere equivalence held at every boundary.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The crash-anywhere differential engine: interrupts the composed
/// scenario at **every** unit boundary (binary search on the journal's
/// delivered-unit watermark), resumes each from its journal with
/// `downtime` cycles of outage, and records every field that diverges
/// from the uninterrupted run. Overload scenarios are out of scope (no
/// single journal) and return an empty pass.
#[must_use]
pub fn crash_anywhere(session: &Session, sc: &ChaosScenario, downtime: u64) -> DifferentialReport {
    if sc.active_overload().is_some() {
        return DifferentialReport {
            boundaries: 0,
            divergences: Vec::new(),
        };
    }
    let config = sc.config;
    let base = session.simulate(Input::Test, &config);
    let total = base.total_cycles;

    let probe = |at: u64| -> Option<u64> {
        match session.run_until(Input::Test, &config, at) {
            RunOutcome::Interrupted(j) => {
                Some(j.classes.iter().map(|c| u64::from(c.delivered)).sum())
            }
            RunOutcome::Finished(_) => None,
        }
    };

    let mut boundaries = 0u32;
    let mut divergences = Vec::new();
    let mut k = 0u64; // delivered-unit watermark to hunt for
    loop {
        // Minimal interrupt cycle whose checkpoint has >= k units
        // delivered (a run that finished counts as "all delivered").
        let reaches = |at: u64| probe(at).is_none_or(|d| d >= k);
        let (mut lo, mut hi) = (0u64, total + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if reaches(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let Some(delivered) = probe(lo) else {
            break; // watermark k is only reached by running to the end
        };
        k = delivered + 1;
        boundaries += 1;
        let RunOutcome::Interrupted(journal) = session.run_until(Input::Test, &config, lo) else {
            divergences.push(BoundaryDivergence {
                at_cycle: lo,
                delivered,
                field: "probe_stability",
                base: 1,
                resumed: 0,
            });
            continue;
        };
        let r = session.resume(Input::Test, &config, &journal.in_memory(), downtime);
        for mut d in compare_resume(&base, &r, &config, lo) {
            d.delivered = delivered;
            divergences.push(d);
        }
    }
    DifferentialReport {
        boundaries,
        divergences,
    }
}

/// What [`shrink`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkOutcome {
    /// The minimized still-failing scenario.
    pub scenario: ChaosScenario,
    /// Predicate invocations spent.
    pub tests_run: u32,
}

/// Hard cap on predicate invocations per [`shrink`] call: scenarios
/// are expensive to run, and delta debugging converges long before
/// this.
pub const SHRINK_BUDGET: u32 = 600;

/// Delta-debugging minimizer: given a scenario for which `failing`
/// returns `true`, returns a (locally) minimal scenario that still
/// fails. Passes run to fixpoint under [`SHRINK_BUDGET`]:
///
/// 1. **Dimensions** — drop whole fault dimensions (disk, interrupt,
///    byzantine, replicas, outages, faults, overload, verify).
/// 2. **Numbers** — binary-search every surviving integer key of the
///    NSCR artifact ([`ChaosScenario::encode`]) toward zero, through
///    [`ChaosScenario::set`]: rates, sizes, seeds, the crash cycle and
///    downtime alike, keeping the smallest still-failing value.
///
/// The predicate must be deterministic (every runner here is); it is
/// never called on the input scenario itself, nor on a candidate
/// [`ChaosScenario::validate`] rejects.
pub fn shrink(
    sc: &ChaosScenario,
    failing: &mut dyn FnMut(&ChaosScenario) -> bool,
) -> ShrinkOutcome {
    let mut best = sc.clone();
    let mut tests_run = 0u32;
    // Only candidates `validate` accepts are tried, so every minimized
    // scenario encodes to a loadable artifact.
    let mut check = |cand: &ChaosScenario, tests_run: &mut u32| -> bool {
        if *tests_run >= SHRINK_BUDGET || cand.validate().is_err() {
            return false;
        }
        *tests_run += 1;
        failing(cand)
    };

    loop {
        let before = best.clone();

        // Pass 1: drop whole dimensions, most-derived first (byzantine
        // needs replicas, so it goes before them).
        let drops: [fn(&mut ChaosScenario); 8] = [
            |s| s.disk = None,
            |s| s.interrupt = None,
            |s| s.config.byzantine = None,
            |s| {
                s.config.replicas = None;
                s.config.byzantine = None;
            },
            |s| s.config.outages = None,
            |s| s.config.faults = None,
            |s| s.overload = None,
            |s| s.config.verify = VerifyMode::Off,
        ];
        for drop in drops {
            let mut cand = best.clone();
            drop(&mut cand);
            if cand != best && check(&cand, &mut tests_run) {
                best = cand;
            }
        }

        // Pass 2+3: shrink every surviving numeric key toward zero —
        // every `key = value` line of the artifact whose value is a
        // plain integer, written back through `set`.
        let with = |base: &ChaosScenario, key: &str, v: u64| {
            let mut cand = base.clone();
            cand.set(key, &v.to_string()).ok().map(|()| cand)
        };
        for line in best.encode().lines() {
            let Some((key, Ok(hi))) = line.split_once(" = ").map(|(k, v)| (k, v.parse::<u64>()))
            else {
                continue;
            };
            if hi == 0 {
                continue;
            }
            let mut fails = |v: u64, tests_run: &mut u32| {
                with(&best, key, v).filter(|cand| check(cand, tests_run))
            };
            // Try zero outright, then bisect (lo known-pass, hi
            // known-fail) down to the smallest still-failing value.
            if let Some(zeroed) = fails(0, &mut tests_run) {
                best = zeroed;
                continue;
            }
            let (mut lo, mut hi) = (0u64, hi);
            let mut smallest = None;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                match fails(mid, &mut tests_run) {
                    Some(cand) => {
                        hi = mid;
                        smallest = Some(cand);
                    }
                    None => lo = mid,
                }
            }
            if let Some(cand) = smallest {
                best = cand;
            }
        }

        if best == before || tests_run >= SHRINK_BUDGET {
            break;
        }
    }
    ShrinkOutcome {
        scenario: best,
        tests_run,
    }
}

/// Decodes a repro artifact, rebuilds its benchmark, reruns the
/// scenario, and renders a deterministic report. The same artifact
/// always produces the same text, bit for bit — CI replays the corpus
/// twice and diffs.
///
/// # Errors
///
/// [`ScenarioError`] on a malformed artifact or unknown benchmark.
pub fn replay_repro(text: &str) -> Result<String, ScenarioError> {
    let sc = ChaosScenario::decode(text)?;
    let app = nonstrict_workloads::build_by_name(&sc.bench)
        .ok_or_else(|| ScenarioError::UnknownBench(sc.bench.clone()))?;
    let session = Session::new(app).map_err(|_| ScenarioError::UnknownBench(sc.bench.clone()))?;
    let report = run_scenario(&session, &sc);
    Ok(render_replay(&report))
}

/// Renders one replayed scenario deterministically.
#[must_use]
pub fn render_replay(report: &ChaosReport) -> String {
    use std::fmt::Write as _;
    let sc = &report.scenario;
    let r = &report.result;
    let l = r.ledger;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "chaos replay: {} on {} [{}]",
        sc.bench,
        sc.config.link.name,
        sc.label()
    );
    let _ = writeln!(
        s,
        "  total {} = exec {} + stall {} + recovery {} + verify {} + resume {} + hedge {} + queue {} + integrity {}",
        r.total_cycles, l.exec, l.stall, l.recovery, l.verify, l.resume, l.hedge, l.queue, l.integrity
    );
    let _ = writeln!(
        s,
        "  completed {} degraded {} outages {} resumes {} failed_closed {}",
        r.completed, r.session_degraded, r.outage.outages, r.outage.resumes, r.outage.failed_closed
    );
    if let Some(fd) = report.fleet {
        let _ = writeln!(
            s,
            "  fleet: {} clients p50 {} p99 {} rejections {} queue {}",
            fd.clients, fd.p50_total, fd.p99_total, fd.rejections, fd.queue_cycles
        );
    }
    if report.violations.is_empty() {
        let _ = writeln!(s, "  invariants: PASS");
    } else {
        let _ = writeln!(s, "  invariants: FAIL ({})", report.violations.len());
        for v in &report.violations {
            let _ = writeln!(s, "    - {v}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> ChaosScenario {
        let mut fc = FaultPlan::seeded(7);
        fc.loss_pm = 20_000;
        fc.corrupt_pm = 10_000;
        let mut oc = OutagePlan::seeded(9);
        oc.rate_pm = 200_000;
        oc.min_cycles = 1 << 20;
        oc.max_cycles = 1 << 23;
        let mut rc = ReplicaConfig::seeded(3);
        rc.replicas = 3;
        rc.kill = Some(ReplicaKill {
            replica: 2,
            at_cycle: 5_000_000,
        });
        let mut bc = ByzantinePlan::seeded(11);
        bc.mirrors = 1;
        bc.mode = ByzantineMode::Equivocate;
        let mut dd = DiskDims::seeded(13);
        dd.torn_pm = 300_000;
        dd.bitrot_pm = 50_000;
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
            .with_verify(VerifyMode::Stream)
            .with_faults(fc)
            .with_outages(oc)
            .with_replicas(rc)
            .with_byzantine(bc);
        ChaosScenario::new("hanoi", config)
            .with_interrupt(40_000_000, 2_500_000)
            .with_disk(dd)
    }

    /// A scenario with every optional dimension absent.
    fn plain(bench: &str, link: Link, ordering: OrderingSource) -> ChaosScenario {
        ChaosScenario::new(bench, SimConfig::non_strict(link, ordering))
    }

    #[test]
    fn encode_decode_round_trips_every_dimension() {
        let sc = storm();
        let text = sc.encode();
        assert_eq!(ChaosScenario::decode(&text).unwrap(), sc);
        // Quiet scenario too.
        let quiet = plain("bit", Link::T1, OrderingSource::TrainProfile);
        assert_eq!(ChaosScenario::decode(&quiet.encode()).unwrap(), quiet);
        // Overload section (without an interrupt).
        let mut ov = OverloadDims::seeded(5);
        ov.clients = 4;
        ov.admit_rate = 2;
        ov.ladder = Some(ShedLadder::new(1, 2, 3).unwrap());
        let fleet = plain("jess", Link::T1, OrderingSource::TestProfile).with_overload(ov);
        assert_eq!(ChaosScenario::decode(&fleet.encode()).unwrap(), fleet);
    }

    #[test]
    fn decode_rejects_hostile_artifacts_with_typed_errors() {
        assert_eq!(ChaosScenario::decode(""), Err(ScenarioError::BadMagic));
        assert_eq!(
            ChaosScenario::decode("NSJL 1"),
            Err(ScenarioError::BadMagic)
        );
        assert_eq!(
            ChaosScenario::decode("NSCR 2\nbench = hanoi\n"),
            Err(ScenarioError::BadVersion(2))
        );
        assert_eq!(
            ChaosScenario::decode("NSCR 1\nnot a pair\n"),
            Err(ScenarioError::BadLine("not a pair".to_owned()))
        );
        assert_eq!(
            ChaosScenario::decode("NSCR 1\nbench = hanoi\nwat = 1\n"),
            Err(ScenarioError::UnknownKey("wat".to_owned()))
        );
        assert_eq!(
            ChaosScenario::decode("NSCR 1\nbench = a\nbench = b\n"),
            Err(ScenarioError::DuplicateKey("bench".to_owned()))
        );
        assert_eq!(
            ChaosScenario::decode("NSCR 1\nbench = hanoi\nfault.loss_pm = many\n"),
            Err(ScenarioError::BadValue {
                key: "fault.loss_pm".to_owned(),
                value: "many".to_owned()
            })
        );
        assert_eq!(
            ChaosScenario::decode("NSCR 1\nlink = t1\n"),
            Err(ScenarioError::MissingKey("bench"))
        );
        assert_eq!(
            ChaosScenario::decode("NSCR 1\nbench = hanoi\nreplica.kill = 0@5\n"),
            Err(ScenarioError::MissingKey("replica.seed"))
        );
        // Unordered ladder.
        assert!(matches!(
            ChaosScenario::decode(
                "NSCR 1\nbench = hanoi\noverload.seed = 1\noverload.ladder = 3/2/1\n"
            ),
            Err(ScenarioError::BadValue { .. })
        ));
        // Interrupt + active overload cannot compose.
        assert!(matches!(
            ChaosScenario::decode(
                "NSCR 1\nbench = hanoi\noverload.clients = 4\ninterrupt.at_cycle = 5\n"
            ),
            Err(ScenarioError::Conflict(_))
        ));
        // Counts and rates outside their ranges are rejected, never
        // clamped, allocated for, or run.
        let out_of_range = |body: &str, key: &'static str, value: u32, min: u32, max: u32| {
            assert_eq!(
                ChaosScenario::decode(&format!("NSCR 1\nbench = hanoi\n{body}")),
                Err(ScenarioError::OutOfRange {
                    key,
                    value,
                    min,
                    max
                }),
                "{body}"
            );
        };
        out_of_range("overload.clients = 0\n", "overload.clients", 0, 1, 64);
        out_of_range(
            "overload.clients = 4000000000\n",
            "overload.clients",
            4_000_000_000,
            1,
            64,
        );
        out_of_range("replica.replicas = 0\n", "replica.replicas", 0, 1, 8);
        out_of_range("replica.replicas = 200\n", "replica.replicas", 200, 1, 8);
        out_of_range(
            "byz.audit_rate_pm = 1000001\n",
            "byz.audit_rate_pm",
            1_000_001,
            0,
            1_000_000,
        );
        // At least one mirror stays honest.
        for body in [
            "replica.replicas = 2\nbyz.mirrors = 5\n",
            "replica.replicas = 3\nbyz.mirrors = 3\n",
            "byz.mirrors = 1\n",
        ] {
            assert!(
                matches!(
                    ChaosScenario::decode(&format!("NSCR 1\nbench = hanoi\n{body}")),
                    Err(ScenarioError::NoHonestMirror { .. })
                ),
                "{body}"
            );
        }
    }

    #[test]
    fn errors_name_keys_through_the_caller_s_spelling() {
        let flag = |k: &str| format!("--{}", k.replace('.', "-"));
        let e = ChaosScenario::decode("NSCR 1\nbench = hanoi\nverify = streaming\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown verify mode \"streaming\" for verify; use off|stream|full"
        );
        assert!(
            e.render(&flag).contains("for --verify"),
            "{}",
            e.render(&flag)
        );
        let e = ScenarioError::NoHonestMirror {
            mirrors: 2,
            replicas: 2,
        };
        assert_eq!(
            e.render(&flag),
            "--byz-mirrors expects at most --replica-replicas - 1 (at least one honest mirror), \
             got 2 of 2"
        );
    }

    #[test]
    fn decode_tolerates_comments_blanks_and_any_key_order() {
        let text = "NSCR 1\n\n# a repro\ninterrupt.downtime = 9\nbench = hanoi\n\
                    interrupt.at_cycle = 7\nlink = modem\n";
        let sc = ChaosScenario::decode(text).unwrap();
        assert_eq!(sc.bench, "hanoi");
        assert_eq!(sc.config.link, Link::MODEM_28_8);
        assert_eq!(
            sc.interrupt,
            Some(InterruptSpec {
                at_cycle: 7,
                outage_cycles: 9
            })
        );
    }

    #[test]
    fn labels_name_the_active_dimensions() {
        assert_eq!(
            plain("hanoi", Link::T1, OrderingSource::StaticCallGraph).label(),
            "quiet"
        );
        assert_eq!(
            storm().label(),
            "faults+verify+outage+replicas+byz+crash+disk"
        );
        // Armed-but-quiet dimensions stay out of the label.
        let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph)
            .with_faults(FaultPlan::seeded(1))
            .with_outages(OutagePlan::seeded(2));
        let armed = ChaosScenario::new("hanoi", config).with_disk(DiskDims::seeded(3));
        assert_eq!(armed.label(), "quiet");
        assert!(armed.is_quiet());
    }

    #[test]
    fn custom_links_and_transfers_round_trip() {
        let mut sc = plain("bit", Link::T1, OrderingSource::SourceOrder);
        sc.config.link = Link {
            cycles_per_byte: 777,
            name: "custom",
        };
        sc.config.transfer = TransferPolicy::Parallel { limit: usize::MAX };
        sc.config.data_layout = DataLayout::Partitioned;
        sc.config.execution = ExecutionModel::Strict;
        let rt = ChaosScenario::decode(&sc.encode()).unwrap().config;
        assert_eq!(rt.link.cycles_per_byte, 777);
        assert_eq!(rt.transfer, sc.config.transfer);
        assert_eq!(rt.data_layout, DataLayout::Partitioned);
        assert_eq!(rt.execution, ExecutionModel::Strict);
        // Orderings and transfers use the CLI's spellings.
        sc.config.transfer = TransferPolicy::Interleaved;
        let text = sc.encode();
        assert!(text.contains("ordering = source\n"), "{text}");
        assert!(text.contains("transfer = interleaved\n"), "{text}");
        assert_eq!(ChaosScenario::decode(&text).unwrap(), sc);
    }

    #[test]
    fn shrink_minimizes_a_synthetic_predicate() {
        // Failure: loss >= 3 and an interrupt dimension present. The
        // shrinker must drop everything else and bisect loss to 3.
        let sc = storm();
        let mut calls = 0u32;
        let out = shrink(&sc, &mut |c| {
            calls += 1;
            c.config.faults.is_some_and(|f| f.loss_pm >= 3) && c.interrupt.is_some()
        });
        assert_eq!(calls, out.tests_run);
        assert!(out.tests_run <= SHRINK_BUDGET);
        let m = out.scenario;
        let c = m.config;
        assert_eq!(
            c.faults.unwrap().loss_pm,
            3,
            "loss bisects to the threshold"
        );
        assert_eq!(c.faults.unwrap().seed, 0, "seed zeroes");
        assert!(c.outages.is_none(), "outage dimension drops");
        assert!(c.replicas.is_none(), "replica dimension drops");
        assert!(c.byzantine.is_none(), "byzantine dimension drops");
        assert!(m.disk.is_none(), "disk dimension drops");
        assert_eq!(c.verify, VerifyMode::Off, "verify drops");
        assert_eq!(m.interrupt, Some(InterruptSpec::default()));
    }

    #[test]
    fn shrink_respects_the_budget_on_a_pathological_predicate() {
        let sc = storm();
        // Fails on everything: no candidate ever passes, so every knob
        // bisects its full range — the budget must still bound it.
        let out = shrink(&sc, &mut |_| true);
        assert!(out.tests_run <= SHRINK_BUDGET);
    }
}
