//! Simulation configuration: the paper's design space as one type.

use nonstrict_bytecode::Input;
use nonstrict_netsim::byzantine::ByzantinePlan;
use nonstrict_netsim::faults::FaultPlan;
use nonstrict_netsim::outage::OutagePlan;
use nonstrict_netsim::replica::{replica_seed, ReplicaProfile, MAX_REPLICAS};
use nonstrict_netsim::Link;

/// How method first-use order is predicted (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingSource {
    /// No restructuring: methods stay in source order (the baseline
    /// layout).
    SourceOrder,
    /// Static first-use estimation over the interprocedural CFG (§4.1) —
    /// the paper's "SCG" columns.
    StaticCallGraph,
    /// First-use profile from the **Train** input (§4.2) — realistic
    /// profile guidance.
    TrainProfile,
    /// First-use profile from the **Test** input — perfect prediction,
    /// the paper's upper bound.
    TestProfile,
}

impl OrderingSource {
    /// The paper's column label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OrderingSource::SourceOrder => "Src",
            OrderingSource::StaticCallGraph => "SCG",
            OrderingSource::TrainProfile => "Train",
            OrderingSource::TestProfile => "Test",
        }
    }

    /// The input whose profiling run this ordering is built from, or
    /// `None` for the orderings that need no run.
    pub(crate) fn profile_input(self) -> Option<Input> {
        match self {
            OrderingSource::SourceOrder | OrderingSource::StaticCallGraph => None,
            OrderingSource::TrainProfile => Some(Input::Train),
            OrderingSource::TestProfile => Some(Input::Test),
        }
    }
}

/// How bytes move (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferPolicy {
    /// One class at a time, to completion, full bandwidth — the 1998
    /// JVM's behaviour.
    Strict,
    /// Parallel file transfer: up to `limit` classes share bandwidth,
    /// started by the greedy dependency schedule, corrected by demand
    /// fetches (§5.1). Use `usize::MAX` for the paper's "Inf." column.
    Parallel {
        /// Maximum concurrently transferring class files.
        limit: usize,
    },
    /// The single virtual interleaved file (§5.2).
    Interleaved,
}

impl TransferPolicy {
    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            TransferPolicy::Strict => "strict".to_owned(),
            TransferPolicy::Parallel { limit: usize::MAX } => "par(inf)".to_owned(),
            TransferPolicy::Parallel { limit } => format!("par({limit})"),
            TransferPolicy::Interleaved => "ilv".to_owned(),
        }
    }

    /// Parses a transfer spelling: `strict`, `parN` (N ≥ 1), `parinf`
    /// or `interleaved`.
    #[must_use]
    pub fn parse(s: &str) -> Option<TransferPolicy> {
        match s {
            "strict" => Some(TransferPolicy::Strict),
            "parinf" => Some(TransferPolicy::Parallel { limit: usize::MAX }),
            "interleaved" => Some(TransferPolicy::Interleaved),
            _ => {
                let limit: usize = s.strip_prefix("par")?.parse().ok()?;
                (limit > 0).then_some(TransferPolicy::Parallel { limit })
            }
        }
    }

    /// The spelling [`Self::parse`] reads back.
    #[must_use]
    pub fn spelling(self) -> String {
        match self {
            TransferPolicy::Strict => "strict".to_owned(),
            TransferPolicy::Parallel { limit: usize::MAX } => "parinf".to_owned(),
            TransferPolicy::Parallel { limit } => format!("par{limit}"),
            TransferPolicy::Interleaved => "interleaved".to_owned(),
        }
    }
}

/// When a method may begin executing (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionModel {
    /// A method runs only after its whole class file arrived.
    Strict,
    /// A method runs once the class's global data and the method's own
    /// data, code, and delimiter arrived.
    NonStrict,
}

impl ExecutionModel {
    /// Parses an execution-model spelling: `strict` or `nonstrict`.
    #[must_use]
    pub fn parse(s: &str) -> Option<ExecutionModel> {
        match s {
            "strict" => Some(ExecutionModel::Strict),
            "nonstrict" => Some(ExecutionModel::NonStrict),
            _ => None,
        }
    }

    /// The spelling [`Self::parse`] reads back.
    #[must_use]
    pub fn spelling(self) -> &'static str {
        match self {
            ExecutionModel::Strict => "strict",
            ExecutionModel::NonStrict => "nonstrict",
        }
    }
}

/// How each class's global data is laid out on the wire (§7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataLayout {
    /// All global data precedes the first method.
    Whole,
    /// Needed-first slice up front, per-method GMD chunks, unused data
    /// trailing.
    Partitioned,
}

impl DataLayout {
    /// Parses a layout spelling: `whole` or `part`.
    #[must_use]
    pub fn parse(s: &str) -> Option<DataLayout> {
        match s {
            "whole" => Some(DataLayout::Whole),
            "part" => Some(DataLayout::Partitioned),
            _ => None,
        }
    }

    /// The spelling [`Self::parse`] reads back.
    #[must_use]
    pub fn spelling(self) -> &'static str {
        match self {
            DataLayout::Whole => "whole",
            DataLayout::Partitioned => "part",
        }
    }
}

/// One mirror killed mid-run, for failover testing: the replica stops
/// serving at the given base-timeline cycle; routing fails over to the
/// surviving mirrors at the next unit boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaKill {
    /// Index of the mirror that dies (0-based).
    pub replica: u32,
    /// Base-timeline cycle at which it dies.
    pub at_cycle: u64,
}

/// Replica-set transfer settings: N mirrors of the restructured
/// program, each with its own bandwidth spread and independently
/// seeded fault/outage profile derived from the session's plans. Stays
/// `Copy`, `Eq`, and `Hash` like the rest of [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaConfig {
    /// Base seed; mirror `i` draws from
    /// [`nonstrict_netsim::replica::replica_seed`]`(seed, i)`, and
    /// mirror 0 keeps the base seed exactly.
    pub seed: u64,
    /// Number of mirrors. 1 is the single origin: byte-identical to no
    /// replica config at all.
    pub replicas: u32,
    /// Per-mirror bandwidth spread (ppm): mirror `i`'s cycles-per-byte
    /// is the base link's scaled by `1 + i * spread_pm / 1e6`.
    pub spread_pm: u32,
    /// Stall deadline (cycles) past which a demand fetch is hedged to
    /// the second-best mirror; 0 disables hedging.
    pub hedge_deadline_cycles: u64,
    /// Optional mid-run mirror death, for failover testing.
    pub kill: Option<ReplicaKill>,
}

impl ReplicaConfig {
    /// Hard cap on mirrors (mirrors netsim's fixed-size summaries).
    pub const MAX_REPLICAS: u32 = MAX_REPLICAS as u32;

    /// Default bandwidth spread: each further mirror is 15% slower.
    pub const DEFAULT_SPREAD_PM: u32 = 150_000;

    /// Default hedge deadline (~4 ms on the 500 MHz Alpha): long enough
    /// that only fault-recovery stalls trigger duplicates.
    pub const DEFAULT_HEDGE_DEADLINE_CYCLES: u64 = 2_000_000;

    /// A single-origin replica config under `seed` — the routing
    /// machinery is armed but there is nothing to choose between.
    #[must_use]
    pub fn seeded(seed: u64) -> ReplicaConfig {
        ReplicaConfig {
            seed,
            replicas: 1,
            spread_pm: Self::DEFAULT_SPREAD_PM,
            hedge_deadline_cycles: Self::DEFAULT_HEDGE_DEADLINE_CYCLES,
            kill: None,
        }
    }

    /// Whether there is an actual choice of mirrors. A one-mirror set
    /// perturbs no timeline: results are byte-identical to no replica
    /// config at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.replicas >= 2
    }

    /// The base-timeline cycle from which the session must fail closed
    /// to strict execution because a kill leaves a sole surviving
    /// mirror, if this config has one.
    #[must_use]
    pub fn sole_survivor_from(&self) -> Option<u64> {
        match self.kill {
            Some(k) if self.replicas == 2 && k.replica < self.replicas => Some(k.at_cycle),
            _ => None,
        }
    }

    /// The netsim-level mirror profiles this config and the session's
    /// fault and outage plans lower to. Mirror `i` runs the session's
    /// fault rates under its own sub-seed (a perfect link when faults
    /// are off) and the session's outage rates under its own sub-seed
    /// (never interrupted when outages are off); server-side outage
    /// draws are salted apart from the client-side ambient schedule.
    #[must_use]
    pub fn profiles(&self, config: &SimConfig) -> Vec<ReplicaProfile> {
        let n = self.replicas.clamp(1, Self::MAX_REPLICAS);
        (0..n)
            .map(|i| {
                let link = config.link.spread(self.spread_pm, i);
                let faults = match config.active_faults() {
                    Some(fp) => FaultPlan {
                        seed: replica_seed(fp.seed, i),
                        ..fp
                    },
                    None => FaultPlan::seeded(replica_seed(self.seed, i)),
                };
                let outages = match config.active_outages() {
                    Some(op) => OutagePlan {
                        seed: replica_seed(op.seed ^ 0x6d69_7272_6f72_5f73, i),
                        ..op
                    },
                    None => OutagePlan::seeded(replica_seed(self.seed, i)),
                };
                let dead_from = self.kill.filter(|k| k.replica == i).map(|k| k.at_cycle);
                ReplicaProfile {
                    link,
                    faults,
                    outages,
                    dead_from,
                }
            })
            .collect()
    }
}

/// When class-file verification runs and how much of it gates
/// execution (§3.1.1's five-step check mapped onto the stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyMode {
    /// No verification is charged or gated — the seed repo's behaviour,
    /// and the default, so existing results stay byte-identical.
    #[default]
    Off,
    /// Verified-prefix streaming: steps 1–2 run when a class's global
    /// data arrives, steps 3–4 run per method at delimiter arrival; a
    /// method may execute only once its prefix is verified. A class
    /// demoted to strict demand-fetch pays a full-file re-verify.
    Stream,
    /// Whole-file verification: every class is verified in full before
    /// any of its methods may run, as a strict 1998 JVM would.
    Full,
}

impl VerifyMode {
    /// Short label for reports and CSV columns.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VerifyMode::Off => "off",
            VerifyMode::Stream => "stream",
            VerifyMode::Full => "full",
        }
    }

    /// Parses a CLI-style label (the inverse of [`Self::label`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<VerifyMode> {
        match s {
            "off" => Some(VerifyMode::Off),
            "stream" => Some(VerifyMode::Stream),
            "full" => Some(VerifyMode::Full),
            _ => None,
        }
    }
}

/// One complete simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// The network link.
    pub link: Link,
    /// First-use ordering source.
    pub ordering: OrderingSource,
    /// Transfer policy.
    pub transfer: TransferPolicy,
    /// Global-data layout.
    pub data_layout: DataLayout,
    /// Execution model.
    pub execution: ExecutionModel,
    /// Link-fault injection; `None` (or an all-zero plan) is a perfect
    /// link.
    pub faults: Option<FaultPlan>,
    /// Verification mode: whether execution is gated on verified
    /// prefixes and verify cycles are charged.
    pub verify: VerifyMode,
    /// Full connection-loss injection; `None` (or a zero-rate plan)
    /// never interrupts the session.
    pub outages: Option<OutagePlan>,
    /// Replica-set transfer; `None` (or a one-mirror config) is the
    /// single origin server.
    pub replicas: Option<ReplicaConfig>,
    /// Byzantine-misbehavior injection over the replica set; `None`
    /// (or a zero-mirror plan, or no active replica set to misbehave
    /// in) is an honest fleet with no manifest layer armed.
    pub byzantine: Option<ByzantinePlan>,
}

impl SimConfig {
    /// The paper's baseline: strict execution, strict sequential
    /// transfer, source order, whole globals. Its total time is exactly
    /// `transfer + execution` with no overlap (Table 3).
    #[must_use]
    pub fn strict(link: Link) -> Self {
        SimConfig {
            transfer: TransferPolicy::Strict,
            execution: ExecutionModel::Strict,
            ..SimConfig::non_strict(link, OrderingSource::SourceOrder)
        }
    }

    /// A typical non-strict configuration: restructured by `ordering`,
    /// parallel transfer with the HTTP/1.1-style limit of four.
    #[must_use]
    pub fn non_strict(link: Link, ordering: OrderingSource) -> Self {
        SimConfig {
            link,
            ordering,
            transfer: TransferPolicy::Parallel { limit: 4 },
            data_layout: DataLayout::Whole,
            execution: ExecutionModel::NonStrict,
            faults: None,
            verify: VerifyMode::Off,
            outages: None,
            replicas: None,
            byzantine: None,
        }
    }

    /// This configuration with fault injection enabled.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// This configuration with `verify` as its verification mode.
    #[must_use]
    pub fn with_verify(mut self, verify: VerifyMode) -> Self {
        self.verify = verify;
        self
    }

    /// This configuration with outage injection enabled.
    #[must_use]
    pub fn with_outages(mut self, outages: OutagePlan) -> Self {
        self.outages = Some(outages);
        self
    }

    /// This configuration with replica-set transfer enabled.
    #[must_use]
    pub fn with_replicas(mut self, replicas: ReplicaConfig) -> Self {
        self.replicas = Some(replicas);
        self
    }

    /// This configuration with byzantine misbehavior injected into the
    /// replica set.
    #[must_use]
    pub fn with_byzantine(mut self, byzantine: ByzantinePlan) -> Self {
        self.byzantine = Some(byzantine);
        self
    }

    /// The fault plan, if it can actually perturb the run. An all-zero
    /// plan is normalized away here so every consumer treats it exactly
    /// like `None`.
    #[must_use]
    pub fn active_faults(&self) -> Option<FaultPlan> {
        self.faults.filter(FaultPlan::is_active)
    }

    /// The outage plan, if it can actually interrupt the run. A
    /// zero-rate plan is normalized away here so every consumer treats
    /// it exactly like `None` — outage-free runs stay byte-identical to
    /// the committed results.
    #[must_use]
    pub fn active_outages(&self) -> Option<OutagePlan> {
        self.outages.filter(OutagePlan::is_active)
    }

    /// The replica config, if there is an actual choice of mirrors. A
    /// one-mirror set is normalized away here so every consumer treats
    /// it exactly like `None` — single-origin runs stay byte-identical
    /// to the committed results.
    #[must_use]
    pub fn active_replicas(&self) -> Option<ReplicaConfig> {
        self.replicas.filter(ReplicaConfig::is_active)
    }

    /// The byzantine plan, if a mirror can actually misbehave. A
    /// zero-mirror plan — or any byzantine plan without an active
    /// replica set to misbehave inside — is normalized away here so
    /// every consumer treats it exactly like `None`: honest-fleet runs
    /// stay byte-identical to the committed results at any audit rate.
    #[must_use]
    pub fn active_byzantine(&self) -> Option<ByzantinePlan> {
        self.active_replicas()?;
        self.byzantine.filter(ByzantinePlan::is_active)
    }

    /// Whether this is the no-overlap strict baseline.
    #[must_use]
    pub fn is_baseline(&self) -> bool {
        self.execution == ExecutionModel::Strict && self.transfer == TransferPolicy::Strict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(OrderingSource::StaticCallGraph.label(), "SCG");
        assert_eq!(OrderingSource::TrainProfile.label(), "Train");
        assert_eq!(TransferPolicy::Parallel { limit: 4 }.label(), "par(4)");
        assert_eq!(
            TransferPolicy::Parallel { limit: usize::MAX }.label(),
            "par(inf)"
        );
    }

    #[test]
    fn baseline_detection() {
        assert!(SimConfig::strict(Link::T1).is_baseline());
        assert!(!SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph).is_baseline());
    }

    #[test]
    fn inactive_fault_configs_are_normalized_away() {
        let zero = FaultPlan::seeded(42);
        assert!(!zero.is_active());
        let cfg = SimConfig::strict(Link::T1).with_faults(zero);
        assert_eq!(
            cfg.active_faults(),
            None,
            "all-zero rates behave like a perfect link"
        );
        let mut lossy = zero;
        lossy.loss_pm = 10_000;
        assert_eq!(cfg.with_faults(lossy).active_faults(), Some(lossy));
    }

    #[test]
    fn verify_mode_labels_round_trip() {
        for mode in [VerifyMode::Off, VerifyMode::Stream, VerifyMode::Full] {
            assert_eq!(VerifyMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(VerifyMode::parse("streaming"), None);
        assert_eq!(VerifyMode::default(), VerifyMode::Off);
    }

    #[test]
    fn inactive_outage_configs_are_normalized_away() {
        let zero = OutagePlan::seeded(42);
        assert!(!zero.is_active());
        let cfg = SimConfig::strict(Link::T1).with_outages(zero);
        assert_eq!(
            cfg.active_outages(),
            None,
            "a zero-rate outage plan never interrupts"
        );
        let mut stormy = zero;
        stormy.rate_pm = 10_000;
        assert_eq!(cfg.with_outages(stormy).active_outages(), Some(stormy));
        let mut zero_len = stormy;
        zero_len.max_cycles = 0;
        assert!(!zero_len.is_active(), "zero-length outages are no outages");
    }

    #[test]
    fn semantic_rate_alone_activates_the_fault_config() {
        let mut fc = FaultPlan::seeded(9);
        assert!(!fc.is_active());
        fc.semantic_pm = 5_000;
        assert!(fc.is_active());
    }

    #[test]
    fn single_origin_replica_configs_are_normalized_away() {
        let solo = ReplicaConfig::seeded(42);
        assert!(!solo.is_active());
        let cfg = SimConfig::strict(Link::T1).with_replicas(solo);
        assert_eq!(
            cfg.active_replicas(),
            None,
            "one mirror is the single origin"
        );
        let mut pair = solo;
        pair.replicas = 2;
        assert_eq!(cfg.with_replicas(pair).active_replicas(), Some(pair));
    }

    #[test]
    fn replica_profiles_spread_bandwidth_and_seeds() {
        let mut rc = ReplicaConfig::seeded(7);
        rc.replicas = 3;
        let mut fc = FaultPlan::seeded(99);
        fc.loss_pm = 1_000;
        let cfg = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph).with_faults(fc);
        let profiles = rc.profiles(&cfg);
        assert_eq!(profiles.len(), 3);
        assert_eq!(
            profiles[0].link.cycles_per_byte,
            Link::T1.cycles_per_byte,
            "mirror 0 is the base link"
        );
        assert!(profiles[1].link.cycles_per_byte > profiles[0].link.cycles_per_byte);
        assert!(profiles[2].link.cycles_per_byte > profiles[1].link.cycles_per_byte);
        assert_eq!(profiles[0].faults.seed, 99, "mirror 0 keeps the base seed");
        assert_ne!(profiles[1].faults.seed, profiles[2].faults.seed);
        assert!(profiles.iter().all(|p| p.faults.loss_pm == 1_000));
        assert!(profiles.iter().all(|p| !p.outages.is_active()));
        assert!(profiles.iter().all(|p| p.dead_from.is_none()));
    }

    #[test]
    fn sole_survivor_needs_a_kill_on_a_two_mirror_set() {
        let mut rc = ReplicaConfig::seeded(1);
        rc.replicas = 2;
        assert_eq!(rc.sole_survivor_from(), None);
        rc.kill = Some(ReplicaKill {
            replica: 0,
            at_cycle: 500,
        });
        assert_eq!(rc.sole_survivor_from(), Some(500));
        rc.replicas = 3;
        assert_eq!(rc.sole_survivor_from(), None, "two mirrors survive");
        let profiles = rc.profiles(&SimConfig::strict(Link::T1));
        assert_eq!(profiles[0].dead_from, Some(500));
        assert_eq!(profiles[1].dead_from, None);
    }

    #[test]
    fn inactive_byzantine_configs_are_normalized_away() {
        let honest = ByzantinePlan::seeded(42);
        assert!(!honest.is_active());
        let mut rc = ReplicaConfig::seeded(7);
        rc.replicas = 3;
        let cfg = SimConfig::strict(Link::T1)
            .with_replicas(rc)
            .with_byzantine(honest);
        assert_eq!(
            cfg.active_byzantine(),
            None,
            "zero misbehaving mirrors is an honest fleet"
        );
        let mut byz = honest;
        byz.mirrors = 1;
        assert_eq!(cfg.with_byzantine(byz).active_byzantine(), Some(byz));
    }

    #[test]
    fn byzantine_without_an_active_replica_set_is_inert() {
        let mut byz = ByzantinePlan::seeded(3);
        byz.mirrors = 2;
        let solo = SimConfig::strict(Link::T1).with_byzantine(byz);
        assert_eq!(
            solo.active_byzantine(),
            None,
            "no replica set means no mirrors to misbehave"
        );
        let one_mirror = solo.with_replicas(ReplicaConfig::seeded(7));
        assert_eq!(one_mirror.active_byzantine(), None);
    }
}
