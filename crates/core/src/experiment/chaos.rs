//! The chaos sweep: composed cross-layer fault scenarios under the
//! conductor's global invariant checker.
//!
//! Each row runs one [`ChaosScenario`] through [`chaos::run_scenario`],
//! which layers the invariant checks (eight-bucket ledger exactness,
//! watermark/clock monotonicity, fail-closed degradation, quiet
//! byte-identity, composed crash/resume equivalence) on top of the
//! measurement itself — the `violations` column must read zero
//! everywhere. Like the other robustness sweeps, these rows live in
//! their own experiment (a new `chaos.csv`, a new `paper chaos`
//! command) and leave every published-table row untouched.

use nonstrict_bytecode::Input;
use nonstrict_netsim::byzantine::ByzantinePlan;
use nonstrict_netsim::contention::ShedLadder;
use nonstrict_netsim::faults::FaultPlan;
use nonstrict_netsim::outage::OutagePlan;
use nonstrict_netsim::Link;

use super::{Suite, LINKS};
use crate::chaos::{self, ChaosScenario, OverloadDims};
use crate::metrics::normalized_percent;
use crate::model::{OrderingSource, ReplicaConfig, ReplicaKill, SimConfig, VerifyMode};
use crate::sim::SimResult;

/// Seed for every sweep scenario, so the whole table is reproducible.
pub const CHAOS_SEED: u64 = 0xc4a0_51ed;

/// Downtime charged on the crash cell's interrupt.
pub const CHAOS_DOWNTIME: u64 = 2_000_000;

/// The sweep's composed scenarios for one benchmark × link, in row
/// order. The quiet reference first (every dimension armed with all
/// rates zero — its byte-identity to the stripped config is one of the
/// invariants checked per row), then single dimensions, compositions,
/// the full storm, and an overloaded fleet. The storm's crash cell is
/// appended by [`chaos_sweep`] itself, since its interrupt cycle
/// depends on the storm's own wall clock.
#[must_use]
pub fn sweep_scenarios(bench: &str, link: Link) -> Vec<ChaosScenario> {
    let base = SimConfig::non_strict(link, OrderingSource::StaticCallGraph);
    let scenario = |config| ChaosScenario::new(bench, config);
    let quiet = scenario(
        base.with_faults(FaultPlan::seeded(CHAOS_SEED))
            .with_outages(OutagePlan::seeded(CHAOS_SEED))
            .with_replicas(ReplicaConfig::seeded(CHAOS_SEED))
            .with_byzantine(ByzantinePlan::seeded(CHAOS_SEED)),
    )
    .with_overload(OverloadDims::seeded(CHAOS_SEED));
    let mut fc = FaultPlan::seeded(CHAOS_SEED);
    fc.loss_pm = 15_000;
    fc.corrupt_pm = 8_000;
    fc.semantic_pm = 3_000;
    let mut oc = OutagePlan::seeded(CHAOS_SEED ^ 0x0abe);
    oc.rate_pm = 150_000;
    oc.min_cycles = 1 << 20;
    oc.max_cycles = 1 << 23;
    let mut rc = ReplicaConfig::seeded(CHAOS_SEED ^ 0x5eed);
    rc.replicas = 3;
    rc.kill = Some(ReplicaKill {
        replica: 1,
        at_cycle: 1,
    });
    let mut bc = ByzantinePlan::seeded(CHAOS_SEED ^ 0xb12a);
    bc.mirrors = 1;
    let mut ov = OverloadDims::seeded(CHAOS_SEED ^ 0x10ad);
    ov.clients = 4;
    ov.admit_rate = 2;
    ov.ladder = Some(
        ShedLadder::new(2_000_000, 20_000_000, 200_000_000)
            .expect("the sweep ladder thresholds are ordered"),
    );
    vec![
        quiet,
        scenario(base.with_faults(fc)),
        scenario(base.with_faults(fc).with_verify(VerifyMode::Stream)),
        scenario(base.with_faults(fc).with_outages(oc)),
        scenario(base.with_replicas(rc).with_byzantine(bc)),
        scenario(
            base.with_verify(VerifyMode::Stream)
                .with_faults(fc)
                .with_outages(oc)
                .with_replicas(rc)
                .with_byzantine(bc),
        ),
        scenario(base.with_faults(fc)).with_overload(ov),
    ]
}

/// One benchmark × link × scenario of the chaos sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Benchmark name.
    pub name: String,
    /// The link measured (overloaded cells contend for it).
    pub link: Link,
    /// The scenario's active-dimension label (`quiet`, `faults+verify`,
    /// …, `faults+overload`, the storm's `…+crash`).
    pub scenario: String,
    /// Fleet size: 1 for single-client scenarios.
    pub clients: u32,
    /// Normalized time (%) vs the perfect-link strict baseline
    /// (client 0 of an overloaded fleet).
    pub normalized: f64,
    /// Global invariant violations found by the conductor (must be 0).
    pub violations: u32,
    /// The run itself (client 0 of an overloaded fleet): its
    /// eight-bucket ledger, outage counts — ambient plus the crash
    /// cell's injected interrupt — and degradation verdicts.
    pub result: SimResult,
}

/// Runs the full sweep: every benchmark × link × scenario, plus one
/// crash cell per benchmark × link (the storm interrupted mid-run and
/// resumed, checked against the uninterrupted storm). Rows are ordered
/// benchmark-major, then link, then scenario.
#[must_use]
pub fn chaos_sweep(suite: &Suite) -> Vec<ChaosRow> {
    let mut rows = Vec::new();
    for s in &suite.sessions {
        for link in LINKS {
            let base = s.simulate(Input::Test, &SimConfig::strict(link));
            let mut scenarios = sweep_scenarios(&s.app.name, link);
            // The crash cell: the storm interrupted halfway through its
            // own wall clock (which varies per benchmark × link).
            let storm = scenarios[5].clone();
            let storm_total = s.simulate(Input::Test, &storm.config).total_cycles;
            scenarios.push(storm.with_interrupt(storm_total / 2, CHAOS_DOWNTIME));
            for sc in scenarios {
                let report = chaos::run_scenario(s, &sc);
                let r = report.result;
                rows.push(ChaosRow {
                    name: s.app.name.clone(),
                    link,
                    scenario: sc.label(),
                    clients: report.fleet.as_ref().map_or(1, |f| f.clients),
                    normalized: normalized_percent(r.total_cycles, base.total_cycles),
                    violations: u32::try_from(report.violations.len()).unwrap_or(u32::MAX),
                    result: r,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Session;

    fn hanoi_suite() -> Suite {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        Suite {
            sessions: vec![session],
        }
    }

    #[test]
    fn sweep_scenarios_cover_the_dimension_space() {
        let scs = sweep_scenarios("Hanoi", Link::T1);
        assert_eq!(scs.len(), 7);
        assert!(scs[0].is_quiet(), "row one is the quiet reference");
        assert_eq!(scs[0].label(), "quiet");
        assert_eq!(scs[1].label(), "faults");
        assert_eq!(scs[2].label(), "faults+verify");
        assert_eq!(scs[3].label(), "faults+outage");
        assert_eq!(scs[4].label(), "replicas+byz");
        assert_eq!(scs[5].label(), "faults+verify+outage+replicas+byz");
        assert_eq!(scs[6].label(), "faults+overload");
        for sc in &scs {
            // Every scenario must survive the artifact round trip: the
            // sweep's cells double as repro-corpus material.
            assert_eq!(ChaosScenario::decode(&sc.encode()).unwrap(), *sc);
        }
    }

    #[test]
    fn single_benchmark_sweep_holds_every_invariant() {
        let suite = hanoi_suite();
        let rows = chaos_sweep(&suite);
        assert_eq!(rows.len(), LINKS.len() * 8);
        for r in &rows {
            assert!(r.result.completed, "every swept run must terminate: {r:?}");
            assert_eq!(r.violations, 0, "the conductor found a violation: {r:?}");
            assert_eq!(
                r.result.ledger.total(),
                r.result.total_cycles,
                "ledger must be exact: {r:?}"
            );
            assert!(r.normalized > 0.0);
        }
        // The quiet reference matches the plain non-strict run exactly.
        let quiet = &rows[0];
        assert_eq!(quiet.scenario, "quiet");
        assert_eq!(quiet.result.outage.outages, 0);
        // The crash cell recorded its injected interrupt on top of the
        // storm's ambient outages.
        let storm = &rows[5];
        let crash = &rows[7];
        assert!(crash.scenario.ends_with("+crash"), "{crash:?}");
        assert_eq!(crash.result.outage.outages, storm.result.outage.outages + 1);
        assert_eq!(crash.result.outage.resumes, storm.result.outage.resumes + 1);
        // The overloaded fleet reports its size.
        assert_eq!(rows[6].clients, 4);
    }

    #[test]
    fn sweep_is_deterministic() {
        let suite = hanoi_suite();
        assert_eq!(chaos_sweep(&suite), chaos_sweep(&suite));
    }
}
