//! The replica sweep: mirror count × loss rate under health-scored
//! routing with hedged demand fetches.
//!
//! This is our robustness extension of the paper's evaluation — the
//! original tables assume a single perfect origin, so these rows live
//! in their own experiment (a new `replica.csv`, a new `paper replicas`
//! command) and leave every published-table row untouched. Each cell
//! simulates the non-strict par(4) configuration against a replica set
//! whose mirrors run the fault sweep's lossy-link profile under
//! independent sub-seeds, and reports how much routing, hedging, and
//! failover bought back.

use nonstrict_bytecode::Input;
use nonstrict_netsim::{Link, ReplicaStats};

use super::faults::sweep_config;
use super::{Suite, LINKS};
use crate::metrics::{normalized_percent, share_percent};
use crate::model::{OrderingSource, ReplicaConfig, SimConfig};
use crate::sim::SimResult;

/// The swept (mirror count, unit-loss rate ppm) cells: a single lossy
/// origin as the reference point, then two and three mirrors at the
/// same 1% loss, then three mirrors at 5% — where hedging and failover
/// earn their keep.
pub const REPLICA_SWEEP: [(u32, u32); 4] = [(1, 10_000), (2, 10_000), (3, 10_000), (3, 50_000)];

/// Seed for every sweep cell, so the whole table is reproducible.
pub const REPLICA_SEED: u64 = 0x0e11_ca5e;

/// Hedge deadline for the sweep: short enough that fault-recovery
/// stalls at 1%+ loss actually trigger duplicate fetches.
pub const SWEEP_HEDGE_DEADLINE_CYCLES: u64 = 500_000;

/// The sweep's replica config at one mirror count.
#[must_use]
pub fn sweep_replicas(replicas: u32) -> ReplicaConfig {
    let mut rc = ReplicaConfig::seeded(REPLICA_SEED);
    rc.replicas = replicas;
    rc.hedge_deadline_cycles = SWEEP_HEDGE_DEADLINE_CYCLES;
    rc
}

/// One benchmark × link × (mirrors, loss-rate) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaRow {
    /// Benchmark name.
    pub name: String,
    /// The link measured (mirror 0's bandwidth; further mirrors droop).
    pub link: Link,
    /// Mirror count.
    pub replicas: u32,
    /// Swept unit-loss rate (ppm) on every mirror's independent plan.
    pub loss_pm: u32,
    /// Normalized time (%) vs the perfect-link strict baseline.
    pub normalized: f64,
    /// Percent of total time spent hedging.
    pub hedge_share: f64,
    /// Worst end-of-run health score across the set (ppm of perfect);
    /// 0 on the single-origin cell.
    pub min_health_ppm: u32,
    /// The run itself: its eight-bucket ledger and replica-set
    /// counters.
    pub result: SimResult,
}

impl ReplicaRow {
    /// End-of-run health score per mirror (ppm of perfect), one entry
    /// per mirror in index order. Empty on the single-origin cell — a
    /// one-mirror set is normalized away, so no scores exist. Report-
    /// only; the CSV carries the min.
    #[must_use]
    pub fn health_ppm(&self) -> Vec<u32> {
        health_ppm(&self.result.replica)
    }
}

/// Each scored mirror's end-of-run health (ppm); an inactive
/// (single-origin) config reports 0 mirrors.
fn health_ppm(set: &ReplicaStats) -> Vec<u32> {
    set.health[..set.replicas as usize]
        .iter()
        .map(|h| h.health_ppm)
        .collect()
}

/// Runs the full sweep: every benchmark × link × (mirrors, loss) cell,
/// non-strict par(4) transfer under the static-call-graph ordering,
/// whole global data. Rows are ordered benchmark-major, then link, then
/// sweep cell — the natural grouping for the report.
#[must_use]
pub fn replica_sweep(suite: &Suite) -> Vec<ReplicaRow> {
    let mut rows = Vec::new();
    for s in &suite.sessions {
        for link in LINKS {
            let base = s.simulate(Input::Test, &SimConfig::strict(link));
            for (replicas, loss_pm) in REPLICA_SWEEP {
                let config = SimConfig::non_strict(link, OrderingSource::StaticCallGraph)
                    .with_faults(sweep_config(loss_pm))
                    .with_replicas(sweep_replicas(replicas));
                let r = s.simulate(Input::Test, &config);
                let min_health_ppm = health_ppm(&r.replica).into_iter().min().unwrap_or(0);
                rows.push(ReplicaRow {
                    name: s.app.name.clone(),
                    link,
                    replicas,
                    loss_pm,
                    normalized: normalized_percent(r.total_cycles, base.total_cycles),
                    hedge_share: share_percent(r.ledger.hedge, r.total_cycles),
                    min_health_ppm,
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
    fn sweep_replicas_carries_the_sweep_seed_and_deadline() {
        let rc = sweep_replicas(3);
        assert_eq!(rc.seed, REPLICA_SEED);
        assert_eq!(rc.replicas, 3);
        assert_eq!(rc.hedge_deadline_cycles, SWEEP_HEDGE_DEADLINE_CYCLES);
        assert!(rc.is_active());
        assert!(!sweep_replicas(1).is_active(), "one mirror is no choice");
    }

    #[test]
    fn single_benchmark_sweep_completes_on_every_cell() {
        let suite = hanoi_suite();
        let rows = replica_sweep(&suite);
        assert_eq!(rows.len(), LINKS.len() * REPLICA_SWEEP.len());
        for r in &rows {
            assert!(
                r.result.completed,
                "every replicated run must terminate: {r:?}"
            );
            assert!(r.normalized > 0.0);
            if r.replicas == 1 {
                assert_eq!(
                    r.result.replica.hedges, 0,
                    "no runner-up, no hedging: {r:?}"
                );
                assert_eq!(
                    r.result.replica.failovers, 0,
                    "nowhere to fail over to: {r:?}"
                );
                assert_eq!(r.hedge_share, 0.0);
                assert!(
                    r.health_ppm().is_empty(),
                    "single origin is unscored: {r:?}"
                );
            } else {
                assert_eq!(r.health_ppm().len(), r.replicas as usize);
                assert!(
                    r.min_health_ppm > 0,
                    "a completed run cannot leave a zero-health mirror: {r:?}"
                );
                assert_eq!(
                    r.min_health_ppm,
                    r.health_ppm().iter().copied().min().unwrap()
                );
            }
            assert!(r.result.replica.hedge_wins <= r.result.replica.hedges);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let suite = hanoi_suite();
        assert_eq!(replica_sweep(&suite), replica_sweep(&suite));
    }
}
