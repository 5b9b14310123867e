//! The byzantine sweep: mirror count × dishonest fraction × audit rate
//! under the content-addressed manifest's integrity layer.
//!
//! This is our robustness extension of the paper's evaluation — the
//! original tables assume every byte the network delivers is the byte
//! the origin published, so these rows live in their own experiment (a
//! new `byzantine.csv`, a new `paper byzantine` command) and leave every
//! published-table row untouched. Each cell kills the honest primary
//! early, forcing the health-scored routing into the dishonest tail of
//! the replica set, and measures what the manifest digest checks, the
//! cross-mirror audit sampler, and quarantine-plus-refetch cost — and
//! what they caught.

use nonstrict_bytecode::Input;
use nonstrict_netsim::byzantine::ByzantineMode;
use nonstrict_netsim::Link;

use super::{Suite, LINKS};
use crate::metrics::{normalized_percent, share_percent};
use crate::model::{ByzantineConfig, OrderingSource, ReplicaConfig, ReplicaKill, SimConfig};
use crate::sim::SimResult;

/// One swept cell: mirror count, dishonest-mirror count, misbehavior
/// mode, audit sampling rate (ppm of delivered units).
pub type ByzantineCell = (u32, u32, ByzantineMode, u32);

/// The swept cells. The honest reference first (its row must be
/// byte-identical to the same replica config with no byzantine layer at
/// all — the CI byte-identity loop depends on it), then one equivocator
/// with the digest alone, the same with audits on top, a stale-epoch
/// mirror, a two-of-three dishonest majority, and a colluder that
/// forges digests and is only caught by the audit sampler.
pub const BYZANTINE_SWEEP: [ByzantineCell; 6] = [
    (3, 0, ByzantineMode::Equivocate, 50_000),
    (3, 1, ByzantineMode::Equivocate, 0),
    (3, 1, ByzantineMode::Equivocate, 50_000),
    (3, 1, ByzantineMode::StaleEpoch, 50_000),
    (3, 2, ByzantineMode::Equivocate, 50_000),
    (3, 1, ByzantineMode::Collude, 200_000),
];

/// Seed for every sweep cell, so the whole table is reproducible.
pub const BYZANTINE_SEED: u64 = 0xb12a_47f1;

/// Base-timeline cycle at which the honest primary dies: early enough
/// that almost the whole transfer is served by the surviving tail,
/// which is where the dishonest mirrors live (the highest-indexed
/// mirrors misbehave; mirror 0 is always honest).
pub const PRIMARY_KILL_CYCLE: u64 = 1;

/// The sweep's replica config at one mirror count: the replica sweep's
/// health-scored set with the honest primary killed at
/// [`PRIMARY_KILL_CYCLE`].
#[must_use]
pub fn sweep_replicas(replicas: u32) -> ReplicaConfig {
    let mut rc = ReplicaConfig::seeded(BYZANTINE_SEED);
    rc.replicas = replicas;
    rc.kill = Some(ReplicaKill {
        replica: 0,
        at_cycle: PRIMARY_KILL_CYCLE,
    });
    rc
}

/// The sweep's byzantine config at one cell.
#[must_use]
pub fn sweep_byzantine(cell: ByzantineCell) -> ByzantineConfig {
    let (_, mirrors, mode, audit_rate_pm) = cell;
    let mut bc = ByzantineConfig::seeded(BYZANTINE_SEED);
    bc.mirrors = mirrors;
    bc.mode = mode;
    bc.audit_rate_pm = audit_rate_pm;
    bc
}

/// One benchmark × link × sweep cell of the byzantine sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ByzantineRow {
    /// Benchmark name.
    pub name: String,
    /// The link measured (mirror 0's bandwidth; further mirrors droop).
    pub link: Link,
    /// Mirror count.
    pub replicas: u32,
    /// Dishonest-mirror count (the highest-indexed mirrors).
    pub byzantine: u32,
    /// How the dishonest mirrors misbehave.
    pub mode: ByzantineMode,
    /// Cross-mirror audit sampling rate (ppm of delivered units).
    pub audit_rate_pm: u32,
    /// Normalized time (%) vs the perfect-link strict baseline.
    pub normalized: f64,
    /// Percent of total time spent on integrity work.
    pub integrity_share: f64,
    /// The run itself: its eight-bucket ledger and integrity counters.
    pub result: SimResult,
}

/// Runs the full sweep: every benchmark × link × cell, non-strict
/// par(4) transfer under the static-call-graph ordering, whole global
/// data. Rows are ordered benchmark-major, then link, then sweep cell.
#[must_use]
pub fn byzantine_sweep(suite: &Suite) -> Vec<ByzantineRow> {
    let mut rows = Vec::new();
    for s in &suite.sessions {
        for link in LINKS {
            let base = s.simulate(Input::Test, &SimConfig::strict(link));
            for cell in BYZANTINE_SWEEP {
                let (replicas, byzantine, mode, audit_rate_pm) = cell;
                let config = SimConfig::non_strict(link, OrderingSource::StaticCallGraph)
                    .with_replicas(sweep_replicas(replicas))
                    .with_byzantine(sweep_byzantine(cell));
                let r = s.simulate(Input::Test, &config);
                rows.push(ByzantineRow {
                    name: s.app.name.clone(),
                    link,
                    replicas,
                    byzantine,
                    mode,
                    audit_rate_pm,
                    normalized: normalized_percent(r.total_cycles, base.total_cycles),
                    integrity_share: share_percent(r.ledger.integrity, r.total_cycles),
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
    fn sweep_configs_carry_the_sweep_seed_and_kill() {
        let rc = sweep_replicas(3);
        assert_eq!(rc.seed, BYZANTINE_SEED);
        assert_eq!(rc.replicas, 3);
        assert_eq!(
            rc.kill,
            Some(ReplicaKill {
                replica: 0,
                at_cycle: PRIMARY_KILL_CYCLE
            })
        );
        let bc = sweep_byzantine(BYZANTINE_SWEEP[5]);
        assert_eq!(bc.seed, BYZANTINE_SEED);
        assert_eq!(bc.mirrors, 1);
        assert_eq!(bc.mode, ByzantineMode::Collude);
        assert_eq!(bc.audit_rate_pm, 200_000);
        assert!(
            !sweep_byzantine(BYZANTINE_SWEEP[0]).is_active(),
            "the honest reference cell must normalize away"
        );
    }

    #[test]
    fn single_benchmark_sweep_detects_what_each_mode_allows() {
        let suite = hanoi_suite();
        let rows = byzantine_sweep(&suite);
        assert_eq!(rows.len(), LINKS.len() * BYZANTINE_SWEEP.len());
        for row in &rows {
            let (r, ist) = (&row.result, &row.result.integrity);
            assert!(r.completed, "every swept run must terminate: {row:?}");
            assert!(row.normalized > 0.0);
            let exact = r.ledger.exec
                + r.ledger.stall
                + r.ledger.recovery
                + r.ledger.verify
                + r.ledger.resume
                + r.ledger.hedge
                + r.ledger.queue
                + r.ledger.integrity;
            assert_eq!(exact, r.total_cycles, "ledger must be exact: {row:?}");
            if row.byzantine == 0 {
                assert_eq!(ist.manifest_pins, 0, "honest reference is inert: {row:?}");
                assert_eq!(r.ledger.integrity, 0);
                assert_eq!(ist.divergent_units, 0);
            } else {
                assert!(ist.manifest_pins >= 1, "the client must pin: {row:?}");
                assert!(ist.digest_checks > 0);
                assert!(r.ledger.integrity > 0);
            }
            if row.byzantine > 0 && row.mode.detected_inline() {
                assert_eq!(
                    ist.undetected_units, 0,
                    "digest-visible modes leave nothing undetected: {row:?}"
                );
            }
        }
        // With the honest primary dead, an equivocating survivor must
        // actually diverge and get caught somewhere in the sweep.
        assert!(
            rows.iter()
                .filter(|r| r.byzantine > 0 && r.mode == ByzantineMode::Equivocate)
                .any(|r| r.result.integrity.divergent_units > 0),
            "killing the primary must route units through an equivocator"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let suite = hanoi_suite();
        assert_eq!(byzantine_sweep(&suite), byzantine_sweep(&suite));
    }
}
