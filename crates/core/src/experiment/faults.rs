//! The fault sweep: loss rate × link × ordering under the resilient
//! transfer protocol.
//!
//! This is our robustness extension of the paper's evaluation — the
//! original tables assume a perfect link, so these rows live in their
//! own experiment (a new `faults.csv`, a new `paper faults` command) and
//! leave every published-table row untouched. Each cell simulates the
//! non-strict par(4) configuration over a seeded faulty link and reports
//! how much of the run went to fault recovery, how hard the protocol
//! worked (retries, drops), whether graceful degradation demoted any
//! class to strict demand-fetch, and that the run still completed.

use nonstrict_bytecode::Input;
use nonstrict_netsim::faults::FaultPlan;
use nonstrict_netsim::Link;

use super::{Suite, LINKS, ORDERINGS};
use crate::metrics::{normalized_percent, share_percent};
use crate::model::{OrderingSource, SimConfig};
use crate::sim::SimResult;

/// The swept unit-loss rates, parts-per-million per delivery attempt:
/// perfect, 0.1%, 1%, and 5%.
pub const LOSS_SWEEP_PM: [u32; 4] = [0, 1_000, 10_000, 50_000];

/// Seed for every sweep cell, so the whole table is reproducible.
pub const FAULT_SEED: u64 = 0x0bad_1147;

/// The sweep's fault plan at one loss level: corruption at half the
/// loss rate, drops and droop at a tenth — a link whose failure modes
/// scale together.
#[must_use]
pub fn sweep_config(loss_pm: u32) -> FaultPlan {
    FaultPlan {
        loss_pm,
        corrupt_pm: loss_pm / 2,
        drop_pm: loss_pm / 10,
        droop_pm: loss_pm / 10,
        ..FaultPlan::seeded(FAULT_SEED)
    }
}

/// One benchmark × link × ordering × loss-rate cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Benchmark name.
    pub name: String,
    /// The link measured.
    pub link: Link,
    /// First-use ordering source.
    pub ordering: OrderingSource,
    /// Swept unit-loss rate (ppm).
    pub loss_pm: u32,
    /// Normalized time (%) vs the perfect-link strict baseline.
    pub normalized: f64,
    /// Percent of total time spent in fault recovery.
    pub recovery_share: f64,
    /// The run itself: its eight-bucket ledger, fault counters, and
    /// degradation verdicts.
    pub result: SimResult,
}

/// Runs the full sweep: every benchmark × link × ordering × loss rate,
/// non-strict par(4) transfer, whole global data. Rows are ordered
/// benchmark-major, then link, ordering, loss — the natural grouping for
/// the report.
#[must_use]
pub fn fault_sweep(suite: &Suite) -> Vec<FaultRow> {
    let mut rows = Vec::new();
    for s in &suite.sessions {
        for link in LINKS {
            let base = s.simulate(Input::Test, &SimConfig::strict(link));
            for ordering in ORDERINGS {
                for loss_pm in LOSS_SWEEP_PM {
                    let config =
                        SimConfig::non_strict(link, ordering).with_faults(sweep_config(loss_pm));
                    let r = s.simulate(Input::Test, &config);
                    rows.push(FaultRow {
                        name: s.app.name.clone(),
                        link,
                        ordering,
                        loss_pm,
                        normalized: normalized_percent(r.total_cycles, base.total_cycles),
                        recovery_share: share_percent(r.ledger.recovery, r.total_cycles),
                        result: r,
                    });
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Session;

    #[test]
    fn sweep_config_scales_failure_modes_together() {
        let fc = sweep_config(10_000);
        assert!(fc.is_active());
        assert_eq!(fc.corrupt_pm, 5_000);
        assert_eq!(fc.drop_pm, 1_000);
        assert_eq!(fc.droop_pm, 1_000);
        assert!(!sweep_config(0).is_active(), "zero loss is a perfect link");
    }

    #[test]
    fn single_benchmark_sweep_completes_and_degrades_gracefully() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let rows = fault_sweep(&suite);
        assert_eq!(
            rows.len(),
            LINKS.len() * ORDERINGS.len() * LOSS_SWEEP_PM.len()
        );
        for r in &rows {
            assert!(
                r.result.completed,
                "every faulted run must terminate: {r:?}"
            );
            assert!(r.normalized > 0.0);
            if r.loss_pm == 0 {
                assert_eq!(
                    r.result.faults.retries, 0,
                    "perfect link, no protocol work: {r:?}"
                );
                assert_eq!(r.recovery_share, 0.0);
                assert_eq!(r.result.degraded_classes, 0);
            }
        }
        // Fault pressure costs time: at each link × ordering, the worst
        // loss rate can be no faster than the perfect link.
        for chunk in rows.chunks(LOSS_SWEEP_PM.len()) {
            let perfect = chunk[0].normalized;
            let worst = chunk[LOSS_SWEEP_PM.len() - 1].normalized;
            assert!(
                worst >= perfect - 1e-9,
                "faults cannot speed a run up: {chunk:?}"
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        assert_eq!(fault_sweep(&suite), fault_sweep(&suite));
    }
}
