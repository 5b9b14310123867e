//! The outage sweep: connection-loss frequency × duration × link under
//! durable session checkpointing.
//!
//! Like the fault sweep, this is a robustness extension — the paper's
//! tables assume the connection survives the whole download, so these
//! rows live in their own experiment (`outage.csv`, `paper outage`).
//! Each cell simulates the non-strict par(4) SCG configuration over a
//! link that suffers seeded full-connection losses; the client journals
//! its session state and resumes from the checkpoint when the link
//! returns. The headline property the sweep demonstrates is that an
//! outage is *pure inserted downtime*: the wall-clock total is exactly
//! the outage-free total plus the metered resume cost, never a restart.

use nonstrict_bytecode::Input;
use nonstrict_netsim::Link;

use super::{Suite, LINKS};
use crate::metrics::{normalized_percent, share_percent};
use crate::model::{OrderingSource, OutageConfig, SimConfig};
use crate::sim::SimResult;

/// The swept outage severities, `(rate_pm, outage_cycles)`: probability
/// per ~134ms draw period (parts-per-million) and the exact connection
/// downtime each event inserts. The zero row is the control: an armed
/// journal but a link that never goes down.
pub const OUTAGE_SWEEP: [(u32, u64); 4] = [
    (0, 0),
    (100_000, 1 << 21),
    (400_000, 1 << 23),
    (800_000, 1 << 25),
];

/// Seed for every sweep cell, so the whole table is reproducible.
pub const OUTAGE_SEED: u64 = 0x5e55_10f5;

/// The sweep's outage config at one severity: the duration is pinned
/// (`min = max`) so each cell's downtime is an exact multiple of the
/// event count.
#[must_use]
pub fn sweep_config(rate_pm: u32, outage_cycles: u64) -> OutageConfig {
    let mut oc = OutageConfig::seeded(OUTAGE_SEED);
    oc.rate_pm = rate_pm;
    oc.min_cycles = outage_cycles;
    oc.max_cycles = outage_cycles;
    oc
}

/// One benchmark × link × severity cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageRow {
    /// Benchmark name.
    pub name: String,
    /// The link measured.
    pub link: Link,
    /// Swept outage probability (ppm per draw period).
    pub rate_pm: u32,
    /// Downtime inserted per outage event (cycles).
    pub outage_cycles: u64,
    /// Normalized wall-clock time (%) vs the outage-free strict
    /// baseline.
    pub normalized: f64,
    /// Percent of wall-clock total spent down or renegotiating.
    pub resume_share: f64,
    /// Whether wall total == outage-free total + resume cost held
    /// exactly (the pure-downtime invariant).
    pub pure_downtime: bool,
    /// The run itself: its eight-bucket ledger and outage counts.
    pub result: SimResult,
}

/// Runs the full sweep: every benchmark × link × outage severity,
/// non-strict par(4) SCG transfer. Rows are benchmark-major, then link,
/// then severity — the natural grouping for the report.
#[must_use]
pub fn outage_sweep(suite: &Suite) -> Vec<OutageRow> {
    let mut rows = Vec::new();
    for s in &suite.sessions {
        for link in LINKS {
            let base = s.simulate(Input::Test, &SimConfig::strict(link));
            let quiet_cfg = SimConfig::non_strict(link, OrderingSource::StaticCallGraph);
            let quiet = s.simulate(Input::Test, &quiet_cfg);
            for (rate_pm, outage_cycles) in OUTAGE_SWEEP {
                let config = quiet_cfg.with_outages(sweep_config(rate_pm, outage_cycles));
                let r = s.simulate(Input::Test, &config);
                rows.push(OutageRow {
                    name: s.app.name.clone(),
                    link,
                    rate_pm,
                    outage_cycles,
                    normalized: normalized_percent(r.total_cycles, base.total_cycles),
                    resume_share: share_percent(r.ledger.resume, r.total_cycles),
                    pure_downtime: r.total_cycles == quiet.total_cycles + r.ledger.resume,
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

    #[test]
    fn sweep_config_pins_the_event_duration() {
        let oc = sweep_config(400_000, 1 << 23);
        assert!(oc.is_active());
        assert_eq!(oc.min_cycles, oc.max_cycles);
        assert!(!sweep_config(0, 0).is_active(), "zero rate is a calm link");
    }

    #[test]
    fn single_benchmark_sweep_inserts_pure_downtime() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let rows = outage_sweep(&suite);
        assert_eq!(rows.len(), LINKS.len() * OUTAGE_SWEEP.len());
        for r in &rows {
            assert!(r.pure_downtime, "outages must never force a restart: {r:?}");
            assert_eq!(
                r.result.outage.resumes, r.result.outage.outages,
                "one journal resume per outage: {r:?}"
            );
            if r.rate_pm == 0 {
                assert_eq!(r.result.outage.outages, 0, "calm link, no events: {r:?}");
                assert_eq!(r.resume_share, 0.0);
            }
        }
        // Severity costs wall-clock time: at each link the harshest grid
        // point can be no faster than the calm one.
        for chunk in rows.chunks(OUTAGE_SWEEP.len()) {
            let calm = chunk[0].normalized;
            let worst = chunk[OUTAGE_SWEEP.len() - 1].normalized;
            assert!(
                worst >= calm - 1e-9,
                "outages cannot speed a run up: {chunk:?}"
            );
        }
    }

    #[test]
    fn calm_row_matches_the_outage_free_run() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let rows = outage_sweep(&suite);
        for link in LINKS {
            let s = &suite.sessions[0];
            let base = s.simulate(Input::Test, &SimConfig::strict(link));
            let quiet = s.simulate(
                Input::Test,
                &SimConfig::non_strict(link, OrderingSource::StaticCallGraph),
            );
            let calm = rows
                .iter()
                .find(|r| r.link == link && r.rate_pm == 0)
                .unwrap();
            assert_eq!(
                calm.normalized,
                normalized_percent(quiet.total_cycles, base.total_cycles),
                "an armed-but-calm outage config must not perturb the run"
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        assert_eq!(outage_sweep(&suite), outage_sweep(&suite));
    }
}
