//! The verification-overhead sweep: benchmark × link × verify mode
//! under non-strict transfer.
//!
//! This is our robustness extension of the paper's evaluation — the
//! original tables assume verification is free, so these rows live in
//! their own experiment (a new `verify.csv`, a new `paper verify`
//! command) and leave every published-table row untouched. Each cell
//! simulates the non-strict par(4) SCG configuration and reports what
//! the verified-prefix gate costs: total time normalized to the strict
//! baseline, the share of time spent verifying, and the invocation
//! latency the gate imposes. The `off` row reproduces the existing
//! results exactly; `stream` charges steps 1–2 at global-data arrival
//! and steps 3–4 per method at its delimiter while keeping the overlap;
//! `full` waits for whole files, the strict 1998 JVM's behaviour.

use nonstrict_bytecode::Input;
use nonstrict_netsim::Link;

use super::{Suite, LINKS};
use crate::metrics::{normalized_percent, share_percent};
use crate::model::{OrderingSource, SimConfig, VerifyMode};
use crate::sim::SimResult;

/// The swept verification modes, in report column order.
pub const VERIFY_SWEEP: [VerifyMode; 3] = [VerifyMode::Off, VerifyMode::Stream, VerifyMode::Full];

/// One benchmark × link × verify-mode cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyRow {
    /// Benchmark name.
    pub name: String,
    /// The link measured.
    pub link: Link,
    /// Verification mode.
    pub mode: VerifyMode,
    /// Normalized time (%) vs the perfect-link strict baseline.
    pub normalized: f64,
    /// Percent of total time spent verifying.
    pub verify_share: f64,
    /// The run itself: its eight-bucket ledger and invocation latency.
    pub result: SimResult,
}

/// Runs the full sweep: every benchmark × link × verify mode,
/// non-strict par(4) SCG transfer, whole global data. Rows are ordered
/// benchmark-major, then link, then mode — the natural grouping for the
/// report.
#[must_use]
pub fn verify_sweep(suite: &Suite) -> Vec<VerifyRow> {
    let mut rows = Vec::new();
    for s in &suite.sessions {
        for link in LINKS {
            let base = s.simulate(Input::Test, &SimConfig::strict(link));
            for mode in VERIFY_SWEEP {
                let config =
                    SimConfig::non_strict(link, OrderingSource::StaticCallGraph).with_verify(mode);
                let r = s.simulate(Input::Test, &config);
                rows.push(VerifyRow {
                    name: s.app.name.clone(),
                    link,
                    mode,
                    normalized: normalized_percent(r.total_cycles, base.total_cycles),
                    verify_share: share_percent(r.ledger.verify, r.total_cycles),
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

    fn one_benchmark_suite() -> Suite {
        Suite {
            sessions: vec![Session::new(nonstrict_workloads::hanoi::build()).unwrap()],
        }
    }

    #[test]
    fn sweep_covers_every_cell_and_off_is_free() {
        let suite = one_benchmark_suite();
        let rows = verify_sweep(&suite);
        assert_eq!(rows.len(), LINKS.len() * VERIFY_SWEEP.len());
        for r in &rows {
            assert!(r.normalized > 0.0);
            match r.mode {
                VerifyMode::Off => {
                    assert_eq!(r.result.ledger.verify, 0, "off must charge nothing: {r:?}");
                    assert_eq!(r.verify_share, 0.0);
                }
                VerifyMode::Stream | VerifyMode::Full => {
                    assert!(
                        r.result.ledger.verify > 0,
                        "verification must be charged: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_sits_between_off_and_full() {
        let suite = one_benchmark_suite();
        let rows = verify_sweep(&suite);
        for chunk in rows.chunks(VERIFY_SWEEP.len()) {
            let (off, stream, full) = (&chunk[0], &chunk[1], &chunk[2]);
            assert!(stream.normalized >= off.normalized - 1e-9);
            assert!(full.normalized >= stream.normalized - 1e-9);
            assert!(
                full.result.invocation_latency >= stream.result.invocation_latency,
                "whole-file gating cannot start sooner: {chunk:?}"
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let suite = one_benchmark_suite();
        assert_eq!(verify_sweep(&suite), verify_sweep(&suite));
    }
}
