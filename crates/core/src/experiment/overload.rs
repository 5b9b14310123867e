//! The overload sweep: fleet size × link mix × admission rate under
//! fair-share scheduling and the load-shed ladder.
//!
//! Like the other robustness extensions, these rows live in their own
//! experiment (`overload.csv`, `paper overload`) and leave every
//! published-table row untouched. Each cell drives one seeded fleet
//! ([`crate::fleet::run_fleet`]): N clients cycling through the
//! benchmark suite, on homogeneous or mixed access links, share one T1
//! egress pipe under deficit-round-robin scheduling. Per-cell rows
//! report the admission outcome (rejections before every client got
//! in), how far down the shed ladder the server had to reach (hedges
//! dropped, sessions forced strict, sessions shed to a journal and
//! resumed), tail latency percentiles, and the aggregate eight-bucket
//! cycle ledger — whose `queue` bucket is exactly the contention the
//! fleet inserted.

use nonstrict_bytecode::Input;
use nonstrict_netsim::contention::{ShedAction, ShedLadder};
use nonstrict_netsim::Link;

use super::faults::sweep_config;
use super::replica::sweep_replicas;
use super::Suite;
use crate::fleet::{run_fleet, AdmissionSettings, FleetClient, FleetSpec};
use crate::metrics::{share_percent, CycleLedger};
use crate::model::{OrderingSource, SimConfig};

/// The swept fleet sizes: a pair (barely contended), a rack of eight,
/// and sixteen (heavily contended — deep into the shed ladder).
pub const CLIENT_SWEEP: [usize; 3] = [2, 8, 16];

/// The swept access-link mixes: every client on T1, alternating
/// T1/modem, every client on the modem.
pub const LINK_MIXES: [&str; 3] = ["t1", "mixed", "modem"];

/// The swept admission rates (tokens per refill period): 0 disables
/// admission control, 1 meters the fleet in one session per ~20 ms.
pub const ADMIT_SWEEP: [u32; 2] = [0, 1];

/// Seed for every sweep cell, so the whole table is reproducible.
pub const OVERLOAD_SEED: u64 = 0x0f1e_e7ed;

/// Unit-loss rate (ppm) on every client's access link: the fault
/// sweep's 1% profile, so hedged fetches have stalls to race.
pub const SWEEP_LOSS_PM: u32 = 10_000;

/// The sweep's shed ladder, tuned to the T1 egress pipe: a pair of
/// clients reaches only the hedge-drop rung, eight spread across all
/// three, and sixteen push most of the fleet into shed-to-journal
/// territory.
pub const SWEEP_LADDER: ShedLadder = ShedLadder {
    drop_hedges: 10_000_000,
    force_strict: 1_000_000_000,
    shed: 3_000_000_000,
};

/// The sweep's per-client base config (the link is overridden per
/// client): non-strict par(4) SCG transfer over the fault sweep's 1%
/// lossy profile, against the replica sweep's two-mirror hedged set —
/// so the first ladder rung has hedges to drop.
#[must_use]
pub fn sweep_base() -> SimConfig {
    SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph)
        .with_faults(sweep_config(SWEEP_LOSS_PM))
        .with_replicas(sweep_replicas(2))
}

/// The sweep's fleet spec at one admission rate (0 disables admission).
#[must_use]
pub fn sweep_spec(admit_rate: u32) -> FleetSpec {
    FleetSpec {
        admission: (admit_rate > 0).then(|| AdmissionSettings::per_period(admit_rate)),
        ladder: Some(SWEEP_LADDER),
        ..FleetSpec::seeded(OVERLOAD_SEED)
    }
}

/// Client `i`'s access link under one mix.
#[must_use]
pub fn mix_link(mix: &str, i: usize) -> Link {
    match mix {
        "modem" => Link::MODEM_28_8,
        "mixed" if i % 2 == 1 => Link::MODEM_28_8,
        _ => Link::T1,
    }
}

/// One fleet-size × link-mix × admission-rate cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadRow {
    /// Fleet size.
    pub clients: usize,
    /// Access-link mix label.
    pub mix: &'static str,
    /// Admission rate (tokens per period; 0 = admission disabled).
    pub admit_rate: u32,
    /// Admission rejections before every client was admitted.
    pub rejections: u64,
    /// Clients served unmodified.
    pub served: usize,
    /// Clients whose hedged fetches were dropped (first rung).
    pub hedge_dropped: usize,
    /// Clients forced to strict sequential transfer (second rung).
    pub forced_strict: usize,
    /// Clients shed to a journal checkpoint and resumed (final rung).
    pub shed: usize,
    /// Median per-client total cycles.
    pub p50_total: u64,
    /// 95th-percentile per-client total cycles.
    pub p95_total: u64,
    /// 99th-percentile per-client total cycles.
    pub p99_total: u64,
    /// Aggregate queue share: fleet queue cycles as a percent of fleet
    /// total cycles.
    pub queue_share: f64,
    /// Summed total cycles across the fleet.
    pub total_cycles: u64,
    /// Summed eight-bucket ledger across the fleet (exact: the buckets
    /// sum to `total_cycles`).
    pub ledger: CycleLedger,
}

/// Runs the full sweep: every fleet size × link mix × admission rate,
/// clients cycling through the suite's benchmarks in order. Rows are
/// fleet-size-major, then mix, then admission rate.
#[must_use]
pub fn overload_sweep(suite: &Suite) -> Vec<OverloadRow> {
    let base = sweep_base();
    let mut rows = Vec::new();
    for clients in CLIENT_SWEEP {
        for mix in LINK_MIXES {
            for admit_rate in ADMIT_SWEEP {
                let fleet_clients: Vec<FleetClient> = (0..clients)
                    .map(|i| {
                        let s = &suite.sessions[i % suite.sessions.len()];
                        FleetClient {
                            name: &s.app.name,
                            session: s,
                            link: mix_link(mix, i),
                            weight: 1,
                        }
                    })
                    .collect();
                let fleet = run_fleet(&sweep_spec(admit_rate), &fleet_clients, Input::Test, &base);
                let mut ledger = CycleLedger::default();
                let mut total_cycles = 0u64;
                for c in &fleet.clients {
                    ledger += c.result.ledger;
                    total_cycles += c.result.total_cycles;
                }
                // Per-client exactness survives summation.
                ledger.assert_exact(total_cycles, "overload cell");
                rows.push(OverloadRow {
                    clients,
                    mix,
                    admit_rate,
                    rejections: fleet.rejections(),
                    served: fleet.count(ShedAction::None),
                    hedge_dropped: fleet.count(ShedAction::DropHedges),
                    forced_strict: fleet.count(ShedAction::ForceStrict),
                    shed: fleet.count(ShedAction::Shed),
                    p50_total: fleet.p50_total,
                    p95_total: fleet.p95_total,
                    p99_total: fleet.p99_total,
                    queue_share: share_percent(ledger.queue, total_cycles),
                    total_cycles,
                    ledger,
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
        Suite {
            sessions: vec![Session::new(nonstrict_workloads::hanoi::build()).unwrap()],
        }
    }

    #[test]
    fn sweep_ladder_rungs_are_ordered() {
        // The struct-literal const must satisfy the same ordering the
        // validated constructor enforces.
        assert_eq!(
            ShedLadder::new(
                SWEEP_LADDER.drop_hedges,
                SWEEP_LADDER.force_strict,
                SWEEP_LADDER.shed,
            ),
            Ok(SWEEP_LADDER)
        );
        assert!(sweep_base().active_replicas().is_some());
        assert!(sweep_base().active_faults().is_some());
        assert!(sweep_spec(0).admission.is_none());
        assert!(sweep_spec(1).admission.is_some());
    }

    #[test]
    fn single_benchmark_sweep_accounts_every_cycle() {
        let suite = hanoi_suite();
        let rows = overload_sweep(&suite);
        assert_eq!(
            rows.len(),
            CLIENT_SWEEP.len() * LINK_MIXES.len() * ADMIT_SWEEP.len()
        );
        for r in &rows {
            assert_eq!(
                r.served + r.hedge_dropped + r.forced_strict + r.shed,
                r.clients,
                "every client lands on exactly one rung: {r:?}"
            );
            assert_eq!(r.ledger.total(), r.total_cycles, "exact ledger: {r:?}");
            assert!(r.p50_total <= r.p95_total && r.p95_total <= r.p99_total);
            if r.admit_rate == 0 {
                assert_eq!(r.rejections, 0, "disabled admission rejects no one: {r:?}");
            }
        }
        // Contention grows with fleet size: the largest fleet queues
        // more than the smallest on every (mix, admit) cell.
        let per_cell = LINK_MIXES.len() * ADMIT_SWEEP.len();
        for i in 0..per_cell {
            let small = &rows[i];
            let large = &rows[(CLIENT_SWEEP.len() - 1) * per_cell + i];
            assert!(
                large.ledger.queue > small.ledger.queue,
                "more clients must queue more: {small:?} vs {large:?}"
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let suite = hanoi_suite();
        assert_eq!(overload_sweep(&suite), overload_sweep(&suite));
    }
}
