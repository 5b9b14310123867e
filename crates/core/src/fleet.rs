//! The fleet driver: M concurrent client sessions sharing one server.
//!
//! Every robustness layer so far models one client on a dedicated
//! link. This module puts N of them behind a single server egress pipe
//! and composes the three contention defenses from
//! [`nonstrict_netsim::contention`]:
//!
//! 1. **Admission.** Each client's session request arrives at a seeded
//!    offset. A token-bucket [`AdmissionController`] either admits it
//!    or answers with a typed `Rejected { retry_after }`; the client
//!    honors it with seeded jittered backoff and retries. The whole
//!    admission exchange is replayed on one interleaved event loop in
//!    wall-clock order, so retries from different clients contend for
//!    the same refilled tokens deterministically.
//! 2. **Fair-share scheduling.** Admitted clients' transfer units (the
//!    exact [`Session::units_for`] byte stream, so verified-prefix,
//!    journal, and replica semantics compose unchanged) are served by
//!    deficit round robin over the egress pipe. Each client's
//!    contention delay falls out exactly as
//!    `finish − admitted − bytes·cpb`.
//! 3. **Load shedding.** Clients whose contention delay crosses a
//!    [`ShedLadder`] rung are degraded in order: hedged fetches
//!    dropped, then forced to strict sequential transfer, then shed to
//!    a journal checkpoint (via [`Session::run_until`]) and resumed
//!    after the congestion has passed (via [`Session::resume`]).
//!
//! Accounting stays exact: every admission wait and every cycle of DRR
//! queueing delay lands in exactly one bucket — the ledger's seventh,
//! `queue`, except a shed client's DRR delay, which becomes its
//! journal park and lands in the resume bucket — and every per-client
//! result satisfies
//! `total = exec + stall + recovery + verify + resume + hedge + queue + integrity`
//! ([`crate::metrics::CycleLedger::assert_exact`], debug-asserted for
//! served, rejected-then-admitted, degraded, and shed-then-resumed
//! sessions alike).
//!
//! The contention delay is an **ambient shift**, like outage downtime
//! (`core::sim`'s `ambient_shift`): each client's own timeline — its
//! link, stalls, faults, verification — is simulated undisturbed, and
//! the server-side queueing delay is added on top. A fleet of one
//! therefore reproduces the single-client result bit for bit: one
//! client never queues, so the shift is zero by construction.
//!
//! The schedule itself is a **one-pass approximation**: DRR demand is
//! each client's *pre-degradation* unit stream, and the ladder is
//! keyed on the queue delay that demand produced. A forced-strict
//! client therefore contends with its non-strict stream even though
//! its simulated timeline is strict, and a shed client's units keep
//! occupying the schedule after it is parked — the feedback loop in
//! which degraded clients shrink everyone else's queue delay is not
//! modeled (that would need a fixed-point iteration of the schedule).

use nonstrict_bytecode::Input;
use nonstrict_netsim::contention::{
    drr_schedule, jitter, AdmissionController, ClientDemand, ShedAction, ShedLadder,
};
use nonstrict_netsim::Link;

use crate::metrics::percentile;
use crate::model::{ExecutionModel, SimConfig, TransferPolicy};
use crate::sim::{RunOutcome, Session, SimResult};

/// Default DRR quantum: bytes of deficit each unit-weight client earns
/// per round. Small enough that fairness is fine-grained against the
/// multi-kilobyte method units, large enough that rounds stay cheap.
pub const DEFAULT_QUANTUM_BYTES: u64 = 4_096;

/// Default span (cycles) over which client session requests arrive,
/// ~0.2 s on the 500 MHz Alpha: wide enough to stagger admissions,
/// narrow enough that transfers genuinely overlap.
pub const DEFAULT_ARRIVAL_SPAN_CYCLES: u64 = 100_000_000;

/// Default token-bucket refill period, ~20 ms on the 500 MHz Alpha.
pub const DEFAULT_ADMIT_PERIOD_CYCLES: u64 = 10_000_000;

/// Token-bucket admission settings for a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdmissionSettings {
    /// Tokens refilled per period.
    pub rate: u32,
    /// Bucket capacity (burst).
    pub burst: u32,
    /// Refill period in cycles.
    pub period_cycles: u64,
}

impl AdmissionSettings {
    /// `rate` admissions per default period, with burst equal to the
    /// rate — the shape the CLI's `--admit-rate N` requests.
    #[must_use]
    pub fn per_period(rate: u32) -> AdmissionSettings {
        AdmissionSettings {
            rate: rate.max(1),
            burst: rate.max(1),
            period_cycles: DEFAULT_ADMIT_PERIOD_CYCLES,
        }
    }
}

/// One client of the fleet: a prepared session on its own access link,
/// with a DRR weight for its share of the egress pipe.
#[derive(Clone, Copy)]
pub struct FleetClient<'a> {
    /// Benchmark name, for reports.
    pub name: &'a str,
    /// The prepared benchmark session.
    pub session: &'a Session,
    /// The client's own access link (heterogeneous across the fleet).
    pub link: Link,
    /// DRR weight (share of the egress pipe); clamped to at least 1.
    pub weight: u32,
}

/// Fleet-level knobs: the shared egress pipe, seeded arrivals,
/// admission control, and the shed ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FleetSpec {
    /// Seed for arrival offsets and backoff jitter.
    pub seed: u64,
    /// The server's shared egress pipe.
    pub egress: Link,
    /// DRR quantum in bytes per unit weight per round.
    pub quantum: u64,
    /// Session requests arrive at seeded offsets in `[0, span)`.
    pub arrival_span: u64,
    /// Token-bucket admission; `None` disables admission control
    /// (every session admitted on arrival).
    pub admission: Option<AdmissionSettings>,
    /// Load-shed ladder; `None` serves every client unmodified.
    pub ladder: Option<ShedLadder>,
}

impl FleetSpec {
    /// A fleet spec with the default egress (T1), quantum, and arrival
    /// span, no admission control, and no shed ladder.
    #[must_use]
    pub fn seeded(seed: u64) -> FleetSpec {
        FleetSpec {
            seed,
            egress: Link::T1,
            quantum: DEFAULT_QUANTUM_BYTES,
            arrival_span: DEFAULT_ARRIVAL_SPAN_CYCLES,
            admission: None,
            ladder: None,
        }
    }
}

/// What happened to one client of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOutcome {
    /// Benchmark name.
    pub name: String,
    /// The client's access link.
    pub link: Link,
    /// DRR weight.
    pub weight: u32,
    /// Wall cycle of the first session request.
    pub arrival: u64,
    /// Wall cycle of the admission that finally succeeded.
    pub admitted: u64,
    /// Admission rejections before the session was admitted.
    pub rejections: u32,
    /// Admission backoff wait (`admitted − arrival`), charged to the
    /// queue bucket.
    pub admission_wait: u64,
    /// DRR contention delay at the egress pipe, charged to the queue
    /// bucket.
    pub drr_queue: u64,
    /// The shed-ladder rung applied (keyed on `drr_queue`).
    pub action: ShedAction,
    /// The client's session result; its `queue` bucket holds
    /// `admission_wait + drr_queue` and `total_cycles` includes it.
    /// Exception: a [`ShedAction::Shed`] client's `drr_queue` is the
    /// journal park already charged to the resume bucket, so its
    /// `queue` bucket holds only `admission_wait` (no wall-clock
    /// interval is counted twice).
    pub result: SimResult,
}

/// One fleet run: every client's outcome plus aggregate percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetResult {
    /// The shared egress pipe.
    pub egress: Link,
    /// Per-client outcomes, in client order.
    pub clients: Vec<ClientOutcome>,
    /// Median per-client total cycles.
    pub p50_total: u64,
    /// 95th-percentile per-client total cycles.
    pub p95_total: u64,
    /// 99th-percentile per-client total cycles.
    pub p99_total: u64,
}

impl FleetResult {
    /// Clients whose ladder outcome was `action`.
    #[must_use]
    pub fn count(&self, action: ShedAction) -> usize {
        self.clients.iter().filter(|c| c.action == action).count()
    }

    /// Total admission rejections across the fleet.
    #[must_use]
    pub fn rejections(&self) -> u64 {
        self.clients.iter().map(|c| u64::from(c.rejections)).sum()
    }

    /// Total queue cycles across the fleet: admission wait + DRR
    /// delay, except that shed clients' DRR delay is their journal
    /// park and lives in the resume bucket instead.
    #[must_use]
    pub fn queue_cycles(&self) -> u64 {
        self.clients.iter().map(|c| c.result.ledger.queue).sum()
    }
}

/// Replays the admission exchange on one interleaved event loop:
/// requests and retries pop in wall-clock order (ties broken by client
/// index), rejections re-arm with `retry_after` plus seeded jitter.
/// Returns `(admitted_at, rejections)` per client.
fn run_admission(
    spec: &FleetSpec,
    arrivals: &[u64],
    settings: Option<AdmissionSettings>,
) -> Vec<(u64, u32)> {
    let Some(s) = settings else {
        return arrivals.iter().map(|&a| (a, 0)).collect();
    };
    let mut ctl = AdmissionController::new(s.rate, s.burst, s.period_cycles);
    let mut outcome = vec![(0u64, 0u32); arrivals.len()];
    // Pending attempts, popped in (time, client) order.
    let mut pending: Vec<(u64, usize, u32)> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i, 0))
        .collect();
    while !pending.is_empty() {
        let (pos, &(now, i, attempt)) = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, c, _))| (t, c))
            .expect("pending is non-empty");
        pending.swap_remove(pos);
        match ctl.admit(now) {
            Ok(()) => outcome[i] = (now, attempt),
            Err(rej) => {
                // Back off past the refill boundary with seeded jitter
                // so colliding retries from different clients spread
                // out instead of stampeding the same token.
                let wait = rej.retry_after
                    + jitter(spec.seed, i as u64, attempt + 1, rej.retry_after.max(1));
                pending.push((now + wait.max(1), i, attempt + 1));
            }
        }
    }
    outcome
}

/// The config a client runs under after its ladder rung is applied.
fn degraded_config(base: &SimConfig, action: ShedAction) -> SimConfig {
    match action {
        // Hedges are pure redundancy: cancel them and keep everything
        // else (hedge deadline 0 disables hedging).
        ShedAction::DropHedges => match base.replicas {
            Some(mut rc) => {
                rc.hedge_deadline_cycles = 0;
                SimConfig {
                    replicas: Some(rc),
                    byzantine: None,
                    ..*base
                }
            }
            None => *base,
        },
        // Give up overlap: strict sequential transfer and strict
        // execution, keeping the client's link, verification, faults,
        // and mirrors.
        ShedAction::ForceStrict => SimConfig {
            transfer: TransferPolicy::Strict,
            execution: ExecutionModel::Strict,
            ..*base
        },
        ShedAction::None | ShedAction::Shed => *base,
    }
}

/// Drives the whole fleet: seeded arrivals, the admission exchange,
/// the DRR schedule over the shared egress, the shed ladder, and one
/// session simulation per client with exact queue accounting.
///
/// `base` is each client's session config **except** the link, which
/// comes from its [`FleetClient`]. A fleet of one client with
/// admission disabled (or not, the first token is always there)
/// reproduces `session.simulate(input, &config)` exactly, with an
/// empty `queue` bucket.
///
/// Like the ambient queue shift itself, the contention model is one
/// pass: demands on the egress pipe come from each client's
/// **pre-degradation** config, and ladder actions are keyed on the
/// delay those demands produced. Degraded clients do not shrink the
/// schedule retroactively, so `overload.csv` readers should treat the
/// queue column as the *triggering* contention, not a post-shed
/// equilibrium (see the module docs).
#[must_use]
pub fn run_fleet(
    spec: &FleetSpec,
    clients: &[FleetClient],
    input: Input,
    base: &SimConfig,
) -> FleetResult {
    // Seeded arrival offsets (stream 0 of each client's jitter).
    let arrivals: Vec<u64> = (0..clients.len())
        .map(|i| jitter(spec.seed, i as u64, 0, spec.arrival_span.max(1)))
        .collect();
    let admitted = run_admission(spec, &arrivals, spec.admission);

    // Per-client configs and unit demand on the egress pipe.
    let configs: Vec<SimConfig> = clients
        .iter()
        .map(|c| SimConfig {
            link: c.link,
            ..*base
        })
        .collect();
    let demands: Vec<ClientDemand> = clients
        .iter()
        .zip(&admitted)
        .zip(&configs)
        .map(|((c, &(at, _)), cfg)| ClientDemand {
            weight: c.weight.max(1),
            arrival: at,
            units: c
                .session
                .units_for(cfg)
                .iter()
                .flat_map(|u| {
                    let mut v = Vec::with_capacity(u.unit_count());
                    v.push(u.prelude);
                    v.extend_from_slice(&u.methods);
                    v.push(u.trailing);
                    v
                })
                .collect(),
        })
        .collect();
    let served = drr_schedule(spec.egress.cycles_per_byte, spec.quantum, &demands);

    let outcomes: Vec<ClientOutcome> = clients
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let (at, rejections) = admitted[i];
            let admission_wait = at - arrivals[i];
            let drr_queue = served[i].queue_cycles;
            let action = spec
                .ladder
                .map_or(ShedAction::None, |l| l.action_for(drr_queue));
            let cfg = degraded_config(&configs[i], action);
            let mut result = match action {
                ShedAction::Shed => shed_and_resume(c.session, input, &cfg, drr_queue),
                _ => c.session.simulate(input, &cfg),
            };
            // The ambient queue shift: admission wait plus contention
            // delay on top of the client's undisturbed timeline.  A
            // shed client's DRR delay is the park that `shed_and_resume`
            // already charged to the resume bucket — the same
            // wall-clock interval must not land in queue too.
            result.ledger.queue = match action {
                ShedAction::Shed => admission_wait,
                _ => admission_wait + drr_queue,
            };
            result.total_cycles += result.ledger.queue;
            result
                .ledger
                .assert_exact(result.total_cycles, "fleet client");
            ClientOutcome {
                name: c.name.to_string(),
                link: c.link,
                weight: c.weight.max(1),
                arrival: arrivals[i],
                admitted: at,
                rejections,
                admission_wait,
                drr_queue,
                action,
                result,
            }
        })
        .collect();

    let mut totals: Vec<u64> = outcomes.iter().map(|o| o.result.total_cycles).collect();
    totals.sort_unstable();
    FleetResult {
        egress: spec.egress,
        p50_total: percentile(&totals, 50),
        p95_total: percentile(&totals, 95),
        p99_total: percentile(&totals, 99),
        clients: outcomes,
    }
}

/// The final ladder rung: checkpoint the session to a journal halfway
/// through its base timeline, park it for the duration of the
/// congestion that evicted it (`park` cycles, its DRR queue delay),
/// and resume from the journal. The round trip through the encoded
/// checkpoint record is real — the same machinery as an outage resume —
/// so the parked time lands in the `resume` bucket and everything
/// delivered pre-shed survives. Because the park *is* the client's
/// DRR queue delay, [`run_fleet`] excludes that delay from the shed
/// client's `queue` bucket — the interval is charged exactly once.
fn shed_and_resume(session: &Session, input: Input, config: &SimConfig, park: u64) -> SimResult {
    let base_total = session.simulate(input, config).total_cycles;
    match session.run_until(input, config, base_total / 2) {
        RunOutcome::Finished(r) => *r,
        RunOutcome::Interrupted(journal) => {
            session.resume(input, config, &journal.in_memory(), park)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OrderingSource;

    fn hanoi_session() -> Session {
        Session::new(nonstrict_workloads::hanoi::build()).unwrap()
    }

    #[test]
    fn fleet_of_one_is_exactly_the_single_client_run() {
        let session = hanoi_session();
        let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
        let solo = session.simulate(Input::Test, &config);
        for admission in [None, Some(AdmissionSettings::per_period(1))] {
            let spec = FleetSpec {
                admission,
                ladder: Some(ShedLadder::new(1, 2, 3).unwrap()),
                ..FleetSpec::seeded(0xf1ee7)
            };
            let clients = [FleetClient {
                name: "Hanoi",
                session: &session,
                link: Link::MODEM_28_8,
                weight: 1,
            }];
            let fleet = run_fleet(&spec, &clients, Input::Test, &config);
            assert_eq!(fleet.clients.len(), 1);
            let c = &fleet.clients[0];
            assert_eq!(c.result, solo, "a lone client must not be perturbed");
            assert_eq!(c.result.ledger.queue, 0);
            assert_eq!(c.rejections, 0);
            assert_eq!(c.action, ShedAction::None);
            assert_eq!(fleet.p50_total, solo.total_cycles);
            assert_eq!(fleet.p99_total, solo.total_cycles);
        }
    }

    #[test]
    fn contended_fleet_charges_queue_cycles_exactly() {
        let session = hanoi_session();
        let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph);
        let spec = FleetSpec {
            arrival_span: 1_000,
            ..FleetSpec::seeded(0xf1ee7)
        };
        let client = FleetClient {
            name: "Hanoi",
            session: &session,
            link: Link::T1,
            weight: 1,
        };
        let fleet = run_fleet(&spec, &[client; 4], Input::Test, &config);
        let solo = session.simulate(Input::Test, &config);
        // Four identical clients arriving nearly together: everyone
        // but (at most) the first queues.
        assert!(fleet.queue_cycles() > 0);
        for c in &fleet.clients {
            assert_eq!(
                c.result.total_cycles,
                solo.total_cycles + c.result.ledger.queue
            );
            c.result.ledger.assert_exact(c.result.total_cycles, "test");
        }
        assert!(fleet.p99_total > fleet.p50_total);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let session = hanoi_session();
        let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph);
        let spec = FleetSpec {
            arrival_span: 1_000,
            admission: Some(AdmissionSettings {
                rate: 1,
                burst: 1,
                period_cycles: 1_000,
            }),
            ladder: Some(ShedLadder::new(0, u64::MAX, u64::MAX).unwrap()),
            ..FleetSpec::seeded(0xf1ee7)
        };
        let client = FleetClient {
            name: "Hanoi",
            session: &session,
            link: Link::T1,
            weight: 2,
        };
        let a = run_fleet(&spec, &[client; 3], Input::Test, &config);
        let b = run_fleet(&spec, &[client; 3], Input::Test, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn admission_pressure_rejects_then_admits_everyone() {
        let session = hanoi_session();
        let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph);
        let spec = FleetSpec {
            arrival_span: 100,
            admission: Some(AdmissionSettings {
                rate: 1,
                burst: 1,
                period_cycles: 1_000_000,
            }),
            ..FleetSpec::seeded(7)
        };
        let client = FleetClient {
            name: "Hanoi",
            session: &session,
            link: Link::T1,
            weight: 1,
        };
        let fleet = run_fleet(&spec, &[client; 4], Input::Test, &config);
        assert!(
            fleet.rejections() > 0,
            "one token per ms must reject a burst of 4"
        );
        for c in &fleet.clients {
            assert!(c.admitted >= c.arrival);
            assert_eq!(c.admission_wait, c.admitted - c.arrival);
            assert_eq!(c.result.ledger.queue, c.admission_wait + c.drr_queue);
            c.result.ledger.assert_exact(c.result.total_cycles, "test");
        }
        // Everyone eventually got in, at distinct admission times.
        let mut times: Vec<u64> = fleet.clients.iter().map(|c| c.admitted).collect();
        times.sort_unstable();
        times.dedup();
        assert_eq!(times.len(), 4);
    }

    #[test]
    fn shed_ladder_rungs_apply_in_order() {
        let session = hanoi_session();
        let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph);
        // Everything queues past rung three: every client but the
        // first is shed; the first (zero queue) is served.
        let spec = FleetSpec {
            arrival_span: 1,
            ladder: Some(ShedLadder::new(1, 2, 3).unwrap()),
            ..FleetSpec::seeded(0xf1ee7)
        };
        let client = FleetClient {
            name: "Hanoi",
            session: &session,
            link: Link::T1,
            weight: 1,
        };
        let fleet = run_fleet(&spec, &[client; 3], Input::Test, &config);
        let shed = fleet.count(ShedAction::Shed);
        assert!(
            shed >= 1,
            "heavy contention with rock-bottom rungs must shed"
        );
        let solo = session.simulate(Input::Test, &config);
        for c in &fleet.clients {
            if c.action == ShedAction::Shed {
                // The shed session resumed from its journal: the parked
                // time is in the resume bucket on top of the base run,
                // and is NOT double-charged to the queue bucket.
                assert!(c.result.outage.resumes > 0 || c.result.outage.failed_closed);
                assert!(c.result.ledger.resume >= c.drr_queue);
                assert_eq!(
                    c.result.ledger.queue, c.admission_wait,
                    "a shed client's DRR delay is its park, charged once to resume"
                );
                assert_eq!(
                    c.result.total_cycles,
                    solo.total_cycles
                        + (c.result.ledger.resume - solo.ledger.resume)
                        + c.result.ledger.queue,
                    "shed = base + park/refetch + queue"
                );
            }
            c.result.ledger.assert_exact(c.result.total_cycles, "test");
        }
    }

    #[test]
    fn forced_strict_rung_gives_up_overlap() {
        let session = hanoi_session();
        let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph);
        let spec = FleetSpec {
            arrival_span: 1,
            ladder: Some(ShedLadder::new(1, 2, u64::MAX).unwrap()),
            ..FleetSpec::seeded(0xf1ee7)
        };
        let client = FleetClient {
            name: "Hanoi",
            session: &session,
            link: Link::T1,
            weight: 1,
        };
        let fleet = run_fleet(&spec, &[client; 3], Input::Test, &config);
        assert!(fleet.count(ShedAction::ForceStrict) >= 1);
        let strict = session.simulate(Input::Test, &SimConfig::strict(Link::T1));
        for c in &fleet.clients {
            if c.action == ShedAction::ForceStrict {
                assert_eq!(
                    c.result.total_cycles - c.result.ledger.queue,
                    strict.total_cycles,
                    "forced-strict runs the strict timeline"
                );
            }
        }
    }
}
