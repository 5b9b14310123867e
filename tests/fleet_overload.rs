//! End-to-end properties of multi-client contention — the overload
//! tentpole's fair-share contract:
//!
//! 1. **Work conservation** — the DRR scheduler never idles the egress
//!    pipe while any admitted client has backlog: a fleet arriving
//!    together drains in exactly `total_bytes * cpb` cycles, and
//!    staggered arrivals finish inside the classic busy-period bounds.
//! 2. **Quantum fairness** — over any backlogged interval, service is
//!    proportional to weight within one maximum transfer unit plus one
//!    quantum per client.
//! 3. **No starvation** — under seeded arrivals and demands, every
//!    client finishes, and no later than the global completion bound.
//! 4. **Exact accounting under pressure** — a contended fleet with
//!    admission rejections, forced-strict clients, and shed-to-journal
//!    resumes still lands every cycle in exactly one of the eight
//!    ledger buckets.
//! 5. **A fleet of one moves nothing** — every committed number comes
//!    from single-client runs; a one-client fleet (with or without
//!    admission control) must reproduce them bit for bit, so the
//!    contention layer cannot perturb any committed CSV.

use nonstrict::prelude::*;
use nonstrict_netsim::contention::jitter;

/// Deterministic demand fleet for the scheduler property tests: unit
/// sizes, counts, weights, and arrivals all drawn from the seeded
/// jitter stream.
fn seeded_demands(seed: u64, clients: usize, arrival_span: u64) -> Vec<ClientDemand> {
    (0..clients)
        .map(|i| {
            let c = i as u64;
            let units = 1 + jitter(seed, c, 1, 12);
            ClientDemand {
                weight: 1 + jitter(seed, c, 2, 4) as u32,
                arrival: jitter(seed, c, 0, arrival_span.max(1)),
                units: (0..units)
                    .map(|u| jitter(seed, c, 10 + u as u32, 9_000))
                    .collect(),
            }
        })
        .collect()
}

#[test]
fn drr_is_work_conserving() {
    const CPB: u64 = 7;
    for seed in 0..6u64 {
        // Everyone arrives together: the pipe never idles, so the last
        // finisher lands at exactly total_bytes * cpb.
        let mut together = seeded_demands(seed, 8, 1);
        for d in &mut together {
            d.arrival = 0;
        }
        let total: u64 = together.iter().map(ClientDemand::total_bytes).sum();
        let served = drr_schedule(CPB, 2_048, &together);
        assert_eq!(
            served.iter().map(|s| s.finish).max(),
            Some(total * CPB),
            "seed {seed}: a simultaneous fleet drains with zero idle"
        );

        // Staggered arrivals: the completion time sits inside the
        // busy-period bounds — the pipe cannot start before the first
        // arrival, and cannot idle once the last client has arrived.
        let staggered = seeded_demands(seed, 8, 200_000);
        let total: u64 = staggered.iter().map(ClientDemand::total_bytes).sum();
        let first = staggered.iter().map(|d| d.arrival).min().unwrap();
        let last = staggered.iter().map(|d| d.arrival).max().unwrap();
        let served = drr_schedule(CPB, 2_048, &staggered);
        let makespan = served.iter().map(|s| s.finish).max().unwrap();
        assert!(
            makespan >= first + total * CPB,
            "seed {seed}: finished before the work could have been sent"
        );
        assert!(
            makespan <= last + total * CPB,
            "seed {seed}: the pipe idled with backlog present"
        );
        for (d, s) in staggered.iter().zip(&served) {
            assert_eq!(s.bytes, d.total_bytes());
            assert_eq!(
                s.finish,
                d.arrival + s.bytes * CPB + s.queue_cycles,
                "seed {seed}: finish decomposes into arrival + service + queue"
            );
        }
    }
}

#[test]
fn drr_service_tracks_the_weight_share_within_one_unit() {
    // cpb 1 keeps the arithmetic exact. Both clients are backlogged
    // from cycle 0; the heavy one finishes first, and at that instant
    // the light one must have received (w_light / w_heavy) of the
    // heavy client's service, within one unit plus one quantum per
    // client of slack.
    const UNIT: u64 = 500;
    const QUANTUM: u64 = 1_000;
    let light = ClientDemand {
        weight: 1,
        arrival: 0,
        units: vec![UNIT; 200],
    };
    let heavy = ClientDemand {
        weight: 3,
        arrival: 0,
        units: vec![UNIT; 60],
    };
    let served = drr_schedule(1, QUANTUM, &[light, heavy.clone()]);
    let heavy_finish = served[1].finish;
    assert!(
        heavy_finish < served[0].finish,
        "three times the weight on a fifth of the backlog finishes first"
    );
    // Work conservation: every cycle up to the heavy finish moved one
    // byte, so the light client's service so far is the remainder.
    let light_served = heavy_finish - heavy.total_bytes();
    let expected = heavy.total_bytes() / 3;
    let slack = (UNIT + QUANTUM) * 4;
    assert!(
        light_served.abs_diff(expected) <= slack,
        "service must track the 1:3 weight share: got {light_served}, expected ~{expected}"
    );

    // Equal twins stay in lockstep: the finish spread is at most one
    // unit plus one quantum.
    let twin = ClientDemand {
        weight: 1,
        arrival: 0,
        units: vec![UNIT; 40],
    };
    let served = drr_schedule(1, QUANTUM, &[twin.clone(), twin]);
    assert!(
        served[0].finish.abs_diff(served[1].finish) <= UNIT + QUANTUM,
        "equal twins must finish within one round of each other: {served:?}"
    );
}

#[test]
fn drr_never_starves_a_seeded_fleet() {
    const CPB: u64 = 134;
    for seed in 0..8u64 {
        let demands = seeded_demands(seed ^ 0x5afe, 12, 1_000_000);
        let total: u64 = demands.iter().map(ClientDemand::total_bytes).sum();
        let last = demands.iter().map(|d| d.arrival).max().unwrap();
        let served = drr_schedule(CPB, 4_096, &demands);
        for (i, (d, s)) in demands.iter().zip(&served).enumerate() {
            assert!(
                s.finish >= d.arrival + s.bytes * CPB,
                "seed {seed} client {i}: finished faster than its own bytes allow"
            );
            assert!(
                s.finish <= last + total * CPB,
                "seed {seed} client {i}: starved past the global completion bound"
            );
        }
        assert_eq!(
            served,
            drr_schedule(CPB, 4_096, &demands),
            "seed {seed}: the schedule is deterministic"
        );
    }
}

#[test]
fn a_contended_fleet_accounts_every_cycle_under_full_pressure() {
    let sessions: Vec<Session> = [
        nonstrict::workloads::hanoi::build(),
        nonstrict::workloads::bit::build(),
        nonstrict::workloads::testdes::build(),
    ]
    .into_iter()
    .map(|app| Session::new(app).unwrap())
    .collect();
    let mut faults = FaultConfig::seeded(0x000f_1ee7);
    faults.loss_pm = 10_000;
    let mut replicas = ReplicaConfig::seeded(0x000f_1ee7);
    replicas.replicas = 2;
    let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph)
        .with_faults(faults)
        .with_replicas(replicas);
    // A one-token bucket with a long period forces rejections; rock-
    // bottom rungs push every queued client down the ladder.
    let spec = FleetSpec {
        arrival_span: 1_000,
        admission: Some(AdmissionSettings {
            rate: 1,
            burst: 1,
            period_cycles: 5_000_000,
        }),
        ladder: Some(ShedLadder::new(1, 2, 3).unwrap()),
        ..FleetSpec::seeded(0xc0417e47)
    };
    let clients: Vec<FleetClient> = sessions
        .iter()
        .map(|s| FleetClient {
            name: &s.app.name,
            session: s,
            link: Link::T1,
            weight: 1,
        })
        .collect();
    let fleet = run_fleet(&spec, &clients, Input::Test, &config);
    assert_eq!(
        fleet,
        run_fleet(&spec, &clients, Input::Test, &config),
        "fleet runs are deterministic"
    );
    assert!(
        fleet.rejections() > 0,
        "a one-token bucket must reject a burst of three"
    );
    assert!(
        fleet.count(ShedAction::Shed) >= 1,
        "rock-bottom rungs must shed at least one queued client"
    );
    assert!(fleet.p50_total <= fleet.p95_total && fleet.p95_total <= fleet.p99_total);
    for c in &fleet.clients {
        // Exact eight-way accounting for every outcome on the ladder —
        // rejected-then-admitted, degraded, and shed-then-resumed alike.
        assert_eq!(
            c.result.total_cycles,
            c.result.ledger.total(),
            "{} ({}): every cycle lands in exactly one bucket",
            c.name,
            c.action.label()
        );
        if c.action == ShedAction::Shed {
            // The DRR delay is the journal park, charged once to the
            // resume bucket — queue holds only the admission wait.
            assert_eq!(c.result.ledger.queue, c.admission_wait);
            assert!(
                c.result.outage.resumes > 0 || c.result.outage.failed_closed,
                "{}: a shed client resumes from its journal",
                c.name
            );
        } else {
            assert_eq!(c.result.ledger.queue, c.admission_wait + c.drr_queue);
        }
    }
}

#[test]
fn a_fleet_of_one_cannot_move_any_committed_number() {
    // Every committed CSV row comes from a single-client run. The
    // contention layer must be invisible at fleet size one — with or
    // without admission control — so regenerating those files with the
    // fleet code present stays byte-identical.
    let mut faults = FaultConfig::seeded(0x0bad_1147);
    faults.loss_pm = 10_000;
    let mut replicas = ReplicaConfig::seeded(0x0e11_ca5e);
    replicas.replicas = 2;
    let composed = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph)
        .with_faults(faults)
        .with_verify(VerifyMode::Stream)
        .with_replicas(replicas);
    let plain = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
    for app in nonstrict::workloads::build_all() {
        let session = Session::new(app).unwrap();
        for config in [&plain, &composed] {
            let solo = session.simulate(Input::Test, config);
            for admission in [None, Some(AdmissionSettings::per_period(1))] {
                let spec = FleetSpec {
                    admission,
                    ladder: Some(ShedLadder::new(1, 2, 3).unwrap()),
                    ..FleetSpec::seeded(0x0f1e_e7ed)
                };
                let clients = [FleetClient {
                    name: &session.app.name,
                    session: &session,
                    link: config.link,
                    weight: 1,
                }];
                let fleet = run_fleet(&spec, &clients, Input::Test, config);
                let c = &fleet.clients[0];
                assert_eq!(
                    c.result, solo,
                    "{}: a lone client must reproduce the solo run bit for bit",
                    session.app.name
                );
                assert_eq!(c.result.ledger.queue, 0);
                assert_eq!(c.rejections, 0);
                assert_eq!(c.action, ShedAction::None);
            }
        }
    }
}
