//! End-to-end properties of the fault-injection layer and the resilient
//! transfer protocol:
//!
//! 1. **Zero-rate equivalence** — a `FaultPlan` whose rates are all
//!    zero is byte-identical to no fault config at all, for every
//!    transfer policy: the protocol must cost nothing when the link is
//!    perfect.
//! 2. **Termination** — under aggressive seeded faults, every
//!    workload × link × policy run completes (the retry cap bounds all
//!    recovery), and the accounting splits cleanly into
//!    `total = exec + stall + recovery`.
//! 3. **Determinism** — the same seed reproduces the same `SimResult`
//!    bit for bit; different seeds are allowed (and with rates this
//!    aggressive, expected somewhere) to differ.
//! 4. **Graceful degradation** — a hostile link with a hair-trigger
//!    threshold demotes classes to strict demand-fetch, and the run
//!    still completes.

use nonstrict::prelude::*;
use nonstrict_netsim::{Link, OutageSchedule};
use nonstrict_workloads::rng::StdRng;

mod common;
use common::chaos_seeds;

fn policies() -> [TransferPolicy; 4] {
    [
        TransferPolicy::Strict,
        TransferPolicy::Parallel { limit: 1 },
        TransferPolicy::Parallel { limit: 4 },
        TransferPolicy::Interleaved,
    ]
}

fn lossy(seed: u64) -> FaultPlan {
    let mut fc = FaultPlan::seeded(seed);
    fc.loss_pm = 100_000; // 10% per attempt
    fc.corrupt_pm = 50_000;
    fc.drop_pm = 20_000;
    fc.droop_pm = 50_000;
    fc
}

#[test]
fn zero_rate_faults_are_byte_identical_to_a_perfect_link() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    for link in [Link::T1, Link::MODEM_28_8] {
        for transfer in policies() {
            let mut perfect = SimConfig::non_strict(link, OrderingSource::StaticCallGraph);
            perfect.transfer = transfer;
            let armed = perfect.with_faults(FaultPlan::seeded(0xdead_beef));
            assert_eq!(
                session.simulate(Input::Test, &perfect),
                session.simulate(Input::Test, &armed),
                "an all-zero fault config must not perturb {transfer:?} on {}",
                link.name
            );
        }
        // The strict baseline path too.
        let base = SimConfig::strict(link);
        assert_eq!(
            session.simulate(Input::Test, &base),
            session.simulate(Input::Test, &base.with_faults(FaultPlan::seeded(7))),
        );
    }
}

#[test]
fn every_faulted_run_terminates_fully_executed() {
    for app in nonstrict::workloads::build_all() {
        let name = app.name.clone();
        let session = Session::new(app).unwrap();
        for link in [Link::T1, Link::MODEM_28_8] {
            for transfer in policies() {
                let mut config = SimConfig::non_strict(link, OrderingSource::StaticCallGraph)
                    .with_faults(lossy(0x5eed));
                config.transfer = transfer;
                let r = session.simulate(Input::Test, &config);
                assert!(r.completed, "{name} {transfer:?} {}", link.name);
                assert!(r.total_cycles >= r.ledger.exec);
                assert_eq!(
                    r.total_cycles,
                    r.ledger.total(),
                    "the bucket split must be exact: {name} {transfer:?} {}",
                    link.name
                );
                assert!(
                    r.faults.retries >= r.faults.drops + r.faults.corrupted,
                    "every drop or corruption is a retry"
                );
            }
        }
    }
}

#[test]
fn same_seed_replays_bit_for_bit() {
    let session = Session::new(nonstrict::workloads::testdes::build()).unwrap();
    let config = |seed| {
        SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::TrainProfile)
            .with_faults(lossy(seed))
    };
    let a = session.simulate(Input::Test, &config(42));
    let b = session.simulate(Input::Test, &config(42));
    assert_eq!(a, b, "same seed must reproduce the run exactly");
    assert!(
        a.faults.retries > 0,
        "10% loss on a real workload must retry at least once"
    );
    // Some seed in a small family must perturb the timeline differently —
    // a seed-blind fault layer would pass determinism trivially.
    let differs = (0..8u64).any(|s| session.simulate(Input::Test, &config(s)) != a);
    assert!(differs, "fault draws must depend on the seed");
}

#[test]
fn droop_remap_is_strictly_monotone_across_random_plans() {
    let mut rng = StdRng::seed_from_u64(0xd00b_0b5e);
    for case in 0..64 {
        let mut plan = FaultPlan::seeded(rng.next_u64());
        plan.droop_pm = rng.gen_range(0..=1_000_000u32);
        // Probe around window edges at many scales plus random points:
        // the remap is piecewise linear, so the corners are where a
        // monotonicity bug would hide.
        let mut points: Vec<u64> = (0..24).map(|s| 1u64 << s).collect();
        points.extend((0..64).map(|_| rng.gen_range(0..1u64 << 34)));
        points.sort_unstable();
        for &t in &points {
            let here = plan.remap(t);
            assert!(
                here >= t,
                "case {case}: droop can only stretch time: remap({t}) = {here}"
            );
            assert!(
                plan.remap(t + 1) > here,
                "case {case}: remap must be strictly increasing at {t} (droop {} ppm)",
                plan.droop_pm
            );
        }
    }
}

#[test]
fn droop_free_plans_remap_to_the_identity() {
    let mut rng = StdRng::seed_from_u64(0x1dea_717e);
    for _ in 0..64 {
        let mut plan = FaultPlan::seeded(rng.next_u64());
        // Any mix of non-droop faults: they retime deliveries, never the
        // ambient clock.
        plan.loss_pm = rng.gen_range(0..=1_000_000u32);
        plan.corrupt_pm = rng.gen_range(0..=1_000_000u32);
        plan.drop_pm = rng.gen_range(0..=1_000_000u32);
        plan.semantic_pm = rng.gen_range(0..=1_000_000u32);
        for _ in 0..64 {
            let t = rng.gen_range(0..u64::MAX / 2);
            assert_eq!(plan.remap(t), t, "droop-free remap must be the identity");
        }
    }
}

#[test]
fn outage_remap_composed_with_droop_remap_stays_monotone() {
    // The session's wall clock is the outage schedule's base-to-wall
    // shift applied on top of the fault plan's droop stretch. Replica
    // routing leans on this composition to order unit arrivals across
    // mirrors, so it must stay monotone — and exactly the identity at
    // zero — for every seeded (plan, schedule) pair.
    for seed in 0..chaos_seeds() {
        let mut rng = StdRng::seed_from_u64(0xc0de_0000 ^ seed);
        let mut plan = FaultPlan::seeded(rng.next_u64());
        plan.droop_pm = rng.gen_range(0..=1_000_000u32);
        let outages = OutagePlan {
            seed: rng.next_u64(),
            rate_pm: rng.gen_range(0..=800_000u32),
            min_cycles: 100_000,
            max_cycles: 4_000_000,
            negotiation_cycles: 250_000,
        };
        let mut sched = OutageSchedule::new(outages);
        let compose = |sched: &mut OutageSchedule, t: u64| sched.remap(plan.remap(t));
        assert_eq!(
            compose(&mut sched, 0),
            0,
            "seed {seed}: the composed remap must be the identity at zero"
        );
        // Probe window corners at many scales plus random points, in
        // ascending order (the schedule materializes lazily forward).
        let mut points: Vec<u64> = (0..24).map(|s| 1u64 << s).collect();
        points.extend((0..64).map(|_| rng.gen_range(0..1u64 << 34)));
        points.sort_unstable();
        let mut prev_t = 0u64;
        let mut prev_wall = 0u64;
        for &t in &points {
            let wall = compose(&mut sched, t);
            assert!(
                wall >= t,
                "seed {seed}: droop and downtime only stretch time: {t} -> {wall}"
            );
            assert!(
                wall >= prev_wall,
                "seed {seed}: composed remap must be monotone: \
                 {prev_t} -> {prev_wall} but {t} -> {wall}"
            );
            assert!(
                compose(&mut sched, t + 1) > wall,
                "seed {seed}: strictly increasing at {t} (droop {} ppm)",
                plan.droop_pm
            );
            prev_t = t;
            prev_wall = wall;
        }
    }
}

#[test]
fn retry_cap_forced_successes_are_counted_not_hidden() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    // A link where every attempt fails: only the retry cap's final
    // forced-through attempt ever delivers, and each such synthetic
    // success must be reported.
    let mut fc = FaultPlan::seeded(11);
    fc.loss_pm = 1_000_000;
    let config =
        SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph).with_faults(fc);
    let r = session.simulate(Input::Test, &config);
    assert!(r.completed, "the cap must still bound recovery");
    assert!(
        r.faults.forced > 0,
        "every delivery was forced; hiding them would overstate link health: {:?}",
        r.faults
    );
    // A mildly lossy link retries but never exhausts the cap.
    let mild = session.simulate(
        Input::Test,
        &SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
            .with_faults(lossy(11)),
    );
    assert!(mild.faults.retries > 0);
    assert_eq!(
        mild.faults.forced, 0,
        "10% loss must never exhaust the retry cap: {:?}",
        mild.faults
    );
}

#[test]
fn hostile_links_degrade_gracefully_to_strict_execution() {
    let session = Session::new(nonstrict::workloads::jess::build()).unwrap();
    let mut fc = lossy(3);
    fc.loss_pm = 400_000; // 40% per attempt: nearly every unit retries
    fc.corrupt_pm = 200_000;
    fc.degrade_threshold = 1; // demote a class on its first fault event
    let config =
        SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph).with_faults(fc);
    let r = session.simulate(Input::Test, &config);
    assert!(r.completed, "degradation must never lose the run");
    assert!(
        r.degraded_classes > 0,
        "a hair-trigger threshold under heavy faults must demote classes: {:?}",
        r.faults
    );
    // Degradation is bounded by the class count.
    let nclasses = session.app.classes.len() as u32;
    assert!(r.degraded_classes <= nclasses);
    assert_eq!(r.total_cycles, r.ledger.total());
}
