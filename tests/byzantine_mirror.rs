//! End-to-end properties of Byzantine-tolerant transfer — the
//! integrity tentpole's detection contract:
//!
//! 1. **Equivocation is caught at the unit boundary** — with the honest
//!    primary dead and the surviving mirrors equivocating, divergent
//!    units are detected inline by the pinned manifest digest (nothing
//!    links undetected), the diverging mirror is quarantined, and the
//!    client still executes exactly what an all-honest fleet delivers.
//! 2. **An honest fleet is byte-identical at every audit rate** — a
//!    `ByzantinePlan` with zero dishonest mirrors normalizes away:
//!    the whole `SimResult` equals the no-byzantine run bit for bit, at
//!    any audit-rate setting.
//! 3. **A stale-epoch mirror never contributes a post-fence unit** —
//!    every post-fence unit it tries to serve is refetched from the
//!    rest of the set, and execution is identical to the honest run.
//! 4. **Chaos composition** — byzantine mirrors compose with link
//!    faults and connection outages: the run still completes, every
//!    cycle lands in exactly one of the eight ledger buckets, and the
//!    whole composition is deterministic under its seeds.

use nonstrict::prelude::*;
use nonstrict_netsim::Link;

/// Three mirrors with the honest primary killed at cycle 1, so the
/// transfer is served by the set's dishonest tail (the highest-indexed
/// mirrors misbehave; mirror 0 is always honest).
fn primary_dead_mirrors() -> ReplicaConfig {
    let mut rc = ReplicaConfig::seeded(0xb12a_47f1);
    rc.replicas = 3;
    rc.kill = Some(ReplicaKill {
        replica: 0,
        at_cycle: 1,
    });
    rc
}

fn byz(mirrors: u32, mode: ByzantineMode, audit_rate_pm: u32) -> ByzantinePlan {
    let mut bc = ByzantinePlan::seeded(0xb12a_47f1);
    bc.mirrors = mirrors;
    bc.mode = mode;
    bc.audit_rate_pm = audit_rate_pm;
    bc
}

#[test]
fn equivocating_survivors_are_detected_inline_and_quarantined() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    let plain = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
        .with_replicas(primary_dead_mirrors());
    let honest = session.simulate(Input::Test, &plain);
    let r = session.simulate(
        Input::Test,
        &plain.with_byzantine(byz(2, ByzantineMode::Equivocate, 0)),
    );
    assert!(r.completed, "the run must survive equivocation");
    assert!(
        r.integrity.divergent_units >= 1,
        "with both survivors dishonest, some unit must diverge: {:?}",
        r.integrity
    );
    assert_eq!(
        r.integrity.undetected_units, 0,
        "equivocation is digest-visible: every divergent unit is caught at its boundary"
    );
    assert!(
        r.integrity.quarantines >= 1,
        "a proven equivocator must be quarantined: {:?}",
        r.integrity
    );
    assert!(
        r.integrity.refetched_bytes > 0,
        "caught units are refetched"
    );
    // The quarantined mirror is marked in the health table, with its
    // equivocation count, and only dishonest mirrors carry either.
    let quarantined: Vec<usize> = (0..3)
        .filter(|&i| r.replica.health[i].quarantined)
        .collect();
    assert!(!quarantined.is_empty());
    for &i in &quarantined {
        assert!(i >= 1, "mirror 0 is honest (and dead), never quarantined");
        assert!(r.replica.health[i].equivocations >= 1);
    }
    assert_eq!(r.replica.health[0].equivocations, 0);
    // Detection is invisible to the program: the client executes
    // exactly what the honest fleet delivers, paying only time.
    assert_eq!(r.ledger.exec, honest.ledger.exec);
    assert_eq!(r.link_stats, honest.link_stats);
    assert!(r.ledger.integrity > 0);
}

#[test]
fn an_honest_fleet_is_byte_identical_at_every_audit_rate() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    for link in [Link::T1, Link::MODEM_28_8] {
        let plain = SimConfig::non_strict(link, OrderingSource::StaticCallGraph)
            .with_replicas(primary_dead_mirrors());
        let base = session.simulate(Input::Test, &plain);
        for audit_rate_pm in [0, 1, 50_000, 1_000_000] {
            let r = session.simulate(
                Input::Test,
                &plain.with_byzantine(byz(0, ByzantineMode::Equivocate, audit_rate_pm)),
            );
            assert_eq!(
                r, base,
                "zero dishonest mirrors must be byte-identical to no byzantine \
                 config at all (audit rate {audit_rate_pm})"
            );
            assert_eq!(r.integrity, IntegrityStats::default());
        }
    }
}

#[test]
fn a_stale_epoch_mirror_never_contributes_a_post_fence_unit() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    let plain = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
        .with_replicas(primary_dead_mirrors());
    let honest = session.simulate(Input::Test, &plain);
    let r = session.simulate(
        Input::Test,
        &plain.with_byzantine(byz(2, ByzantineMode::StaleEpoch, 0)),
    );
    assert!(r.completed);
    assert!(
        r.integrity.fence_refetches >= 1,
        "with the whole surviving set stale, the epoch fence must trigger \
         targeted refetches: {:?}",
        r.integrity
    );
    assert_eq!(
        r.integrity.undetected_units, 0,
        "a stale unit is digest-visible under the pinned epoch: none may link"
    );
    // The fence is exact: every refetched unit was divergent, and the
    // client ends up executing the pinned epoch's program exactly.
    assert!(r.integrity.divergent_units >= r.integrity.fence_refetches);
    assert_eq!(r.ledger.exec, honest.ledger.exec);
    assert_eq!(r.link_stats, honest.link_stats);
}

#[test]
fn collusion_is_invisible_to_digests_and_caught_by_audits() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    let plain = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
        .with_replicas(primary_dead_mirrors());
    // Without audits, a digest-forging colluder links divergent bytes
    // undetected — the threat the audit sampler exists for.
    let blind = session.simulate(
        Input::Test,
        &plain.with_byzantine(byz(1, ByzantineMode::Collude, 0)),
    );
    assert_eq!(blind.integrity.audits, 0);
    // With aggressive sampling, the cross-mirror audit compares the
    // colluder against the honest survivor and catches the divergence.
    let audited = session.simulate(
        Input::Test,
        &plain.with_byzantine(byz(1, ByzantineMode::Collude, 1_000_000)),
    );
    assert!(audited.integrity.audits > 0);
    if audited.integrity.divergent_units > 0 {
        assert!(
            audited.integrity.audit_mismatches > 0,
            "an every-unit audit against an honest mirror must observe the \
             divergence: {:?}",
            audited.integrity
        );
        assert!(
            audited.integrity.undetected_units < audited.integrity.divergent_units,
            "audits must catch what the forged digests let through"
        );
    }
}

#[test]
fn byzantine_mirrors_compose_with_faults_and_outages() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    let mut faults = FaultPlan::seeded(0xc4a0_5001);
    faults.loss_pm = 10_000;
    faults.corrupt_pm = 5_000;
    let mut outages = OutagePlan::seeded(0xc4a0_5002);
    outages.rate_pm = 60;
    let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
        .with_replicas(primary_dead_mirrors())
        .with_faults(faults)
        .with_outages(outages)
        .with_byzantine(byz(2, ByzantineMode::Equivocate, 100_000));
    let r = session.simulate(Input::Test, &config);
    assert!(r.completed, "the composition must still terminate");
    // Every cycle lands in exactly one of the eight buckets.
    let l = r.ledger;
    assert_eq!(
        l.exec + l.stall + l.recovery + l.verify + l.resume + l.hedge + l.queue + l.integrity,
        r.total_cycles,
        "the eight-bucket ledger must stay exact under full chaos"
    );
    assert!(r.integrity.digest_checks > 0);
    // And the whole composition is reproducible, bit for bit.
    assert_eq!(r, session.simulate(Input::Test, &config));
}
