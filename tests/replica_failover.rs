//! End-to-end properties of replica-set transfer — the robustness
//! tentpole's failover contract:
//!
//! 1. **Failover equivalence at every unit boundary** — killing the
//!    serving mirror at any delivered-unit watermark never changes what
//!    the client ends up with: the run completes, execution and every
//!    verification verdict are identical to the uninterrupted run, and
//!    the bytes delivered across the surviving mirrors sum to exactly
//!    the uninterrupted total. Only the routing (and therefore timing)
//!    may move. The boundaries are found by binary search on the
//!    checkpoint journal's delivered watermark, mirroring the outage
//!    suite, so every unit arrival of the workload is exercised.
//! 2. **A mirror dead from the start serves nothing** — its health row
//!    reports zero units and the dead flag.
//! 3. **Sole survivor fails closed** — on a two-mirror set, killing
//!    either mirror leaves no failover headroom: the session degrades
//!    to strict execution and says so.

use nonstrict::prelude::*;
use nonstrict_core::journal::SessionJournal;
use nonstrict_netsim::Link;

/// The fixed replica set under test: three perfect mirrors with the
/// default bandwidth spread, so routing always has a live runner-up.
fn three_mirrors() -> ReplicaConfig {
    let mut rc = ReplicaConfig::seeded(0xfa11_07e5);
    rc.replicas = 3;
    rc
}

/// Bytes delivered across the whole mirror set. Routing decides who
/// serves each unit; the sum is what the client actually received.
fn delivered_bytes(r: &SimResult) -> u64 {
    r.replica.health.iter().map(|h| h.bytes_served).sum()
}

#[test]
fn killing_the_serving_mirror_at_every_unit_boundary_preserves_the_run() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    let plain = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
    let config = plain.with_replicas(three_mirrors());
    let single = session.simulate(Input::Test, &plain);
    let base = session.simulate(Input::Test, &config);
    assert_eq!(
        base.link_stats, single.link_stats,
        "mirror routing must not change what gets verified"
    );
    let total = base.total_cycles;

    let probe = |at: u64| -> Option<SessionJournal> {
        match session.run_until(Input::Test, &config, at) {
            RunOutcome::Interrupted(journal) => Some(journal),
            RunOutcome::Finished(_) => None,
        }
    };
    let delivered =
        |j: &SessionJournal| -> u64 { j.classes.iter().map(|c| u64::from(c.delivered)).sum() };

    let mut boundaries_tested = 0u32;
    let mut k = 0u64; // delivered-unit watermark to hunt for
    loop {
        // Minimal interrupt cycle whose checkpoint has >= k units
        // delivered (a run that Finished counts as "all delivered").
        let reaches = |at: u64| probe(at).is_none_or(|j| delivered(&j) >= k);
        let (mut lo, mut hi) = (0u64, total + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if reaches(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let Some(journal) = probe(lo) else {
            break; // watermark k is only reached by running to the end
        };
        k = delivered(&journal) + 1;
        boundaries_tested += 1;
        for victim in 0..3u32 {
            let mut rc = three_mirrors();
            rc.kill = Some(ReplicaKill {
                replica: victim,
                at_cycle: lo,
            });
            let r = session.simulate(Input::Test, &plain.with_replicas(rc));
            let ctx = format!("mirror {victim} killed at boundary cycle {lo}");
            assert!(r.completed, "{ctx}: the run must still finish");
            assert_eq!(r.ledger.exec, base.ledger.exec, "{ctx}: exec moved");
            assert_eq!(
                r.link_stats, base.link_stats,
                "{ctx}: a failover must not change verification verdicts"
            );
            assert_eq!(
                delivered_bytes(&r),
                delivered_bytes(&base),
                "{ctx}: the surviving mirrors must deliver exactly the same bytes"
            );
            assert!(
                !r.replica.sole_survivor,
                "{ctx}: two of three mirrors survive"
            );
        }
    }
    assert!(
        boundaries_tested >= 10,
        "the walk must visit every unit boundary of the workload, saw {boundaries_tested}"
    );
}

#[test]
fn a_mirror_dead_from_cycle_zero_serves_nothing() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    let plain = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
    let mut rc = three_mirrors();
    rc.kill = Some(ReplicaKill {
        replica: 0,
        at_cycle: 0,
    });
    let r = session.simulate(Input::Test, &plain.with_replicas(rc));
    assert!(r.completed);
    let h = &r.replica.health[0];
    assert!(!h.alive, "a kill at cycle 0 is dead for the whole run");
    assert_eq!(h.units_served, 0, "a dead mirror serves nothing: {h:?}");
    assert_eq!(h.bytes_served, 0);
    let base = session.simulate(Input::Test, &plain.with_replicas(three_mirrors()));
    assert_eq!(delivered_bytes(&r), delivered_bytes(&base));
    assert_eq!(r.link_stats, base.link_stats);
}

#[test]
fn sole_surviving_mirror_degrades_the_session_to_strict() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    let plain = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
    for victim in 0..2u32 {
        let mut rc = three_mirrors();
        rc.replicas = 2;
        rc.kill = Some(ReplicaKill {
            replica: victim,
            at_cycle: 0,
        });
        let r = session.simulate(Input::Test, &plain.with_replicas(rc));
        assert!(r.completed, "fail-closed still finishes the program");
        assert!(
            r.replica.sole_survivor,
            "killing mirror {victim} of 2 leaves one: {:?}",
            r.replica
        );
        assert!(
            r.session_degraded,
            "no failover headroom: the session must fail closed to strict"
        );
        assert!(!r.replica.health[victim as usize].alive);
    }
}

#[test]
fn a_losing_hedged_fetch_never_advances_journal_watermarks() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    // The replica sweep's 5%-loss cell: recovery stalls cross the short
    // hedge deadline, duplicate fetches race the runner-up mirror, and
    // some of them win — so both winners and losers exist to account.
    let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
        .with_faults(nonstrict_core::experiment::faults::sweep_config(50_000))
        .with_replicas(nonstrict_core::experiment::replica::sweep_replicas(3));
    let base = session.simulate(Input::Test, &config);
    assert!(base.completed);
    assert!(
        base.replica.hedge_wins >= 1,
        "the scenario must race hedges and have the runner-up win some: {:?}",
        base.replica
    );
    assert!(
        base.replica.hedge_wins < base.replica.hedges,
        "and lose some — a loser's duplicate bytes are the hazard under test"
    );

    let delivered =
        |j: &SessionJournal| -> u64 { j.classes.iter().map(|c| u64::from(c.delivered)).sum() };
    const DOWNTIME: u64 = 40_000_000;
    // Checkpoint across the whole run. At every interrupt cycle the
    // journal's delivered watermarks may count only bytes that are
    // durable — the hedge winner's. If a losing duplicate ever
    // advanced a watermark, the resumed session would skip refetching
    // a unit whose real bytes never arrived, and the resumed run
    // could not reproduce the uninterrupted one.
    let mut last_watermark = 0u64;
    let step = base.total_cycles / 64;
    let mut interrupted = 0u32;
    for i in 1..64 {
        let at = i * step;
        let RunOutcome::Interrupted(j) = session.run_until(Input::Test, &config, at) else {
            continue;
        };
        let d = delivered(&j);
        assert!(
            d >= last_watermark,
            "watermarks only advance with durable bytes: {d} < {last_watermark} at cycle {at}"
        );
        last_watermark = d;
        let r = session.resume(Input::Test, &config, &j.in_memory(), DOWNTIME);
        let ctx = format!("resume from cycle {at} ({d} units delivered)");
        assert!(r.completed, "{ctx}");
        assert_eq!(r.ledger.exec, base.ledger.exec, "{ctx}: exec moved");
        assert_eq!(
            r.link_stats, base.link_stats,
            "{ctx}: a watermark counted bytes that were never durable"
        );
        interrupted += 1;
    }
    assert!(
        interrupted >= 32,
        "the sweep must actually interrupt mid-run, saw {interrupted}"
    );
    assert!(last_watermark > 0, "the walk must cross unit deliveries");
}
