//! End-to-end properties of the outage/checkpoint/resume subsystem —
//! the robustness tentpole's contract:
//!
//! 1. **Resume equivalence at every unit boundary** — a session killed
//!    at any delivered-unit watermark and resumed from its journal
//!    reproduces the uninterrupted run's every accounting bucket
//!    byte-for-byte, with the wall clock exactly `base + downtime`. The
//!    boundaries are found by binary search on the journal's delivered
//!    watermark, so every unit arrival of the workload is exercised
//!    (the all-prefix pattern of the adversarial loader suite, lifted
//!    to the session level).
//! 2. **Torn journals fail closed** — any corrupted checkpoint log is
//!    detected (CRC/shape) and the session restarts under strict
//!    execution; the run still completes, nothing resumes from
//!    untrusted state.
//! 3. **Targeted invalidation** — a manifest-epoch bump on one class
//!    refetches only that class; the base timeline is untouched.
//! 4. **Zero-rate equivalence** — an armed-but-calm outage config is
//!    byte-identical to no outage config, for every transfer policy.
//! 5. **Seeded ambient chaos** — random outage schedules insert pure
//!    downtime: execution, stall, and verify buckets never move. The
//!    seed count elevates via `NONSTRICT_CHAOS_SEEDS` (CI's `soak`
//!    job).

use std::sync::Arc;

use nonstrict::prelude::*;
use nonstrict_core::journal::{SessionJournal, CHECKPOINT_LOG};
use nonstrict_netsim::Link;
use nonstrict_store::{FaultFs, FaultKnobs, JournalLog};

mod common;
use common::chaos_seeds;

/// The downtime charged on every interrupt in this suite.
const DOWNTIME: u64 = 3_000_000;

/// Asserts a resumed run is the uninterrupted run plus pure downtime:
/// every base-timeline bucket identical, the wall clock shifted by
/// exactly the outage.
fn assert_pure_resume(base: &SimResult, r: &SimResult, downtime: u64, ctx: &str) {
    assert_eq!(r.ledger.exec, base.ledger.exec, "{ctx}: exec moved");
    assert_eq!(r.ledger.stall, base.ledger.stall, "{ctx}: stall moved");
    assert_eq!(r.ledger.verify, base.ledger.verify, "{ctx}: verify moved");
    assert_eq!(r.faults, base.faults, "{ctx}: fault stats moved");
    assert_eq!(
        (r.degraded_classes, r.session_degraded),
        (base.degraded_classes, base.session_degraded),
        "{ctx}: degradation moved"
    );
    assert_eq!(r.link_stats, base.link_stats, "{ctx}: linker moved");
    assert_eq!(r.stalls, base.stalls, "{ctx}: stall count moved");
    assert_eq!(
        r.invocation_latency, base.invocation_latency,
        "{ctx}: latency moved"
    );
    assert_eq!(r.ledger.resume, downtime, "{ctx}: resume bucket");
    assert_eq!(
        r.total_cycles,
        base.total_cycles + downtime,
        "{ctx}: wall clock must be base + downtime"
    );
    assert_eq!(r.outage.outages, 1, "{ctx}");
    assert_eq!(r.outage.resumes, 1, "{ctx}");
    assert!(!r.outage.failed_closed, "{ctx}");
}

#[test]
fn resume_at_every_unit_boundary_reproduces_the_uninterrupted_run() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
    let base = session.simulate(Input::Test, &config);
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
        let r = session.resume(Input::Test, &config, &journal.in_memory(), DOWNTIME);
        assert_pure_resume(
            &base,
            &r,
            DOWNTIME,
            &format!("boundary at cycle {lo} ({} units delivered)", k - 1),
        );
    }
    assert!(
        boundaries_tested >= 10,
        "the walk must visit every unit boundary of the workload, saw {boundaries_tested}"
    );
}

#[test]
fn torn_journal_bytes_always_fail_closed_and_complete() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
    let base = session.simulate(Input::Test, &config);
    let RunOutcome::Interrupted(journal) =
        session.run_until(Input::Test, &config, base.total_cycles / 2)
    else {
        panic!("mid-run interrupt must checkpoint");
    };
    let strict = session.simulate(Input::Test, &SimConfig::strict(config.link));
    let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(1)));
    let log = JournalLog::new(fs.clone(), CHECKPOINT_LOG);
    log.append_record(&journal.encode()).unwrap();
    let bytes = fs.durable(CHECKPOINT_LOG).unwrap();
    // A torn write can hit any byte; sample across the whole log file
    // including both ends, plus truncation.
    let mut corruptions: Vec<Vec<u8>> = (0..bytes.len())
        .step_by(1.max(bytes.len() / 32))
        .chain([bytes.len() - 1])
        .map(|i| {
            let mut b = bytes.clone();
            b[i] ^= 0x10;
            b
        })
        .collect();
    corruptions.push(bytes[..bytes.len() / 2].to_vec());
    corruptions.push(Vec::new());
    for (i, torn) in corruptions.into_iter().enumerate() {
        fs.set_durable(CHECKPOINT_LOG, torn);
        let r = session.resume(Input::Test, &config, &log, DOWNTIME);
        assert!(
            r.outage.failed_closed,
            "corruption {i} must be detected and fail closed"
        );
        assert_eq!(r.outage.resumes, 0, "nothing may resume from torn state");
        assert!(r.completed, "fail-closed still finishes the program");
        assert_eq!(
            r.total_cycles,
            strict.total_cycles + DOWNTIME,
            "fail-closed restarts under strict execution plus the downtime"
        );
    }
}

#[test]
fn epoch_bump_refetches_only_the_stale_class() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph);
    let base = session.simulate(Input::Test, &config);
    let RunOutcome::Interrupted(mut journal) =
        session.run_until(Input::Test, &config, base.total_cycles / 2)
    else {
        panic!("mid-run interrupt must checkpoint");
    };
    let clean = session.resume(Input::Test, &config, &journal.in_memory(), DOWNTIME);
    journal.classes[0].epoch ^= 0x5a5a_5a5a; // the server republished class 0
    let bumped = session.resume(Input::Test, &config, &journal.in_memory(), DOWNTIME);
    assert!(
        !bumped.outage.failed_closed,
        "a stale class is not a torn journal"
    );
    assert_eq!(bumped.outage.refetched_classes, 1, "only class 0 is stale");
    assert_eq!(clean.outage.refetched_classes, 0);
    assert!(
        bumped.ledger.resume >= clean.ledger.resume,
        "refetching cannot be free"
    );
    // The refetch is charged entirely to the resume bucket: the base
    // timeline of both resumed runs is the uninterrupted run's.
    for r in [&clean, &bumped] {
        assert_eq!(r.ledger.exec, base.ledger.exec);
        assert_eq!(r.ledger.stall, base.ledger.stall);
        assert_eq!(r.total_cycles - r.ledger.resume, base.total_cycles);
    }
}

#[test]
fn zero_rate_outages_are_byte_identical_to_no_config() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    for link in [Link::T1, Link::MODEM_28_8] {
        for transfer in [
            TransferPolicy::Strict,
            TransferPolicy::Parallel { limit: 4 },
            TransferPolicy::Interleaved,
        ] {
            let mut quiet = SimConfig::non_strict(link, OrderingSource::StaticCallGraph);
            quiet.transfer = transfer;
            let armed = quiet.with_outages(OutagePlan::seeded(0xcafe));
            assert_eq!(
                session.simulate(Input::Test, &quiet),
                session.simulate(Input::Test, &armed),
                "an armed-but-calm outage config must not perturb {transfer:?} on {}",
                link.name
            );
        }
        let base = SimConfig::strict(link);
        assert_eq!(
            session.simulate(Input::Test, &base),
            session.simulate(Input::Test, &base.with_outages(OutagePlan::seeded(5))),
        );
    }
}

#[test]
fn seeded_outage_chaos_inserts_pure_downtime() {
    let session = Session::new(nonstrict::workloads::hanoi::build()).unwrap();
    for seed in 0..chaos_seeds() {
        let mut oc = OutagePlan::seeded(seed);
        oc.rate_pm = 500_000;
        oc.min_cycles = 1 << 20;
        oc.max_cycles = 1 << 24;
        let mut saw_outage = false;
        for quiet_cfg in [
            SimConfig::strict(Link::MODEM_28_8),
            SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph),
        ] {
            let quiet = session.simulate(Input::Test, &quiet_cfg);
            let stormy_cfg = quiet_cfg.with_outages(oc);
            let r = session.simulate(Input::Test, &stormy_cfg);
            assert_eq!(
                r,
                session.simulate(Input::Test, &stormy_cfg),
                "seed {seed}: same schedule must replay bit for bit"
            );
            assert_eq!(r.ledger.exec, quiet.ledger.exec, "seed {seed}");
            assert_eq!(r.ledger.stall, quiet.ledger.stall, "seed {seed}");
            assert_eq!(r.ledger.verify, quiet.ledger.verify, "seed {seed}");
            assert_eq!(
                r.total_cycles,
                quiet.total_cycles + r.ledger.resume,
                "seed {seed}: an outage is pure inserted downtime"
            );
            assert_eq!(r.outage.resumes, r.outage.outages, "seed {seed}");
            assert!(
                r.invocation_latency >= quiet.invocation_latency,
                "seed {seed}: downtime can only delay first output"
            );
            saw_outage |= r.outage.outages > 0;
        }
        assert!(
            saw_outage,
            "seed {seed}: a 50% per-period rate must trigger at least one outage"
        );
    }
}
