//! End-to-end properties of the chaos conductor — the composed
//! cross-layer robustness contract:
//!
//! 1. **Crash-anywhere ≡ uninterrupted, composed** — a scenario
//!    composing link faults, verified-prefix streaming, ambient
//!    outages, a replica set with a mid-run kill, and a Byzantine
//!    mirror, interrupted and resumed at **every** unit boundary,
//!    reproduces the uninterrupted run's base timeline at each one
//!    (PR 3's single-dimension guarantee extended to arbitrary
//!    compositions).
//! 2. **Global invariants on seeded compositions** — every subset of
//!    dimensions, under seeded rates, passes the invariant checker:
//!    eight-bucket ledger exactness, watermark/clock monotonicity,
//!    fail-closed on torn journals, quiet byte-identity.
//! 3. **Determinism** — equal scenarios produce equal reports, and a
//!    repro artifact replays to identical text, bit for bit.
//! 4. **Shrinking** — a seeded known-bad scenario (a real failure
//!    predicate run against the real simulator) shrinks to a minimal
//!    repro whose artifact still fails the same way when replayed.
//! 5. **Overload composition** — fleet scenarios keep per-client
//!    ledger exactness and complete under admission + shed pressure.

use nonstrict::prelude::*;
use nonstrict_core::chaos::{self, ChaosScenario, OverloadDims};
use nonstrict_netsim::Link;

mod common;
use common::chaos_seeds;

/// The downtime charged on every differential interrupt.
const DOWNTIME: u64 = 3_000_000;

fn session() -> Session {
    Session::new(nonstrict::workloads::hanoi::build()).unwrap()
}

/// The full composed storm: every single-client dimension active.
fn storm(seed: u64) -> ChaosScenario {
    let mut fc = FaultPlan::seeded(seed);
    fc.loss_pm = 15_000;
    fc.corrupt_pm = 8_000;
    fc.semantic_pm = 3_000;
    let mut oc = OutagePlan::seeded(seed ^ 0x0abe);
    oc.rate_pm = 150_000;
    oc.min_cycles = 1 << 20;
    oc.max_cycles = 1 << 23;
    let mut rc = ReplicaConfig::seeded(seed ^ 0x5eed);
    rc.replicas = 3;
    rc.kill = Some(ReplicaKill {
        replica: 1,
        at_cycle: 30_000_000,
    });
    let mut bc = ByzantinePlan::seeded(seed ^ 0xb12a);
    bc.mirrors = 1;
    let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
        .with_verify(VerifyMode::Stream)
        .with_faults(fc)
        .with_outages(oc)
        .with_replicas(rc)
        .with_byzantine(bc);
    ChaosScenario::new("Hanoi", config)
}

#[test]
fn crash_anywhere_equals_uninterrupted_for_the_composed_storm() {
    let session = session();
    let sc = storm(7);
    let report = chaos::crash_anywhere(&session, &sc, DOWNTIME);
    assert!(
        report.boundaries >= 10,
        "the walk must visit every unit boundary, saw {}",
        report.boundaries
    );
    assert!(
        report.passed(),
        "composed crash/resume diverged:\n{}",
        report
            .divergences
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_dimension_subsets_pass_every_global_invariant() {
    let session = session();
    for seed in 0..chaos_seeds() {
        let full = storm(seed);
        let storm = full.config;
        let hanoi = |config| ChaosScenario::new("Hanoi", config);
        // Dimension subsets: quiet, each alone, pairs, and the storm.
        let subsets: Vec<ChaosScenario> = vec![
            hanoi(SimConfig::non_strict(
                Link::MODEM_28_8,
                OrderingSource::StaticCallGraph,
            )),
            hanoi(SimConfig {
                outages: None,
                replicas: None,
                byzantine: None,
                verify: VerifyMode::Off,
                ..storm
            }),
            hanoi(SimConfig {
                faults: None,
                replicas: None,
                byzantine: None,
                ..storm
            }),
            hanoi(SimConfig {
                faults: None,
                outages: None,
                byzantine: None,
                verify: VerifyMode::Off,
                ..storm
            }),
            hanoi(SimConfig {
                outages: None,
                ..storm
            }),
            full.clone(),
            full.clone().with_interrupt(25_000_000, DOWNTIME),
        ];
        for sc in subsets {
            let report = chaos::run_scenario(&session, &sc);
            assert!(
                report.passed(),
                "seed {seed}, scenario [{}]: {:?}",
                sc.label(),
                report.violations
            );
            assert_eq!(
                report,
                chaos::run_scenario(&session, &sc),
                "seed {seed}, scenario [{}] must replay bit for bit",
                sc.label()
            );
        }
    }
}

#[test]
fn quiet_scenarios_are_byte_identical_to_stripped_runs() {
    let session = session();
    // Armed-but-quiet in every dimension at once: all the machinery
    // described, none of it active — must match the bare config.
    let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph)
        .with_faults(FaultPlan::seeded(1))
        .with_outages(OutagePlan::seeded(2))
        .with_replicas(ReplicaConfig::seeded(3))
        .with_byzantine(ByzantinePlan::seeded(4));
    let sc = ChaosScenario::new("Hanoi", config).with_overload(OverloadDims::seeded(5));
    assert!(sc.is_quiet());
    let report = chaos::run_scenario(&session, &sc);
    assert!(report.passed(), "{:?}", report.violations);
    let bare = session.simulate(
        Input::Test,
        &SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph),
    );
    assert_eq!(report.result, bare, "armed-but-quiet must not perturb");
}

#[test]
fn a_known_bad_scenario_shrinks_to_a_replayable_repro() {
    let session = session();
    // The "failure" predicate is a real property of the real
    // simulator: the run retried at least one unit delivery. The storm
    // trips it; the minimal repro must too, deterministically.
    let mut failing =
        |sc: &ChaosScenario| chaos::run_scenario(&session, sc).result.faults.retries >= 1;
    let seeded = storm(3).with_interrupt(20_000_000, DOWNTIME);
    assert!(failing(&seeded), "the seeded scenario must fail to start");
    let out = chaos::shrink(&seeded, &mut failing);
    assert!(out.tests_run <= chaos::SHRINK_BUDGET);
    let min = &out.scenario;
    assert!(failing(min), "the minimized scenario must still fail");
    // Shrinking dropped the dimensions irrelevant to a retry.
    assert!(
        min.config.outages.is_none(),
        "outages are pure downtime, not retries"
    );
    assert!(
        min.interrupt.is_none(),
        "the crash is irrelevant to retries"
    );
    assert_eq!(min.config.verify, VerifyMode::Off);
    // The artifact round-trips and replays to identical text.
    let artifact = min.encode();
    assert_eq!(ChaosScenario::decode(&artifact).unwrap(), *min);
    let first = chaos::replay_repro(&artifact).unwrap();
    let second = chaos::replay_repro(&artifact).unwrap();
    assert_eq!(first, second, "a repro artifact must replay bit for bit");
    assert!(
        first.contains("chaos replay"),
        "report names itself: {first}"
    );
}

#[test]
fn committed_repro_corpus_replays_bit_for_bit_and_passes() {
    let corpus = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut artifacts: Vec<_> = std::fs::read_dir(&corpus)
        .expect("the committed corpus directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "nscr"))
        .collect();
    artifacts.sort();
    assert!(
        artifacts.len() >= 4,
        "the corpus must keep its seed artifacts, found {artifacts:?}"
    );
    // Each artifact's goldens: `<stem>.replay.txt` is the stdout of
    // `nonstrict paper chaos --repro <artifact>` (the report plus one
    // newline), `<stem>.encode.txt` its canonical re-encoding, which
    // spells out every default a section opened with.
    let golden = |path: &std::path::Path, kind: &str| {
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let g = corpus.join("golden").join(format!("{stem}.{kind}.txt"));
        std::fs::read_to_string(&g)
            .unwrap_or_else(|e| panic!("golden file {} must be readable: {e}", g.display()))
    };
    for path in artifacts {
        let text = std::fs::read_to_string(&path).unwrap();
        let sc = ChaosScenario::decode(&text)
            .unwrap_or_else(|e| panic!("{} must decode: {e}", path.display()));
        assert_eq!(
            sc.encode(),
            golden(&path, "encode"),
            "{} must decode to its pinned scenario",
            path.display()
        );
        let first = chaos::replay_repro(&text).unwrap();
        assert_eq!(
            format!("{first}\n"),
            golden(&path, "replay"),
            "{} must replay to its pinned report",
            path.display()
        );
        assert_eq!(
            first,
            chaos::replay_repro(&text).unwrap(),
            "{} must replay bit for bit",
            path.display()
        );
        assert!(
            first.contains("invariants: PASS"),
            "{} [{}] must pass every invariant:\n{first}",
            path.display(),
            sc.label()
        );
    }
}

#[test]
fn disk_dimension_composes_with_interrupts_and_round_trips() {
    use nonstrict_core::DiskDims;
    let session = session();
    // Armed but quiet: a seeded disk with zero rates must not perturb.
    let t1 = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph);
    let quiet = ChaosScenario::new("Hanoi", t1).with_disk(DiskDims::seeded(11));
    assert!(quiet.is_quiet(), "zero-rate disk dims are quiet");

    // Active storage faults composed with link faults and a mid-run
    // interrupt: the checkpoint journal crosses the faulty store, and
    // whatever the store does to it — intact, torn, lost — the resumed
    // run must converge or fail closed, never diverge.
    let mut dd = DiskDims::seeded(11);
    dd.torn_pm = 400_000;
    dd.lie_pm = 150_000;
    dd.bitrot_pm = 120_000;
    let mut fc = FaultPlan::seeded(4);
    fc.loss_pm = 10_000;
    let config = SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
        .with_verify(VerifyMode::Stream)
        .with_faults(fc);
    let sc = ChaosScenario::new("Hanoi", config)
        .with_disk(dd)
        .with_interrupt(25_000_000, DOWNTIME);
    assert!(sc.label().contains("disk"), "label: {}", sc.label());
    let report = chaos::run_scenario(&session, &sc);
    assert!(report.passed(), "{:?}", report.violations);
    assert_eq!(
        report,
        chaos::run_scenario(&session, &sc),
        "disk-faulted scenarios must replay bit for bit"
    );
    // The NSCR artifact carries the disk keys and round-trips.
    let artifact = sc.encode();
    assert!(artifact.contains("disk.torn_pm"), "{artifact}");
    assert_eq!(ChaosScenario::decode(&artifact).unwrap(), sc);
    let first = chaos::replay_repro(&artifact).unwrap();
    assert_eq!(first, chaos::replay_repro(&artifact).unwrap());

    // Without an interrupt the conductor probes a grid of journal
    // round trips under the same dims; several seeds must pass the
    // fail-closed contract.
    for seed in 0..chaos_seeds() {
        let mut probe_dims = dd;
        probe_dims.seed = seed;
        let probe = ChaosScenario::new("Hanoi", t1).with_disk(probe_dims);
        let report = chaos::run_scenario(&session, &probe);
        assert!(report.passed(), "seed {seed}: {:?}", report.violations);
    }
}

#[test]
fn overload_compositions_keep_per_client_exactness() {
    let session = session();
    let mut ov = OverloadDims::seeded(9);
    ov.clients = 6;
    ov.admit_rate = 2;
    ov.ladder = Some(ShedLadder::new(2_000_000, 20_000_000, 200_000_000).unwrap());
    let mut fc = FaultPlan::seeded(5);
    fc.loss_pm = 10_000;
    let config = SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph).with_faults(fc);
    let sc = ChaosScenario::new("Hanoi", config).with_overload(ov);
    let report = chaos::run_scenario(&session, &sc);
    assert!(report.passed(), "{:?}", report.violations);
    let fd = report
        .fleet
        .expect("an overload scenario reports the fleet");
    assert_eq!(fd.clients, 6);
    assert!(fd.p99_total >= fd.p50_total);
    // Overload + interrupt is rejected at the artifact boundary.
    let conflict = sc.clone().with_interrupt(1, 1).encode();
    assert!(matches!(
        ChaosScenario::decode(&conflict),
        Err(nonstrict_core::chaos::ScenarioError::Conflict(_))
    ));
    // Deterministic fleet replay.
    assert_eq!(report, chaos::run_scenario(&session, &sc));
}
