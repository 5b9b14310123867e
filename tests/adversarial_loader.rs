//! Adversarial-input harness for the verified-prefix streaming loader.
//!
//! The non-strict gate executes methods before their class file has
//! fully arrived, so the loader sits on a trust boundary: every byte it
//! consumes may be truncated, flipped, or hostile. This suite asserts
//! the contract the tentpole demands — **no input can panic the
//! loader**; every malformed prefix yields a typed error and every
//! well-formed stream reassembles byte-exactly:
//!
//! 1. **Exhaustive truncation** — every prefix length of every workload
//!    class file returns `Err` from the strict parser, and the streaming
//!    loader accepts byte-at-a-time delivery of the same files (so every
//!    prefix is a state it survives), reporting `Incomplete` for every
//!    cut at or inside a unit boundary.
//! 2. **Seeded mutation corpus** — deterministic bit flips over the real
//!    class files, parsed and stream-fed under random chunking. The case
//!    count elevates via `NONSTRICT_FUZZ_CASES` (CI's `soak` job).
//! 3. **Hostile structure** — oversized constant-pool counts,
//!    forward-branch-out-of-range bytecode, dangling call targets, and
//!    duplicate class names are all rejected with a diagnostic error.
//! 4. **`--verify=off` byte-identity** — verification off charges zero
//!    cycles, preserves the three-term accounting split of the seed, and
//!    reproduces the committed `results/verify.csv` rows exactly.

use std::sync::OnceLock;

use nonstrict::bytecode::{
    BytecodeError, CallKind, ClassDef, Instruction, Label, MethodDef, MethodId, Program,
};
use nonstrict::classfile::{parse, stream_units, ClassFile, StreamError, StreamLoader};
use nonstrict::core::experiment::{verify, Suite};
use nonstrict::core::{OrderingSource, SimConfig, VerifyMode};
use nonstrict::netsim::Link;
use nonstrict::workloads;
use nonstrict_bytecode::Input;
use nonstrict_core::sim::Session;
use nonstrict_workloads::rng::StdRng;

/// Every class file of every workload, serialized: the corpus all the
/// truncation and mutation passes draw from.
fn corpus() -> &'static Vec<(String, ClassFile, Vec<u8>)> {
    static CORPUS: OnceLock<Vec<(String, ClassFile, Vec<u8>)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        workloads::build_all()
            .into_iter()
            .flat_map(|app| {
                let name = app.name.clone();
                app.classes
                    .into_iter()
                    .enumerate()
                    .map(move |(i, cf)| {
                        let bytes = cf.to_bytes();
                        (format!("{name}[{i}]"), cf, bytes)
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    })
}

mod common;
use common::fuzz_cases;

#[test]
fn every_strict_prefix_of_every_class_file_is_a_typed_error() {
    for (name, _, bytes) in corpus() {
        for k in 0..bytes.len() {
            // A typed `Err` is the only acceptable outcome; reaching the
            // assertion at all means no prefix panicked.
            assert!(
                parse(&bytes[..k]).is_err(),
                "{name}: prefix of {k}/{} bytes must not parse",
                bytes.len()
            );
        }
        let full = parse(bytes).unwrap_or_else(|e| panic!("{name}: full file must parse: {e}"));
        assert_eq!(full.to_bytes(), *bytes, "{name}: parse must round-trip");
    }
}

#[test]
fn byte_at_a_time_streaming_reassembles_every_class_exactly() {
    for (name, cf, bytes) in corpus() {
        let units = stream_units(cf).unwrap_or_else(|e| panic!("{name}: units: {e}"));
        let mut loader = StreamLoader::new();
        let mut methods_seen = 0usize;
        for unit in &units {
            for b in unit {
                let events = loader
                    .feed(std::slice::from_ref(b))
                    .unwrap_or_else(|e| panic!("{name}: clean stream rejected: {e}"));
                methods_seen += events
                    .iter()
                    .filter(|e| matches!(e, nonstrict::classfile::StreamEvent::Method { .. }))
                    .count();
            }
        }
        assert!(loader.is_complete(), "{name}: all units fed");
        assert_eq!(
            methods_seen,
            cf.methods.len(),
            "{name}: one event per method"
        );
        let rebuilt = loader
            .finish()
            .unwrap_or_else(|e| panic!("{name}: finish: {e}"));
        assert_eq!(
            rebuilt.to_bytes(),
            *bytes,
            "{name}: reassembly is byte-exact"
        );
    }
}

#[test]
fn truncation_at_every_unit_boundary_reports_incomplete() {
    for (name, cf, _) in corpus() {
        let units = stream_units(cf).unwrap_or_else(|e| panic!("{name}: units: {e}"));
        for cut in 0..units.len() {
            // Deliver the first `cut` units whole, then half of the next:
            // both the boundary cut and the mid-unit cut must leave the
            // loader incomplete, and `finish` must refuse cleanly.
            let mut at_boundary = StreamLoader::new();
            let mut mid_unit = StreamLoader::new();
            for unit in &units[..cut] {
                at_boundary.feed(unit).unwrap();
                mid_unit.feed(unit).unwrap();
            }
            mid_unit.feed(&units[cut][..units[cut].len() / 2]).unwrap();
            for (label, loader) in [("boundary", at_boundary), ("mid-unit", mid_unit)] {
                assert!(!loader.is_complete(), "{name}: {label} cut at unit {cut}");
                assert!(
                    matches!(loader.finish(), Err(StreamError::Incomplete { .. })),
                    "{name}: {label} cut at unit {cut} must be Incomplete"
                );
            }
        }
    }
}

#[test]
fn seeded_bit_flips_never_panic_parser_or_stream() {
    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(0x5afe_10ad);
    for case in 0..fuzz_cases() {
        let (name, _, original) = &corpus[rng.gen_range(0..corpus.len())];
        let mut bytes = original.clone();
        for _ in 0..rng.gen_range(1..=8usize) {
            let bit = rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        // Strict parse: any outcome but a panic. A mutant that still
        // parses must also survive semantic validation and re-serialize.
        if let Ok(cf) = parse(&bytes) {
            let _ = cf.validate();
            let _ = cf.to_bytes();
        }
        // Streamed under random chunking: errors end the stream cleanly
        // (the loader refuses further input), they never propagate a
        // panic. `finish` on whatever remains must also be clean.
        let mut loader = StreamLoader::new();
        let mut pos = 0;
        let mut rejected = false;
        while pos < bytes.len() && !rejected {
            let take = rng.gen_range(1..=97usize).min(bytes.len() - pos);
            rejected = loader.feed(&bytes[pos..pos + take]).is_err();
            pos += take;
        }
        let _ = loader.finish();
        let _ = (case, name);
    }
}

#[test]
fn hostile_pool_counts_are_rejected_not_panicked() {
    // The count field lives at bytes 8..10 (magic u32, minor u16,
    // major u16). 0xFFFF claims ~64k slots against a file far too small
    // to hold them; 0x0000 undercuts the entries that follow. Neither
    // may panic, and the oversized claim must fail outright.
    let (name, _, original) = &corpus()[0];
    for patch in [[0xFF, 0xFF], [0x00, 0x00], [0x80, 0x01]] {
        let mut bytes = original.clone();
        bytes[8..10].copy_from_slice(&patch);
        assert!(
            parse(&bytes).is_err(),
            "{name}: pool count {patch:?} must not parse"
        );
        let mut loader = StreamLoader::new();
        if loader.feed(&bytes).is_ok() {
            assert!(
                loader.finish().is_err(),
                "{name}: pool count {patch:?} must not stream to a class"
            );
        }
    }
    // A bare header claiming a huge pool with no bytes behind it.
    let mut header = Vec::new();
    header.extend_from_slice(&0xCAFE_BABE_u32.to_be_bytes());
    header.extend_from_slice(&[0, 3, 0, 45]); // minor, major
    header.extend_from_slice(&[0xFF, 0xFF]);
    assert!(parse(&header).is_err(), "truncated hostile header");
}

#[test]
fn malformed_programs_fail_closed_with_diagnostics() {
    let main = || {
        let mut c = ClassDef::new("Main");
        c.add_method(MethodDef::new("main", 0, vec![Instruction::Return]));
        c
    };

    // Duplicate class names make lookup ambiguous: rejected by name.
    let dup = Program::new(vec![main(), main()], "Main", "main").unwrap_err();
    assert!(
        matches!(dup, BytecodeError::DuplicateClassName(ref n) if n == "Main"),
        "got {dup}"
    );

    // A dangling call target must fail verification, not surface later
    // as a bogus first-use prediction.
    let mut dangling = ClassDef::new("Main");
    dangling.add_method(MethodDef::new(
        "main",
        0,
        vec![
            Instruction::Invoke {
                kind: CallKind::Static,
                target: MethodId::new(7, 7),
            },
            Instruction::Return,
        ],
    ));
    let err = Program::new(vec![dangling], "Main", "main").unwrap_err();
    assert!(
        matches!(err, BytecodeError::BadCallTarget { .. }),
        "got {err}"
    );

    // A forward branch past the end of the method body.
    let mut oob = ClassDef::new("Main");
    oob.add_method(MethodDef::new(
        "main",
        0,
        vec![Instruction::Goto(Label(9)), Instruction::Return],
    ));
    let err = Program::new(vec![oob], "Main", "main").unwrap_err();
    assert!(
        matches!(err, BytecodeError::BadBranchTarget { target: 9, .. }),
        "got {err}"
    );

    // And the healthy path: every method of every workload re-verifies
    // under the incremental (delimiter-arrival) check.
    for app in workloads::build_all() {
        for (id, _) in app.program.iter_methods() {
            app.program
                .verify_method(id)
                .unwrap_or_else(|e| panic!("{}: {id} must re-verify: {e}", app.name));
        }
    }
}

#[test]
fn verify_off_charges_nothing_and_keeps_the_seed_accounting() {
    for app in workloads::build_all() {
        let name = app.name.clone();
        let session = Session::new(app).unwrap();
        for link in [Link::T1, Link::MODEM_28_8] {
            for config in [
                SimConfig::strict(link),
                SimConfig::non_strict(link, OrderingSource::StaticCallGraph),
            ] {
                let r = session.simulate(Input::Test, &config);
                assert_eq!(
                    r.ledger.verify, 0,
                    "{name} {}: off charges nothing",
                    link.name
                );
                // The seed's bucket split survives verbatim.
                assert_eq!(r.total_cycles, r.ledger.total(), "{name} {}", link.name);
                // And streaming verification only ever adds its own bucket.
                let s = session.simulate(Input::Test, &config.with_verify(VerifyMode::Stream));
                assert!(s.ledger.verify > 0, "{name} {}: stream charges", link.name);
                assert_eq!(s.total_cycles, s.ledger.total(), "{name} {}", link.name);
            }
        }
    }
}

#[test]
fn verify_off_rows_match_the_committed_reference_csv() {
    // The committed results/verify.csv was exported by `nonstrict paper csv`;
    // recomputing any one benchmark must reproduce its rows exactly —
    // the byte-identity guarantee `--verify=off` (the default) rests on.
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/verify.csv"))
            .expect("committed results/verify.csv");
    let session = Session::new(workloads::hanoi::build()).unwrap();
    let suite = Suite {
        sessions: vec![session],
    };
    let rows = verify::verify_sweep(&suite);
    assert_eq!(rows.len(), 6, "2 links x 3 modes for one benchmark");
    for row in &rows {
        let r = &row.result;
        let line = format!(
            "{},{},{},{:.1},{},{:.2},{},{},{},{},{},{},{},{},{},{},{}",
            row.name,
            row.link.name,
            row.mode.label(),
            row.normalized,
            r.ledger.verify,
            row.verify_share,
            r.invocation_latency,
            r.ledger.stall,
            r.total_cycles,
            r.ledger.exec,
            r.ledger.stall,
            r.ledger.recovery,
            r.ledger.verify,
            r.ledger.resume,
            r.ledger.hedge,
            r.ledger.queue,
            r.ledger.integrity
        );
        assert!(
            committed.lines().any(|l| l == line),
            "row {line:?} missing from committed verify.csv"
        );
        if row.mode == VerifyMode::Off {
            assert_eq!(r.ledger.verify, 0, "off rows charge nothing");
        }
    }
}
