//! Schema pins for the committed robustness CSVs in `results/`.
//!
//! Every bucketed CSV carries the same nine-column accounting tail
//! (`total_cycles` plus the eight [`CycleLedger`] buckets, in ledger
//! order), and on every committed row the buckets sum **exactly** to
//! the total — the eight-bucket identity is a property of the shipped
//! artifacts, not only of freshly simulated runs. A regeneration that
//! broke the identity (or silently dropped a bucket column) fails here
//! before the CI byte-identity loop even runs.
//!
//! The oracles themselves are here too: a fresh export through
//! [`export_csv`] must reproduce every committed file byte for byte,
//! with no file missing and none extra, and every `nonstrict paper
//! <name>` must print its committed golden text. Both render the same
//! tables, built from one suite.
//!
//! [`CycleLedger`]: nonstrict_core::metrics::CycleLedger

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use nonstrict_core::experiment::Suite;
use nonstrict_core::export::export_csv;
use nonstrict_core::report;

/// The committed CSVs that carry the accounting tail.
const BUCKETED: [&str; 7] = [
    "faults.csv",
    "verify.csv",
    "outage.csv",
    "replica.csv",
    "byzantine.csv",
    "overload.csv",
    "chaos.csv",
];

/// The accounting tail every bucketed CSV must end with: the total,
/// then the eight `CycleLedger::buckets` in ledger order (the sweeps'
/// shared ledger columns in the report module).
const TAIL: &str = "total_cycles,exec_cycles,stall_cycles,recovery_cycles,verify_cycles,\
                    resume_cycles,hedge_cycles,queue_cycles,integrity_cycles";

/// The six benchmarks, built and profiled once for every test here.
fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| Suite::new().expect("the six benchmarks profile cleanly"))
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn read(name: &str) -> String {
    let path = results_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed CSV {} must be readable: {e}", path.display()))
}

/// The file names in `dir`.
fn file_names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{} must be listable: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// The last nine comma-separated fields of a row, parsed as cycles.
fn tail_values(row: &str) -> [u64; 9] {
    let fields: Vec<&str> = row.split(',').collect();
    assert!(
        fields.len() >= 9,
        "row too short for the accounting tail: {row}"
    );
    let mut out = [0u64; 9];
    for (o, f) in out.iter_mut().zip(&fields[fields.len() - 9..]) {
        *o = f
            .parse()
            .unwrap_or_else(|e| panic!("bucket column {f:?} must be a cycle count ({e}): {row}"));
    }
    out
}

#[test]
fn every_bucketed_csv_ends_with_the_eight_bucket_columns() {
    for name in BUCKETED {
        let content = read(name);
        let header = content.lines().next().unwrap_or_default();
        assert!(
            header.ends_with(TAIL),
            "{name}: header must end with the accounting tail, got {header:?}"
        );
        assert!(
            content.lines().count() >= 2,
            "{name}: must carry at least one data row"
        );
    }
}

#[test]
fn every_committed_row_sums_its_buckets_exactly_to_the_total() {
    for name in BUCKETED {
        let content = read(name);
        for (i, row) in content.lines().skip(1).enumerate() {
            let v = tail_values(row);
            let sum: u64 = v[1..].iter().sum();
            assert_eq!(
                sum, v[0],
                "{name} row {i}: the eight buckets must sum to total_cycles: {row}"
            );
        }
    }
}

#[test]
fn committed_chaos_rows_report_zero_violations_and_completion() {
    let content = read("chaos.csv");
    let header = content.lines().next().unwrap();
    let cols: Vec<&str> = header.split(',').collect();
    let idx = |name: &str| {
        cols.iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("chaos.csv must carry a {name} column"))
    };
    let (violations, completed) = (idx("violations"), idx("completed"));
    for row in content.lines().skip(1) {
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(
            fields[violations], "0",
            "a committed chaos row must pass every invariant: {row}"
        );
        assert_eq!(
            fields[completed], "true",
            "every committed run completes: {row}"
        );
    }
}

#[test]
fn a_fresh_export_reproduces_every_committed_csv_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("nonstrict-csv-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_csv(suite(), &dir).expect("export into a fresh directory");
    let committed = file_names(&results_dir());
    let fresh = file_names(&dir);
    assert_eq!(
        fresh.difference(&committed).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "the export wrote files that are not committed"
    );
    assert_eq!(
        committed.difference(&fresh).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "committed files the export no longer writes"
    );
    for name in &committed {
        let want = read(name);
        let got = std::fs::read_to_string(dir.join(name)).unwrap();
        if let Some((i, (w, g))) = want
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (w, g))| w != g)
        {
            panic!("{name} line {}: committed {w:?}, fresh {g:?}", i + 1);
        }
        assert_eq!(got, want, "{name}: line count or line endings differ");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What `nonstrict paper <name>` prints, byte for byte against the
/// golden files the CLI keeps: every table name, `all`, the summary
/// and the seven sweeps.
#[test]
fn paper_stdout_matches_the_golden_files() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/cli/golden");
    let names = report::names();
    for name in names.split('|') {
        let path = golden.join(format!("paper_{name}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("golden file {} must be readable: {e}", path.display()));
        let build = report::lookup(name).expect("a listed name resolves");
        let got = report::paper_text(&build(suite()));
        if let Some((i, (w, g))) = want
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (w, g))| w != g)
        {
            panic!("paper {name} line {}: golden {w:?}, printed {g:?}", i + 1);
        }
        assert_eq!(got, want, "paper {name}: line count or line endings differ");
    }
}
