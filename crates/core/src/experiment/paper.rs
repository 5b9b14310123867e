//! The paper's published results (Tables 3–10, Figure 6), transcribed
//! for side-by-side comparison in reports and fidelity tests.
//!
//! Benchmark index order everywhere: BIT, Hanoi, JavaCup, Jess, JHLZip,
//! TestDes — the paper's row order.

/// Benchmark names in the paper's row order.
pub const NAMES: [&str; 6] = ["BIT", "Hanoi", "JavaCup", "Jess", "JHLZip", "TestDes"];

/// The paper's row index for benchmark `name` (any case), or `None`
/// for a benchmark the paper did not measure.
#[must_use]
pub fn index(name: &str) -> Option<usize> {
    NAMES.iter().position(|n| n.eq_ignore_ascii_case(name))
}

/// Table 3 — base case. Per benchmark: (CPI, exec Mcycles,
/// T1 transfer Mcycles, T1 %transfer, modem transfer Mcycles,
/// modem %transfer).
pub const TABLE3: [(u64, u64, u64, f64, u64, f64); 6] = [
    (147, 1141, 776, 40.5, 28_404, 96.0),
    (3830, 1261, 27, 2.1, 2_327, 45.8),
    (1241, 482, 988, 67.2, 35_208, 98.6),
    (225, 700, 1885, 72.9, 66_932, 99.0),
    (82, 194, 258, 57.0, 9_247, 97.9),
    (484, 150, 306, 67.1, 10_952, 98.6),
];

/// Table 4 — invocation latency in Mcycles. Per benchmark:
/// (T1 strict, T1 non-strict, T1 partitioned,
///  modem strict, modem non-strict, modem partitioned).
pub const TABLE4: [(f64, f64, f64, f64, f64, f64); 6] = [
    (14.0, 11.0, 10.0, 475.0, 386.0, 352.0),
    (13.0, 7.0, 3.0, 452.0, 263.0, 106.0),
    (66.0, 34.0, 8.0, 2333.0, 1197.0, 287.0),
    (24.0, 16.0, 7.0, 835.0, 572.0, 237.0),
    (13.0, 8.0, 3.0, 465.0, 267.0, 112.0),
    (71.0, 70.0, 70.0, 2481.0, 2459.0, 2457.0),
];

/// Table 4 average percent reductions: (non-strict, partitioned).
pub const TABLE4_AVG_REDUCTION: (f64, f64) = (31.0, 56.0);

/// One ordering's columns in Tables 5/6: limits One, Two, Four, Inf.
pub type ParallelRow = [f64; 4];

/// Table 5 — normalized execution time (%), parallel transfer, T1.
/// Indexed `[benchmark][ordering]` with orderings SCG, Train, Test.
pub const TABLE5_T1: [[ParallelRow; 3]; 6] = [
    [
        [99.0, 96.0, 94.0, 90.0],
        [94.0, 88.0, 79.0, 79.0],
        [90.0, 87.0, 79.0, 79.0],
    ],
    [
        [100.0, 99.0, 99.0, 99.0],
        [100.0, 99.0, 99.0, 99.0],
        [100.0, 99.0, 99.0, 99.0],
    ],
    [
        [82.0, 81.0, 76.0, 76.0],
        [63.0, 61.0, 61.0, 59.0],
        [61.0, 56.0, 55.0, 55.0],
    ],
    [
        [97.0, 93.0, 86.0, 77.0],
        [94.0, 90.0, 78.0, 70.0],
        [89.0, 64.0, 64.0, 64.0],
    ],
    [
        [97.0, 82.0, 74.0, 74.0],
        [82.0, 79.0, 72.0, 72.0],
        [75.0, 73.0, 72.0, 72.0],
    ],
    [
        [92.0, 90.0, 90.0, 90.0],
        [91.0, 90.0, 90.0, 88.0],
        [73.0, 72.0, 72.0, 72.0],
    ],
];

/// Table 5's AVG row.
pub const TABLE5_T1_AVG: [ParallelRow; 3] = [
    [94.0, 90.0, 87.0, 84.0],
    [87.0, 85.0, 80.0, 78.0],
    [81.0, 75.0, 74.0, 74.0],
];

/// Table 6 — normalized execution time (%), parallel transfer, modem.
pub const TABLE6_MODEM: [[ParallelRow; 3]; 6] = [
    [
        [95.0, 92.0, 88.0, 76.0],
        [57.0, 55.0, 53.0, 53.0],
        [56.0, 54.0, 53.0, 53.0],
    ],
    [
        [90.0, 90.0, 90.0, 90.0],
        [90.0, 88.0, 88.0, 88.0],
        [90.0, 87.0, 88.0, 87.0],
    ],
    [
        [69.0, 69.0, 67.0, 65.0],
        [63.0, 60.0, 58.0, 56.0],
        [54.0, 54.0, 54.0, 54.0],
    ],
    [
        [72.0, 70.0, 69.0, 69.0],
        [57.0, 57.0, 56.0, 55.0],
        [54.0, 53.0, 52.0, 51.0],
    ],
    [
        [56.0, 55.0, 55.0, 55.0],
        [56.0, 53.0, 53.0, 53.0],
        [54.0, 53.0, 53.0, 53.0],
    ],
    [
        [86.0, 85.0, 85.0, 85.0],
        [82.0, 82.0, 81.0, 76.0],
        [63.0, 62.0, 61.0, 61.0],
    ],
];

/// Table 6's AVG row.
pub const TABLE6_MODEM_AVG: [ParallelRow; 3] = [
    [78.0, 77.0, 76.0, 73.0],
    [68.0, 66.0, 65.0, 63.0],
    [62.0, 61.0, 60.0, 60.0],
];

/// Table 7 — interleaved transfer, normalized (%). Per benchmark:
/// (T1 SCG, T1 Train, T1 Test, modem SCG, modem Train, modem Test).
pub const TABLE7: [(f64, f64, f64, f64, f64, f64); 6] = [
    (84.0, 82.0, 77.0, 62.0, 50.0, 49.0),
    (99.0, 99.0, 92.0, 88.0, 85.0, 85.0),
    (68.0, 61.0, 49.0, 54.0, 51.0, 46.0),
    (67.0, 62.0, 52.0, 55.0, 50.0, 42.0),
    (73.0, 67.0, 67.0, 54.0, 44.0, 44.0),
    (74.0, 72.0, 72.0, 63.0, 60.0, 60.0),
];

/// Table 7's AVG row, same column order.
pub const TABLE7_AVG: (f64, f64, f64, f64, f64, f64) = (78.0, 74.0, 68.0, 63.0, 57.0, 54.0);

/// Table 8, left half — percent of global data in (CPool, Field,
/// Attrib, Intfc).
pub const TABLE8_GLOBAL: [[f64; 4]; 6] = [
    [88.2, 9.2, 0.7, 0.0],
    [93.5, 3.3, 0.8, 0.1],
    [95.3, 2.9, 0.5, 0.0],
    [95.6, 2.0, 0.6, 0.1],
    [94.2, 4.0, 0.5, 0.0],
    [94.7, 3.4, 0.5, 0.0],
];

/// Table 8, right half — percent of the constant pool in (Utf8, Ints,
/// Float, Long, Double, String, Class, FRef, MRef, NandT, IMRef).
pub const TABLE8_POOL: [[f64; 11]; 6] = [
    [80.1, 2.2, 0.0, 0.0, 0.0, 1.8, 2.4, 2.6, 4.5, 0.1, 6.3],
    [75.1, 0.0, 0.0, 0.0, 1.2, 0.2, 3.0, 4.3, 6.3, 0.0, 9.9],
    [80.3, 0.3, 0.0, 0.0, 0.0, 2.3, 1.7, 1.8, 6.1, 0.1, 7.3],
    [81.9, 0.2, 0.0, 0.0, 0.0, 1.1, 3.7, 1.3, 5.4, 0.1, 6.2],
    [63.2, 17.0, 0.0, 0.0, 0.0, 1.0, 1.6, 3.1, 6.0, 0.1, 8.0],
    [34.9, 52.9, 0.0, 0.0, 0.0, 0.4, 1.3, 2.5, 2.9, 0.0, 5.2],
];

/// Table 9 — data breakdown. Per benchmark: (local KB, global KB,
/// % needed first, % in methods, % unused).
pub const TABLE9: [(f64, f64, f64, f64, f64); 6] = [
    (43.9, 56.9, 34.0, 63.0, 3.0),
    (1.8, 3.1, 21.0, 75.0, 4.0),
    (53.9, 59.4, 17.0, 82.0, 1.0),
    (93.8, 129.9, 19.0, 61.0, 20.0),
    (15.1, 12.0, 19.0, 79.0, 2.0),
    (29.7, 5.0, 15.0, 84.0, 1.0),
];

/// Table 10 — normalized (%) with data partitioning. Per benchmark:
/// parallel(4) (T1 SCG/Train/Test, modem SCG/Train/Test) then
/// interleaved (same six columns).
pub const TABLE10: [([f64; 6], [f64; 6]); 6] = [
    (
        [82.0, 78.0, 75.0, 68.0, 51.0, 51.0],
        [81.0, 77.0, 72.0, 57.0, 49.0, 47.0],
    ),
    (
        [98.0, 98.0, 98.0, 87.0, 86.0, 84.0],
        [98.0, 97.0, 90.0, 85.0, 83.0, 82.0],
    ),
    (
        [69.0, 54.0, 52.0, 61.0, 51.0, 50.0],
        [66.0, 52.0, 45.0, 52.0, 43.0, 41.0],
    ),
    (
        [72.0, 65.0, 62.0, 62.0, 54.0, 50.0],
        [67.0, 59.0, 45.0, 50.0, 47.0, 35.0],
    ),
    (
        [73.0, 71.0, 71.0, 53.0, 48.0, 48.0],
        [72.0, 64.0, 64.0, 50.0, 40.0, 40.0],
    ),
    (
        [89.0, 71.0, 71.0, 84.0, 76.0, 60.0],
        [73.0, 70.0, 70.0, 61.0, 58.0, 58.0],
    ),
];

/// Table 10's AVG row, same layout.
pub const TABLE10_AVG: ([f64; 6], [f64; 6]) = (
    [81.0, 73.0, 71.0, 69.0, 61.0, 57.0],
    [76.0, 70.0, 64.0, 59.0, 53.0, 51.0],
);

/// Figure 6 — average normalized execution time. Series order:
/// parallel, parallel+partitioning, interleaved,
/// interleaved+partitioning; within each series: T1 (SCG, Train, Test)
/// then modem (SCG, Train, Test). Parallel uses the limit-4 columns.
pub const FIG6: [[f64; 6]; 4] = [
    [87.0, 80.0, 74.0, 76.0, 65.0, 60.0],
    [81.0, 73.0, 71.0, 69.0, 61.0, 57.0],
    [78.0, 74.0, 68.0, 63.0, 57.0, 54.0],
    [76.0, 70.0, 64.0, 59.0, 53.0, 51.0],
];

/// Headline claims (§8): average reductions in invocation latency and
/// total execution time.
pub const HEADLINE_LATENCY_REDUCTION: (f64, f64) = (31.0, 56.0);
/// Execution-time reduction range claimed in the abstract.
pub const HEADLINE_EXEC_REDUCTION: (f64, f64) = (25.0, 40.0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_avg_consistent_with_rows() {
        for (o, avg_row) in TABLE5_T1_AVG.iter().enumerate() {
            for limit in 0..4 {
                let mean: f64 = TABLE5_T1.iter().map(|b| b[o][limit]).sum::<f64>() / 6.0;
                assert!(
                    (mean - avg_row[limit]).abs() <= 1.0,
                    "ordering {o} limit {limit}: {mean} vs published {}",
                    avg_row[limit]
                );
            }
        }
    }

    #[test]
    fn table7_avg_consistent_with_rows() {
        let first: f64 = TABLE7.iter().map(|r| r.0).sum::<f64>() / 6.0;
        let last: f64 = TABLE7.iter().map(|r| r.5).sum::<f64>() / 6.0;
        assert!((first - TABLE7_AVG.0).abs() <= 1.0);
        assert!((last - TABLE7_AVG.5).abs() <= 1.0);
    }

    #[test]
    fn tables_have_six_rows() {
        assert_eq!(NAMES.len(), 6);
        assert_eq!(TABLE3.len(), 6);
        assert_eq!(TABLE4.len(), 6);
        assert_eq!(TABLE9.len(), 6);
        assert_eq!(TABLE10.len(), 6);
    }
}
