//! Experiment runners: one function per paper table and figure.
//!
//! Each runner sweeps the whole benchmark [`Suite`] and returns
//! structured rows; [`crate::report`] renders them next to the paper's
//! published numbers ([`paper`]).

pub mod byzantine;
pub mod chaos;
pub mod faults;
pub mod outage;
pub mod overload;
pub mod paper;
pub mod replica;
pub mod verify;

use nonstrict_bytecode::{Input, InterpError};
use nonstrict_classfile::GlobalDataBreakdown;
use nonstrict_netsim::Link;
use nonstrict_reorder::partition::{summarize, PartitionSummary};
use nonstrict_workloads::stats::{table2_row, Table2Row};

use crate::metrics::{mean, normalized_percent, reduction_percent};
use crate::model::{DataLayout, OrderingSource, SimConfig, TransferPolicy};
use crate::sim::Session;

/// The ordering columns of Tables 5–7 and 10.
pub const ORDERINGS: [OrderingSource; 3] = [
    OrderingSource::StaticCallGraph,
    OrderingSource::TrainProfile,
    OrderingSource::TestProfile,
];

/// The concurrent-file limits of Tables 5/6 (One, Two, Four, Inf).
pub const LIMITS: [usize; 4] = [1, 2, 4, usize::MAX];

/// The two links of the evaluation.
pub const LINKS: [Link; 2] = [Link::T1, Link::MODEM_28_8];

/// All six benchmarks, prepared for simulation.
#[derive(Debug)]
pub struct Suite {
    /// One session per benchmark, in the paper's row order.
    pub sessions: Vec<Session>,
}

impl Suite {
    /// Builds and profiles all six benchmarks (a few seconds of real
    /// interpretation).
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults from profiling runs.
    pub fn new() -> Result<Suite, InterpError> {
        let sessions = nonstrict_workloads::build_all()
            .into_iter()
            .map(Session::new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Suite { sessions })
    }

    /// Benchmark names in row order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.sessions.iter().map(|s| s.app.name.clone()).collect()
    }
}

/// Table 2: computed program statistics (delegates to the workloads
/// crate, which also holds the published values).
#[must_use]
pub fn table2(suite: &Suite) -> Vec<Table2Row> {
    suite.sessions.iter().map(|s| table2_row(&s.app)).collect()
}

/// One link's base-case columns in Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaseCase {
    /// Transfer cycles (millions).
    pub transfer_mcycles: f64,
    /// Strict total (millions).
    pub total_mcycles: f64,
    /// Percent of the strict total spent transferring.
    pub pct_transfer: f64,
}

/// A Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Cycles per bytecode instruction.
    pub cpi: u64,
    /// Execution cycles (millions).
    pub exec_mcycles: f64,
    /// T1 columns.
    pub t1: BaseCase,
    /// Modem columns.
    pub modem: BaseCase,
}

/// Table 3: the base case per benchmark.
#[must_use]
pub fn table3(suite: &Suite) -> Vec<Table3Row> {
    suite
        .sessions
        .iter()
        .map(|s| {
            let exec = s.exec_cycles(Input::Test);
            let base_for = |link: Link| {
                let b = s.simulate(Input::Test, &SimConfig::strict(link));
                let transfer = b.ledger.stall;
                BaseCase {
                    transfer_mcycles: transfer as f64 / 1e6,
                    total_mcycles: b.total_cycles as f64 / 1e6,
                    pct_transfer: 100.0 * transfer as f64 / b.total_cycles as f64,
                }
            };
            Table3Row {
                name: s.app.name.clone(),
                cpi: s.app.cpi,
                exec_mcycles: exec as f64 / 1e6,
                t1: base_for(Link::T1),
                modem: base_for(Link::MODEM_28_8),
            }
        })
        .collect()
}

/// One link's latency columns in Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyCase {
    /// Strict latency (Mcycles).
    pub strict: f64,
    /// Non-strict latency (Mcycles).
    pub non_strict: f64,
    /// Percent decrease vs strict.
    pub non_strict_reduction: f64,
    /// Non-strict + data partitioning latency (Mcycles).
    pub partitioned: f64,
    /// Percent decrease vs strict.
    pub partitioned_reduction: f64,
}

/// A Table 4 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: String,
    /// T1 columns.
    pub t1: LatencyCase,
    /// Modem columns.
    pub modem: LatencyCase,
}

/// Table 4: invocation latency.
#[must_use]
pub fn table4(suite: &Suite) -> Vec<Table4Row> {
    suite
        .sessions
        .iter()
        .map(|s| {
            let case = |link: Link| {
                let strict = s
                    .simulate(Input::Test, &SimConfig::strict(link))
                    .invocation_latency;
                let ns_cfg = SimConfig::non_strict(link, OrderingSource::StaticCallGraph);
                let ns = s.simulate(Input::Test, &ns_cfg).invocation_latency;
                let mut dp_cfg = ns_cfg;
                dp_cfg.data_layout = DataLayout::Partitioned;
                let dp = s.simulate(Input::Test, &dp_cfg).invocation_latency;
                LatencyCase {
                    strict: strict as f64 / 1e6,
                    non_strict: ns as f64 / 1e6,
                    non_strict_reduction: reduction_percent(ns, strict),
                    partitioned: dp as f64 / 1e6,
                    partitioned_reduction: reduction_percent(dp, strict),
                }
            };
            Table4Row {
                name: s.app.name.clone(),
                t1: case(Link::T1),
                modem: case(Link::MODEM_28_8),
            }
        })
        .collect()
}

/// A Table 5/6 row: normalized time per `[ordering][limit]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelRow {
    /// Benchmark name.
    pub name: String,
    /// `cells[o][l]` for `ORDERINGS[o]`, `LIMITS[l]`.
    pub cells: [[f64; 4]; 3],
}

/// A full parallel-transfer table (Table 5 for T1, Table 6 for modem).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelTable {
    /// The link measured.
    pub link: Link,
    /// Whether global data was partitioned.
    pub data_layout: DataLayout,
    /// Per-benchmark rows.
    pub rows: Vec<ParallelRow>,
    /// The AVG row.
    pub avg: [[f64; 4]; 3],
}

/// Tables 5 and 6: parallel file transfer across orderings and limits.
#[must_use]
pub fn parallel_table(suite: &Suite, link: Link, data_layout: DataLayout) -> ParallelTable {
    let rows: Vec<ParallelRow> = suite
        .sessions
        .iter()
        .map(|s| {
            let base = s.simulate(Input::Test, &SimConfig::strict(link));
            let mut cells = [[0.0; 4]; 3];
            for (o, ordering) in ORDERINGS.iter().enumerate() {
                for (l, &limit) in LIMITS.iter().enumerate() {
                    let config = SimConfig {
                        transfer: TransferPolicy::Parallel { limit },
                        data_layout,
                        ..SimConfig::non_strict(link, *ordering)
                    };
                    let r = s.simulate(Input::Test, &config);
                    cells[o][l] = normalized_percent(r.total_cycles, base.total_cycles);
                }
            }
            ParallelRow {
                name: s.app.name.clone(),
                cells,
            }
        })
        .collect();
    let mut avg = [[0.0; 4]; 3];
    for (o, row_avg) in avg.iter_mut().enumerate() {
        for (l, cell) in row_avg.iter_mut().enumerate() {
            *cell = mean(&rows.iter().map(|r| r.cells[o][l]).collect::<Vec<_>>());
        }
    }
    ParallelTable {
        link,
        data_layout,
        rows,
        avg,
    }
}

/// A Table 7/10-style interleaved row: (T1 SCG/Train/Test, modem
/// SCG/Train/Test).
#[derive(Debug, Clone, PartialEq)]
pub struct SixColRow {
    /// Benchmark name.
    pub name: String,
    /// The six normalized percentages.
    pub cols: [f64; 6],
}

/// An interleaved-transfer table over both links.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavedTable {
    /// Whether global data was partitioned.
    pub data_layout: DataLayout,
    /// Per-benchmark rows.
    pub rows: Vec<SixColRow>,
    /// The AVG row.
    pub avg: [f64; 6],
}

/// Table 7 (and Table 10's right half): interleaved file transfer.
#[must_use]
pub fn interleaved_table(suite: &Suite, data_layout: DataLayout) -> InterleavedTable {
    six_col_table(suite, TransferPolicy::Interleaved, data_layout)
}

/// `transfer` under `data_layout` on both links and every ordering, in
/// the Table 7 six-column layout.
fn six_col_table(
    suite: &Suite,
    transfer: TransferPolicy,
    data_layout: DataLayout,
) -> InterleavedTable {
    let rows: Vec<SixColRow> = suite
        .sessions
        .iter()
        .map(|s| {
            let mut cols = [0.0; 6];
            for (k, link) in LINKS.iter().enumerate() {
                let base = s.simulate(Input::Test, &SimConfig::strict(*link));
                for (o, ordering) in ORDERINGS.iter().enumerate() {
                    let config = SimConfig {
                        transfer,
                        data_layout,
                        ..SimConfig::non_strict(*link, *ordering)
                    };
                    let r = s.simulate(Input::Test, &config);
                    cols[k * 3 + o] = normalized_percent(r.total_cycles, base.total_cycles);
                }
            }
            SixColRow {
                name: s.app.name.clone(),
                cols,
            }
        })
        .collect();
    let mut avg = [0.0; 6];
    for (c, cell) in avg.iter_mut().enumerate() {
        *cell = mean(&rows.iter().map(|r| r.cols[c]).collect::<Vec<_>>());
    }
    InterleavedTable {
        data_layout,
        rows,
        avg,
    }
}

/// A Table 8 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table8Row {
    /// Benchmark name.
    pub name: String,
    /// Percent of global data in (CPool, Field, Attrib, Intfc).
    pub global: [f64; 4],
    /// Percent of the pool per constant kind (Table 8's column order).
    pub pool: [f64; 11],
}

/// Table 8: global-data and constant-pool composition.
#[must_use]
pub fn table8(suite: &Suite) -> Vec<Table8Row> {
    suite
        .sessions
        .iter()
        .map(|s| {
            let b = GlobalDataBreakdown::of_all(s.app.classes.iter());
            Table8Row {
                name: s.app.name.clone(),
                global: b.section_percentages(),
                pool: b.pool.percentages(),
            }
        })
        .collect()
}

/// A Table 9 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table9Row {
    /// Benchmark name.
    pub name: String,
    /// The computed breakdown.
    pub summary: PartitionSummary,
}

/// Table 9: local/global split and the three-way global partition.
#[must_use]
pub fn table9(suite: &Suite) -> Vec<Table9Row> {
    suite
        .sessions
        .iter()
        .map(|s| Table9Row {
            name: s.app.name.clone(),
            summary: summarize(&s.app, s.partitions()),
        })
        .collect()
}

/// Table 10: both transfer techniques with partitioned global data.
/// Returns (parallel limit-4 table rows, interleaved table rows), each
/// with the Table 7 six-column layout.
#[must_use]
pub fn table10(suite: &Suite) -> (InterleavedTable, InterleavedTable) {
    let parallel = TransferPolicy::Parallel { limit: 4 };
    (
        six_col_table(suite, parallel, DataLayout::Partitioned),
        interleaved_table(suite, DataLayout::Partitioned),
    )
}

/// The simulated transfer tables — Tables 5, 6, 7 and 10 — each swept
/// once, so that `paper all` and the CSV export can derive Figure 6
/// from them instead of sweeping again.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferTables {
    /// Table 5: parallel file transfer on the T1 link.
    pub table5: ParallelTable,
    /// Table 6: parallel file transfer on the modem link.
    pub table6: ParallelTable,
    /// Table 7: interleaved file transfer.
    pub table7: InterleavedTable,
    /// Table 10: parallel(4) and interleaved transfer, both with
    /// partitioned global data.
    pub table10: (InterleavedTable, InterleavedTable),
}

impl TransferTables {
    /// Sweeps the four tables over the suite.
    #[must_use]
    pub fn new(suite: &Suite) -> TransferTables {
        TransferTables {
            table5: parallel_table(suite, Link::T1, DataLayout::Whole),
            table6: parallel_table(suite, Link::MODEM_28_8, DataLayout::Whole),
            table7: interleaved_table(suite, DataLayout::Whole),
            table10: table10(suite),
        }
    }

    /// Figure 6 from the tables' AVG rows: the four summary series
    /// (parallel, parallel+DP, interleaved, interleaved+DP), each as
    /// (T1 SCG/Train/Test, modem SCG/Train/Test) averages. The parallel
    /// series is the limit-4 column of Tables 5 and 6.
    #[must_use]
    pub fn fig6(&self) -> [[f64; 6]; 4] {
        let mut parallel = [0.0; 6];
        for (k, table) in [&self.table5, &self.table6].into_iter().enumerate() {
            for (o, avg) in table.avg.iter().enumerate() {
                parallel[k * 3 + o] = avg[2]; // the "Four" column
            }
        }
        let (parallel_dp, interleaved_dp) = &self.table10;
        [
            parallel,
            parallel_dp.avg,
            self.table7.avg,
            interleaved_dp.avg,
        ]
    }
}

/// Figure 6: the four summary series of [`TransferTables::fig6`].
#[must_use]
pub fn fig6(suite: &Suite) -> [[f64; 6]; 4] {
    TransferTables::new(suite).fig6()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Suite-level behaviour is exercised by the integration tests in
    // /tests (building all six benchmarks here would repeat that work in
    // every unit-test binary). These tests cover the cheap pieces.

    #[test]
    fn constants_cover_the_paper_design_space() {
        assert_eq!(ORDERINGS.len(), 3);
        assert_eq!(LIMITS, [1, 2, 4, usize::MAX]);
        assert_eq!(LINKS[0], Link::T1);
    }

    #[test]
    fn single_benchmark_tables_run() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let t3 = table3(&suite);
        assert_eq!(t3.len(), 1);
        assert!(t3[0].modem.pct_transfer > t3[0].t1.pct_transfer);
        let t4 = table4(&suite);
        assert!(t4[0].t1.non_strict <= t4[0].t1.strict);
        assert!(t4[0].t1.partitioned <= t4[0].t1.non_strict);
        let t5 = parallel_table(&suite, Link::T1, DataLayout::Whole);
        for o in 0..3 {
            for l in 1..4 {
                assert!(
                    t5.avg[o][l] <= t5.avg[o][l - 1] + 1e-6,
                    "more parallelism should not hurt"
                );
            }
        }
        let t7 = interleaved_table(&suite, DataLayout::Whole);
        assert!(t7.avg.iter().all(|&v| v > 0.0 && v <= 100.0 + 1e-6));
    }
}
