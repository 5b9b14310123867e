//! Every result `nonstrict paper` prints, each declared once as a
//! [`Table`]: the paper's Tables 2–10 and Figure 6 with the published
//! values beside the measured ones, the headline summary, and the seven
//! robustness sweeps. [`RESULTS`] names them; `paper <name>`, `paper
//! all` and [`crate::export::export_csv`] all walk it, and the last two
//! sweep Tables 5, 6, 7 and 10 once for Figure 6 as well.

use nonstrict_netsim::Link;
use nonstrict_workloads::stats::paper_row;

use crate::experiment::{self, paper, Suite, ORDERINGS};
use crate::metrics::{completion_rate_percent, mean, CycleLedger};
use crate::model::DataLayout;
use crate::table::{Builder, Table};

/// Builds the tables of one result from the suite.
pub type Build = fn(&Suite) -> Vec<Table>;

/// Every result by name, in `paper all` and CSV export order: the
/// paper's tables, the headline summary, then the robustness sweeps.
pub const RESULTS: [(&str, Build); 18] = [
    ("table2", |s| vec![table2(s)]),
    ("table3", |s| vec![table3(s)]),
    ("table4", |s| vec![table4(s)]),
    ("table5", |s| parallel_on(s, Link::T1)),
    ("table6", |s| parallel_on(s, Link::MODEM_28_8)),
    ("table7", |s| {
        vec![table7(experiment::interleaved_table(s, DataLayout::Whole))]
    }),
    ("table8", |s| vec![table8(s)]),
    ("table9", |s| vec![table9(s)]),
    ("table10", |s| table10(experiment::table10(s))),
    ("fig6", |s| vec![fig6(experiment::fig6(s))]),
    ("summary", |s| vec![summary(s)]),
    ("faults", |s| vec![faults(s)]),
    ("verify", |s| vec![verify(s)]),
    ("outage", |s| vec![outage(s)]),
    ("replicas", |s| vec![replicas(s)]),
    ("byzantine", |s| vec![byzantine(s)]),
    ("overload", |s| vec![overload(s)]),
    ("chaos", |s| vec![chaos(s)]),
];

/// How many of [`RESULTS`] `paper all` prints: Tables 2–10 and
/// Figure 6.
const PAPER_TABLES: usize = 10;

/// The builder for a [`RESULTS`] name or `all`.
#[must_use]
pub fn lookup(name: &str) -> Option<Build> {
    if name == "all" {
        return Some(paper_tables);
    }
    RESULTS.iter().find(|(n, _)| *n == name).map(|(_, b)| *b)
}

/// The first [`PAPER_TABLES`] results, as their [`RESULTS`] entries
/// build them, but with Tables 5, 6, 7 and 10 swept once: Figure 6 is
/// averaged from them instead of sweeping them again.
fn paper_tables(suite: &Suite) -> Vec<Table> {
    let t = experiment::TransferTables::new(suite);
    let fig6 = fig6(t.fig6());
    let mut tables = vec![
        table2(suite),
        table3(suite),
        table4(suite),
        parallel(t.table5),
        parallel(t.table6),
        table7(t.table7),
        table8(suite),
        table9(suite),
    ];
    tables.extend(table10(t.table10));
    tables.push(fig6);
    tables
}

/// Every table [`crate::export::export_csv`] writes, in order: the
/// paper's as `paper all` builds them, then the sweeps'. The summary is
/// prose with no CSV, so it is skipped rather than built.
#[must_use]
pub fn csv_tables(suite: &Suite) -> Vec<Table> {
    let sweeps = RESULTS[PAPER_TABLES..]
        .iter()
        .filter(|(name, _)| *name != "summary");
    paper_tables(suite)
        .into_iter()
        .chain(sweeps.flat_map(|(_, build)| build(suite)))
        .collect()
}

/// Every name [`lookup`] accepts, `|`-separated.
#[must_use]
pub fn names() -> String {
    let names: Vec<&str> = RESULTS.iter().map(|(n, _)| *n).collect();
    format!("all|{}", names.join("|"))
}

/// What `nonstrict paper` prints for `tables`: each one's text and a
/// blank line, except after prose without columns (the summary).
#[must_use]
pub fn paper_text(tables: &[Table]) -> String {
    let blank = |t: &Table| if t.columns.is_empty() { "" } else { "\n" };
    tables.iter().map(|t| t.render_text() + blank(t)).collect()
}

/// The benchmark-name column that opens most tables.
fn program<R>(t: &mut Builder<'_, R>, name: impl Fn(&R) -> &String) {
    t.col("program", "{}", |r| name(r).clone())
        .text("Program", "{:8}", "{:8}");
}

/// A flag: true/false in the CSV, yes/NO in the text.
fn flag<R>(t: &mut Builder<'_, R>, csv: &str, head: &str, fmt: &'static str, get: fn(&R) -> bool) {
    t.col(csv, "{}", get)
        .col("", "", |r| if get(r) { "yes" } else { "NO" })
        .text(head, fmt, fmt);
}

/// The accounting tail of every sweep CSV: the total, then the eight
/// ledger buckets in ledger order, which sum exactly to it.
fn ledger<R>(t: &mut Builder<'_, R>, get: fn(&R) -> (u64, CycleLedger)) {
    t.col("total_cycles", "{}", |r| get(r).0);
    for (i, (bucket, _)) in CycleLedger::default().buckets().into_iter().enumerate() {
        t.col(&format!("{bucket}_cycles"), "{}", |r| {
            get(r).1.buckets()[i].1
        });
    }
}

/// Each row after its paper row, if the paper measured that benchmark.
fn with_paper<R, P: Copy>(
    rows: Vec<R>,
    name: fn(&R) -> &String,
    paper: &[P],
) -> Vec<(Option<P>, R)> {
    rows.into_iter()
        .map(|r| (paper::index(name(&r)).map(|i| paper[i]), r))
        .collect()
}

/// A six-tuple of published values as an array.
fn six((a, b, c, d, e, f): (f64, f64, f64, f64, f64, f64)) -> [f64; 6] {
    [a, b, c, d, e, f]
}

fn table2(suite: &Suite) -> Table {
    let rows: Vec<_> = experiment::table2(suite)
        .into_iter()
        .map(|r| (paper_row(&r.name), r))
        .collect();
    let title = "Table 2: General Statistics (measured | paper)";
    let mut t = Builder::new(title, Some("table2.csv"), &rows);
    program(&mut t, |(_, r)| &r.name);
    t.col("files", "{}", |(_, r)| r.total_files)
        .text("Files", " {:>5}", " {:>5}")
        .col("size_kb", "{:.1}", |(_, r)| r.size_kb)
        .text("Size KB", " {:>9}", " {:>4.0}")
        .cell("|{:<4.0}", |(p, _)| p.map(|p| p.size_kb))
        .col("dyn_test_k", "{:.0}", |(_, r)| r.dyn_test_k)
        .text("DynTest K", " {:>12}", " {:>5.0}")
        .cell("|{:<6.0}", |(p, _)| p.map(|p| p.dyn_test_k))
        .col("dyn_train_k", "{:.0}", |(_, r)| r.dyn_train_k)
        .text("DynTrain K", " {:>12}", " {:>5.0}")
        .cell("|{:<6.0}", |(p, _)| p.map(|p| p.dyn_train_k))
        .col("static_k", "{:.1}", |(_, r)| r.static_k)
        .text("StaticK", " {:>9}", " {:>4.1}")
        .cell("|{:<4.1}", |(p, _)| p.map(|p| p.static_k))
        .col("executed_pct", "{:.1}", |(_, r)| r.executed_pct)
        .text("%Exec", " {:>7}", " {:>3.0}")
        .cell("|{:<3.0}", |(p, _)| p.map(|p| p.executed_pct))
        .col("methods", "{}", |(_, r)| r.total_methods)
        .text("Methods", " {:>7}", " {:>7}")
        .col("instrs_per_method", "{:.1}", |(_, r)| r.instrs_per_method)
        .text("I/M", " {:>6}", " {:>3.0}")
        .cell("|{:<3.0}", |(p, _)| p.map(|p| p.instrs_per_method));
    t.finish(Vec::new())
}

fn table3(suite: &Suite) -> Table {
    let rows = with_paper(experiment::table3(suite), |r| &r.name, &paper::TABLE3);
    let title = "Table 3: Base Case (measured | paper)";
    let mut t = Builder::new(title, Some("table3.csv"), &rows);
    program(&mut t, |(_, r)| &r.name);
    t.col("cpi", "{}", |(_, r)| r.cpi)
        .text("CPI", " {:>6}", " {:>6}")
        .col("exec_mcycles", "{:.1}", |(_, r)| r.exec_mcycles)
        .text("Exec Mcyc", " {:>10}", " {:>5.0}")
        .cell("|{:<5}", |(p, _)| p.map(|p| p.1))
        .col("t1_transfer_mcycles", "{:.1}", |(_, r)| {
            r.t1.transfer_mcycles
        })
        .text("T1 Xfer Mcyc", " {:>16}", " {:>7.0}")
        .cell("|{:<6}", |(p, _)| p.map(|p| p.2))
        .col("t1_pct_transfer", "{:.1}", |(_, r)| r.t1.pct_transfer)
        .text("T1 %Xfer", " {:>14}", " {:>6.1}")
        .cell("|{:<5.1}", |(p, _)| p.map(|p| p.3))
        .col("modem_transfer_mcycles", "{:.1}", |(_, r)| {
            r.modem.transfer_mcycles
        })
        .text("Modem Xfer Mcyc", " {:>18}", " {:>8.0}")
        .cell("|{:<7}", |(p, _)| p.map(|p| p.4))
        .col("modem_pct_transfer", "{:.1}", |(_, r)| r.modem.pct_transfer)
        .text("Modem %Xfer", " {:>14}", " {:>6.1}")
        .cell("|{:<5.1}", |(p, _)| p.map(|p| p.5));
    t.finish(Vec::new())
}

/// Table 4: one text line per benchmark, one CSV row per benchmark and
/// link.
fn table4(suite: &Suite) -> Table {
    let published: Vec<[f64; 6]> = paper::TABLE4.into_iter().map(six).collect();
    let rows = with_paper(experiment::table4(suite), |r| &r.name, &published);
    let title = "Table 4: Invocation Latency, Mcycles (measured | paper)";
    let mut t = Builder::new(title, Some("table4.csv"), &rows);
    program(&mut t, |(_, r)| &r.name);
    let links = [
        ("t1", "T1", " {:>14}", " {:>6.0}"),
        ("modem", "Mo", "   {:>14}", "  {:>6.0}"),
    ];
    for (k, (link, name, strict_head, strict)) in links.into_iter().enumerate() {
        let case = move |(_, r): &(_, experiment::Table4Row)| if k == 0 { r.t1 } else { r.modem };
        let paper = move |(p, _): &(Option<[f64; 6]>, _), c: usize| p.map(|p| p[3 * k + c]);
        t.group(&[("link", link)])
            .col("strict_mcycles", "{:.2}", move |r| case(r).strict)
            .text(&format!("{name} Strict"), strict_head, strict)
            .cell("|{:<5.0}", move |r| paper(r, 0))
            .col("non_strict_mcycles", "{:.2}", move |r| case(r).non_strict)
            .text(&format!("{name} NonStrict"), " {:>16}", " {:>6.0}")
            .col("non_strict_reduction_pct", "{:.1}", move |r| {
                case(r).non_strict_reduction
            })
            .text("", "", "({:>3.0}")
            .cell("%)|{:<4.0}", move |r| paper(r, 1))
            .col("partitioned_mcycles", "{:.2}", move |r| case(r).partitioned)
            .text(&format!("{name} DataPart"), " {:>16}", " {:>6.0}")
            .col("partitioned_reduction_pct", "{:.1}", move |r| {
                case(r).partitioned_reduction
            })
            .text("", "", "({:>3.0}")
            .cell("%)|{:<4.0}", move |r| paper(r, 2));
    }
    t.finish(Vec::new())
}

/// Table 5 (T1) or 6 (modem), swept on its own.
fn parallel_on(suite: &Suite, link: Link) -> Vec<Table> {
    vec![parallel(experiment::parallel_table(
        suite,
        link,
        DataLayout::Whole,
    ))]
}

/// Table 5 (T1) or 6 (modem): one text line per benchmark, one CSV row
/// per benchmark, ordering and concurrency limit.
fn parallel(table: experiment::ParallelTable) -> Table {
    let link = table.link;
    let (number, file, published, published_avg) = if link == Link::T1 {
        ("5", "table5.csv", &paper::TABLE5_T1, paper::TABLE5_T1_AVG)
    } else {
        (
            "6",
            "table6.csv",
            &paper::TABLE6_MODEM,
            paper::TABLE6_MODEM_AVG,
        )
    };
    let mut rows: Vec<_> = table
        .rows
        .into_iter()
        .map(|r| (paper::index(&r.name).map(|i| published[i]), r.name, r.cells))
        .collect();
    rows.push((Some(published_avg), "AVG".to_owned(), table.avg));
    let title = format!(
        "Table {number}: Parallel File Transfer, {} link — normalized % (measured | paper)",
        link.name
    );
    let mut t = Builder::new(title, Some(file), &rows);
    program(&mut t, |(_, name, _)| name);
    for (o, ordering) in ORDERINGS.iter().enumerate() {
        let head = format!("{}  1 / 2 / 4 / inf", ordering.label());
        for (l, limit) in ["1", "2", "4", "inf"].into_iter().enumerate() {
            // The ordering's label spans its four limits.
            let (head, head_fmt, fmt) = match l {
                0 => (head.as_str(), " | {:^31}", " | {:>3.0}"),
                _ => ("", "", " {:>3.0}"),
            };
            t.group(&[("ordering", ordering.label()), ("limit", limit)])
                .col("normalized_pct", "{:.1}", move |r| r.2[o][l])
                .text(head, head_fmt, fmt)
                .col("paper_normalized_pct", "{:.0}", move |r| {
                    r.0.map(|p| p[o][l])
                })
                .text("", "", "|{:<3.0}");
        }
    }
    t.cell(" |", |_| "");
    let mut t = t.finish(Vec::new());
    // The AVG line is laid out like a row but is not exported.
    let avg = t.rows.pop().expect("the AVG row");
    t.footer.push(t.text_line(&avg));
    t
}

/// A six-column table's row: its key, then the measured and the
/// published values per link and ordering.
type SixRow<K> = (K, [f64; 6], Option<[f64; 6]>);

/// The twelve columns of a six-column table (Table 7, a Table 10 half,
/// Figure 6): measured and published values per link and ordering, one
/// CSV row each. `wide` lays out the T1 headers, `gap` the first modem
/// header.
fn six_cols<K>(t: &mut Builder<'_, SixRow<K>>, wide: &'static str, gap: &'static str) {
    for (k, (link, name)) in [("t1", "T1"), ("modem", "Mo")].into_iter().enumerate() {
        for (o, ordering) in ORDERINGS.iter().enumerate() {
            let c = 3 * k + o;
            let head_fmt = if c == 3 { gap } else { wide };
            t.group(&[("link", link), ("ordering", ordering.label())])
                .col("normalized_pct", "{:.1}", move |r| r.1[c])
                .text(
                    &format!("{name} {}", ordering.label()),
                    head_fmt,
                    " {:>4.0}",
                )
                .col("paper_normalized_pct", "{:.0}", move |r| r.2.map(|p| p[c]))
                .text("", "", "|{:<4.0}");
        }
    }
}

/// Table 7 or a Table 10 half, with its measured AVG line.
fn interleaved(
    table: experiment::InterleavedTable,
    title: &str,
    file: &'static str,
    published: &[[f64; 6]],
) -> Table {
    let rows: Vec<_> = table
        .rows
        .into_iter()
        .map(|r| {
            let p = paper::index(&r.name).map(|i| published[i]);
            (r.name, r.cols, p)
        })
        .collect();
    let title = format!("{title} — normalized % (measured | paper)");
    let mut t = Builder::new(title, Some(file), &rows);
    program(&mut t, |(name, _, _)| name);
    six_cols(&mut t, " {:>10}", "   {:>10}");
    let avg: String = table.avg.iter().map(|v| format!(" {v:>9.1}")).collect();
    t.finish(vec![format!("{:8}{avg}", "AVG")])
}

fn table7(table: experiment::InterleavedTable) -> Table {
    let published: Vec<[f64; 6]> = paper::TABLE7.into_iter().map(six).collect();
    interleaved(
        table,
        "Table 7: Interleaved File Transfer",
        "table7.csv",
        &published,
    )
}

fn table10(
    (parallel, interleaved_dp): (experiment::InterleavedTable, experiment::InterleavedTable),
) -> Vec<Table> {
    let (pp, pi): (Vec<[f64; 6]>, Vec<[f64; 6]>) = paper::TABLE10.into_iter().unzip();
    vec![
        interleaved(
            parallel,
            "Table 10a: Parallel(4) + Data Partitioning",
            "table10_parallel.csv",
            &pp,
        ),
        interleaved(
            interleaved_dp,
            "Table 10b: Interleaved + Data Partitioning",
            "table10_interleaved.csv",
            &pi,
        ),
    ]
}

fn fig6(measured: [[f64; 6]; 4]) -> Table {
    let series = [
        ("Parallel File Transfer", "parallel"),
        ("PFT + Data Partitioned", "parallel_partitioned"),
        ("Interleaved File Transfer", "interleaved"),
        ("IFT + Data Partitioned", "interleaved_partitioned"),
    ];
    let rows: Vec<_> = (0..4)
        .map(|i| (series[i], measured[i], Some(paper::FIG6[i])))
        .collect();
    let title = "Figure 6: Average normalized execution time, % (measured | paper)";
    let mut t = Builder::new(title, Some("fig6.csv"), &rows);
    t.col("series", "{}", |r| r.0 .1)
        .col("", "", |r| r.0 .0)
        .text("Series", "{:26}", "{:26}");
    six_cols(&mut t, " {:>9}", "   {:>9}");
    t.finish(Vec::new())
}

fn table8(suite: &Suite) -> Table {
    let published: Vec<_> = paper::TABLE8_GLOBAL
        .into_iter()
        .zip(paper::TABLE8_POOL)
        .collect();
    let rows = with_paper(experiment::table8(suite), |r| &r.name, &published);
    let title = "Table 8: Global Data / Constant Pool breakdown, % (measured | paper)";
    let mut t = Builder::new(title, Some("table8.csv"), &rows);
    program(&mut t, |(_, r)| &r.name);
    // The global-data sections, then the constant-pool kinds Table 8
    // prints, by pool index.
    t.col("cpool_pct", "{:.1}", |(_, r)| r.global[0])
        .text("CPool", " {:>11}", " {:>5.1}")
        .cell("|{:<5.1}", |(p, _)| p.map(|p| p.0[0]))
        .col("field_pct", "{:.1}", |(_, r)| r.global[1])
        .text("Field", " {:>10}", " {:>4.1}")
        .cell("|{:<4.1}", |(p, _)| p.map(|p| p.0[1]))
        .col("attrib_pct", "{:.1}", |(_, r)| r.global[2])
        .text("Attrib", " {:>10}", " {:>4.1}")
        .cell("|{:<4.1}", |(p, _)| p.map(|p| p.0[2]))
        .col("intfc_pct", "{:.1}", |(_, r)| r.global[3])
        .text("Intfc", " {:>10}", " {:>4.1}")
        .cell("|{:<4.1}", |(p, _)| p.map(|p| p.0[3]))
        .col("utf8_pct", "{:.1}", |(_, r)| r.pool[0])
        .text("Utf8", "  | {:>11}", "  | {:>5.1}")
        .cell("|{:<5.1}", |(p, _)| p.map(|p| p.1[0]))
        .col("ints_pct", "{:.1}", |(_, r)| r.pool[1])
        .text("Ints", " {:>10}", " {:>4.1}")
        .cell("|{:<4.1}", |(p, _)| p.map(|p| p.1[1]))
        .col("string_pct", "{:.1}", |(_, r)| r.pool[5])
        .text("String", " {:>10}", " {:>4.1}")
        .cell("|{:<4.1}", |(p, _)| p.map(|p| p.1[5]))
        .col("mref_pct", "{:.1}", |(_, r)| r.pool[8])
        .text("MRef", " {:>10}", " {:>4.1}")
        .cell("|{:<4.1}", |(p, _)| p.map(|p| p.1[8]))
        .col("fref_pct", "{:.1}", |(_, r)| r.pool[7])
        .text("FRef", " {:>10}", " {:>4.1}")
        .cell("|{:<4.1}", |(p, _)| p.map(|p| p.1[7]));
    t.finish(Vec::new())
}

fn table9(suite: &Suite) -> Table {
    let rows = with_paper(experiment::table9(suite), |r| &r.name, &paper::TABLE9);
    let title = "Table 9: Data breakdown (measured | paper)";
    let mut t = Builder::new(title, Some("table9.csv"), &rows);
    program(&mut t, |(_, r)| &r.name);
    t.col("local_kb", "{:.1}", |(_, r)| r.summary.local_kb)
        .text("Local KB", " {:>13}", " {:>6.1}")
        .cell("|{:<6.1}", |(p, _)| p.map(|p| p.0))
        .col("global_kb", "{:.1}", |(_, r)| r.summary.global_kb)
        .text("Global KB", " {:>13}", " {:>6.1}")
        .cell("|{:<6.1}", |(p, _)| p.map(|p| p.1))
        .col("needed_first_pct", "{:.1}", |(_, r)| {
            r.summary.pct_needed_first
        })
        .text("%First", " {:>13}", " {:>5.1}")
        .cell("|{:<5.0}", |(p, _)| p.map(|p| p.2))
        .col("in_methods_pct", "{:.1}", |(_, r)| r.summary.pct_in_methods)
        .text("%InMethods", " {:>13}", " {:>6.1}")
        .cell("|{:<5.0}", |(p, _)| p.map(|p| p.3))
        .col("unused_pct", "{:.1}", |(_, r)| r.summary.pct_unused)
        .text("%Unused", " {:>13}", " {:>5.1}")
        .cell("|{:<5.0}", |(p, _)| p.map(|p| p.4));
    t.finish(Vec::new())
}

/// The paper's headline claims (§8) against this reproduction: prose,
/// with no columns and no CSV.
fn summary(suite: &Suite) -> Table {
    let t4 = experiment::table4(suite);
    let reduction = |f: fn(&experiment::LatencyCase) -> f64| {
        mean(
            &t4.iter()
                .flat_map(|r| [f(&r.t1), f(&r.modem)])
                .collect::<Vec<_>>(),
        )
    };
    let f6 = experiment::fig6(suite);
    let (latency, exec) = (
        paper::HEADLINE_LATENCY_REDUCTION,
        paper::HEADLINE_EXEC_REDUCTION,
    );
    let footer = vec![
        format!(
            "  invocation latency reduction: paper {:.0}%..{:.0}% avg — measured avg {:.0}% \
             (non-strict) .. {:.0}% (partitioned)",
            latency.0,
            latency.1,
            reduction(|c| c.non_strict_reduction),
            reduction(|c| c.partitioned_reduction),
        ),
        // Figure 6 rows: parallel(4) first, interleaved + partitioning last.
        format!(
            "  execution-time reduction: paper {:.0}%..{:.0}% — measured {:.0}% (parallel avg) \
             .. {:.0}% (interleaved+DP avg)",
            exec.0,
            exec.1,
            100.0 - mean(&f6[0]),
            100.0 - mean(&f6[3]),
        ),
    ];
    Builder::<()>::new("Headline claims (paper §8) vs measured:", None, &[]).finish(footer)
}

fn faults(suite: &Suite) -> Table {
    let rows = experiment::faults::fault_sweep(suite);
    let title = "Fault sweep: resilient transfer under seeded link faults (non-strict par(4))";
    let mut t = Builder::new(title, Some("faults.csv"), &rows);
    program(&mut t, |r| &r.name);
    t.col("link", "{}", |r| r.link.name)
        .text("link", " {:>6}", " {:>6}")
        .col("ordering", "{}", |r| r.ordering.label())
        .text("order", " {:>6}", " {:>6}")
        .col("loss_ppm", "{}", |r| r.loss_pm)
        .text("loss ppm", " {:>9}", " {:>9}")
        .col("normalized_pct", "{:.1}", |r| r.normalized)
        .text("norm%", " {:>7}", " {:>7.1}")
        .col("recovery_share_pct", "{:.2}", |r| r.recovery_share)
        .text("recov%", " {:>9}", " {:>9.2}")
        .col("retries", "{}", |r| r.result.faults.retries)
        .text("retries", " {:>8}", " {:>8}")
        .col("drops", "{}", |r| r.result.faults.drops)
        .text("drops", " {:>6}", " {:>6}")
        .col("corrupted", "{}", |r| r.result.faults.corrupted)
        .col("degraded_classes", "{}", |r| r.result.degraded_classes)
        .text("degraded", " {:>8}", " {:>6}")
        .cell(
            "{:>2}",
            |r| if r.result.session_degraded { "S" } else { "" },
        )
        .col("session_degraded", "{}", |r| r.result.session_degraded);
    flag(&mut t, "completed", "completed", " {:>9}", |r| {
        r.result.completed
    });
    ledger(&mut t, |r| (r.result.total_cycles, r.result.ledger));
    let completed = rows.iter().filter(|r| r.result.completed).count();
    let sum = |f: fn(&experiment::faults::FaultRow) -> u64| rows.iter().map(f).sum::<u64>();
    let footer = vec![
        format!(
            "completion rate {:.1}% ({completed} of {} runs), {} retries total, {} class \
             fallbacks to strict",
            completion_rate_percent(completed, rows.len()),
            rows.len(),
            sum(|r| r.result.faults.retries),
            sum(|r| r.result.degraded_classes.into()),
        ),
        format!(
            "degradation: {:>6} units quarantined, {:>6} forced past the retry cap",
            sum(|r| r.result.faults.quarantined),
            sum(|r| r.result.faults.forced),
        ),
    ];
    t.finish(footer)
}

fn verify(suite: &Suite) -> Table {
    let rows = experiment::verify::verify_sweep(suite);
    let title = "Verification sweep: verified-prefix streaming (non-strict par(4), SCG)";
    let mut t = Builder::new(title, Some("verify.csv"), &rows);
    program(&mut t, |r| &r.name);
    t.col("link", "{}", |r| r.link.name)
        .text("link", " {:>6}", " {:>6}")
        .col("verify_mode", "{}", |r| r.mode.label())
        .text("mode", " {:>7}", " {:>7}")
        .col("normalized_pct", "{:.1}", |r| r.normalized)
        .text("norm%", " {:>7}", " {:>7.1}")
        .col("verify_cycles", "{}", |r| r.result.ledger.verify)
        .text("verify cyc", " {:>13}", " {:>13}")
        .col("verify_share_pct", "{:.2}", |r| r.verify_share)
        .text("verify%", " {:>8}", " {:>8.2}")
        .col("invocation_latency", "{}", |r| r.result.invocation_latency)
        .text("invoke lat", " {:>13}", " {:>13}")
        .col("stall_cycles", "{}", |r| r.result.ledger.stall);
    ledger(&mut t, |r| (r.result.total_cycles, r.result.ledger));
    t.finish(Vec::new())
}

fn outage(suite: &Suite) -> Table {
    let rows = experiment::outage::outage_sweep(suite);
    let title = "Outage sweep: session checkpoint/resume under connection loss \
                 (non-strict par(4), SCG)";
    let mut t = Builder::new(title, Some("outage.csv"), &rows);
    program(&mut t, |r| &r.name);
    t.col("link", "{}", |r| r.link.name)
        .text("link", " {:>6}", " {:>6}")
        .col("rate_ppm", "{}", |r| r.rate_pm)
        .text("rate ppm", " {:>9}", " {:>9}")
        .col("outage_cycles", "{}", |r| r.outage_cycles)
        .text("outage cyc", " {:>12}", " {:>12}")
        .col("normalized_pct", "{:.1}", |r| r.normalized)
        .text("norm%", " {:>7}", " {:>7.1}")
        .col("resume_share_pct", "{:.2}", |r| r.resume_share)
        .text("resume%", " {:>8}", " {:>8.2}")
        .col("outages", "{}", |r| r.result.outage.outages)
        .text("outages", " {:>8}", " {:>8}")
        .col("resumes", "{}", |r| r.result.outage.resumes)
        .text("resumes", " {:>8}", " {:>8}");
    flag(&mut t, "pure_downtime", "pure-down", " {:>9}", |r| {
        r.pure_downtime
    });
    ledger(&mut t, |r| (r.result.total_cycles, r.result.ledger));
    let outages: u64 = rows
        .iter()
        .map(|r| u64::from(r.result.outage.outages))
        .sum();
    let pure = rows.iter().filter(|r| r.pure_downtime).count();
    let n = rows.len();
    let footer = vec![format!(
        "{outages} outages survived across {n} runs; {pure} of {n} runs were pure inserted downtime"
    )];
    t.finish(footer)
}

fn replicas(suite: &Suite) -> Table {
    let rows = experiment::replica::replica_sweep(suite);
    let title = "Replica sweep: health-scored mirrors with hedged demand fetches \
                 (non-strict par(4), SCG)";
    let mut t = Builder::new(title, Some("replica.csv"), &rows);
    program(&mut t, |r| &r.name);
    let health = |r: &experiment::replica::ReplicaRow| {
        let scores: Vec<String> = r
            .health_ppm()
            .iter()
            .map(|&h| format!("{:.1}", f64::from(h) / 10_000.0))
            .collect();
        scores.join("/")
    };
    t.col("link", "{}", |r| r.link.name)
        .text("link", " {:>6}", " {:>6}")
        .col("replicas", "{}", |r| r.replicas)
        .text("mirrors", " {:>7}", " {:>7}")
        .col("loss_ppm", "{}", |r| r.loss_pm)
        .text("loss ppm", " {:>9}", " {:>9}")
        .col("normalized_pct", "{:.1}", |r| r.normalized)
        .text("norm%", " {:>7}", " {:>7.1}")
        .col("hedge_share_pct", "{:.2}", |r| r.hedge_share)
        .text("hedge%", " {:>7}", " {:>7.2}")
        .col("hedges", "{}", |r| r.result.replica.hedges)
        .text("hedges", " {:>7}", " {:>7}")
        .col("hedge_wins", "{}", |r| r.result.replica.hedge_wins)
        .text("won", " {:>5}", " {:>5}")
        .col("failovers", "{}", |r| r.result.replica.failovers)
        .text("failovers", " {:>9}", " {:>9}")
        .col("", "", health)
        .text("mirror health %", "  {:<20}", "  {:<20}")
        .col("min_health_ppm", "{}", |r| r.min_health_ppm)
        .col("completed", "{}", |r| r.result.completed);
    ledger(&mut t, |r| (r.result.total_cycles, r.result.ledger));
    let sum = |f: fn(&experiment::replica::ReplicaRow) -> u64| rows.iter().map(f).sum::<u64>();
    // Single-origin cells carry no scores; they must not read as a
    // zero-health mirror.
    let worst = rows
        .iter()
        .filter(|r| r.result.replica.replicas > 0)
        .map(|r| r.min_health_ppm)
        .min()
        .unwrap_or(0);
    let footer = vec![format!(
        "{} hedged fetches ({} won) and {} failovers across {} runs; worst mirror health {:.1}%",
        sum(|r| r.result.replica.hedges),
        sum(|r| r.result.replica.hedge_wins),
        sum(|r| r.result.replica.failovers),
        rows.len(),
        f64::from(worst) / 10_000.0,
    )];
    t.finish(footer)
}

fn byzantine(suite: &Suite) -> Table {
    let rows = experiment::byzantine::byzantine_sweep(suite);
    let title = "Byzantine sweep: content-addressed manifests vs dishonest mirrors \
                 (non-strict par(4), SCG, honest primary killed early)";
    let mut t = Builder::new(title, Some("byzantine.csv"), &rows);
    program(&mut t, |r| &r.name);
    t.col("link", "{}", |r| r.link.name)
        .text("link", " {:>6}", " {:>6}")
        .col("replicas", "{}", |r| r.replicas)
        .text("mirrors", " {:>7}", " {:>7}")
        .col("byzantine", "{}", |r| r.byzantine)
        .text("byz", " {:>4}", " {:>4}")
        .col("mode", "{}", |r| r.mode.label())
        .text("mode", " {:>11}", " {:>11}")
        .col("audit_rate_ppm", "{}", |r| r.audit_rate_pm)
        .text("audit ppm", " {:>9}", " {:>9}")
        .col("normalized_pct", "{:.1}", |r| r.normalized)
        .text("norm%", " {:>7}", " {:>7.1}")
        .col("integrity_share_pct", "{:.2}", |r| r.integrity_share)
        .text("integ%", " {:>7}", " {:>7.2}")
        .col("manifest_pins", "{}", |r| r.result.integrity.manifest_pins)
        .col("digest_checks", "{}", |r| r.result.integrity.digest_checks)
        .col("divergent_units", "{}", |r| {
            r.result.integrity.divergent_units
        })
        .text("diverge", " {:>8}", " {:>8}")
        .col("undetected_units", "{}", |r| {
            r.result.integrity.undetected_units
        })
        .text("undet", " {:>6}", " {:>6}")
        .col("audits", "{}", |r| r.result.integrity.audits)
        .text("audits", " {:>7}", " {:>7}")
        .col("audit_mismatches", "{}", |r| {
            r.result.integrity.audit_mismatches
        })
        .col("quarantines", "{}", |r| r.result.integrity.quarantines)
        .text("quar", " {:>5}", " {:>5}")
        .col("fence_refetches", "{}", |r| {
            r.result.integrity.fence_refetches
        })
        .text("fence", " {:>6}", " {:>6}")
        .col("refetched_bytes", "{}", |r| {
            r.result.integrity.refetched_bytes
        })
        .text("refetch", " {:>7}", " {:>7}")
        .col("completed", "{}", |r| r.result.completed);
    ledger(&mut t, |r| (r.result.total_cycles, r.result.ledger));
    let divergent: u64 = rows
        .iter()
        .map(|r| r.result.integrity.divergent_units)
        .sum();
    let undetected: u64 = rows
        .iter()
        .map(|r| r.result.integrity.undetected_units)
        .sum();
    let quarantines: u32 = rows.iter().map(|r| r.result.integrity.quarantines).sum();
    let footer = vec![format!(
        "{divergent} divergent units across {} runs; {undetected} linked undetected \
         (collusion windows), {quarantines} mirrors quarantined",
        rows.len()
    )];
    t.finish(footer)
}

fn overload(suite: &Suite) -> Table {
    let rows = experiment::overload::overload_sweep(suite);
    let title = "Overload sweep: fair-share scheduling, admission control, and load shedding \
                 (shared T1 egress)";
    let mut t = Builder::new(title, Some("overload.csv"), &rows);
    t.col("clients", "{}", |r| r.clients)
        .text("clients", "{:>7}", "{:>7}")
        .col("mix", "{}", |r| r.mix)
        .text("mix", " {:>6}", " {:>6}")
        .col("admit_rate", "{}", |r| r.admit_rate)
        .text("admit", " {:>6}", " {:>6}")
        .col("rejections", "{}", |r| r.rejections)
        .text("reject", " {:>7}", " {:>7}")
        .col("served", "{}", |r| r.served)
        .text("served", " {:>7}", " {:>7}")
        .col("hedge_dropped", "{}", |r| r.hedge_dropped)
        .text("nohedge", " {:>7}", " {:>7}")
        .col("forced_strict", "{}", |r| r.forced_strict)
        .text("strict", " {:>7}", " {:>7}")
        .col("shed", "{}", |r| r.shed)
        .text("shed", " {:>5}", " {:>5}")
        .col("p50_total", "{}", |r| r.p50_total)
        .text("p50 cyc", " {:>12}", " {:>12}")
        .col("p95_total", "{}", |r| r.p95_total)
        .text("p95 cyc", " {:>12}", " {:>12}")
        .col("p99_total", "{}", |r| r.p99_total)
        .text("p99 cyc", " {:>12}", " {:>12}")
        .col("queue_share_pct", "{:.2}", |r| r.queue_share)
        .text("queue%", " {:>7}", " {:>7.2}");
    ledger(&mut t, |r| (r.total_cycles, r.ledger));
    let rejections: u64 = rows.iter().map(|r| r.rejections).sum();
    let sum =
        |f: fn(&experiment::overload::OverloadRow) -> usize| rows.iter().map(f).sum::<usize>();
    let footer = vec![format!(
        "{rejections} admission rejections across {} fleets; shed ladder: {} hedge-drops, \
         {} forced strict, {} shed to journal",
        rows.len(),
        sum(|r| r.hedge_dropped),
        sum(|r| r.forced_strict),
        sum(|r| r.shed),
    )];
    t.finish(footer)
}

fn chaos(suite: &Suite) -> Table {
    let rows = experiment::chaos::chaos_sweep(suite);
    let title = "Chaos sweep: composed cross-layer fault scenarios (non-strict par(4), SCG), \
                 invariant-checked per row";
    let mut t = Builder::new(title, Some("chaos.csv"), &rows);
    program(&mut t, |r| &r.name);
    t.col("link", "{}", |r| r.link.name)
        .text("link", " {:>6}", " {:>6}")
        .col("scenario", "{}", |r| r.scenario.clone())
        .text("scenario", " {:40}", " {:40}")
        .col("clients", "{}", |r| r.clients)
        .text("clients", " {:>7}", " {:>7}")
        .col("normalized_pct", "{:.1}", |r| r.normalized)
        .text("norm%", " {:>7}", " {:>7.1}")
        .col("violations", "{}", |r| r.violations)
        .text("viol", " {:>4}", " {:>4}")
        .col("outages", "{}", |r| r.result.outage.outages)
        .text("outages", " {:>7}", " {:>7}")
        .col("resumes", "{}", |r| r.result.outage.resumes)
        .text("resumes", " {:>7}", " {:>7}")
        .col("degraded_classes", "{}", |r| r.result.degraded_classes)
        .text("degraded", " {:>8}", " {:>8}");
    flag(&mut t, "completed", "complete", " {:>9}", |r| {
        r.result.completed
    });
    ledger(&mut t, |r| (r.result.total_cycles, r.result.ledger));
    let violations: u64 = rows.iter().map(|r| u64::from(r.violations)).sum();
    let crashes = rows
        .iter()
        .filter(|r| r.scenario.ends_with("+crash"))
        .count();
    let footer = vec![format!(
        "{violations} invariant violations across {} composed runs ({crashes} crash-and-resume \
         cells)",
        rows.len()
    )];
    t.finish(footer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Session;

    fn hanoi() -> Suite {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        Suite {
            sessions: vec![session],
        }
    }

    fn text(name: &str, suite: &Suite) -> String {
        paper_text(&lookup(name).expect("a result name")(suite))
    }

    #[test]
    fn single_app_report_renders() {
        let suite = hanoi();
        let t3 = text("table3", &suite);
        assert!(t3.contains("Hanoi") && t3.contains("Table 3"), "{t3}");
        assert!(text("table4", &suite).contains("Latency"));
    }

    #[test]
    fn every_renderer_produces_labelled_output() {
        let suite = hanoi();
        for (name, labels) in [
            ("table2", &["Hanoi", "DynTest"][..]),
            ("table5", &["Parallel File Transfer", "AVG"]),
            ("table7", &["Table 7", "Mo Train"]),
            ("table8", &["CPool", "Utf8"]),
            ("table9", &["%InMethods"]),
            (
                "fig6",
                &["Interleaved File Transfer", "IFT + Data Partitioned"],
            ),
        ] {
            let out = text(name, &suite);
            for label in labels {
                assert!(out.contains(label), "{name} lacks {label}: {out}");
            }
        }
    }

    #[test]
    fn fault_sweep_renders_degradation_report() {
        let text = text("faults", &hanoi());
        assert!(text.contains("Fault sweep"), "{text}");
        assert!(text.contains("completion rate 100.0%"), "{text}");
        assert!(text.contains("retries total"), "{text}");
        assert!(text.contains("units quarantined"), "{text}");
        assert!(text.contains("forced past the retry cap"), "{text}");
    }

    #[test]
    fn replica_sweep_renders_the_mirror_health_table() {
        let text = text("replicas", &hanoi());
        assert!(text.contains("Replica sweep"), "{text}");
        assert!(text.contains("mirror health %"), "{text}");
        assert!(text.contains("worst mirror health"), "{text}");
        // The three-mirror rows list three slash-separated health scores.
        assert!(text.lines().any(|l| l.matches('/').count() == 2), "{text}");
    }

    #[test]
    fn overload_sweep_renders_the_shed_ladder_summary() {
        let text = text("overload", &hanoi());
        assert!(text.contains("Overload sweep"), "{text}");
        assert!(text.contains("queue%"), "{text}");
        assert!(text.contains("shed ladder:"), "{text}");
        assert!(text.contains("forced strict"), "{text}");
        assert!(text.contains("shed to journal"), "{text}");
    }

    #[test]
    fn outage_sweep_renders_resume_report() {
        let suite = hanoi();
        let runs = crate::experiment::outage::outage_sweep(&suite).len();
        let text = text("outage", &suite);
        assert!(text.contains("Outage sweep"), "{text}");
        let pure = format!("{runs} of {runs} runs were pure inserted downtime");
        assert!(text.contains(&pure), "{text}");
    }

    #[test]
    fn verify_sweep_renders_overhead_report() {
        let text = text("verify", &hanoi());
        assert!(text.contains("Verification sweep"), "{text}");
        assert!(text.contains("stream"), "{text}");
        assert!(text.contains("full"), "{text}");
    }

    #[test]
    fn parallel_renderer_pairs_measured_with_paper_cells() {
        let text = text("table5", &hanoi());
        // Hanoi's paper row for T1 SCG limit-1 is 100; the measured|paper
        // pair must surface it.
        let hanoi_line = text.lines().find(|l| l.starts_with("Hanoi")).unwrap();
        assert!(hanoi_line.contains("|100"), "{hanoi_line}");
    }
}
