//! Paper-style text rendering of every experiment, with the published
//! numbers alongside for direct comparison.

use std::fmt::Write as _;

use crate::experiment::{
    self, paper, InterleavedTable, ParallelTable, Suite, Table3Row, Table4Row, Table8Row, Table9Row,
};
use crate::model::DataLayout;

/// Paper row index for a benchmark name (render functions accept
/// partial suites; unknown names fall back to row 0).
fn pidx(name: &str) -> usize {
    paper::NAMES
        .iter()
        .position(|n| n.eq_ignore_ascii_case(name))
        .unwrap_or(0)
}

/// Renders Table 2 (program statistics) with paper values.
#[must_use]
pub fn render_table2(suite: &Suite) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: General Statistics (measured | paper)");
    let _ = writeln!(
        out,
        "{:8} {:>5} {:>9} {:>12} {:>12} {:>9} {:>7} {:>7} {:>6}",
        "Program",
        "Files",
        "Size KB",
        "DynTest K",
        "DynTrain K",
        "StaticK",
        "%Exec",
        "Methods",
        "I/M"
    );
    for (row, p) in experiment::table2(suite).iter().zip(
        paper::NAMES
            .iter()
            .map(|n| nonstrict_workloads::stats::paper_row(n).expect("paper row")),
    ) {
        let _ = writeln!(
            out,
            "{:8} {:>5} {:>4.0}|{:<4.0} {:>5.0}|{:<6.0} {:>5.0}|{:<6.0} {:>4.1}|{:<4.1} {:>3.0}|{:<3.0} {:>7} {:>3.0}|{:<3.0}",
            row.name,
            row.total_files,
            row.size_kb,
            p.size_kb,
            row.dyn_test_k,
            p.dyn_test_k,
            row.dyn_train_k,
            p.dyn_train_k,
            row.static_k,
            p.static_k,
            row.executed_pct,
            p.executed_pct,
            row.total_methods,
            row.instrs_per_method,
            p.instrs_per_method,
        );
    }
    out
}

/// Renders Table 3 (base case) with paper values.
#[must_use]
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: Base Case (measured | paper)");
    let _ = writeln!(
        out,
        "{:8} {:>6} {:>10} {:>16} {:>14} {:>18} {:>14}",
        "Program", "CPI", "Exec Mcyc", "T1 Xfer Mcyc", "T1 %Xfer", "Modem Xfer Mcyc", "Modem %Xfer"
    );
    for r in rows {
        let (_cpi, exec, t1x, t1p, mox, mop) = paper::TABLE3[pidx(&r.name)];
        let _ = writeln!(
            out,
            "{:8} {:>6} {:>5.0}|{:<5} {:>7.0}|{:<6} {:>6.1}|{:<5.1} {:>8.0}|{:<7} {:>6.1}|{:<5.1}",
            r.name,
            r.cpi,
            r.exec_mcycles,
            exec,
            r.t1.transfer_mcycles,
            t1x,
            r.t1.pct_transfer,
            t1p,
            r.modem.transfer_mcycles,
            mox,
            r.modem.pct_transfer,
            mop,
        );
    }
    out
}

/// Renders Table 4 (invocation latency) with paper values.
#[must_use]
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: Invocation Latency, Mcycles (measured | paper)"
    );
    let _ = writeln!(
        out,
        "{:8} {:>14} {:>16} {:>16}   {:>14} {:>16} {:>16}",
        "Program",
        "T1 Strict",
        "T1 NonStrict",
        "T1 DataPart",
        "Mo Strict",
        "Mo NonStrict",
        "Mo DataPart"
    );
    for r in rows {
        let p = paper::TABLE4[pidx(&r.name)];
        let _ = writeln!(
            out,
            "{:8} {:>6.0}|{:<5.0} {:>6.0}({:>3.0}%)|{:<4.0} {:>6.0}({:>3.0}%)|{:<4.0}  {:>6.0}|{:<5.0} {:>6.0}({:>3.0}%)|{:<4.0} {:>6.0}({:>3.0}%)|{:<4.0}",
            r.name,
            r.t1.strict,
            p.0,
            r.t1.non_strict,
            r.t1.non_strict_reduction,
            p.1,
            r.t1.partitioned,
            r.t1.partitioned_reduction,
            p.2,
            r.modem.strict,
            p.3,
            r.modem.non_strict,
            r.modem.non_strict_reduction,
            p.4,
            r.modem.partitioned,
            r.modem.partitioned_reduction,
            p.5,
        );
    }
    out
}

/// Renders a parallel-transfer table (Table 5 or 6) with paper values.
#[must_use]
pub fn render_parallel(table: &ParallelTable) -> String {
    let paper_rows: Option<&[[paper::ParallelRow; 3]; 6]> =
        if table.data_layout == DataLayout::Whole {
            if table.link == nonstrict_netsim::Link::T1 {
                Some(&paper::TABLE5_T1)
            } else {
                Some(&paper::TABLE6_MODEM)
            }
        } else {
            None
        };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table {}: Parallel File Transfer, {} link — normalized % (measured | paper)",
        if table.link == nonstrict_netsim::Link::T1 {
            "5"
        } else {
            "6"
        },
        table.link.name
    );
    let _ = writeln!(
        out,
        "{:8} | {:^31} | {:^31} | {:^31}",
        "Program", "SCG  1 / 2 / 4 / inf", "Train  1 / 2 / 4 / inf", "Test  1 / 2 / 4 / inf"
    );
    for row in &table.rows {
        let i = pidx(&row.name);
        let _ = write!(out, "{:8} |", row.name);
        for o in 0..3 {
            for l in 0..4 {
                match paper_rows {
                    Some(p) => {
                        let _ = write!(out, " {:>3.0}|{:<3.0}", row.cells[o][l], p[i][o][l]);
                    }
                    None => {
                        let _ = write!(out, " {:>5.1}", row.cells[o][l]);
                    }
                }
            }
            let _ = write!(out, " |");
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:8} |", "AVG");
    let paper_avg = if table.link == nonstrict_netsim::Link::T1 {
        &paper::TABLE5_T1_AVG
    } else {
        &paper::TABLE6_MODEM_AVG
    };
    for (o, row_avg) in table.avg.iter().enumerate() {
        for (l, cell) in row_avg.iter().enumerate() {
            if table.data_layout == DataLayout::Whole {
                let _ = write!(out, " {:>3.0}|{:<3.0}", cell, paper_avg[o][l]);
            } else {
                let _ = write!(out, " {:>5.1}", cell);
            }
        }
        let _ = write!(out, " |");
    }
    let _ = writeln!(out);
    out
}

/// Renders an interleaved table (Table 7, or a Table 10 half).
#[must_use]
pub fn render_interleaved(
    table: &InterleavedTable,
    title: &str,
    paper_rows: Option<&[[f64; 6]]>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title} — normalized % (measured | paper)");
    let _ = writeln!(
        out,
        "{:8} {:>10} {:>10} {:>10}   {:>10} {:>10} {:>10}",
        "Program", "T1 SCG", "T1 Train", "T1 Test", "Mo SCG", "Mo Train", "Mo Test"
    );
    for row in &table.rows {
        let i = pidx(&row.name);
        let _ = write!(out, "{:8}", row.name);
        for c in 0..6 {
            match paper_rows {
                Some(p) => {
                    let _ = write!(out, " {:>4.0}|{:<4.0}", row.cols[c], p[i][c]);
                }
                None => {
                    let _ = write!(out, " {:>9.1}", row.cols[c]);
                }
            }
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:8}", "AVG");
    for c in 0..6 {
        let _ = write!(out, " {:>9.1}", table.avg[c]);
    }
    let _ = writeln!(out);
    out
}

/// Renders Table 8 with paper values.
#[must_use]
pub fn render_table8(rows: &[Table8Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 8: Global Data / Constant Pool breakdown, % (measured | paper)"
    );
    let _ = writeln!(
        out,
        "{:8} {:>11} {:>10} {:>10} {:>10}  | {:>11} {:>10} {:>10} {:>10} {:>10}",
        "Program", "CPool", "Field", "Attrib", "Intfc", "Utf8", "Ints", "String", "MRef", "FRef"
    );
    for r in rows {
        let pg = paper::TABLE8_GLOBAL[pidx(&r.name)];
        let pp = paper::TABLE8_POOL[pidx(&r.name)];
        let _ = writeln!(
            out,
            "{:8} {:>5.1}|{:<5.1} {:>4.1}|{:<4.1} {:>4.1}|{:<4.1} {:>4.1}|{:<4.1}  | {:>5.1}|{:<5.1} {:>4.1}|{:<4.1} {:>4.1}|{:<4.1} {:>4.1}|{:<4.1} {:>4.1}|{:<4.1}",
            r.name,
            r.global[0], pg[0], r.global[1], pg[1], r.global[2], pg[2], r.global[3], pg[3],
            r.pool[0], pp[0], r.pool[1], pp[1], r.pool[5], pp[5], r.pool[8], pp[8], r.pool[7], pp[7],
        );
    }
    out
}

/// Renders Table 9 with paper values.
#[must_use]
pub fn render_table9(rows: &[Table9Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 9: Data breakdown (measured | paper)");
    let _ = writeln!(
        out,
        "{:8} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "Program", "Local KB", "Global KB", "%First", "%InMethods", "%Unused"
    );
    for r in rows {
        let p = paper::TABLE9[pidx(&r.name)];
        let s = &r.summary;
        let _ =
            writeln!(
            out,
            "{:8} {:>6.1}|{:<6.1} {:>6.1}|{:<6.1} {:>5.1}|{:<5.0} {:>6.1}|{:<5.0} {:>5.1}|{:<5.0}",
            r.name, s.local_kb, p.0, s.global_kb, p.1, s.pct_needed_first, p.2,
            s.pct_in_methods, p.3, s.pct_unused, p.4,
        );
    }
    out
}

/// Renders the Figure 6 summary with paper values.
#[must_use]
pub fn render_fig6(series: &[[f64; 6]; 4]) -> String {
    let names = [
        "Parallel File Transfer",
        "PFT + Data Partitioned",
        "Interleaved File Transfer",
        "IFT + Data Partitioned",
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6: Average normalized execution time, % (measured | paper)"
    );
    let _ = writeln!(
        out,
        "{:26} {:>9} {:>9} {:>9}   {:>9} {:>9} {:>9}",
        "Series", "T1 SCG", "T1 Train", "T1 Test", "Mo SCG", "Mo Train", "Mo Test"
    );
    for (i, s) in series.iter().enumerate() {
        let _ = write!(out, "{:26}", names[i]);
        for (c, v) in s.iter().enumerate() {
            let _ = write!(out, " {:>4.0}|{:<4.0}", v, paper::FIG6[i][c]);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the fault sweep: the robustness extension's degradation
/// report. Not part of [`render_all`], which reproduces only the
/// paper's perfect-link tables.
#[must_use]
pub fn render_fault_sweep(rows: &[crate::experiment::faults::FaultRow]) -> String {
    use crate::metrics::completion_rate_percent;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fault sweep: resilient transfer under seeded link faults (non-strict par(4))"
    );
    let _ = writeln!(
        out,
        "{:8} {:>6} {:>6} {:>9} {:>7} {:>9} {:>8} {:>6} {:>8} {:>9}",
        "Program",
        "link",
        "order",
        "loss ppm",
        "norm%",
        "recov%",
        "retries",
        "drops",
        "degraded",
        "completed"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:8} {:>6} {:>6} {:>9} {:>7.1} {:>9.2} {:>8} {:>6} {:>6}{:>2} {:>9}",
            r.name,
            r.link.name,
            r.ordering.label(),
            r.loss_pm,
            r.normalized,
            r.recovery_share,
            r.result.faults.retries,
            r.result.faults.drops,
            r.result.degraded_classes,
            if r.result.session_degraded { "S" } else { "" },
            if r.result.completed { "yes" } else { "NO" },
        );
    }
    let completed = rows.iter().filter(|r| r.result.completed).count();
    let fallbacks: u64 = rows
        .iter()
        .map(|r| u64::from(r.result.degraded_classes))
        .sum();
    let retries: u64 = rows.iter().map(|r| r.result.faults.retries).sum();
    let quarantined: u64 = rows.iter().map(|r| r.result.faults.quarantined).sum();
    let forced: u64 = rows.iter().map(|r| r.result.faults.forced).sum();
    let _ = writeln!(
        out,
        "completion rate {:.1}% ({} of {} runs), {} retries total, {} class fallbacks to strict",
        completion_rate_percent(completed, rows.len()),
        completed,
        rows.len(),
        retries,
        fallbacks,
    );
    let _ = writeln!(
        out,
        "degradation: {quarantined:>6} units quarantined, {forced:>6} forced past the retry cap",
    );
    out
}

/// Renders the overload sweep: fleet size × link mix × admission rate
/// under fair-share scheduling and the load-shed ladder. Not part of
/// [`render_all`], which reproduces only the paper's one-client
/// tables.
#[must_use]
pub fn render_overload_sweep(rows: &[crate::experiment::overload::OverloadRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Overload sweep: fair-share scheduling, admission control, and load shedding (shared T1 egress)"
    );
    let _ = writeln!(
        out,
        "{:>7} {:>6} {:>6} {:>7} {:>7} {:>7} {:>7} {:>5} {:>12} {:>12} {:>12} {:>7}",
        "clients",
        "mix",
        "admit",
        "reject",
        "served",
        "nohedge",
        "strict",
        "shed",
        "p50 cyc",
        "p95 cyc",
        "p99 cyc",
        "queue%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>7} {:>6} {:>6} {:>7} {:>7} {:>7} {:>7} {:>5} {:>12} {:>12} {:>12} {:>7.2}",
            r.clients,
            r.mix,
            r.admit_rate,
            r.rejections,
            r.served,
            r.hedge_dropped,
            r.forced_strict,
            r.shed,
            r.p50_total,
            r.p95_total,
            r.p99_total,
            r.queue_share,
        );
    }
    let rejections: u64 = rows.iter().map(|r| r.rejections).sum();
    let dropped: usize = rows.iter().map(|r| r.hedge_dropped).sum();
    let forced: usize = rows.iter().map(|r| r.forced_strict).sum();
    let shed: usize = rows.iter().map(|r| r.shed).sum();
    let _ = writeln!(
        out,
        "{} admission rejections across {} fleets; shed ladder: {} hedge-drops, {} forced strict, {} shed to journal",
        rejections,
        rows.len(),
        dropped,
        forced,
        shed,
    );
    out
}

/// Renders the replica sweep: health-scored mirror routing with hedged
/// demand fetches, including the per-mirror end-of-run health table.
/// Not part of [`render_all`], which reproduces only the paper's
/// single-origin tables.
#[must_use]
pub fn render_replica_sweep(rows: &[crate::experiment::replica::ReplicaRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Replica sweep: health-scored mirrors with hedged demand fetches (non-strict par(4), SCG)"
    );
    let _ = writeln!(
        out,
        "{:8} {:>6} {:>7} {:>9} {:>7} {:>7} {:>7} {:>5} {:>9}  {:<20}",
        "Program",
        "link",
        "mirrors",
        "loss ppm",
        "norm%",
        "hedge%",
        "hedges",
        "won",
        "failovers",
        "mirror health %"
    );
    for r in rows {
        let health: Vec<String> = r
            .health_ppm()
            .iter()
            .map(|&h| format!("{:.1}", f64::from(h) / 10_000.0))
            .collect();
        let _ = writeln!(
            out,
            "{:8} {:>6} {:>7} {:>9} {:>7.1} {:>7.2} {:>7} {:>5} {:>9}  {:<20}",
            r.name,
            r.link.name,
            r.replicas,
            r.loss_pm,
            r.normalized,
            r.hedge_share,
            r.result.replica.hedges,
            r.result.replica.hedge_wins,
            r.result.replica.failovers,
            health.join("/"),
        );
    }
    let hedges: u64 = rows.iter().map(|r| r.result.replica.hedges).sum();
    let wins: u64 = rows.iter().map(|r| r.result.replica.hedge_wins).sum();
    let failovers: u64 = rows.iter().map(|r| r.result.replica.failovers).sum();
    // Single-origin cells carry no scores; they must not read as a
    // zero-health mirror.
    let worst = rows
        .iter()
        .filter(|r| r.result.replica.replicas > 0)
        .map(|r| r.min_health_ppm)
        .min()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "{} hedged fetches ({} won) and {} failovers across {} runs; worst mirror health {:.1}%",
        hedges,
        wins,
        failovers,
        rows.len(),
        f64::from(worst) / 10_000.0,
    );
    out
}

/// Renders the byzantine sweep: manifest digest checks, cross-mirror
/// audits, and quarantine-plus-refetch against dishonest mirrors. Not
/// part of [`render_all`], which reproduces only the paper's
/// trusted-network tables.
#[must_use]
pub fn render_byzantine_sweep(rows: &[crate::experiment::byzantine::ByzantineRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Byzantine sweep: content-addressed manifests vs dishonest mirrors (non-strict par(4), SCG, honest primary killed early)"
    );
    let _ = writeln!(
        out,
        "{:8} {:>6} {:>7} {:>4} {:>11} {:>9} {:>7} {:>7} {:>8} {:>6} {:>7} {:>5} {:>6} {:>7}",
        "Program",
        "link",
        "mirrors",
        "byz",
        "mode",
        "audit ppm",
        "norm%",
        "integ%",
        "diverge",
        "undet",
        "audits",
        "quar",
        "fence",
        "refetch"
    );
    for r in rows {
        let ist = &r.result.integrity;
        let _ = writeln!(
            out,
            "{:8} {:>6} {:>7} {:>4} {:>11} {:>9} {:>7.1} {:>7.2} {:>8} {:>6} {:>7} {:>5} {:>6} {:>7}",
            r.name,
            r.link.name,
            r.replicas,
            r.byzantine,
            r.mode.label(),
            r.audit_rate_pm,
            r.normalized,
            r.integrity_share,
            ist.divergent_units,
            ist.undetected_units,
            ist.audits,
            ist.quarantines,
            ist.fence_refetches,
            ist.refetched_bytes
        );
    }
    let divergent: u64 = rows
        .iter()
        .map(|r| r.result.integrity.divergent_units)
        .sum();
    let undetected: u64 = rows
        .iter()
        .map(|r| r.result.integrity.undetected_units)
        .sum();
    let quarantines: u32 = rows.iter().map(|r| r.result.integrity.quarantines).sum();
    let _ = writeln!(
        out,
        "{} divergent units across {} runs; {} linked undetected (collusion windows), {} mirrors quarantined",
        divergent,
        rows.len(),
        undetected,
        quarantines,
    );
    out
}

/// Renders the outage sweep: durable session checkpoint/resume under
/// seeded full-connection losses. Not part of [`render_all`], which
/// reproduces only the paper's outage-free tables.
#[must_use]
pub fn render_outage_sweep(rows: &[crate::experiment::outage::OutageRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Outage sweep: session checkpoint/resume under connection loss (non-strict par(4), SCG)"
    );
    let _ = writeln!(
        out,
        "{:8} {:>6} {:>9} {:>12} {:>7} {:>8} {:>8} {:>8} {:>9}",
        "Program",
        "link",
        "rate ppm",
        "outage cyc",
        "norm%",
        "resume%",
        "outages",
        "resumes",
        "pure-down"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:8} {:>6} {:>9} {:>12} {:>7.1} {:>8.2} {:>8} {:>8} {:>9}",
            r.name,
            r.link.name,
            r.rate_pm,
            r.outage_cycles,
            r.normalized,
            r.resume_share,
            r.result.outage.outages,
            r.result.outage.resumes,
            if r.pure_downtime { "yes" } else { "NO" },
        );
    }
    let outages: u64 = rows
        .iter()
        .map(|r| u64::from(r.result.outage.outages))
        .sum();
    let pure = rows.iter().filter(|r| r.pure_downtime).count();
    let _ = writeln!(
        out,
        "{} outages survived across {} runs; {} of {} runs were pure inserted downtime",
        outages,
        rows.len(),
        pure,
        rows.len(),
    );
    out
}

/// Renders the verification sweep: what the verified-prefix gate costs
/// under each [`crate::model::VerifyMode`]. Not part of [`render_all`],
/// which reproduces only the paper's verification-free tables.
#[must_use]
pub fn render_verify_sweep(rows: &[crate::experiment::verify::VerifyRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Verification sweep: verified-prefix streaming (non-strict par(4), SCG)"
    );
    let _ = writeln!(
        out,
        "{:8} {:>6} {:>7} {:>7} {:>13} {:>8} {:>13}",
        "Program", "link", "mode", "norm%", "verify cyc", "verify%", "invoke lat"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:8} {:>6} {:>7} {:>7.1} {:>13} {:>8.2} {:>13}",
            r.name,
            r.link.name,
            r.mode.label(),
            r.normalized,
            r.result.ledger.verify,
            r.verify_share,
            r.result.invocation_latency,
        );
    }
    out
}

/// Renders the chaos sweep: composed cross-layer scenarios under the
/// conductor's global invariant checker. Not part of [`render_all`],
/// which reproduces only the paper's fault-free tables.
#[must_use]
pub fn render_chaos_sweep(rows: &[crate::experiment::chaos::ChaosRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Chaos sweep: composed cross-layer fault scenarios (non-strict par(4), SCG), \
         invariant-checked per row"
    );
    let _ = writeln!(
        out,
        "{:8} {:>6} {:40} {:>7} {:>7} {:>4} {:>7} {:>7} {:>8} {:>9}",
        "Program",
        "link",
        "scenario",
        "clients",
        "norm%",
        "viol",
        "outages",
        "resumes",
        "degraded",
        "complete"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:8} {:>6} {:40} {:>7} {:>7.1} {:>4} {:>7} {:>7} {:>8} {:>9}",
            r.name,
            r.link.name,
            r.scenario,
            r.clients,
            r.normalized,
            r.violations,
            r.result.outage.outages,
            r.result.outage.resumes,
            r.result.degraded_classes,
            if r.result.completed { "yes" } else { "NO" },
        );
    }
    let violations: u64 = rows.iter().map(|r| u64::from(r.violations)).sum();
    let crashes = rows
        .iter()
        .filter(|r| r.scenario.ends_with("+crash"))
        .count();
    let _ = writeln!(
        out,
        "{} invariant violations across {} composed runs ({} crash-and-resume cells)",
        violations,
        rows.len(),
        crashes,
    );
    out
}

/// Renders every table and the figure in paper order.
#[must_use]
pub fn render_all(suite: &Suite) -> String {
    let mut out = String::new();
    out.push_str(&render_table2(suite));
    out.push('\n');
    out.push_str(&render_table3(&experiment::table3(suite)));
    out.push('\n');
    out.push_str(&render_table4(&experiment::table4(suite)));
    out.push('\n');
    out.push_str(&render_parallel(&experiment::parallel_table(
        suite,
        nonstrict_netsim::Link::T1,
        DataLayout::Whole,
    )));
    out.push('\n');
    out.push_str(&render_parallel(&experiment::parallel_table(
        suite,
        nonstrict_netsim::Link::MODEM_28_8,
        DataLayout::Whole,
    )));
    out.push('\n');
    let t7 = experiment::interleaved_table(suite, DataLayout::Whole);
    let t7_paper: Vec<[f64; 6]> = paper::TABLE7
        .iter()
        .map(|r| [r.0, r.1, r.2, r.3, r.4, r.5])
        .collect();
    out.push_str(&render_interleaved(
        &t7,
        "Table 7: Interleaved File Transfer",
        Some(&t7_paper),
    ));
    out.push('\n');
    out.push_str(&render_table8(&experiment::table8(suite)));
    out.push('\n');
    out.push_str(&render_table9(&experiment::table9(suite)));
    out.push('\n');
    let (t10p, t10i) = experiment::table10(suite);
    let t10p_paper: Vec<[f64; 6]> = paper::TABLE10.iter().map(|r| r.0).collect();
    let t10i_paper: Vec<[f64; 6]> = paper::TABLE10.iter().map(|r| r.1).collect();
    out.push_str(&render_interleaved(
        &t10p,
        "Table 10a: Parallel(4) + Data Partitioning",
        Some(&t10p_paper),
    ));
    out.push('\n');
    out.push_str(&render_interleaved(
        &t10i,
        "Table 10b: Interleaved + Data Partitioning",
        Some(&t10i_paper),
    ));
    out.push('\n');
    out.push_str(&render_fig6(&experiment::fig6(suite)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Session;

    #[test]
    fn single_app_report_renders() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let t3 = experiment::table3(&suite);
        let text = render_table3(&t3);
        assert!(text.contains("Hanoi"));
        assert!(text.contains("Table 3"));
        let t4 = experiment::table4(&suite);
        assert!(render_table4(&t4).contains("Latency"));
    }

    #[test]
    fn every_renderer_produces_labelled_output() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };

        let t2 = render_table2(&suite);
        assert!(t2.contains("Hanoi") && t2.contains("DynTest"));

        let p = experiment::parallel_table(&suite, nonstrict_netsim::Link::T1, DataLayout::Whole);
        let t5 = render_parallel(&p);
        assert!(t5.contains("Parallel File Transfer") && t5.contains("AVG"));

        let i = experiment::interleaved_table(&suite, DataLayout::Whole);
        let t7 = render_interleaved(&i, "Table 7: test", None);
        assert!(t7.contains("Table 7") && t7.contains("Mo Train"));

        let t8 = render_table8(&experiment::table8(&suite));
        assert!(t8.contains("CPool") && t8.contains("Utf8"));

        let t9 = render_table9(&experiment::table9(&suite));
        assert!(t9.contains("%InMethods"));

        let f6 = render_fig6(&experiment::fig6(&suite));
        assert!(f6.contains("Interleaved File Transfer"));
        assert!(f6.contains("IFT + Data Partitioned"));
    }

    #[test]
    fn fault_sweep_renders_degradation_report() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let rows = crate::experiment::faults::fault_sweep(&suite);
        let text = render_fault_sweep(&rows);
        assert!(text.contains("Fault sweep"), "{text}");
        assert!(text.contains("completion rate 100.0%"), "{text}");
        assert!(text.contains("retries total"), "{text}");
        assert!(text.contains("units quarantined"), "{text}");
        assert!(text.contains("forced past the retry cap"), "{text}");
    }

    #[test]
    fn replica_sweep_renders_the_mirror_health_table() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let rows = crate::experiment::replica::replica_sweep(&suite);
        let text = render_replica_sweep(&rows);
        assert!(text.contains("Replica sweep"), "{text}");
        assert!(text.contains("mirror health %"), "{text}");
        assert!(text.contains("worst mirror health"), "{text}");
        // The three-mirror rows list three slash-separated health scores.
        assert!(text.lines().any(|l| l.matches('/').count() == 2), "{text}");
    }

    #[test]
    fn overload_sweep_renders_the_shed_ladder_summary() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let rows = crate::experiment::overload::overload_sweep(&suite);
        let text = render_overload_sweep(&rows);
        assert!(text.contains("Overload sweep"), "{text}");
        assert!(text.contains("queue%"), "{text}");
        assert!(text.contains("shed ladder:"), "{text}");
        assert!(text.contains("forced strict"), "{text}");
        assert!(text.contains("shed to journal"), "{text}");
    }

    #[test]
    fn outage_sweep_renders_resume_report() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let rows = crate::experiment::outage::outage_sweep(&suite);
        let text = render_outage_sweep(&rows);
        assert!(text.contains("Outage sweep"), "{text}");
        assert!(
            text.contains(&format!(
                "{} of {} runs were pure inserted downtime",
                rows.len(),
                rows.len()
            )),
            "{text}"
        );
    }

    #[test]
    fn verify_sweep_renders_overhead_report() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let rows = crate::experiment::verify::verify_sweep(&suite);
        let text = render_verify_sweep(&rows);
        assert!(text.contains("Verification sweep"), "{text}");
        assert!(text.contains("stream"), "{text}");
        assert!(text.contains("full"), "{text}");
    }

    #[test]
    fn parallel_renderer_pairs_measured_with_paper_cells() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let p = experiment::parallel_table(&suite, nonstrict_netsim::Link::T1, DataLayout::Whole);
        let text = render_parallel(&p);
        // Hanoi's paper row for T1 SCG limit-1 is 100; the measured|paper
        // pair must surface it.
        let hanoi_line = text.lines().find(|l| l.starts_with("Hanoi")).unwrap();
        assert!(hanoi_line.contains("|100"), "{hanoi_line}");
    }

    #[test]
    fn partitioned_parallel_renders_without_paper_columns() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let p =
            experiment::parallel_table(&suite, nonstrict_netsim::Link::T1, DataLayout::Partitioned);
        let text = render_parallel(&p);
        let hanoi_line = text.lines().find(|l| l.starts_with("Hanoi")).unwrap();
        assert!(!hanoi_line.contains('|'.to_string().repeat(2).as_str()));
    }
}
