//! Machine-readable export of every experiment: one CSV per table plus
//! the Figure 6 series, with measured and published values side by side.
//!
//! `nonstrict paper csv [dir]` drives this; downstream
//! plotting or regression tooling can diff the files across runs.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use nonstrict_netsim::Link;

use crate::experiment::{self, paper, Suite};
use crate::model::DataLayout;
use crate::sim::SimResult;

/// Writes every table and figure as CSV into `dir` (created if needed).
///
/// Returns the paths written, in table order.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_csv(suite: &Suite, dir: &Path) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut emit = |name: &str, content: String| -> io::Result<()> {
        let path = dir.join(name);
        let mut f = fs::File::create(&path)?;
        f.write_all(content.as_bytes())?;
        written.push(path);
        Ok(())
    };

    // Table 2
    let mut t2 = String::from(
        "program,files,size_kb,dyn_test_k,dyn_train_k,static_k,executed_pct,methods,instrs_per_method\n",
    );
    for r in experiment::table2(suite) {
        t2.push_str(&format!(
            "{},{},{:.1},{:.0},{:.0},{:.1},{:.1},{},{:.1}\n",
            r.name,
            r.total_files,
            r.size_kb,
            r.dyn_test_k,
            r.dyn_train_k,
            r.static_k,
            r.executed_pct,
            r.total_methods,
            r.instrs_per_method
        ));
    }
    emit("table2.csv", t2)?;

    // Table 3
    let mut t3 = String::from(
        "program,cpi,exec_mcycles,t1_transfer_mcycles,t1_pct_transfer,modem_transfer_mcycles,modem_pct_transfer\n",
    );
    for r in experiment::table3(suite) {
        t3.push_str(&format!(
            "{},{},{:.1},{:.1},{:.1},{:.1},{:.1}\n",
            r.name,
            r.cpi,
            r.exec_mcycles,
            r.t1.transfer_mcycles,
            r.t1.pct_transfer,
            r.modem.transfer_mcycles,
            r.modem.pct_transfer
        ));
    }
    emit("table3.csv", t3)?;

    // Table 4
    let mut t4 = String::from(
        "program,link,strict_mcycles,non_strict_mcycles,non_strict_reduction_pct,partitioned_mcycles,partitioned_reduction_pct\n",
    );
    for r in experiment::table4(suite) {
        for (link, c) in [("t1", r.t1), ("modem", r.modem)] {
            t4.push_str(&format!(
                "{},{},{:.2},{:.2},{:.1},{:.2},{:.1}\n",
                r.name,
                link,
                c.strict,
                c.non_strict,
                c.non_strict_reduction,
                c.partitioned,
                c.partitioned_reduction
            ));
        }
    }
    emit("table4.csv", t4)?;

    // Tables 5/6
    for (name, link) in [("table5.csv", Link::T1), ("table6.csv", Link::MODEM_28_8)] {
        let t = experiment::parallel_table(suite, link, DataLayout::Whole);
        let mut out = String::from("program,ordering,limit,normalized_pct,paper_normalized_pct\n");
        let paper_rows = if link == Link::T1 {
            &paper::TABLE5_T1
        } else {
            &paper::TABLE6_MODEM
        };
        for row in &t.rows {
            let pi = paper::NAMES
                .iter()
                .position(|n| *n == row.name)
                .unwrap_or(0);
            for (o, ordering) in experiment::ORDERINGS.iter().enumerate() {
                for (l, limit) in ["1", "2", "4", "inf"].iter().enumerate() {
                    out.push_str(&format!(
                        "{},{},{},{:.1},{:.0}\n",
                        row.name,
                        ordering.label(),
                        limit,
                        row.cells[o][l],
                        paper_rows[pi][o][l]
                    ));
                }
            }
        }
        emit(name, out)?;
    }

    // Table 7 + Table 10 halves share a shape.
    let six_cols = |t: &experiment::InterleavedTable,
                    paper_rows: &dyn Fn(usize) -> [f64; 6]|
     -> String {
        let mut out = String::from("program,link,ordering,normalized_pct,paper_normalized_pct\n");
        for row in &t.rows {
            let pi = paper::NAMES
                .iter()
                .position(|n| *n == row.name)
                .unwrap_or(0);
            let p = paper_rows(pi);
            for (k, link) in ["t1", "modem"].iter().enumerate() {
                for (o, ordering) in experiment::ORDERINGS.iter().enumerate() {
                    out.push_str(&format!(
                        "{},{},{},{:.1},{:.0}\n",
                        row.name,
                        link,
                        ordering.label(),
                        row.cols[k * 3 + o],
                        p[k * 3 + o]
                    ));
                }
            }
        }
        out
    };
    let t7 = experiment::interleaved_table(suite, DataLayout::Whole);
    emit(
        "table7.csv",
        six_cols(&t7, &|i| {
            let r = paper::TABLE7[i];
            [r.0, r.1, r.2, r.3, r.4, r.5]
        }),
    )?;

    // Table 8
    let mut t8 = String::from(
        "program,cpool_pct,field_pct,attrib_pct,intfc_pct,utf8_pct,ints_pct,string_pct,mref_pct,fref_pct\n",
    );
    for r in experiment::table8(suite) {
        t8.push_str(&format!(
            "{},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1}\n",
            r.name,
            r.global[0],
            r.global[1],
            r.global[2],
            r.global[3],
            r.pool[0],
            r.pool[1],
            r.pool[5],
            r.pool[8],
            r.pool[7]
        ));
    }
    emit("table8.csv", t8)?;

    // Table 9
    let mut t9 =
        String::from("program,local_kb,global_kb,needed_first_pct,in_methods_pct,unused_pct\n");
    for r in experiment::table9(suite) {
        let s = r.summary;
        t9.push_str(&format!(
            "{},{:.1},{:.1},{:.1},{:.1},{:.1}\n",
            r.name, s.local_kb, s.global_kb, s.pct_needed_first, s.pct_in_methods, s.pct_unused
        ));
    }
    emit("table9.csv", t9)?;

    // Table 10
    let (t10p, t10i) = experiment::table10(suite);
    emit(
        "table10_parallel.csv",
        six_cols(&t10p, &|i| paper::TABLE10[i].0),
    )?;
    emit(
        "table10_interleaved.csv",
        six_cols(&t10i, &|i| paper::TABLE10[i].1),
    )?;

    // Figure 6
    let series_names = [
        "parallel",
        "parallel_partitioned",
        "interleaved",
        "interleaved_partitioned",
    ];
    let f6 = experiment::fig6(suite);
    let mut fig = String::from("series,link,ordering,normalized_pct,paper_normalized_pct\n");
    for (si, series) in f6.iter().enumerate() {
        for (k, link) in ["t1", "modem"].iter().enumerate() {
            for (o, ordering) in experiment::ORDERINGS.iter().enumerate() {
                fig.push_str(&format!(
                    "{},{},{},{:.1},{:.0}\n",
                    series_names[si],
                    link,
                    ordering.label(),
                    series[k * 3 + o],
                    paper::FIG6[si][k * 3 + o]
                ));
            }
        }
    }
    emit("fig6.csv", fig)?;

    // Every accounting bucket, appended to each robustness CSV in the
    // same order (the ledger is exact: the eight buckets sum to
    // total_cycles).
    let bucket_header = ",total_cycles,exec_cycles,stall_cycles,recovery_cycles,verify_cycles,resume_cycles,hedge_cycles,queue_cycles,integrity_cycles\n";
    let bucket_cols = |total: u64, l: &crate::metrics::CycleLedger| -> String {
        format!(
            ",{},{},{},{},{},{},{},{},{}\n",
            total, l.exec, l.stall, l.recovery, l.verify, l.resume, l.hedge, l.queue, l.integrity
        )
    };
    let result_cols = |r: &SimResult| bucket_cols(r.total_cycles, &r.ledger);

    // Fault sweep (robustness extension; no paper column — the original
    // evaluation assumes a perfect link).
    let mut fl = String::from(
        "program,link,ordering,loss_ppm,normalized_pct,recovery_share_pct,retries,drops,corrupted,degraded_classes,session_degraded,completed",
    );
    fl.push_str(bucket_header);
    for r in experiment::faults::fault_sweep(suite) {
        fl.push_str(&format!(
            "{},{},{},{},{:.1},{:.2},{},{},{},{},{},{}",
            r.name,
            r.link.name,
            r.ordering.label(),
            r.loss_pm,
            r.normalized,
            r.recovery_share,
            r.result.faults.retries,
            r.result.faults.drops,
            r.result.faults.corrupted,
            r.result.degraded_classes,
            r.result.session_degraded,
            r.result.completed
        ));
        fl.push_str(&result_cols(&r.result));
    }
    emit("faults.csv", fl)?;

    // Verification sweep (robustness extension; no paper column — the
    // original evaluation assumes verification is free).
    let mut vf = String::from(
        "program,link,verify_mode,normalized_pct,verify_cycles,verify_share_pct,invocation_latency,stall_cycles",
    );
    vf.push_str(bucket_header);
    for r in experiment::verify::verify_sweep(suite) {
        vf.push_str(&format!(
            "{},{},{},{:.1},{},{:.2},{},{}",
            r.name,
            r.link.name,
            r.mode.label(),
            r.normalized,
            r.result.ledger.verify,
            r.verify_share,
            r.result.invocation_latency,
            r.result.ledger.stall
        ));
        vf.push_str(&result_cols(&r.result));
    }
    emit("verify.csv", vf)?;

    // Outage sweep (robustness extension; no paper column — the original
    // evaluation assumes the connection survives the whole download).
    let mut og = String::from(
        "program,link,rate_ppm,outage_cycles,normalized_pct,resume_share_pct,outages,resumes,pure_downtime",
    );
    og.push_str(bucket_header);
    for r in experiment::outage::outage_sweep(suite) {
        og.push_str(&format!(
            "{},{},{},{},{:.1},{:.2},{},{},{}",
            r.name,
            r.link.name,
            r.rate_pm,
            r.outage_cycles,
            r.normalized,
            r.resume_share,
            r.result.outage.outages,
            r.result.outage.resumes,
            r.pure_downtime
        ));
        og.push_str(&result_cols(&r.result));
    }
    emit("outage.csv", og)?;

    // Replica sweep (robustness extension; no paper column — the
    // original evaluation assumes a single origin server).
    let mut rp = String::from(
        "program,link,replicas,loss_ppm,normalized_pct,hedge_share_pct,hedges,hedge_wins,failovers,min_health_ppm,completed",
    );
    rp.push_str(bucket_header);
    for r in experiment::replica::replica_sweep(suite) {
        rp.push_str(&format!(
            "{},{},{},{},{:.1},{:.2},{},{},{},{},{}",
            r.name,
            r.link.name,
            r.replicas,
            r.loss_pm,
            r.normalized,
            r.hedge_share,
            r.result.replica.hedges,
            r.result.replica.hedge_wins,
            r.result.replica.failovers,
            r.min_health_ppm,
            r.result.completed
        ));
        rp.push_str(&result_cols(&r.result));
    }
    emit("replica.csv", rp)?;

    // Byzantine sweep (robustness extension; no paper column — the
    // original evaluation assumes every mirror serves the published
    // bytes).
    let mut bz = String::from(
        "program,link,replicas,byzantine,mode,audit_rate_ppm,normalized_pct,integrity_share_pct,manifest_pins,digest_checks,divergent_units,undetected_units,audits,audit_mismatches,quarantines,fence_refetches,refetched_bytes,completed",
    );
    bz.push_str(bucket_header);
    for r in experiment::byzantine::byzantine_sweep(suite) {
        let ist = &r.result.integrity;
        bz.push_str(&format!(
            "{},{},{},{},{},{},{:.1},{:.2},{},{},{},{},{},{},{},{},{},{}",
            r.name,
            r.link.name,
            r.replicas,
            r.byzantine,
            r.mode.label(),
            r.audit_rate_pm,
            r.normalized,
            r.integrity_share,
            ist.manifest_pins,
            ist.digest_checks,
            ist.divergent_units,
            ist.undetected_units,
            ist.audits,
            ist.audit_mismatches,
            ist.quarantines,
            ist.fence_refetches,
            ist.refetched_bytes,
            r.result.completed
        ));
        bz.push_str(&result_cols(&r.result));
    }
    emit("byzantine.csv", bz)?;

    // Overload sweep (robustness extension; no paper column — the
    // original evaluation assumes one client per server).
    let mut ov = String::from(
        "clients,mix,admit_rate,rejections,served,hedge_dropped,forced_strict,shed,p50_total,p95_total,p99_total,queue_share_pct",
    );
    ov.push_str(bucket_header);
    for r in experiment::overload::overload_sweep(suite) {
        ov.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.2}",
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
            r.queue_share
        ));
        ov.push_str(&bucket_cols(r.total_cycles, &r.ledger));
    }
    emit("overload.csv", ov)?;

    // Chaos sweep (robustness extension; no paper column — composed
    // cross-layer scenarios under the conductor's invariant checker).
    let mut ch = String::from(
        "program,link,scenario,clients,normalized_pct,violations,outages,resumes,degraded_classes,completed",
    );
    ch.push_str(bucket_header);
    for r in experiment::chaos::chaos_sweep(suite) {
        ch.push_str(&format!(
            "{},{},{},{},{:.1},{},{},{},{},{}",
            r.name,
            r.link.name,
            r.scenario,
            r.clients,
            r.normalized,
            r.violations,
            r.result.outage.outages,
            r.result.outage.resumes,
            r.result.degraded_classes,
            r.result.completed
        ));
        ch.push_str(&result_cols(&r.result));
    }
    emit("chaos.csv", ch)?;

    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Session;

    #[test]
    fn export_writes_all_files_with_headers() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let dir = std::env::temp_dir().join(format!("nonstrict-export-{}", std::process::id()));
        let files = export_csv(&suite, &dir).unwrap();
        assert_eq!(files.len(), 18);
        for f in &files {
            let content = fs::read_to_string(f).unwrap();
            let mut lines = content.lines();
            let header = lines.next().unwrap();
            assert!(header.contains(','), "{f:?} header");
            assert!(lines.count() >= 1, "{f:?} must carry at least one row");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
