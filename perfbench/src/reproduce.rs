//! `reproduce`: build the six-program suite, then regenerate every
//! committed `results/*.csv` with `export_csv` and byte-compare it.
//! All simulator work happens here; no wire or store code runs.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use nonstrict_bytecode::Input;
use nonstrict_core::experiment::{self, Suite};
use nonstrict_core::export::export_csv;
use nonstrict_core::model::{DataLayout, OrderingSource, SimConfig, TransferPolicy};

use crate::trace::{self, span};
use crate::{setup, stats, Ctx, Phase};

pub fn measure(ctx: &Ctx, budget_s: f64) -> Result<Phase, String> {
    let traced = trace::enabled();
    let mut phase = Phase::default();
    let mut suite = None;
    while phase.more_setups() {
        let rep = phase.setup_s.len();
        drop(suite.take());
        let t = Instant::now();
        if traced {
            // Time the pipeline call by call; the suite the experiments
            // need is built once, untimed, after the loop.
            span("perfbench.setup", Some(rep as u64), || {
                let apps = span("workloads.build", None, nonstrict_workloads::build_all);
                apps.iter().try_for_each(setup::traced_pipeline)
            })?;
        } else {
            suite = Some(Suite::new().map_err(|e| e.to_string())?);
        }
        phase.setup_s.push(t.elapsed().as_secs_f64());
    }
    let suite = match suite {
        Some(suite) => suite,
        None => Suite::new().map_err(|e| e.to_string())?,
    };
    phase.setup_rss_mb = crate::peak_rss_mb()?;
    if traced {
        probe_layers(&suite, &mut phase)?;
    }

    let committed = committed_csvs(&ctx.root.join("results"))?;
    let out = ctx.out.join("csv");
    let started = Instant::now();
    while phase.op_ms.is_empty() || started.elapsed().as_secs_f64() < budget_s {
        let op = phase.op_ms.len() as u64;
        let t = Instant::now();
        let written = span("perfbench.op", Some(op), || {
            span("core.export_csv", None, || export_csv(&suite, &out))
        })
        .map_err(|e| format!("export_csv: {e}"))?;
        phase.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let (attempted, failed) = compare(&committed, &written);
        phase.attempted += attempted;
        phase.failed += failed;
    }
    phase.loop_s = started.elapsed().as_secs_f64();
    phase.lines.push(format!(
        "reproduce: {} regenerations of {} CSVs, {} byte mismatches",
        phase.op_ms.len(),
        committed.len(),
        phase.failed
    ));
    if !traced {
        let reproduce_s = stats::median(&phase.op_ms) / 1e3;
        phase
            .lines
            .push(stats::figure("reproduce_s", reproduce_s, "s"));
    }
    Ok(phase)
}

fn run_experiments(suite: &Suite) {
    span("core.table2", None, || black_box(experiment::table2(suite)));
    span("core.paper_tables", None, || {
        black_box(experiment::table3(suite));
        black_box(experiment::table4(suite));
        for link in experiment::LINKS {
            black_box(experiment::parallel_table(suite, link, DataLayout::Whole));
        }
        black_box(experiment::interleaved_table(suite, DataLayout::Whole));
        black_box(experiment::table8(suite));
        black_box(experiment::table9(suite));
        black_box(experiment::table10(suite));
    });
    span("core.fig6", None, || black_box(experiment::fig6(suite)));
    span("core.fault_sweep", None, || {
        black_box(experiment::faults::fault_sweep(suite))
    });
    span("core.verify_sweep", None, || {
        black_box(experiment::verify::verify_sweep(suite))
    });
    span("core.outage_sweep", None, || {
        black_box(experiment::outage::outage_sweep(suite))
    });
    span("core.replica_sweep", None, || {
        black_box(experiment::replica::replica_sweep(suite))
    });
    span("core.byzantine_sweep", None, || {
        black_box(experiment::byzantine::byzantine_sweep(suite))
    });
    span("core.overload_sweep", None, || {
        black_box(experiment::overload::overload_sweep(suite))
    });
    span("core.chaos_sweep", None, || {
        black_box(experiment::chaos::chaos_sweep(suite))
    });
}

/// Layer probes outside any timed operation: interpreter throughput,
/// `Session::simulate` cost per trace event over six programs ×
/// {strict, parallel(4), interleaved} × {T1, modem}, and one call of
/// each experiment runner.
fn probe_layers(suite: &Suite, phase: &mut Phase) -> Result<(), String> {
    run_experiments(suite);
    let (mut instrs, mut interp_ns) = (0u64, 0u64);
    let (mut events, mut sim_ns) = (0u64, 0u64);
    for session in &suite.sessions {
        let t = Instant::now();
        instrs += setup::interp_probe(&session.app)?;
        interp_ns += crate::instrument::elapsed_ns(t);
        let trace_events = session.collected(Input::Test).trace.len() as u64;
        for link in experiment::LINKS {
            let ns = SimConfig::non_strict(link, OrderingSource::StaticCallGraph);
            let interleaved = SimConfig {
                transfer: TransferPolicy::Interleaved,
                ..ns
            };
            for config in [SimConfig::strict(link), ns, interleaved] {
                let t = Instant::now();
                span("core.simulate", None, || {
                    black_box(session.simulate(Input::Test, &config))
                });
                sim_ns += crate::instrument::elapsed_ns(t);
                events += trace_events;
            }
        }
    }
    phase.layer.insert(
        "bytecode.instrs_per_s",
        stats::ratio(instrs as f64, interp_ns as f64 / 1e9),
    );
    phase.layer.insert(
        "core.simulate_ns_per_event",
        stats::ratio(sim_ns as f64, events as f64),
    );
    Ok(())
}

fn committed_csvs(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "csv") {
            let name = path.file_name().expect("a listed file has a name");
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push((name.to_string_lossy().into_owned(), bytes));
        }
    }
    out.sort();
    if out.is_empty() {
        return Err(format!("no committed CSVs under {}", dir.display()));
    }
    Ok(out)
}

/// Byte-compares each committed CSV with its regenerated twin. Returns
/// (compared, mismatched); a committed file that was not written, or a
/// written file that is not committed, is a mismatch.
fn compare(committed: &[(String, Vec<u8>)], written: &[std::path::PathBuf]) -> (u64, u64) {
    let mut failed = 0;
    for (name, bytes) in committed {
        let fresh = written
            .iter()
            .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy() == *name))
            .and_then(|p| std::fs::read(p).ok());
        if fresh.as_deref() != Some(bytes.as_slice()) {
            failed += 1;
        }
    }
    let extra = written.len().saturating_sub(committed.len()) as u64;
    (committed.len() as u64 + extra, failed + extra)
}
