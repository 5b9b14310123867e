//! The repository's benchmark: four workloads driven through the crates'
//! public functions, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reproduce|small_sessions|large_sessions|durable_resume> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` spends half
//! the time untraced and half traced, probes the layers its loop never
//! calls, reports the per-layer metrics and the tracing overhead, and
//! writes the spans to
//! `perfbench/out/trace-<workload>-seed<n>.jsonl`. See `perfbench/README.md`
//! for the workloads and what each metric should move.

mod codec;
mod instrument;
mod reproduce;
mod setup;
mod stats;
mod trace;
mod wire_loop;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::{figure, median, ratio};

/// What a workload run needs to know.
pub struct Ctx {
    /// The repository checkout (the working directory).
    pub root: PathBuf,
    /// Scratch directory for this run, removed at the end.
    pub out: PathBuf,
    /// Workload seed (drives the `durable_resume` kill points).
    pub seed: u64,
}

/// One measured phase: set-ups, then a closed loop of operations.
#[derive(Default)]
pub struct Phase {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Process peak resident set (`VmHWM`) once the set-ups are done, MB.
    pub setup_rss_mb: f64,
    /// Milliseconds per operation.
    pub op_ms: Vec<f64>,
    /// Wall time of the operation loop.
    pub loop_s: f64,
    /// Checked outputs.
    pub attempted: u64,
    /// Checked outputs that were wrong, or operations that failed.
    pub failed: u64,
    /// Per-layer metrics the workload computed itself.
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable summary lines.
    pub lines: Vec<String>,
}

/// Set-ups repeat until they have taken this long in total (and at
/// least [`MIN_SETUPS`] times), so a 7 ms plan build is timed over as
/// long a window as a 250 ms suite build: host speed here drifts within
/// a second, and a short window would catch one moment of it.
const SETUP_SECONDS: f64 = 2.0;
const MIN_SETUPS: usize = 5;

impl Phase {
    /// True while the set-up loop should run again.
    pub fn more_setups(&self) -> bool {
        self.setup_s.len() < MIN_SETUPS || self.setup_s.iter().sum::<f64>() < SETUP_SECONDS
    }

    fn e2e(&self) -> [f64; 3] {
        [
            median(&self.setup_s),
            median(&self.op_ms),
            ratio(self.op_ms.len() as f64, self.loop_s),
        ]
    }
}

const WORKLOADS: [&str; 4] = [
    "reproduce",
    "small_sessions",
    "large_sessions",
    "durable_resume",
];

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("setup_rss_mb", "MB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. Counts and ratios of a
/// layer the workload never calls read 0; its timings are probed (see
/// [`probe_other_layers`]).
const PER_LAYER: [(&str, &str); 66] = [
    ("workloads.build_ms", "ms"),
    ("profile.collect_ms", "ms"),
    ("bytecode.instrs_per_s", "1/s"),
    ("reorder.scg_ms", "ms"),
    ("reorder.order_ms", "ms"),
    ("reorder.restructure_ms", "ms"),
    ("reorder.partition_ms", "ms"),
    ("classfile.plan_units_ms", "ms"),
    ("wire.bind_ms", "ms"),
    ("core.simulate_ns_per_event", "ns"),
    ("core.table2_ms", "ms"),
    ("core.paper_tables_ms", "ms"),
    ("core.fig6_ms", "ms"),
    ("core.fault_sweep_ms", "ms"),
    ("core.verify_sweep_ms", "ms"),
    ("core.outage_sweep_ms", "ms"),
    ("core.replica_sweep_ms", "ms"),
    ("core.byzantine_sweep_ms", "ms"),
    ("core.overload_sweep_ms", "ms"),
    ("core.chaos_sweep_ms", "ms"),
    ("core.export_csv_ms", "ms"),
    ("wire.handshake_ms", "ms"),
    ("wire.connects_per_session", "ratio"),
    ("wire.server.accepted", "count"),
    ("wire.server.retried", "count"),
    ("wire.transfer_ms", "ms"),
    ("wire.unit_gap_us", "us"),
    ("wire.frame.encode_ns", "ns"),
    ("wire.frame.decode_ns", "ns"),
    ("wire.crc32_mb_s", "MB/s"),
    ("wire.digest_ns", "ns"),
    ("wire.manifest.decode_us", "us"),
    ("wire.units_per_session", "count"),
    ("wire.bytes_per_session", "bytes"),
    ("wire.server.units_sent", "count"),
    ("wire.first_unit_p50_ms", "ms"),
    ("wire.first_unit_p99_ms", "ms"),
    ("wire.session_p99_ms", "ms"),
    ("store.warm_start_ms", "ms"),
    ("store.on_unit_us", "us"),
    ("store.vfs.appends_per_unit", "count"),
    ("store.vfs.atomic_writes_per_unit", "count"),
    ("store.vfs.syncs_per_unit", "count"),
    ("store.vfs.files_per_unit", "count"),
    ("store.vfs.bytes_per_unit", "bytes"),
    ("store.vfs.reads_per_restart", "count"),
    ("store.vfs.busy_frac", "ratio"),
    ("store.warm_units_frac", "ratio"),
    ("store.restart_p90_ms", "ms"),
    ("store.realfs.restart_ms", "ms"),
    ("store.realfs.busy_frac", "ratio"),
    ("store.realfs.write_us", "us"),
    ("workloads.self_frac", "ratio"),
    ("bytecode.self_frac", "ratio"),
    ("profile.self_frac", "ratio"),
    ("reorder.self_frac", "ratio"),
    ("classfile.self_frac", "ratio"),
    ("core.self_frac", "ratio"),
    ("wire.self_frac", "ratio"),
    ("store.self_frac", "ratio"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.op_p50_ms", "ms"),
    ("trace.overhead.ops_per_s", "1/s"),
    ("trace.spans", "count"),
];

/// Per-layer metrics read straight off the spans: (metric, span name,
/// per set-up). Set-up spans are averaged per set-up (a set-up builds
/// six programs on `reproduce`, one elsewhere); the rest per call.
const SPAN_METRICS: [(&str, &str, bool); 19] = [
    ("workloads.build_ms", "workloads.build", true),
    ("profile.collect_ms", "profile.collect", true),
    ("reorder.scg_ms", "reorder.scg", true),
    ("reorder.order_ms", "reorder.order", true),
    ("reorder.restructure_ms", "reorder.restructure", true),
    ("reorder.partition_ms", "reorder.partition", true),
    ("classfile.plan_units_ms", "classfile.plan_units", true),
    ("wire.bind_ms", "wire.bind", true),
    ("core.table2_ms", "core.table2", false),
    ("core.paper_tables_ms", "core.paper_tables", false),
    ("core.fig6_ms", "core.fig6", false),
    ("core.fault_sweep_ms", "core.fault_sweep", false),
    ("core.verify_sweep_ms", "core.verify_sweep", false),
    ("core.outage_sweep_ms", "core.outage_sweep", false),
    ("core.replica_sweep_ms", "core.replica_sweep", false),
    ("core.byzantine_sweep_ms", "core.byzantine_sweep", false),
    ("core.overload_sweep_ms", "core.overload_sweep", false),
    ("core.chaos_sweep_ms", "core.chaos_sweep", false),
    ("core.export_csv_ms", "core.export_csv", false),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}; use 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; use {}",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn measure(workload: &str, ctx: &Ctx, budget_s: f64) -> Result<Phase, String> {
    match workload {
        "reproduce" => reproduce::measure(ctx, budget_s),
        "small_sessions" => wire_loop::sessions("hanoi", 2, budget_s),
        "large_sessions" => wire_loop::sessions("jess", 1, budget_s),
        "durable_resume" => wire_loop::durable(ctx, "javacup", budget_s),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Per-layer metrics from the traced phase's spans.
fn span_layer(spans: &[trace::Span], setups: usize, out: &mut BTreeMap<&'static str, f64>) {
    for (metric, name, per_setup) in SPAN_METRICS {
        let (ns, calls) = trace::total(spans, name);
        let den = if per_setup {
            setups as f64
        } else {
            calls as f64
        };
        out.insert(metric, ratio(ns as f64 / 1e6, den));
    }
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::dur)
        .sum();
    for (layer, ns) in trace::self_by_layer(spans) {
        if let Some((metric, _)) = PER_LAYER
            .iter()
            .find(|(m, _)| m.strip_suffix(".self_frac") == Some(layer))
        {
            out.insert(metric, ratio(ns as f64, roots as f64));
        }
    }
}

/// Loop seconds of each probe in [`probe_other_layers`].
const PROBE_SECONDS: f64 = 0.5;

/// True for a unit of time, or of a rate over time.
fn is_timing(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns") || unit.ends_with("/s")
}

/// Fills each timing that the traced workload left at 0, because its
/// loop never calls that layer, from a short traced run of the other
/// workloads, the first in `BENCHMARK.json` order that times it, so
/// every traced run times every layer. Counts and ratios of an uncalled
/// layer stay 0. Returns the probes' (checked, failed) outputs.
fn probe_other_layers(
    workload: &str,
    ctx: &Ctx,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Result<(u64, u64), String> {
    let (mut checked, mut failed) = (0, 0);
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        let probe = measure(other, ctx, PROBE_SECONDS)?;
        let mut found = probe.layer.clone();
        span_layer(&trace::drain(), probe.setup_s.len(), &mut found);
        checked += probe.attempted;
        failed += probe.failed;
        for &(name, unit) in &PER_LAYER {
            if is_timing(unit) && layer.get(name).is_none_or(|v| *v == 0.0) {
                if let Some(&v) = found.get(name) {
                    layer.insert(name, v);
                }
            }
        }
    }
    Ok((checked, failed))
}

/// What a run prints: summary lines, then the result object.
struct Report {
    lines: Vec<String>,
    /// (name, value, unit), in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args, ctx: &Ctx) -> Result<Report, String> {
    let mut lines = vec![format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )];
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = measure(&args.workload, ctx, budget)?;
    // Peak RSS grows with the number of sessions run (each connection
    // thread can touch another malloc arena), so it follows throughput
    // and is reported per layer; the end-to-end memory metric is the
    // peak once set-up is done.
    let peak_mb = peak_rss_mb()?;
    lines.extend(plain.lines.iter().cloned());
    let e2e = plain.e2e();
    if !args.trace {
        lines.extend([
            figure(
                "error_rate",
                ratio(plain.failed as f64, plain.attempted as f64),
                "ratio",
            ),
            figure("peak_rss_mb", peak_mb, "MB"),
        ]);
        let values = [e2e[0], e2e[1], plain.setup_rss_mb];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        return Ok(Report {
            lines,
            metrics,
            attempted: plain.attempted,
            failed: plain.failed,
        });
    }

    trace::set_enabled(true);
    let traced = measure(&args.workload, ctx, budget);
    let spans = trace::drain();
    let traced = traced?;
    lines.extend(traced.lines.iter().map(|l| format!("traced {l}")));
    // Tails come from the untraced phase, like the end-to-end metrics.
    let mut layer = traced.layer.clone();
    layer.extend(plain.layer.iter().map(|(k, v)| (*k, *v)));
    layer.insert("peak_rss_mb", peak_mb);
    layer.insert("ops_per_s", e2e[2]);
    span_layer(&spans, traced.setup_s.len(), &mut layer);
    let probed = probe_other_layers(&args.workload, ctx, &mut layer);
    trace::set_enabled(false);
    let (probe_checked, probe_failed) = probed?;
    lines.push(format!(
        "timings of layers the {} loop never calls: from {PROBE_SECONDS} s traced probes of the other workloads",
        args.workload
    ));
    let te = traced.e2e();
    layer.insert("trace.overhead.setup_s", te[0] - e2e[0]);
    layer.insert("trace.overhead.op_p50_ms", te[1] - e2e[1]);
    layer.insert("trace.overhead.ops_per_s", te[2] - e2e[2]);
    layer.insert("trace.spans", spans.len() as f64);

    let path = ctx
        .root
        .join("perfbench/out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"untraced_ops\":{},\"traced_ops\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        plain.op_ms.len(),
        traced.op_ms.len()
    );
    trace::write_jsonl(&path, &spans, &header).map_err(|e| format!("{}: {e}", path.display()))?;
    lines.push(format!("spans written to {}", path.display()));

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layer.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(Report {
        lines,
        metrics,
        attempted: plain.attempted + traced.attempted + probe_checked,
        failed: plain.failed + traced.failed + probe_failed,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("the working directory is readable");
    let out = root.join("perfbench/out").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        root,
        out,
        seed: args.seed,
    };
    let result = run(&args, &ctx);
    // Best effort: the scratch directory holds only regenerated CSVs and
    // store files.
    let _ = std::fs::remove_dir_all(&ctx.out);
    let Report {
        lines,
        metrics,
        attempted,
        failed,
    } = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for l in &lines {
        println!("{l}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {failed} of {attempted} checked outputs were wrong");
        ExitCode::FAILURE
    }
}
