//! The loopback workloads: closed-loop cold sessions (`small_sessions`,
//! `large_sessions`) and kill-then-warm-restart pairs over a durable
//! store (`durable_resume`), all against one in-process `WireServer`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nonstrict_core::model::OrderingSource;
use nonstrict_core::serve::{build_plan, plan_from_session};
use nonstrict_core::sim::Session;
use nonstrict_store::{DurableSession, FaultFs, FaultKnobs, RealFs, Vfs};
use nonstrict_wire::{
    crc32, ClientConfig, ClientError, ClientReport, ServePlan, ServerConfig, ServerStats,
    SplitMix64, WireClient, WireServer,
};

use crate::instrument::{elapsed_ns, CountingVfs, Stamps, TimingStore, VfsCounts, VfsSnapshot};
use crate::stats::{figure, median, quantile, ratio, tail_figure};
use crate::trace::{self, span};
use crate::{codec, setup, Ctx, Phase};

/// Kill points are drawn in blocks of this many equal-width strata of
/// `[1, units)`, one uniform draw per stratum, in seeded order: every
/// draw is uniform over the range, and a run's restart sizes cover it
/// evenly, so the restart median does not swing with a lucky draw.
const KILL_STRATA: u64 = 8;

/// The server under test plus what its plan says a client must receive.
struct Served {
    server: WireServer,
    plan: ServePlan,
    expected: Vec<Vec<u32>>,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        // Admission must never refuse in a closed loop: the bucket sits
        // far above any rate two loopback clients can offer, so the
        // loop measures the server, not the bucket.
        accept_burst: 1 << 20,
        accept_refill_per_sec: 1 << 20,
        pace_per_unit: None,
        ..ServerConfig::default()
    }
}

/// Builds the plan and binds the server until `Phase::more_setups` says
/// stop; keeps the last server.
fn set_up(bench: &str, phase: &mut Phase) -> Result<Served, String> {
    let traced = trace::enabled();
    // `plan_from_session` needs a profiled session. The traced set-up
    // runs the same steps call by call, so the session itself is built
    // once, untimed.
    let session = if traced {
        let app = nonstrict_workloads::build_by_name(bench)
            .ok_or_else(|| format!("unknown benchmark {bench}"))?;
        Some(Session::new(app).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut served: Option<Served> = None;
    while phase.more_setups() {
        let rep = phase.setup_s.len();
        if let Some(old) = served.take() {
            old.server.drain(Duration::from_secs(1));
        }
        let (plan, plan_s) = if let Some(session) = &session {
            let t = Instant::now();
            let plan = span("perfbench.setup", Some(rep as u64), || {
                let app = span("workloads.build", None, || {
                    nonstrict_workloads::build_by_name(bench)
                })
                .ok_or_else(|| format!("unknown benchmark {bench}"))?;
                setup::traced_pipeline(&app)?;
                span("classfile.plan_units", None, || {
                    plan_from_session(session, bench, OrderingSource::StaticCallGraph)
                })
                .map_err(|e| e.to_string())
            })?;
            (plan, t.elapsed().as_secs_f64())
        } else {
            let t = Instant::now();
            let plan =
                build_plan(bench, OrderingSource::StaticCallGraph).map_err(|e| e.to_string())?;
            (plan, t.elapsed().as_secs_f64())
        };
        let copy = plan.clone();
        let t = Instant::now();
        let server = span("perfbench.setup", Some(rep as u64), || {
            span("wire.bind", None, || {
                WireServer::bind("127.0.0.1:0", vec![copy], server_config())
            })
        })
        .map_err(|e| format!("bind: {e}"))?;
        phase.setup_s.push(plan_s + t.elapsed().as_secs_f64());
        let expected = plan
            .classes
            .iter()
            .map(|c| c.units.iter().map(|u| crc32(u)).collect())
            .collect();
        served = Some(Served {
            server,
            plan,
            expected,
        });
    }
    let served = served.expect("at least one set-up ran");
    phase.setup_rss_mb = crate::peak_rss_mb()?;
    if let Some(session) = &session {
        let t = Instant::now();
        let instrs = setup::interp_probe(&session.app)?;
        phase.layer.insert(
            "bytecode.instrs_per_s",
            ratio(instrs as f64, elapsed_ns(t) as f64 / 1e9),
        );
        let (checked, failed) = codec::probe(&served.plan, &mut phase.layer);
        phase.attempted += checked;
        phase.failed += failed;
    }
    Ok(served)
}

/// One timed `WireClient::run`.
struct Sample {
    start: Instant,
    end: Instant,
    stamps: Stamps,
    result: Result<ClientReport, ClientError>,
}

fn run_session(config: ClientConfig, inner: Option<DurableSession>, id: u64) -> Sample {
    let (store, slot) = TimingStore::new(inner);
    let client = WireClient::with_store(config, Box::new(store));
    let start = Instant::now();
    let result = span("perfbench.op", Some(id), || {
        span("wire.run", None, || client.run())
    });
    let end = Instant::now();
    let stamps = slot
        .lock()
        .expect("stamp slot poisoned")
        .take()
        .unwrap_or_default();
    Sample {
        start,
        end,
        stamps,
        result,
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn delivered_ok(r: &Result<ClientReport, ClientError>, expected: &[Vec<u32>]) -> bool {
    matches!(r, Ok(rep) if rep.complete && rep.unit_crcs == expected)
}

/// `small_sessions` / `large_sessions`: `clients` closed-loop clients
/// each run cold sessions back to back until the budget is spent.
pub fn sessions(bench: &str, clients: usize, budget_s: f64) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let served = set_up(bench, &mut phase)?;
    let addr = served.server.local_addr();
    let before = served.server.stats();
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while out.is_empty() || Instant::now() < deadline {
                        let id = ((c as u64) << 32) | out.len() as u64;
                        out.push(run_session(ClientConfig::new(addr, bench), None, id));
                    }
                    trace::finish_thread();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    phase.loop_s = started.elapsed().as_secs_f64();
    let server = delta(served.server.stats(), before);
    served.server.drain(Duration::from_secs(2));
    check_admission(&mut phase, &server);
    for s in &samples {
        phase.attempted += 1;
        if !delivered_ok(&s.result, &served.expected) {
            phase.failed += 1;
        }
        phase.op_ms.push(ms(s.start, s.end));
    }
    phase.lines.push(format!(
        "{bench}: {clients} closed-loop client(s), {} sessions, {} failed",
        samples.len(),
        phase.failed
    ));
    let samples: Vec<&Sample> = samples.iter().collect();
    wire_layer(&mut phase, &samples, &server);
    if !trace::enabled() {
        let op = &phase.op_ms;
        let first = first_unit_ms(&samples);
        phase.lines.extend([
            figure(
                "sessions_per_s",
                ratio(op.len() as f64, phase.loop_s),
                "1/s",
            ),
            figure("session_p50_ms", median(op), "ms"),
            tail_figure("session_p99_ms", op, 0.99),
            figure("first_unit_p50_ms", median(&first), "ms"),
            tail_figure("first_unit_p99_ms", &first, 0.99),
        ]);
    }
    Ok(phase)
}

/// The admission bucket is sized so it never refuses; one Retry means
/// the loop measured the bucket, not the server, so it fails the run.
fn check_admission(phase: &mut Phase, server: &ServerStats) {
    phase.attempted += 1;
    if server.retried > 0 {
        phase.failed += 1;
        phase.lines.push(format!(
            "admission refused {} connection(s)",
            server.retried
        ));
    }
}

/// Per session, milliseconds from `run` start to the first verified
/// unit: the wire's invocation latency.
fn first_unit_ms(samples: &[&Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter_map(|s| s.stamps.first_unit.map(|f| ms(s.start, f)))
        .collect()
}

/// Wire-layer metrics over a phase's sessions: tails, then per-session
/// breakdowns and server counts when traced.
fn wire_layer(phase: &mut Phase, samples: &[&Sample], server: &ServerStats) {
    let first = first_unit_ms(samples);
    let l = &mut phase.layer;
    l.insert("wire.first_unit_p50_ms", median(&first));
    l.insert("wire.first_unit_p99_ms", quantile(&first, 0.99));
    l.insert("wire.session_p99_ms", quantile(&phase.op_ms, 0.99));
    if !trace::enabled() {
        return;
    }
    let n = samples.len() as f64;
    let handshake: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.stamps.pin.map(|p| ms(s.start, p)))
        .collect();
    let transfer: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.stamps.first_unit.map(|f| ms(f, s.end)))
        .collect();
    let (gaps, gap_ns) = samples.iter().fold((0u64, 0u64), |(g, t), s| {
        (g + s.stamps.units.saturating_sub(1), t + s.stamps.gap_ns)
    });
    let reports: Vec<&ClientReport> = samples
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .collect();
    let connects: u64 = reports.iter().map(|r| u64::from(r.connects)).sum();
    let units: u64 = samples.iter().map(|s| s.stamps.units).sum();
    let bytes: u64 = samples.iter().map(|s| s.stamps.bytes).sum();
    let l = &mut phase.layer;
    l.insert("wire.handshake_ms", median(&handshake));
    l.insert("wire.transfer_ms", median(&transfer));
    l.insert("wire.unit_gap_us", ratio(gap_ns as f64 / 1e3, gaps as f64));
    l.insert(
        "wire.connects_per_session",
        ratio(reports.len() as f64, connects as f64),
    );
    l.insert("wire.units_per_session", ratio(units as f64, n));
    l.insert("wire.bytes_per_session", ratio(bytes as f64, n));
    l.insert("wire.server.accepted", server.accepted as f64);
    l.insert("wire.server.retried", server.retried as f64);
    l.insert("wire.server.units_sent", server.units_sent as f64);
}

/// Seeded kill points for `durable_resume`; see [`KILL_STRATA`].
struct KillPoints {
    rng: SplitMix64,
    units: u64,
    block: Vec<u64>,
}

impl KillPoints {
    fn new(seed: u64, units: u64) -> KillPoints {
        KillPoints {
            rng: SplitMix64(seed),
            units,
            block: Vec::new(),
        }
    }

    fn next(&mut self) -> u64 {
        if self.block.is_empty() {
            const SCALE: u64 = 1 << 20;
            let span = self.units - 1;
            self.block = (0..KILL_STRATA)
                .map(|j| 1 + (j * SCALE + self.rng.below(SCALE)) * span / (KILL_STRATA * SCALE))
                .collect();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("block refilled above")
    }
}

/// One kill and its warm restart, over one store.
struct Pair {
    killed: Sample,
    restart: Sample,
    /// Store calls made by the restart alone.
    restart_io: VfsSnapshot,
    /// Kill point: units delivered before the kill.
    k: u64,
    /// Units the restart restored from the store.
    warm: u64,
    ok: bool,
}

fn kill_and_restart(
    served: &Served,
    bench: &str,
    k: u64,
    vfs: &Arc<dyn Vfs>,
    counts: &VfsCounts,
    id: u64,
) -> Pair {
    let addr = served.server.local_addr();
    let mut config = ClientConfig::new(addr, bench);
    config.kill_after_units = Some(k);
    let killed = run_session(config, Some(DurableSession::new(Arc::clone(vfs))), id);
    let killed_ok =
        matches!(killed.result, Err(ClientError::Killed { delivered }) if delivered == k);
    let io_before = counts.snapshot();
    let restart = run_session(
        ClientConfig::new(addr, bench),
        Some(DurableSession::new(Arc::clone(vfs))),
        id,
    );
    let restart_io = counts.snapshot() - io_before;
    let warm = restart.result.as_ref().map_or(0, |r| r.warm_units);
    let ok = killed_ok && warm == k && delivered_ok(&restart.result, &served.expected);
    Pair {
        killed,
        restart,
        restart_io,
        k,
        warm,
        ok,
    }
}

/// `durable_resume`: one client; each pair journals a cold session
/// through `DurableSession` until the seeded kill point, then
/// warm-restarts from the same store and runs to completion.
///
/// The timed store lives in memory (the store crate's honest `FaultFs`):
/// fsync latency on a shared virtual disk swings from run to run by far
/// more than any bound, and the benchmark may write only inside its
/// checkout, so no RAM-backed directory is available. The disk's cost
/// shows as exact call counts, and as wall time in the traced phase's
/// `RealFs` probe.
pub fn durable(ctx: &Ctx, bench: &str, budget_s: f64) -> Result<Phase, String> {
    let traced = trace::enabled();
    let mut phase = Phase::default();
    let served = set_up(bench, &mut phase)?;
    let units = served.expected.iter().map(Vec::len).sum::<usize>() as u64;
    let mut kills = KillPoints::new(ctx.seed, units);
    let counts = Arc::new(VfsCounts::default());
    let mut pairs = Vec::new();
    let mut files = 0usize;
    let before = served.server.stats();
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let started = Instant::now();
    while pairs.is_empty() || Instant::now() < deadline {
        let mem = FaultFs::new(FaultKnobs::quiet(ctx.seed));
        let vfs: Arc<dyn Vfs> = if traced {
            Arc::new(CountingVfs::new(mem, Arc::clone(&counts)))
        } else {
            Arc::new(mem)
        };
        let id = pairs.len() as u64;
        let pair = kill_and_restart(&served, bench, kills.next(), &vfs, &counts, id);
        if traced {
            files += vfs.list().map_or(0, |l| l.len());
        }
        phase.attempted += 1;
        phase.failed += u64::from(!pair.ok);
        phase.op_ms.push(ms(pair.restart.start, pair.restart.end));
        pairs.push(pair);
    }
    phase.loop_s = started.elapsed().as_secs_f64();
    let server = delta(served.server.stats(), before);
    check_admission(&mut phase, &server);
    if traced {
        // Untraced, so the disk's time stays out of the span self times.
        trace::set_enabled(false);
        let probe = realfs_probe(ctx, &served, bench, &mut kills, &mut phase);
        trace::set_enabled(true);
        probe?;
    }
    served.server.drain(Duration::from_secs(2));
    phase.lines.push(format!(
        "{bench}: 1 closed-loop client, {} kill+restart pairs, {} failed",
        pairs.len(),
        phase.failed
    ));
    let op = &phase.op_ms;
    if !traced {
        phase.lines.extend([
            figure(
                "sessions_per_s",
                ratio(op.len() as f64, phase.loop_s),
                "1/s",
            ),
            figure("restart_p50_ms", median(op), "ms"),
            tail_figure("restart_p90_ms", op, 0.9),
        ]);
    }
    phase
        .layer
        .insert("store.restart_p90_ms", quantile(op, 0.9));
    let restarts: Vec<&Sample> = pairs.iter().map(|p| &p.restart).collect();
    wire_layer(&mut phase, &restarts, &server);
    if traced {
        // Restarts re-pin from the store, not from a Welcome: the
        // handshake is the killed cold session's.
        let handshake: Vec<f64> = pairs
            .iter()
            .filter_map(|p| p.killed.stamps.pin.map(|t| ms(p.killed.start, t)))
            .collect();
        phase.layer.insert("wire.handshake_ms", median(&handshake));
        store_layer(&mut phase.layer, &pairs, &counts.snapshot(), units, files);
    }
    Ok(phase)
}

/// Store-layer metrics over the traced phase's pairs; `io` is every
/// store call they made.
fn store_layer(
    l: &mut BTreeMap<&'static str, f64>,
    pairs: &[Pair],
    io: &VfsSnapshot,
    units: u64,
    files: usize,
) {
    let n = pairs.len() as f64;
    let persisted = units as f64 * n;
    let total = |f: &dyn Fn(&Pair) -> u64| pairs.iter().map(f).sum::<u64>() as f64;
    let restart_ms: f64 = pairs
        .iter()
        .map(|p| ms(p.restart.start, p.restart.end))
        .sum();
    let hook_ns = total(&|p| p.killed.stamps.on_unit_ns + p.restart.stamps.on_unit_ns);
    let hook_units = total(&|p| p.killed.stamps.units + p.restart.stamps.units);
    l.insert(
        "store.warm_start_ms",
        ratio(total(&|p| p.restart.stamps.warm_start_ns) / 1e6, n),
    );
    l.insert("store.on_unit_us", ratio(hook_ns / 1e3, hook_units));
    l.insert(
        "store.vfs.appends_per_unit",
        ratio(io.appends as f64, persisted),
    );
    l.insert(
        "store.vfs.atomic_writes_per_unit",
        ratio(io.atomic_writes as f64, persisted),
    );
    // RealFs fsyncs once per append and twice per atomic write (the
    // file, then its directory after the rename).
    let syncs = io.appends + 2 * io.atomic_writes;
    l.insert("store.vfs.syncs_per_unit", ratio(syncs as f64, persisted));
    l.insert("store.vfs.files_per_unit", ratio(files as f64, persisted));
    l.insert(
        "store.vfs.bytes_per_unit",
        ratio(io.bytes_written as f64, persisted),
    );
    l.insert(
        "store.vfs.reads_per_restart",
        ratio(total(&|p| p.restart_io.reads), n),
    );
    l.insert(
        "store.vfs.busy_frac",
        ratio(total(&|p| p.restart_io.busy_ns) / 1e6, restart_ms),
    );
    l.insert(
        "store.warm_units_frac",
        ratio(total(&|p| p.warm), total(&|p| p.k)),
    );
}

/// Pairs over `RealFs` in the run's scratch directory, traced phase
/// only: the disk's wall-time cost, which the in-memory loop leaves out.
const REALFS_PAIRS: usize = 3;

fn realfs_probe(
    ctx: &Ctx,
    served: &Served,
    bench: &str,
    kills: &mut KillPoints,
    phase: &mut Phase,
) -> Result<(), String> {
    let dir = ctx.out.join("store");
    let counts = Arc::new(VfsCounts::default());
    let mut restart_ms = Vec::new();
    let mut busy_ns = 0u64;
    for i in 0..REALFS_PAIRS {
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", dir.display())),
        }
        let real = RealFs::open(&dir).map_err(|e| e.to_string())?;
        let vfs: Arc<dyn Vfs> = Arc::new(CountingVfs::new(real, Arc::clone(&counts)));
        let pair = kill_and_restart(served, bench, kills.next(), &vfs, &counts, i as u64);
        phase.attempted += 1;
        phase.failed += u64::from(!pair.ok);
        restart_ms.push(ms(pair.restart.start, pair.restart.end));
        busy_ns += pair.restart_io.busy_ns;
    }
    // Busy time includes the restarts' reads, which hit the page cache;
    // the fsyncs behind each write dominate it.
    let io = counts.snapshot();
    let calls = io.appends + io.atomic_writes;
    phase
        .layer
        .insert("store.realfs.restart_ms", median(&restart_ms));
    phase.layer.insert(
        "store.realfs.busy_frac",
        ratio(busy_ns as f64 / 1e6, restart_ms.iter().sum()),
    );
    phase.layer.insert(
        "store.realfs.write_us",
        ratio(io.busy_ns as f64 / 1e3, calls as f64),
    );
    Ok(())
}

/// Server counters accumulated between two snapshots.
fn delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        accepted: after.accepted - before.accepted,
        admitted: after.admitted - before.admitted,
        retried: after.retried - before.retried,
        resumed: after.resumed - before.resumed,
        evicted_slow: after.evicted_slow - before.evicted_slow,
        evicted_drain: after.evicted_drain - before.evicted_drain,
        incompatible: after.incompatible - before.incompatible,
        completed: after.completed - before.completed,
        units_sent: after.units_sent - before.units_sent,
        bytes_sent: after.bytes_sent - before.bytes_sent,
    }
}
