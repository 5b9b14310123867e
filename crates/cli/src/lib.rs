//! # nonstrict-cli
//!
//! The `nonstrict` command-line tool: inspect benchmark class files,
//! compute first-use orderings, partition global data, simulate remote
//! execution, regenerate the paper's tables, and drive the real wire —
//! the whole pipeline from one binary.
//!
//! ```text
//! nonstrict list
//! nonstrict inspect jess --class 3
//! nonstrict disasm testdes --class 1 --method 5
//! nonstrict order jhlzip --source scg
//! nonstrict partition bit
//! nonstrict simulate jess --link modem --ordering train --transfer interleaved --partitioned
//! nonstrict paper table7
//! nonstrict serve hanoi jess --addr 127.0.0.1:0
//! nonstrict loadgen hanoi --clients 8 --chaos --loss 20000
//! nonstrict fleet hanoi --mirrors 3 --crash-plan 7:2:400 --epoch-rollover 500
//! ```
//!
//! Argument parsing is hand-rolled (the workspace carries no CLI
//! dependency): every subcommand declares the flags it accepts and one
//! parser rejects everything else. [`run`] is the testable entry point,
//! returning the text it would print.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nonstrict_bytecode::{Application, Input};
use nonstrict_classfile::{Attribute, GlobalDataBreakdown};
use nonstrict_core::chaos::{ChaosScenario, OverloadDims, ScenarioError};
use nonstrict_core::experiment::Suite;
use nonstrict_core::fleet::{run_fleet, AdmissionSettings, FleetClient, FleetSpec};
use nonstrict_core::metrics::{cycles_to_seconds, normalized_percent, share_percent};
use nonstrict_core::model::{OrderingSource, SimConfig, VerifyMode};
use nonstrict_core::report;
use nonstrict_core::sim::{RunOutcome, Session};
use nonstrict_netsim::outage::OutagePlan;
use nonstrict_netsim::{Link, ShedAction};
use nonstrict_reorder::{partition_app, static_first_use, static_first_use_plain, FirstUseOrder};
use nonstrict_store::{DurableSession, JournalLog, RealFs, Vfs};
use nonstrict_wire::loadgen::StoreFactory;
use nonstrict_wire::{
    ChaosConfig, ChaosProxy, ClientConfig, CrashPlan, FaultKnobs, FleetConfig, FleetSupervisor,
    LoadgenConfig, LoadgenReport, ServePlan, ServerConfig, WireServer,
};

/// Set by the binary's SIGTERM/SIGINT handler; `serve` drains at unit
/// boundaries once it flips.
pub static TERM: AtomicBool = AtomicBool::new(false);

/// The self-pipe `serve` blocks on: after setting [`TERM`], the signal
/// handler writes one byte to the write end ([`term_pipe_fd`]).
fn term_pipe() -> &'static (std::io::PipeReader, std::io::PipeWriter) {
    static PIPE: std::sync::OnceLock<(std::io::PipeReader, std::io::PipeWriter)> =
        std::sync::OnceLock::new();
    PIPE.get_or_init(|| std::io::pipe().expect("a pipe for the termination signal"))
}

/// The raw write end of the termination self-pipe, for a signal
/// handler's `write(2)`. Call it before installing the handler: it
/// creates the pipe.
#[cfg(unix)]
#[must_use]
pub fn term_pipe_fd() -> i32 {
    std::os::fd::AsRawFd::as_raw_fd(&term_pipe().1)
}

/// A CLI failure: a message and the exit code to use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Suggested process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 2,
        }
    }

    fn failed(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<nonstrict_store::StoreError> for CliError {
    fn from(e: nonstrict_store::StoreError) -> CliError {
        CliError::failed(e.to_string())
    }
}

/// The checkpoint log `--journal PATH` names: an `NSJL` log on the
/// real filesystem, in PATH's directory (created if needed).
fn journal_log(path: &str) -> Result<JournalLog, CliError> {
    let p = Path::new(path);
    let dir = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let name = p
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| CliError::usage(format!("--journal {path}: not a valid file name")))?;
    Ok(JournalLog::new(Arc::new(RealFs::open(dir)?), name))
}

/// The usage text.
pub const USAGE: &str = "\
nonstrict — non-strict execution for mobile programs

USAGE:
  nonstrict list
  nonstrict inspect  <benchmark> [--class N]
  nonstrict disasm   <benchmark> [--class N] [--method M]
  nonstrict order    <benchmark> [--source scg|plain|train|test]
  nonstrict partition <benchmark>
  nonstrict simulate <benchmark> [--link t1|modem|cpb:N] [--ordering scg|train|test|source]
                                 [--transfer strict|parN|parinf|interleaved]
                                 [--partitioned] [--strict-execution]
                                 [--verify off|stream|full]
                                 [--fault-seed N] [--loss PPM] [--drop PPM]
                                 [--corrupt PPM] [--droop PPM] [--semantic PPM]
                                 [--outage-seed N] [--outage-rate PPM] [--outage-cycles N]
                                 [--journal PATH] [--interrupt CYCLE]
                                 [--replicas N] [--replica-spread PPM]
                                 [--hedge-deadline CYCLES]
                                 [--byzantine-mirrors N] [--byzantine-seed N]
                                 [--byzantine-mode stale-epoch|equivocate|collude]
                                 [--audit-rate PPM]
                                 [--clients N] [--client-spread PPM]
                                 [--admit-rate N] [--shed-ladder off|H,S,J]
  nonstrict timeline <benchmark> [--link t1|modem] [--ordering scg|plain|train|test]
  nonstrict paper    [all|table2..table10|fig6|summary|faults|verify|outage|replicas|
                      byzantine|overload|chaos [--repro FILE]|csv [DIR]]
  nonstrict serve    [benchmark..] [--addr A] [--ordering O] [--pace-us N]
                     [--max-conns N] [--accept-burst N] [--accept-per-sec N]
                     [--min-bytes-per-sec N] [--drain-ms N]
  nonstrict loadgen  [benchmark] [--addr A | --mirrors A,B,..] [CLIENT FLAGS]
  nonstrict fleet    [benchmark] [--mirrors N] [--crash-plan SEED[:KILLS[:WINDOW-MS]]]
                     [--epoch-rollover MS] [CLIENT FLAGS]

CLIENT FLAGS: [--clients N] [--seed N] [--spread-ms N] [--attempts N]
              [--pace-us N] [--ordering O] [--chaos] [--forge PPM]
              [--fault-seed N] [--loss PPM] [--drop PPM] [--corrupt PPM]
              [--droop PPM] [--semantic PPM]
              [--journal-dir D [--kill-after-units N]]

Paper: regenerates the ASPLOS '98 tables and Figure 6 (bare `paper`
means `all`), the robustness sweeps, and the CSV export (DIR defaults
to results/). `chaos --repro FILE` replays one NSCR repro artifact.

Wire: `serve` streams restructured class files over TCP (all six
benchmarks when none are named), prints `serving on ADDR`, and drains
at unit boundaries on SIGTERM. `loadgen` replays a seeded arrival
schedule against a self-served loopback server, a running `serve`
(--addr), or a mirror list (--mirrors). `fleet` supervises N crash-
restarting mirrors, optionally killed on a seeded --crash-plan and
rolled to a new restructure epoch after --epoch-rollover MS. Any fault
knob, --chaos or --forge fronts the first mirror with the socket-level
chaos proxy. --journal-dir journals each client durably (client-I
subtrees); --kill-after-units kills each client at that unit and warm-
restarts it from its journal. Exit status is 2 for usage errors and 1
for any invariant violation, failed client or forced drain.

Outage/resume: --interrupt kills the session at a base cycle and writes
the checkpoint journal to --journal PATH; rerunning with --journal alone
resumes from it (torn journals fail closed to a strict restart).

Simulate flags are NSCR scenario keys under CLI names (README has the
table): a flag accepts exactly the values and ranges its key does in a
`paper chaos --repro` artifact.

Replica sets: --replicas N downloads from N mirrors (1..=8) with
health-scored routing and hedged demand fetches; --replica-spread sets
the per-mirror bandwidth droop (ppm) and --hedge-deadline the stall
budget before a duplicate fetch goes to the runner-up mirror. Both
tuning flags require --replicas 2 or more; --replicas 1 is byte-
identical to no replica flags at all.

Byzantine mirrors: --byzantine-mirrors N turns the N highest-numbered
mirrors of the replica set dishonest (at most --replicas - 1, so the
origin-pinned manifest always has an honest source to fail over to);
--byzantine-mode picks how they misbehave (stale-epoch: keep serving
the pre-restructure layout past the epoch fence; equivocate: serve
divergent bytes the per-unit manifest digest catches at the unit
boundary; collude: forge digests so only cross-mirror audits catch
them); --byzantine-seed seeds the misbehavior plan and --audit-rate
sets the cross-mirror audit sampling rate in ppm of delivered units.
--byzantine-mirrors 0 is byte-identical to no byzantine flags at all.

Fleets: --clients N runs N concurrent sessions (the named benchmark
first, the rest cycling through the suite) behind one shared T1 egress
pipe under deficit-round-robin fair sharing, and reports a per-client
outcome table. --client-spread sets the per-client access-link
bandwidth droop (ppm, client i is i*PPM slower); --admit-rate the
token-bucket admission rate (sessions per ~20 ms period, 0 disables);
--shed-ladder H,S,J the queue-delay rungs (cycles) at which a client's
hedges are dropped, its transfer is forced strict, or it is shed to a
journal checkpoint and resumed. The tuning flags require --clients 2
or more; --clients 1 is byte-identical to no fleet flags at all, and
--clients does not combine with --interrupt/--journal (the shed
ladder journals and resumes internally).

BENCHMARKS: bit, hanoi, javacup, jess, jhlzip, testdes";

/// Runs the CLI on `args` (without the program name), returning the
/// output text. The long-running wire commands (`serve`, `loadgen`,
/// `fleet`) print their reports as they go and return an empty string.
///
/// # Errors
///
/// [`CliError`] with a message and exit code on bad usage, benchmark
/// faults, or — for the wire commands — any invariant violation,
/// failed client or forced drain.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage(USAGE));
    };
    match command.as_str() {
        "list" => parse_flags(args, &LIST).and_then(|_| cmd_list()),
        "inspect" => cmd_inspect(&parse_flags(args, &INSPECT)?),
        "disasm" => cmd_disasm(&parse_flags(args, &DISASM)?),
        "order" => cmd_order(&parse_flags(args, &ORDER)?),
        "partition" => cmd_partition(&parse_flags(args, &PARTITION)?),
        "simulate" => cmd_simulate(&parse_flags(args, &SIMULATE)?),
        "timeline" => cmd_timeline(&parse_flags(args, &TIMELINE)?),
        "paper" => cmd_paper(&parse_flags(args, &PAPER)?),
        "serve" => cmd_serve(&parse_flags(args, &SERVE)?),
        "loadgen" => cmd_loadgen(&parse_flags(args, &LOADGEN)?),
        "fleet" => cmd_fleet(&parse_flags(args, &FLEET)?),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

/// Parsed command arguments: positionals plus `--key value` and
/// `--flag` options.
#[derive(Debug, Default)]
struct Flags {
    positional: Vec<String>,
    options: std::collections::HashMap<String, String>,
}

impl Flags {
    fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// The first positional argument, if any.
    fn first(&self) -> Option<&str> {
        self.positional.first().map(String::as_str)
    }

    fn app(&self) -> Result<Application, CliError> {
        let name = self
            .first()
            .ok_or_else(|| CliError::usage("missing <benchmark> argument"))?;
        nonstrict_workloads::build_by_name(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown benchmark {name:?}; expected one of {:?}",
                nonstrict_workloads::BENCHMARK_NAMES
            ))
        })
    }

    fn num_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("--{key} expects a number, got {v:?}"))),
        }
    }

    fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.num_opt(key)?.unwrap_or(default))
    }
}

/// One `simulate` flag lowered to the NSCR key it sets
/// ([`ChaosScenario::set`]). `simulate` is a thin front for the repro
/// format: both spell a run with the same keys, values and range rules
/// ([`ChaosScenario::validate`]).
struct SimFlag {
    /// The flag, without its `--`.
    flag: &'static str,
    /// The NSCR key it sets.
    key: &'static str,
    /// The value the row sets instead of the flag's own (switches, and
    /// defaults a flag implies).
    fixed: Option<&'static str>,
    /// When the row lowers.
    gate: Gate,
}

/// When a [`SimFlag`] row lowers.
#[derive(Clone, Copy)]
enum Gate {
    /// Whenever its flag is given.
    Always,
    /// A tuning flag of the dimension `--OPENER N` opens: a usage error
    /// without the opener or with `1 <= N < MIN`, lowered once `N >=
    /// MIN`. `N = 0` is left to the range rules, which reject 0 mirrors
    /// or clients and read 0 Byzantine mirrors as an honest fleet that
    /// ignores its tuning.
    Needs(&'static str, u64),
    /// Only alongside its opener: `--fault-seed` also seeds the replica
    /// and fleet sections `--replicas` and `--clients` open.
    With(&'static str),
}

impl SimFlag {
    const fn new(flag: &'static str, key: &'static str) -> SimFlag {
        SimFlag {
            flag,
            key,
            fixed: None,
            gate: Gate::Always,
        }
    }

    const fn fixed(self, value: &'static str) -> SimFlag {
        SimFlag {
            fixed: Some(value),
            ..self
        }
    }

    const fn needs(self, opener: &'static str, min: u64) -> SimFlag {
        SimFlag {
            gate: Gate::Needs(opener, min),
            ..self
        }
    }

    const fn with(self, opener: &'static str) -> SimFlag {
        SimFlag {
            gate: Gate::With(opener),
            ..self
        }
    }
}

/// `simulate`'s flag → NSCR key table, in lowering order: each
/// dimension's opener before the rows it gates. `--interrupt` and
/// `--journal` stay CLI-owned.
const SIM_FLAGS: &[SimFlag] = &[
    SimFlag::new("link", "link"),
    SimFlag::new("ordering", "ordering"),
    SimFlag::new("transfer", "transfer"),
    SimFlag::new("partitioned", "layout").fixed("part"),
    SimFlag::new("strict-execution", "execution").fixed("strict"),
    SimFlag::new("verify", "verify"),
    SimFlag::new("fault-seed", "fault.seed"),
    SimFlag::new("loss", "fault.loss_pm"),
    SimFlag::new("drop", "fault.drop_pm"),
    SimFlag::new("corrupt", "fault.corrupt_pm"),
    SimFlag::new("droop", "fault.droop_pm"),
    SimFlag::new("semantic", "fault.semantic_pm"),
    SimFlag::new("outage-seed", "outage.seed"),
    SimFlag::new("outage-rate", "outage.rate_pm"),
    SimFlag::new("outage-cycles", "outage.min_cycles"),
    SimFlag::new("outage-cycles", "outage.max_cycles"),
    SimFlag::new("replicas", "replica.replicas"),
    SimFlag::new("fault-seed", "replica.seed").with("replicas"),
    SimFlag::new("replica-spread", "replica.spread_pm").needs("replicas", 2),
    SimFlag::new("hedge-deadline", "replica.hedge_deadline_cycles").needs("replicas", 2),
    SimFlag::new("byzantine-mirrors", "byz.mirrors").needs("replicas", 2),
    SimFlag::new("byzantine-seed", "byz.seed").needs("byzantine-mirrors", 1),
    SimFlag::new("byzantine-mode", "byz.mode").needs("byzantine-mirrors", 1),
    SimFlag::new("audit-rate", "byz.audit_rate_pm").needs("byzantine-mirrors", 1),
    SimFlag::new("clients", "overload.clients"),
    SimFlag::new("fault-seed", "overload.seed").with("clients"),
    // `simulate` fleets start on equal access links.
    SimFlag::new("clients", "overload.spread_pm").fixed("0"),
    SimFlag::new("client-spread", "overload.spread_pm").needs("clients", 2),
    SimFlag::new("admit-rate", "overload.admit_rate").needs("clients", 2),
    SimFlag::new("shed-ladder", "overload.ladder").needs("clients", 2),
];

/// Lowers `simulate`'s flags through [`SIM_FLAGS`] into a validated
/// scenario for `bench`. Errors name the flag that passed the value,
/// not the NSCR key.
fn scenario_from_flags(flags: &Flags, bench: &str) -> Result<ChaosScenario, CliError> {
    let usage = |e: ScenarioError| {
        CliError::usage(e.render(&|key| {
            SIM_FLAGS
                .iter()
                .find(|r| r.key == key && r.fixed.is_none())
                .map_or_else(|| key.to_owned(), |r| format!("--{}", r.flag))
        }))
    };
    let mut sc = ChaosScenario::new(
        bench,
        SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph),
    );
    for row in SIM_FLAGS {
        let Some(value) = flags.get(row.flag) else {
            continue;
        };
        let lower = match row.gate {
            Gate::Always => true,
            Gate::With(opener) => flags.has(opener),
            Gate::Needs(opener, min) => match flags.num_opt::<u64>(opener)? {
                Some(0) => false,
                Some(n) if n >= min => true,
                _ => {
                    return Err(CliError::usage(format!(
                        "--{} only makes sense with --{opener} {min} or more",
                        row.flag
                    )))
                }
            },
        };
        if lower {
            sc.set(row.key, row.fixed.unwrap_or(value)).map_err(usage)?;
        }
    }
    sc.validate().map_err(usage)?;
    Ok(sc)
}

/// What one subcommand accepts. The parser rejects everything else, so
/// a flag meant for another subcommand — or a typo — is never silently
/// ignored.
struct Accepts {
    /// Keys that take a value, in space-separated groups.
    values: &'static [&'static str],
    /// Whether the fault knobs ([`FaultKnobs::KEYS`], their one spelling
    /// source) take values too.
    fault_knobs: bool,
    /// Space-separated boolean switches.
    switches: &'static str,
    /// At most this many positional arguments.
    positionals: usize,
}

impl Accepts {
    const fn new(
        values: &'static [&'static str],
        switches: &'static str,
        positionals: usize,
    ) -> Accepts {
        Accepts {
            values,
            fault_knobs: false,
            switches,
            positionals,
        }
    }

    const fn with_fault_knobs(self) -> Accepts {
        Accepts {
            fault_knobs: true,
            ..self
        }
    }

    fn takes_value(&self, key: &str) -> bool {
        self.values
            .iter()
            .any(|g| g.split_whitespace().any(|k| k == key))
            || (self.fault_knobs && FaultKnobs::KEYS.contains(&key))
    }
}

const LIST: Accepts = Accepts::new(&[], "", 0);
const INSPECT: Accepts = Accepts::new(&["class"], "", 1);
const DISASM: Accepts = Accepts::new(&["class method"], "", 1);
const ORDER: Accepts = Accepts::new(&["source"], "", 1);
const PARTITION: Accepts = Accepts::new(&[], "", 1);
const SIMULATE: Accepts = Accepts::new(
    &[
        "link ordering transfer verify journal interrupt",
        "outage-seed outage-rate outage-cycles replicas replica-spread hedge-deadline",
        "byzantine-seed byzantine-mirrors byzantine-mode audit-rate",
        "clients client-spread admit-rate shed-ladder",
    ],
    "partitioned strict-execution",
    1,
)
.with_fault_knobs();
const TIMELINE: Accepts = Accepts::new(&["link ordering"], "", 1);
/// `paper <table> [DIR]`: the second positional is `csv`'s directory.
const PAPER: Accepts = Accepts::new(&["repro"], "", 2);
const SERVE: Accepts = Accepts::new(
    &[
        "addr ordering pace-us drain-ms",
        "max-conns accept-burst accept-per-sec min-bytes-per-sec",
    ],
    "",
    usize::MAX,
);
/// The client-side keys `loadgen` and `fleet` share.
const CLIENT_KEYS: &str = "ordering clients seed spread-ms attempts pace-us forge journal-dir \
                           kill-after-units";
const LOADGEN: Accepts =
    Accepts::new(&[CLIENT_KEYS, "addr mirrors"], "chaos", 1).with_fault_knobs();
const FLEET: Accepts = Accepts::new(
    &[CLIENT_KEYS, "mirrors crash-plan epoch-rollover"],
    "chaos",
    1,
)
.with_fault_knobs();

/// Parses `args` (the subcommand name first) against what the
/// subcommand `accepts`.
fn parse_flags(args: &[String], accepts: &Accepts) -> Result<Flags, CliError> {
    let mut flags = Flags::default();
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if accepts.takes_value(key) {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?;
                flags.options.insert(key.to_owned(), v.clone());
            } else if accepts.switches.split_whitespace().any(|k| k == key) {
                flags.options.insert(key.to_owned(), String::new());
            } else {
                return Err(CliError::usage(format!("unknown flag --{key}")));
            }
        } else if flags.positional.len() < accepts.positionals {
            flags.positional.push(a.clone());
        } else {
            return Err(CliError::usage(format!("unexpected argument {a:?}")));
        }
    }
    Ok(flags)
}

fn cmd_list() -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>8} {:>9} {:>6}",
        "benchmark", "classes", "methods", "size KB", "CPI"
    );
    for app in nonstrict_workloads::build_all() {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>8} {:>9.1} {:>6}",
            app.name,
            app.classes.len(),
            app.program.method_count(),
            app.total_size() as f64 / 1024.0,
            app.cpi
        );
    }
    Ok(out)
}

fn cmd_inspect(flags: &Flags) -> Result<String, CliError> {
    let app = flags.app()?;
    let mut out = String::new();
    match flags.num_opt::<usize>("class")? {
        Some(ci) => {
            let class = app.classes.get(ci).ok_or_else(|| {
                CliError::usage(format!(
                    "class {ci} out of range (0..{})",
                    app.classes.len()
                ))
            })?;
            let name = class.name().map_err(|e| CliError::usage(e.to_string()))?;
            let _ = writeln!(out, "class {name} ({} bytes)", class.total_size());
            let _ = writeln!(
                out,
                "  global data: {} bytes ({} pool entries)",
                class.global_data_size(),
                class.constant_pool.len()
            );
            let b = GlobalDataBreakdown::of(class);
            let [cpool, field, attrib, intfc] = b.section_percentages();
            let _ = writeln!(
                out,
                "  breakdown: cpool {cpool:.1}%  fields {field:.1}%  attribs {attrib:.1}%  interfaces {intfc:.1}%"
            );
            for (mi, m) in class.methods.iter().enumerate() {
                let mname = class.method_name(mi).unwrap_or("?");
                let _ = writeln!(
                    out,
                    "  method {mi:>3}: {mname:<28} code {:>5}B  local data {:>5}B",
                    m.code_size(),
                    m.local_data_size()
                );
            }
        }
        None => {
            let _ = writeln!(out, "{} — {} classes", app.name, app.classes.len());
            for (ci, class) in app.classes.iter().enumerate() {
                let name = class.name().map_err(|e| CliError::usage(e.to_string()))?;
                let _ = writeln!(
                    out,
                    "  {ci:>3}: {:<40} {:>7}B  ({} methods, {}B global)",
                    name.0,
                    class.total_size(),
                    class.methods.len(),
                    class.global_data_size()
                );
            }
        }
    }
    Ok(out)
}

fn cmd_disasm(flags: &Flags) -> Result<String, CliError> {
    let app = flags.app()?;
    let ci = flags.num_opt::<usize>("class")?.unwrap_or(0);
    let class = app
        .classes
        .get(ci)
        .ok_or_else(|| CliError::usage(format!("class {ci} out of range")))?;
    let mut out = String::new();
    let targets: Vec<usize> = match flags.num_opt::<usize>("method")? {
        Some(mi) if mi < class.methods.len() => vec![mi],
        Some(mi) => return Err(CliError::usage(format!("method {mi} out of range"))),
        None => (0..class.methods.len()).collect(),
    };
    for mi in targets {
        let m = &class.methods[mi];
        let name = class.method_name(mi).unwrap_or("?");
        let _ = writeln!(out, "method {mi}: {name}");
        if let Some(Attribute::Code {
            code,
            max_stack,
            max_locals,
            ..
        }) = m.code_attribute()
        {
            let _ = writeln!(
                out,
                "  stack={max_stack}, locals={max_locals}, {} bytes",
                code.len()
            );
            let text = nonstrict_bytecode::listing(code, &class.constant_pool)
                .map_err(|e| CliError::failed(e.to_string()))?;
            out.push_str(&text);
        } else {
            let _ = writeln!(out, "  (no code)");
        }
        out.push('\n');
    }
    Ok(out)
}

fn cmd_order(flags: &Flags) -> Result<String, CliError> {
    let app = flags.app()?;
    let source = flags.get("source").unwrap_or("scg");
    let order = first_use_order(&app, source)?;
    let mut out = String::new();
    let _ = writeln!(out, "{} first-use order ({source}):", app.name);
    for (i, &m) in order.order().iter().enumerate() {
        let class = &app.program.class(m.class);
        let method = &app.program.method(m);
        let _ = writeln!(out, "{:>5}. {}::{}", i + 1, class.name, method.name);
    }
    Ok(out)
}

/// The first-use order `source` predicts for `app`: the static call
/// graph (`scg`), plain DFS without the loop heuristics (`plain`), or a
/// `train`/`test` profile.
fn first_use_order(app: &Application, source: &str) -> Result<FirstUseOrder, CliError> {
    let input = match source {
        "scg" => return Ok(static_first_use(&app.program)),
        "plain" => return Ok(static_first_use_plain(&app.program)),
        "train" => Input::Train,
        "test" => Input::Test,
        other => {
            return Err(CliError::usage(format!(
                "unknown ordering source {other:?}; use scg|plain|train|test"
            )))
        }
    };
    let collected =
        nonstrict_profile::collect(app, input).map_err(|e| CliError::failed(e.to_string()))?;
    Ok(FirstUseOrder::from_profile(
        &app.program,
        &collected.profile,
        &static_first_use(&app.program),
    ))
}

fn cmd_partition(flags: &Flags) -> Result<String, CliError> {
    let app = flags.app()?;
    let parts = partition_app(&app);
    let summary = nonstrict_reorder::partition::summarize(&app, &parts);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: local {:.1} KB, global {:.1} KB — needed-first {:.1}%, in-methods {:.1}%, unused {:.1}%",
        app.name,
        summary.local_kb,
        summary.global_kb,
        summary.pct_needed_first,
        summary.pct_in_methods,
        summary.pct_unused
    );
    let _ = writeln!(
        out,
        "{:<42} {:>9} {:>12} {:>11} {:>8}",
        "class", "global B", "needed-first", "in-methods", "unused"
    );
    for (ci, p) in parts.iter().enumerate() {
        let name = app.classes[ci]
            .name()
            .map_err(|e| CliError::usage(e.to_string()))?;
        let _ = writeln!(
            out,
            "{:<42} {:>9} {:>12} {:>11} {:>8}",
            name.0, p.global_total, p.needed_first, p.in_methods, p.unused
        );
    }
    Ok(out)
}

/// Parses the `--link` flag (default `modem`) through the netsim
/// crate's canonical name table.
fn parse_link(flags: &Flags) -> Result<Link, CliError> {
    let name = flags.get("link").unwrap_or("modem");
    Link::by_name(name).ok_or_else(|| {
        CliError::usage(nonstrict_wire::ConfigError::UnknownLink(name.to_owned()).to_string())
    })
}

/// Parses the `--ordering` flag (default `scg`) through the wire
/// crate's ordering vocabulary — the same spellings and codes a Hello
/// frame carries to `serve`.
fn parse_ordering(flags: &Flags) -> Result<OrderingSource, CliError> {
    let name = flags.get("ordering").unwrap_or("scg");
    let code =
        nonstrict_wire::config::ordering_code(name).map_err(|e| CliError::usage(e.to_string()))?;
    nonstrict_core::ordering_from_wire(code)
        .ok_or_else(|| CliError::usage(format!("ordering {name:?} has no simulator source")))
}

fn cmd_simulate(flags: &Flags) -> Result<String, CliError> {
    let app = flags.app()?;
    let sc = scenario_from_flags(flags, &app.name)?;
    let config = sc.config;
    let link = config.link;
    if flags.has("clients") && (flags.has("interrupt") || flags.has("journal")) {
        return Err(CliError::usage(
            "--clients does not combine with --interrupt/--journal \
             (the shed ladder journals and resumes internally)",
        ));
    }
    // A fleet of one never queues: the single-client path below is
    // bit-identical (asserted in core::fleet's tests), so it takes that
    // path rather than render a one-row outcome table.
    if let Some(ov) = sc.active_overload() {
        return simulate_fleet(app, &config, &ov);
    }

    let session = Session::new(app).map_err(|e| CliError::failed(e.to_string()))?;
    let base = session.simulate(Input::Test, &SimConfig::strict(link));
    let mut prelude = String::new();
    let r = if let Some(at) = flags.num_opt::<u64>("interrupt")? {
        let path = flags.get("journal").ok_or_else(|| {
            CliError::usage("--interrupt needs --journal PATH to store the checkpoint")
        })?;
        match session.run_until(Input::Test, &config, at) {
            RunOutcome::Interrupted(journal) => {
                // One atomic write (temp file, fsync, rename, directory
                // fsync): a crash leaves the old log or the new one.
                journal_log(path)?.rewrite(&[journal.encode()])?;
                let size = std::fs::metadata(path).map_or(0, |m| m.len());
                return Ok(format!(
                    "{}: session killed at base cycle {at}; checkpoint journal ({size} bytes) written to {path}\n  resume by rerunning with --journal {path} (without --interrupt)\n",
                    session.app.name,
                ));
            }
            RunOutcome::Finished(r) => {
                let _ = writeln!(
                    prelude,
                    "  (run finished at {} cycles, before the --interrupt point {at}; no journal written)",
                    r.total_cycles
                );
                *r
            }
        }
    } else if let Some(path) = flags.get("journal") {
        let size = std::fs::metadata(path)
            .map_err(|e| CliError::failed(format!("cannot read journal {path}: {e}")))?
            .len();
        let r = session.resume(
            Input::Test,
            &config,
            &journal_log(path)?,
            OutagePlan::DEFAULT_NEGOTIATION_CYCLES,
        );
        let _ = writeln!(
            prelude,
            "  resumed from journal {path} ({size} bytes): {}",
            if r.outage.failed_closed {
                "FAIL-CLOSED — journal untrusted, restarted under strict execution"
            } else if r.outage.refetched_classes > 0 {
                "resumed with targeted refetch of stale classes"
            } else {
                "resumed cleanly"
            }
        );
        r
    } else {
        session.simulate(Input::Test, &config)
    };
    // Checked in release too, as `chaos::run_scenario` does: a ledger
    // whose buckets do not sum to the total is a fault, not a result.
    if r.ledger.total() != r.total_cycles {
        return Err(CliError::failed(format!(
            "ledger inexact: total {} != bucket sum {}",
            r.total_cycles,
            r.ledger.total()
        )));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {} — {:?}",
        session.app.name, link.name, config
    );
    out.push_str(&prelude);
    let _ = writeln!(
        out,
        "  total:              {:>12} cycles ({:.2} s on the 500MHz Alpha)",
        r.total_cycles,
        cycles_to_seconds(r.total_cycles)
    );
    let _ = writeln!(
        out,
        "  normalized:         {:>11.1}% of the strict baseline ({} cycles)",
        normalized_percent(r.total_cycles, base.total_cycles),
        base.total_cycles
    );
    let _ = writeln!(
        out,
        "  invocation latency: {:>12} cycles ({:.2} s; strict {:.2} s)",
        r.invocation_latency,
        cycles_to_seconds(r.invocation_latency),
        cycles_to_seconds(base.invocation_latency)
    );
    let _ = writeln!(
        out,
        "  stalls:             {:>12} ({} cycles)",
        r.stalls, r.ledger.stall
    );
    let _ = writeln!(
        out,
        "  linker:             {} classes verified, {} methods verified, {} resolved",
        r.link_stats.classes_verified, r.link_stats.methods_verified, r.link_stats.methods_resolved
    );
    if config.verify != VerifyMode::Off {
        let _ = writeln!(
            out,
            "  verification:       {:>12} cycles ({} mode, {:.2}% of total)",
            r.ledger.verify,
            config.verify.label(),
            nonstrict_core::metrics::share_percent(r.ledger.verify, r.total_cycles)
        );
    }
    if config.active_faults().is_some() {
        let f = &r.faults;
        let _ = writeln!(
            out,
            "  fault recovery:     {:>12} cycles ({} retries: {} lost-timeout, {} corrupt, {} quarantined, {} drops)",
            r.ledger.recovery,
            f.retries,
            f.lost,
            f.corrupted,
            f.quarantined,
            f.drops
        );
        let _ = writeln!(
            out,
            "  degradation:        {} classes demoted to strict{}; run {}",
            r.degraded_classes,
            if r.session_degraded {
                " (session fell back to strict)"
            } else {
                ""
            },
            if r.completed {
                "completed"
            } else {
                "incomplete"
            }
        );
        if f.forced > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} deliveries exhausted the retry cap and were forced through — the link is at the protocol's survivable edge",
                f.forced
            );
        }
    }
    if r.outage.outages > 0 || r.outage.failed_closed || config.active_outages().is_some() {
        let o = &r.outage;
        let _ = writeln!(
            out,
            "  outages:            {} survived, {} journal resumes, {} classes refetched{}",
            o.outages,
            o.resumes,
            o.refetched_classes,
            if o.failed_closed {
                " (FAIL-CLOSED restart)"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "  resume cost:        {:>12} cycles ({:.2}% of total)",
            r.ledger.resume,
            nonstrict_core::metrics::share_percent(r.ledger.resume, r.total_cycles)
        );
    }
    if config.active_replicas().is_some() {
        let rep = &r.replica;
        let _ = writeln!(
            out,
            "  replica set:        {} mirrors, {} failovers, {} hedged fetches ({} won)",
            rep.replicas, rep.failovers, rep.hedges, rep.hedge_wins
        );
        let _ = writeln!(
            out,
            "  hedge cost:         {:>12} cycles ({:.2}% of total){}",
            r.ledger.hedge,
            nonstrict_core::metrics::share_percent(r.ledger.hedge, r.total_cycles),
            if rep.sole_survivor {
                " — SOLE SURVIVOR, session failed closed to strict"
            } else {
                ""
            }
        );
        if let Some(bc) = config.active_byzantine() {
            let ist = &r.integrity;
            let _ = writeln!(
                out,
                "  byzantine:          {} of {} mirrors dishonest ({}), audit rate {} ppm",
                bc.mirrors,
                rep.replicas,
                bc.mode.label(),
                bc.audit_rate_pm
            );
            let _ = writeln!(
                out,
                "  integrity:          {} manifest pins, {} digest checks, {} divergent units ({} undetected), {} audits ({} mismatched), {} quarantines",
                ist.manifest_pins,
                ist.digest_checks,
                ist.divergent_units,
                ist.undetected_units,
                ist.audits,
                ist.audit_mismatches,
                ist.quarantines
            );
            let _ = writeln!(
                out,
                "  integrity cost:     {:>12} cycles ({:.2}% of total); {} fence refetches, {} bytes refetched",
                r.ledger.integrity,
                nonstrict_core::metrics::share_percent(r.ledger.integrity, r.total_cycles),
                ist.fence_refetches,
                ist.refetched_bytes
            );
        }
        let armed = config.active_byzantine().is_some();
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>7} {:>10} {:>8} {:>8} {:>6} {:>6}",
            "mirror", "health", "units", "bytes", "retries", "outages", "equiv", "state"
        );
        for (i, h) in rep.health.iter().take(rep.replicas as usize).enumerate() {
            let state = if h.quarantined && armed {
                "quar"
            } else if h.alive {
                "live"
            } else {
                "dead"
            };
            let _ = writeln!(
                out,
                "  {:<10} {:>7.1}% {:>7} {:>10} {:>8} {:>8} {:>6} {:>6}",
                format!("mirror {i}"),
                f64::from(h.health_ppm) / 10_000.0,
                h.units_served,
                h.bytes_served,
                h.retries,
                h.outage_hits,
                h.equivocations,
                state
            );
        }
    }
    Ok(out)
}

/// Runs `--clients N` concurrent sessions behind the shared egress pipe
/// and renders the fleet report: aggregate tail latency, admission and
/// shed-ladder outcomes, and the per-client outcome table.
fn simulate_fleet(
    first: Application,
    config: &SimConfig,
    ov: &OverloadDims,
) -> Result<String, CliError> {
    // Client 0 is the named benchmark; the rest cycle through the
    // suite in table order.
    let mut apps = vec![first];
    for i in 1..ov.clients as usize {
        let name = nonstrict_workloads::BENCHMARK_NAMES
            [(i - 1) % nonstrict_workloads::BENCHMARK_NAMES.len()];
        apps.push(nonstrict_workloads::build_by_name(name).expect("suite benchmark builds"));
    }
    let sessions: Vec<Session> = apps
        .into_iter()
        .map(|app| Session::new(app).map_err(|e| CliError::failed(e.to_string())))
        .collect::<Result<_, _>>()?;
    let clients: Vec<FleetClient> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| FleetClient {
            name: &s.app.name,
            session: s,
            link: config.link.spread(ov.spread_pm, i as u32),
            weight: 1,
        })
        .collect();
    let spec = FleetSpec {
        admission: (ov.admit_rate > 0).then(|| AdmissionSettings::per_period(ov.admit_rate)),
        ladder: ov.ladder,
        ..FleetSpec::seeded(ov.seed)
    };
    let fleet = run_fleet(&spec, &clients, Input::Test, config);

    let fleet_total: u64 = fleet.clients.iter().map(|c| c.result.total_cycles).sum();
    let queue = fleet.queue_cycles();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet of {} over shared {} egress — {:?}",
        ov.clients, fleet.egress.name, config
    );
    let _ = writeln!(
        out,
        "  tail latency:       p50 {} / p95 {} / p99 {} cycles ({:.2} s / {:.2} s / {:.2} s)",
        fleet.p50_total,
        fleet.p95_total,
        fleet.p99_total,
        cycles_to_seconds(fleet.p50_total),
        cycles_to_seconds(fleet.p95_total),
        cycles_to_seconds(fleet.p99_total)
    );
    let _ = writeln!(
        out,
        "  queue cycles:       {:>12} across the fleet ({:.2}% of fleet total)",
        queue,
        share_percent(queue, fleet_total)
    );
    match spec.admission {
        Some(a) => {
            let _ = writeln!(
                out,
                "  admission:          {} per {}-cycle period — {} rejections before everyone got in",
                a.rate,
                a.period_cycles,
                fleet.rejections()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  admission:          disabled (every session admitted on arrival)"
            );
        }
    }
    match ov.ladder {
        Some(l) => {
            let _ = writeln!(
                out,
                "  shed ladder:        {} served, {} hedge-drops, {} forced strict, {} shed to journal (rungs {}/{}/{})",
                fleet.count(ShedAction::None),
                fleet.count(ShedAction::DropHedges),
                fleet.count(ShedAction::ForceStrict),
                fleet.count(ShedAction::Shed),
                l.drop_hedges,
                l.force_strict,
                l.shed
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  shed ladder:        off (every client served unmodified)"
            );
        }
    }
    let _ = writeln!(
        out,
        "  {:<3} {:<10} {:<7} {:>9} {:>4} {:>14} {:>14} {:>14} {:<12}",
        "i", "benchmark", "link", "cyc/B", "rej", "admit-wait", "drr-queue", "total", "outcome"
    );
    for (i, c) in fleet.clients.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<3} {:<10} {:<7} {:>9} {:>4} {:>14} {:>14} {:>14} {:<12}",
            i,
            c.name,
            c.link.name,
            c.link.cycles_per_byte,
            c.rejections,
            c.admission_wait,
            c.drr_queue,
            c.result.total_cycles,
            c.action.label()
        );
    }
    Ok(out)
}

fn cmd_timeline(flags: &Flags) -> Result<String, CliError> {
    use nonstrict_netsim::{
        class_units, greedy_schedule, ParallelEngine, TransferEngine, Weights, DELIMITER_BYTES,
    };
    use nonstrict_reorder::restructure;

    let app = flags.app()?;
    let link = parse_link(flags)?;
    let order = first_use_order(&app, flags.get("ordering").unwrap_or("scg"))?;
    let r = restructure(&app, &order);
    let units = class_units(&app, &r, None, DELIMITER_BYTES);
    let schedule = greedy_schedule(&app, &order, &units, &r.layouts, Weights::Static);
    let mut engine = ParallelEngine::new(link, units.clone(), &schedule, 4);
    let finish = engine.finish_time();

    const WIDTH: usize = 64;
    let col = |t: u64| -> usize { (t as u128 * WIDTH as u128 / finish.max(1) as u128) as usize };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {}: parallel(4) transfer timeline, {} total cycles",
        app.name, link.name, finish
    );
    let _ = writeln!(
        out,
        "{:<36} |{}|",
        "class (in schedule order)",
        "-".repeat(WIDTH)
    );
    for &c in &schedule.class_order {
        let first = engine.recorded_arrival(c, 0).unwrap_or(finish);
        let last = engine
            .recorded_arrival(c, units[c].unit_count() - 1)
            .unwrap_or(finish);
        let (a, b) = (col(first).min(WIDTH - 1), col(last).min(WIDTH - 1));
        let mut bar = vec![b' '; WIDTH];
        bar[a..=b].fill(b'#');
        let name = app.classes[c]
            .name()
            .map_err(|e| CliError::usage(e.to_string()))?;
        let shown: String = name
            .0
            .chars()
            .rev()
            .take(34)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        let _ = writeln!(
            out,
            "{:<36} |{}|",
            shown,
            String::from_utf8(bar).expect("ascii")
        );
    }
    let _ = writeln!(out, "(# spans prelude-arrival .. last-unit-arrival)");
    Ok(out)
}

/// `paper`: regenerates one of the ASPLOS '98 tables, Figure 6, the
/// headline summary, a robustness sweep, or the CSV export; `chaos
/// --repro FILE` replays one NSCR artifact without building the suite.
fn cmd_paper(flags: &Flags) -> Result<String, CliError> {
    let table = flags.first().unwrap_or("all");
    let dir = flags.positional.get(1);
    if let Some(extra) = dir.filter(|_| table != "csv") {
        return Err(CliError::usage(format!("unexpected argument {extra:?}")));
    }
    if let Some(path) = flags.get("repro") {
        if table != "chaos" {
            return Err(CliError::usage("--repro only applies to `paper chaos`"));
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
        return nonstrict_core::chaos::replay_repro(&text)
            .map(|report| format!("{report}\n"))
            .map_err(|e| CliError::usage(format!("bad repro artifact {path}: {e}")));
    }
    let build = match table {
        "csv" => None,
        name => Some(report::lookup(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown paper table {name:?}; use {}|csv",
                report::names()
            ))
        })?),
    };
    eprintln!("building and profiling the six benchmarks...");
    let suite =
        Suite::new().map_err(|e| CliError::failed(format!("benchmarks failed to run: {e}")))?;
    if let Some(build) = build {
        return Ok(report::paper_text(&build(&suite)));
    }
    let dir = dir.map_or("results", String::as_str);
    let files = nonstrict_core::export::export_csv(&suite, Path::new(dir))
        .map_err(|e| CliError::failed(format!("cannot export CSVs to {dir}: {e}")))?;
    Ok(files
        .iter()
        .map(|f| format!("wrote {}\n", f.display()))
        .collect())
}

/// Builds the serve plan for `name` through the same profile →
/// restructure → unit-split pipeline the simulator measures.
fn build_plan(name: &str, source: OrderingSource) -> Result<ServePlan, CliError> {
    eprintln!("building and profiling {name}...");
    nonstrict_core::build_plan(name, source)
        .map_err(|e| CliError::usage(format!("cannot serve {name}: {e}")))
}

/// `serve`: streams restructured class files to concurrent TCP clients
/// until [`TERM`] flips, then drains gracefully at unit boundaries.
fn cmd_serve(flags: &Flags) -> Result<String, CliError> {
    let addr = flags.get("addr").unwrap_or("127.0.0.1:9845");
    let source = parse_ordering(flags)?;
    let d = ServerConfig::default();
    let cfg = ServerConfig {
        max_connections: flags.num_or("max-conns", d.max_connections)?,
        accept_burst: flags.num_or("accept-burst", d.accept_burst)?,
        accept_refill_per_sec: flags.num_or("accept-per-sec", d.accept_refill_per_sec)?,
        min_bytes_per_sec: flags.num_or("min-bytes-per-sec", d.min_bytes_per_sec)?,
        pace_per_unit: flags
            .num_opt("pace-us")?
            .map(Duration::from_micros)
            .or(d.pace_per_unit),
        ..d
    };
    let drain_ms = flags.num_or("drain-ms", 5_000)?;
    let names: Vec<String> = if flags.positional.is_empty() {
        nonstrict_workloads::BENCHMARK_NAMES
            .iter()
            .map(|n| n.to_lowercase())
            .collect()
    } else {
        flags.positional.clone()
    };
    let plans = names
        .iter()
        .map(|n| build_plan(n, source))
        .collect::<Result<_, _>>()?;
    let server = WireServer::bind(addr, plans, cfg)
        .map_err(|e| CliError::usage(format!("cannot bind {addr}: {e}")))?;
    println!("serving on {}", server.local_addr());
    while !TERM.load(Ordering::SeqCst) {
        // Any wake-up, even an interrupted read, re-checks the flag.
        let _ = std::io::Read::read(&mut &term_pipe().0, &mut [0u8; 1]);
    }
    eprintln!("draining ({} in flight)...", server.active_connections());
    let stats = server.stats();
    let drained = server.drain(Duration::from_millis(drain_ms));
    println!(
        "accepted: {} admitted: {} resumed: {} retried: {} evicted slow: {} \
         units sent: {} bytes sent: {}",
        stats.accepted,
        stats.admitted,
        stats.resumed,
        stats.retried,
        stats.evicted_slow,
        stats.units_sent,
        stats.bytes_sent,
    );
    print_drain(&drained)?;
    Ok(String::new())
}

/// Prints a drain outcome; a forced drain is a failure.
fn print_drain(drained: &nonstrict_wire::DrainReport) -> Result<(), CliError> {
    println!(
        "drain: {} ({} in flight, {} forced, {} ms)",
        if drained.clean { "clean" } else { "forced" },
        drained.in_flight_at_drain,
        drained.forced,
        drained.elapsed.as_millis(),
    );
    if drained.clean {
        Ok(())
    } else {
        Err(CliError::failed("drain forced"))
    }
}

/// The client-side settings `loadgen` and `fleet` share.
struct ClientFlags {
    benchmark: String,
    source: OrderingSource,
    clients: usize,
    seed: u64,
    spread_ms: u64,
    attempts: u32,
    pace_us: u64,
    /// The socket-level chaos proxy's settings when any fault knob,
    /// `--chaos` or `--forge` was given.
    chaos: Option<ChaosConfig>,
    kill_after_units: Option<u64>,
    stores: Option<StoreFactory>,
}

/// Parses the [`CLIENT_KEYS`] and fault knobs; `attempts` and `pace_us`
/// are the subcommand's defaults.
fn client_flags(flags: &Flags, attempts: u32, pace_us: u64) -> Result<ClientFlags, CliError> {
    let seed = flags.num_or("seed", 1998)?;
    let forge_pm = flags.num_or("forge", 0)?;
    let mut chaos = flags.has("chaos") || flags.has("forge");
    let mut knobs = FaultKnobs::default();
    for key in FaultKnobs::KEYS {
        if let Some(value) = flags.get(key) {
            knobs
                .set(key, value)
                .map_err(|e| CliError::usage(e.to_string()))?;
            chaos = true;
        }
    }
    if knobs.seed == 0 {
        knobs.seed = seed;
    }
    let mut cf = ClientFlags {
        benchmark: flags.first().unwrap_or("hanoi").to_owned(),
        source: parse_ordering(flags)?,
        clients: flags.num_or("clients", 8)?,
        seed,
        spread_ms: flags.num_or("spread-ms", 200)?,
        attempts: flags.num_or("attempts", attempts)?,
        pace_us: flags.num_or("pace-us", pace_us)?,
        chaos: chaos.then(|| ChaosConfig {
            forge_pm,
            ..ChaosConfig::new(knobs)
        }),
        kill_after_units: flags.num_opt("kill-after-units")?,
        stores: None,
    };
    match flags.get("journal-dir") {
        Some(journal_dir) => cf.stores = Some(store_factory(journal_dir, cf.clients)?),
        None if cf.kill_after_units.is_some() => {
            return Err(CliError::usage("--kill-after-units needs --journal-dir"))
        }
        None => {}
    }
    Ok(cf)
}

/// The per-client durable-store factory for `--journal-dir`: client `i`
/// journals under its own `client-{i}` subdirectory, so concurrent
/// sessions never share a journal. The directories are opened up front,
/// so a bad path is a usage error before any session starts.
fn store_factory(journal_dir: &str, clients: usize) -> Result<StoreFactory, CliError> {
    let dirs = (0..clients)
        .map(|i| {
            RealFs::open(Path::new(journal_dir).join(format!("client-{i}")))
                .map(|fs| Arc::new(fs) as Arc<dyn Vfs>)
                .map_err(|e| CliError::usage(format!("cannot open --journal-dir: {e}")))
        })
        .collect::<Result<Vec<_>, CliError>>()?;
    Ok(Arc::new(move |i: usize| {
        Box::new(DurableSession::new(dirs[i].clone()))
    }))
}

/// Drives the client fleet against `mirrors` — the first fronted by
/// the chaos proxy when asked, so Byzantine forgery lands on the
/// preferred (pinned) mirror while the rest stay honest — with
/// `alongside` running concurrently, then prints the scoreboard.
/// Returns whether every client converged without a violation.
fn run_clients(
    cf: &ClientFlags,
    mut mirrors: Vec<SocketAddr>,
    alongside: impl FnOnce() + Send,
) -> Result<bool, CliError> {
    let proxy = match &cf.chaos {
        Some(chaos) => {
            let upstream = mirrors[0];
            let p = ChaosProxy::spawn(upstream, chaos.clone())
                .map_err(|e| CliError::failed(format!("cannot spawn chaos proxy: {e}")))?;
            eprintln!(
                "chaos proxy fronts mirror 0: {} -> {upstream}",
                p.local_addr()
            );
            mirrors[0] = p.local_addr();
            Some(p)
        }
        None => None,
    };
    let mut client = ClientConfig::with_mirrors(mirrors, &cf.benchmark);
    client.ordering = nonstrict_core::ordering_to_wire(cf.source);
    client.max_attempts = cf.attempts;
    client.kill_after_units = cf.kill_after_units;
    let config = LoadgenConfig {
        client,
        clients: cf.clients,
        seed: cf.seed,
        arrival_spread: Duration::from_millis(cf.spread_ms),
        stores: cf.stores.clone(),
    };
    let report = std::thread::scope(|s| {
        s.spawn(alongside);
        nonstrict_wire::run_loadgen(&config)
    });
    print_loadgen_summary(cf.clients, &report);
    if let Some(p) = proxy {
        let cs = p.stop();
        println!(
            "chaos faults: {} (cuts {} aborts {} corruptions {} stalls {} reorders {} forges {}) \
             over {} connections",
            cs.total_faults(),
            cs.cuts,
            cs.aborts,
            cs.corruptions,
            cs.stalls,
            cs.reorders,
            cs.forges,
            cs.connections,
        );
    }
    Ok(report.violations.is_empty() && report.failed == 0 && report.completed == cf.clients)
}

/// The shared loadgen scoreboard: completion, tails, the robustness
/// counters, and — for mirror fleets — where the bytes actually came
/// from and what was quarantined on the way.
fn print_loadgen_summary(clients: usize, report: &LoadgenReport) {
    println!(
        "clients: {clients} completed: {} failed: {}",
        report.completed, report.failed
    );
    println!(
        "latency ms: p50 {} p95 {} p99 {} max {}",
        report.p50_ms, report.p95_ms, report.p99_ms, report.max_ms
    );
    println!(
        "connects: {} admission retries: {} evictions: {} stream faults: {} order violations: {}",
        report.connects,
        report.admission_retries,
        report.evictions,
        report.stream_faults,
        report.order_violations,
    );
    println!(
        "failovers: {} quarantines: {} digest rejects: {} stale welcomes: {} equivocations: {}",
        report.failovers,
        report.quarantines,
        report.digest_rejects,
        report.stale_welcomes,
        report.equivocations,
    );
    let per_mirror: Vec<String> = report
        .mirror_units
        .iter()
        .enumerate()
        .map(|(i, u)| format!("m{i}: {u}"))
        .collect();
    println!(
        "units per mirror: [{}] layouts seen: {}",
        per_mirror.join(", "),
        report.layouts_seen
    );
    if report.kills > 0 || report.warm_units > 0 {
        println!(
            "process kills: {} units warm-restored: {}",
            report.kills, report.warm_units
        );
    }
    println!("bytes: {}", report.bytes);
    println!("invariant violations: {}", report.violations.len());
    for v in &report.violations {
        println!("  violation: {v}");
    }
}

/// `loadgen`: replays a seeded fleet arrival schedule against a
/// self-served loopback server (or `--addr`, or `--mirrors`), and fails
/// on any cross-client payload divergence.
fn cmd_loadgen(flags: &Flags) -> Result<String, CliError> {
    let explicit = match (flags.get("mirrors"), flags.get("addr")) {
        (Some(spec), _) => {
            Some(nonstrict_wire::parse_mirrors(spec).map_err(|e| CliError::usage(e.to_string()))?)
        }
        (None, Some(addr)) => Some(vec![addr
            .parse()
            .map_err(|e| CliError::usage(format!("bad --addr: {e}")))?]),
        (None, None) => None,
    };
    let cf = client_flags(flags, 10, 50)?;
    let (mirrors, server) = match explicit {
        Some(mirrors) => (mirrors, None),
        None => {
            let cfg = ServerConfig {
                pace_per_unit: Some(Duration::from_micros(cf.pace_us)),
                ..ServerConfig::default()
            };
            let plans = vec![build_plan(&cf.benchmark, cf.source)?];
            let s = WireServer::bind("127.0.0.1:0", plans, cfg)
                .map_err(|e| CliError::failed(format!("cannot bind loopback server: {e}")))?;
            (vec![s.local_addr()], Some(s))
        }
    };
    let ok = run_clients(&cf, mirrors, || {})?;
    if let Some(s) = server {
        print_drain(&s.drain(Duration::from_millis(5_000)))?;
    }
    if ok {
        Ok(String::new())
    } else {
        Err(CliError::failed("loadgen: a client failed or diverged"))
    }
}

/// Parses `--crash-plan SEED[:KILLS[:WINDOW-MS]]`: the seed for the
/// per-mirror kill-time draws, kills per mirror (default 1), and the
/// uniform uptime window the kills spread over (default 500 ms).
fn parse_crash_plan(spec: &str) -> Result<CrashPlan, CliError> {
    let bad = || {
        CliError::usage(format!(
            "bad --crash-plan {spec:?}; use SEED[:KILLS[:WINDOW-MS]]"
        ))
    };
    let parts: Vec<u64> = spec
        .split(':')
        .map(|p| p.parse().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    let (seed, kills, window_ms) = match parts[..] {
        [seed] => (seed, 1, 500),
        [seed, kills] => (seed, kills, 500),
        [seed, kills, window_ms] => (seed, kills, window_ms),
        _ => return Err(bad()),
    };
    Ok(CrashPlan {
        seed,
        kills_per_mirror: u32::try_from(kills).map_err(|_| bad())?,
        min_uptime: Duration::from_millis(100),
        uptime_spread: Duration::from_millis(window_ms.max(1)),
    })
}

/// `fleet`: supervises N crash-restarting mirrors serving one
/// benchmark, drives a client fleet against the slot addresses,
/// optionally rolls the restructure epoch live mid-run, and fails on
/// any cross-client divergence or forced fence drain.
fn cmd_fleet(flags: &Flags) -> Result<String, CliError> {
    let mirrors = flags.num_or("mirrors", 3usize)?;
    if mirrors == 0 {
        return Err(CliError::usage("--mirrors must be at least 1"));
    }
    let crash = flags.get("crash-plan").map(parse_crash_plan).transpose()?;
    let rollover_ms: Option<u64> = flags.num_opt("epoch-rollover")?;
    let cf = client_flags(flags, 60, 500)?;

    // Even generations serve the requested ordering; odd generations
    // serve a genuinely re-restructured layout (a different ordering),
    // so an epoch rollover moves real manifest epochs, not just the
    // generation counter.
    let alt = if cf.source == OrderingSource::SourceOrder {
        OrderingSource::StaticCallGraph
    } else {
        OrderingSource::SourceOrder
    };
    let plans = [
        build_plan(&cf.benchmark, cf.source)?,
        build_plan(&cf.benchmark, alt)?,
    ];
    let supervisor = FleetSupervisor::launch(
        FleetConfig {
            mirrors,
            server: ServerConfig {
                pace_per_unit: Some(Duration::from_micros(cf.pace_us)),
                resume_after_ms: 10,
                ..ServerConfig::default()
            },
            crash,
            restart_delay: Duration::from_millis(50),
            health_interval: Duration::from_millis(200),
            drain_deadline: Duration::from_secs(5),
        },
        Arc::new(move |generation| vec![plans[(generation % 2) as usize].clone()]),
    )
    .map_err(|e| CliError::failed(format!("cannot launch fleet: {e}")))?;
    let addrs = supervisor.addrs().to_vec();
    println!(
        "fleet of {mirrors} mirrors: {}",
        addrs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let ok = run_clients(&cf, addrs, || {
        if let Some(ms) = rollover_ms {
            std::thread::sleep(Duration::from_millis(ms));
            eprintln!("driving epoch rollover...");
            supervisor.rollover();
        }
    })?;
    let fleet = supervisor.shutdown();
    for (i, m) in fleet.mirrors.iter().enumerate() {
        println!(
            "mirror {i}: starts {} kills {} probes {} probe failures {} \
             units {} completed {} evicted drain {}",
            m.starts,
            m.kills,
            m.health_probes,
            m.health_failures,
            m.stats.units_sent,
            m.stats.completed,
            m.stats.evicted_drain,
        );
    }
    println!(
        "fleet: rollovers {} drains clean {} forced {} kills {} starts {}",
        fleet.rollovers,
        fleet.clean_drains,
        fleet.forced_drains,
        fleet.total_kills(),
        fleet.total_starts(),
    );
    if ok && fleet.forced_drains == 0 {
        Ok(String::new())
    } else {
        Err(CliError::failed(
            "fleet: a client failed or diverged, or a drain was forced",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    /// `simulate` stdout for the counters no CSV carries — the
    /// per-mirror table, the integrity line, the lost/quarantined/forced
    /// fault counters, and the strict baseline under faults and
    /// outages — byte for byte against committed files.
    #[test]
    fn simulate_stdout_matches_the_golden_files() {
        let cases = [
            (
                "simulate hanoi --link modem --replicas 3 --byzantine-mirrors 1 \
                 --byzantine-seed 7 --fault-seed 5 --loss 700000 --semantic 200000 \
                 --corrupt 50000 --drop 20000 --verify stream --outage-seed 3 \
                 --outage-rate 400000",
                include_str!("../golden/simulate_replicas_byzantine.txt"),
            ),
            (
                "simulate hanoi --link modem --transfer strict --strict-execution \
                 --verify stream --fault-seed 5 --loss 300000 --corrupt 50000 \
                 --droop 100000 --semantic 50000 --drop 20000 --outage-seed 3 \
                 --outage-rate 400000",
                include_str!("../golden/simulate_strict_baseline_faults.txt"),
            ),
        ];
        for (args, golden) in cases {
            let args: Vec<&str> = args.split_whitespace().collect();
            assert_eq!(run_str(&args).unwrap(), golden, "{args:?}");
        }
    }

    /// The `NSJL` checkpoint file `simulate --interrupt` writes, byte for
    /// byte against committed files: the plain modem kill, and a
    /// composed storm whose record carries demotion, stall events,
    /// linker bits, non-zero recovery/hedge/integrity buckets, a pinned
    /// manifest digest and replica-served fetch-log entries. Disk chaos
    /// tears these records at seeded offsets, so their layout is pinned.
    #[test]
    fn interrupt_checkpoint_matches_the_golden_files() {
        let cases: [(&str, &[u8]); 2] = [
            (
                "simulate hanoi --link modem --interrupt 2000000000",
                include_bytes!("../golden/checkpoint_hanoi_modem.nsjl"),
            ),
            (
                "simulate hanoi --link modem --replicas 3 --byzantine-mirrors 1 \
                 --byzantine-seed 7 --fault-seed 5 --loss 700000 --semantic 200000 \
                 --corrupt 50000 --drop 20000 --verify stream --outage-seed 3 \
                 --outage-rate 400000 --interrupt 6000000000",
                include_bytes!("../golden/checkpoint_composed.nsjl"),
            ),
        ];
        for (i, (args, golden)) in cases.into_iter().enumerate() {
            let path = std::env::temp_dir().join(format!(
                "nonstrict-cli-golden-{}-{i}.nsjl",
                std::process::id()
            ));
            let path = path.to_str().unwrap().to_string();
            let mut args: Vec<&str> = args.split_whitespace().collect();
            args.extend(["--journal", &path]);
            let out = run_str(&args).unwrap();
            let written = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert!(out.contains("session killed"), "{out}");
            assert_eq!(written, golden, "{args:?}");
        }
    }

    #[test]
    fn list_shows_all_benchmarks() {
        let out = run_str(&["list"]).unwrap();
        for name in nonstrict_workloads::BENCHMARK_NAMES {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn no_command_is_usage_error() {
        let err = run(&[]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("USAGE"));
    }

    #[test]
    fn unknown_benchmark_is_reported() {
        let err = run_str(&["inspect", "nope"]).unwrap_err();
        assert!(err.message.contains("unknown benchmark"));
    }

    #[test]
    fn typoed_flag_is_rejected_not_ignored() {
        // `--los` must not silently run a faultless simulation.
        let err = run_str(&["simulate", "jess", "--los", "5"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("unknown flag --los"),
            "{}",
            err.message
        );
    }

    #[test]
    fn inspect_class_lists_methods() {
        let out = run_str(&["inspect", "hanoi", "--class", "1"]).unwrap();
        assert!(out.contains("hanoi/Solver"), "{out}");
        assert!(out.contains("solve"), "{out}");
        assert!(out.contains("moveDisk"), "{out}");
    }

    #[test]
    fn disasm_renders_bytecode() {
        let out = run_str(&["disasm", "hanoi", "--class", "1", "--method", "1"]).unwrap();
        assert!(out.contains("solve"), "{out}");
        assert!(out.contains("invokestatic"), "{out}");
        assert!(out.contains("iload"), "{out}");
    }

    #[test]
    fn order_sources_differ() {
        let scg = run_str(&["order", "hanoi", "--source", "scg"]).unwrap();
        let plain = run_str(&["order", "hanoi", "--source", "plain"]).unwrap();
        assert!(scg.lines().count() == plain.lines().count());
        assert!(scg.contains("hanoi/Solver::solve"));
    }

    #[test]
    fn partition_reports_every_class() {
        let out = run_str(&["partition", "testdes"]).unwrap();
        assert!(out.contains("des/TestDes"), "{out}");
        assert!(out.contains("des/Tables"), "{out}");
        assert!(out.contains("needed-first"), "{out}");
    }

    #[test]
    fn simulate_reports_normalized_time() {
        let out = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--ordering",
            "test",
            "--transfer",
            "interleaved",
        ])
        .unwrap();
        assert!(out.contains("normalized"), "{out}");
        assert!(out.contains("invocation latency"), "{out}");
    }

    #[test]
    fn simulate_with_fault_flags_reports_recovery() {
        let out = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--fault-seed",
            "7",
            "--loss",
            "100000",
            "--drop",
            "20000",
            "--corrupt",
            "50000",
        ])
        .unwrap();
        assert!(out.contains("fault recovery"), "{out}");
        assert!(out.contains("degradation"), "{out}");
        assert!(out.contains("run completed"), "{out}");
        let same = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--fault-seed",
            "7",
            "--loss",
            "100000",
            "--drop",
            "20000",
            "--corrupt",
            "50000",
        ])
        .unwrap();
        assert_eq!(out, same, "same seed, same report");
    }

    #[test]
    fn simulate_with_stream_verification_reports_the_charge() {
        let out = run_str(&["simulate", "hanoi", "--link", "modem", "--verify", "stream"]).unwrap();
        assert!(out.contains("verification"), "{out}");
        assert!(out.contains("stream mode"), "{out}");
    }

    #[test]
    fn verify_off_is_the_default_and_identical() {
        let plain = run_str(&["simulate", "hanoi", "--link", "t1"]).unwrap();
        let off = run_str(&["simulate", "hanoi", "--link", "t1", "--verify", "off"]).unwrap();
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&plain), tail(&off));
        assert!(!plain.contains("verification"), "{plain}");
    }

    #[test]
    fn bad_verify_mode_is_a_usage_error() {
        let err = run_str(&["simulate", "hanoi", "--verify", "streaming"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("unknown verify mode"),
            "{}",
            err.message
        );
    }

    #[test]
    fn semantic_fault_flag_reports_quarantine() {
        let out = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--fault-seed",
            "7",
            "--semantic",
            "100000",
        ])
        .unwrap();
        assert!(out.contains("quarantined"), "{out}");
        assert!(out.contains("run completed"), "{out}");
    }

    #[test]
    fn zero_rate_fault_flags_leave_the_report_unchanged() {
        let perfect = run_str(&["simulate", "hanoi", "--link", "t1"]).unwrap();
        let seeded = run_str(&["simulate", "hanoi", "--link", "t1", "--fault-seed", "99"]).unwrap();
        // An armed-but-zero-rate config must not perturb the numbers; the
        // only difference is the echoed config.
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&perfect), tail(&seeded));
    }

    #[test]
    fn timeline_draws_every_class() {
        let out = run_str(&["timeline", "hanoi", "--link", "t1"]).unwrap();
        assert!(out.contains("hanoi/Solver"), "{out}");
        assert!(out.contains('#'), "{out}");
        assert_eq!(out.lines().filter(|l| l.contains('|')).count(), 4); // header + 3 classes
    }

    #[test]
    fn flag_value_missing_is_usage_error() {
        let err = run_str(&["simulate", "hanoi", "--link"]).unwrap_err();
        assert!(err.message.contains("needs a value"));
    }

    #[test]
    fn outage_flags_report_resume_cost_deterministically() {
        let args = [
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--outage-seed",
            "7",
            "--outage-rate",
            "600000",
            "--outage-cycles",
            "2000000",
        ];
        let a = run_str(&args).unwrap();
        let b = run_str(&args).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("outages:"), "{a}");
        assert!(a.contains("resume cost:"), "{a}");
    }

    #[test]
    fn zero_rate_outage_flags_leave_the_report_tail_unchanged() {
        let plain = run_str(&["simulate", "hanoi", "--link", "t1"]).unwrap();
        let seeded = run_str(&["simulate", "hanoi", "--link", "t1", "--outage-seed", "3"]).unwrap();
        // An armed-but-zero-rate outage config is normalized away by
        // `active_outages`, so only the echoed config line may differ.
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&plain), tail(&seeded));
        assert!(!plain.contains("resume cost"), "{plain}");
    }

    #[test]
    fn replica_run_reports_the_mirror_table_deterministically() {
        let args = [
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--replicas",
            "3",
            "--fault-seed",
            "7",
            "--loss",
            "200000",
            "--hedge-deadline",
            "500000",
        ];
        let a = run_str(&args).unwrap();
        let b = run_str(&args).unwrap();
        assert_eq!(a, b, "same seed, same report");
        assert!(a.contains("replica set:"), "{a}");
        assert!(a.contains("3 mirrors"), "{a}");
        assert!(a.contains("hedge cost:"), "{a}");
        assert!(a.contains("mirror 2"), "{a}");
        assert!(a.contains("live"), "{a}");
    }

    #[test]
    fn single_replica_leaves_the_report_tail_unchanged() {
        let plain = run_str(&["simulate", "hanoi", "--link", "t1"]).unwrap();
        let one = run_str(&["simulate", "hanoi", "--link", "t1", "--replicas", "1"]).unwrap();
        // A one-mirror set is normalized away by `active_replicas`, so
        // only the echoed config line may differ.
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&plain), tail(&one));
        assert!(!plain.contains("replica set"), "{plain}");
    }

    #[test]
    fn hedge_deadline_without_replicas_is_a_usage_error() {
        let err = run_str(&["simulate", "hanoi", "--hedge-deadline", "1000000"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--replicas 2"), "{}", err.message);
        let err = run_str(&[
            "simulate",
            "hanoi",
            "--replicas",
            "1",
            "--hedge-deadline",
            "1000000",
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--replicas 2"), "{}", err.message);
    }

    #[test]
    fn replica_spread_without_replicas_is_a_usage_error() {
        let err = run_str(&["simulate", "hanoi", "--replica-spread", "100000"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--replica-spread"), "{}", err.message);
    }

    #[test]
    fn replica_count_out_of_range_is_a_usage_error() {
        for n in ["0", "9"] {
            let err = run_str(&["simulate", "hanoi", "--replicas", n]).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains("1..=8"), "{}", err.message);
        }
    }

    #[test]
    fn outage_cycles_that_would_overflow_the_ledger_are_a_usage_error() {
        let max = ChaosScenario::MAX_CYCLES;
        for cycles in [u64::MAX, max + 1] {
            let cycles = cycles.to_string();
            let flags = ["--outage-rate", "1000000", "--outage-cycles", &cycles];
            let err = run_str(&[&["simulate", "hanoi"][..], &flags].concat()).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(
                err.message
                    .contains(&format!("--outage-cycles expects 0..={max}, got {cycles}")),
                "{}",
                err.message
            );
        }
        let max = max.to_string();
        let out = run_str(&[
            "simulate",
            "hanoi",
            "--outage-rate",
            "1000000",
            "--outage-cycles",
            &max,
        ])
        .expect("the ceiling itself runs");
        assert!(out.contains("total:"), "{out}");
    }

    #[test]
    fn every_simulate_flag_lowers_to_an_nscr_key() {
        let mut sc = ChaosScenario::new(
            "hanoi",
            SimConfig::non_strict(Link::T1, OrderingSource::StaticCallGraph),
        );
        for row in SIM_FLAGS {
            let accepted = SIMULATE.takes_value(row.flag)
                || SIMULATE.switches.split_whitespace().any(|k| k == row.flag);
            assert!(accepted, "--{} is not a simulate flag", row.flag);
            assert!(
                !matches!(sc.set(row.key, "x"), Err(ScenarioError::UnknownKey(_))),
                "{} is not an NSCR key",
                row.key
            );
        }
        for knob in FaultKnobs::KEYS {
            assert!(
                SIM_FLAGS.iter().any(|r| r.flag == knob),
                "--{knob} unlowered"
            );
        }
    }

    #[test]
    fn simulate_echoes_the_config_its_nscr_spelling_decodes_to() {
        let out = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "t1",
            "--transfer",
            "interleaved",
            "--partitioned",
            "--fault-seed",
            "7",
            "--loss",
            "20000",
            "--replicas",
            "3",
            "--byzantine-mirrors",
            "1",
        ])
        .unwrap();
        let sc = ChaosScenario::decode(
            "NSCR 1\nbench = hanoi\nlink = t1\ntransfer = interleaved\nlayout = part\n\
             fault.seed = 7\nfault.loss_pm = 20000\nreplica.seed = 7\nreplica.replicas = 3\n\
             byz.mirrors = 1\n",
        )
        .unwrap();
        let echo = out.lines().next().unwrap();
        assert!(echo.ends_with(&format!("— {:?}", sc.config)), "{echo}");
        // A range the artifact rejects, the flag rejects too.
        let err = run_str(&[
            "simulate",
            "hanoi",
            "--replicas",
            "3",
            "--byzantine-mirrors",
            "1",
            "--audit-rate",
            "1000001",
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--audit-rate"), "{}", err.message);
    }

    #[test]
    fn interrupt_without_journal_is_a_usage_error() {
        let err = run_str(&["simulate", "hanoi", "--interrupt", "1000"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--journal"), "{}", err.message);
    }

    #[test]
    fn interrupt_writes_a_journal_that_resumes_the_session() {
        let path =
            std::env::temp_dir().join(format!("nonstrict-cli-journal-{}.bin", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let killed = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--interrupt",
            "5000000",
            "--journal",
            &path,
        ])
        .unwrap();
        assert!(
            killed.contains("session killed at base cycle 5000000"),
            "{killed}"
        );
        assert!(killed.contains("journal"), "{killed}");
        let resumed =
            run_str(&["simulate", "hanoi", "--link", "modem", "--journal", &path]).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(resumed.contains("resumed cleanly"), "{resumed}");
        assert!(resumed.contains("resume cost:"), "{resumed}");
        // The resumed run pays exactly the reconnect negotiation on top
        // of the uninterrupted total.
        let plain = run_str(&["simulate", "hanoi", "--link", "modem"]).unwrap();
        let total = |s: &str| -> u64 {
            s.lines()
                .find(|l| l.contains("total:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
                .unwrap()
        };
        assert_eq!(
            total(&resumed),
            total(&plain) + OutagePlan::DEFAULT_NEGOTIATION_CYCLES
        );
    }

    #[test]
    fn fleet_run_reports_the_client_table_deterministically() {
        let args = [
            "simulate",
            "hanoi",
            "--link",
            "t1",
            "--clients",
            "4",
            "--admit-rate",
            "1",
            "--shed-ladder",
            "0,2000000000,4000000000",
        ];
        let a = run_str(&args).unwrap();
        let b = run_str(&args).unwrap();
        assert_eq!(a, b, "same seed, same fleet report");
        assert!(a.contains("fleet of 4"), "{a}");
        assert!(a.contains("tail latency:"), "{a}");
        assert!(a.contains("admission:"), "{a}");
        assert!(a.contains("shed ladder:"), "{a}");
        // Client 0 is the named benchmark; the rest cycle the suite.
        assert!(a.contains("Hanoi"), "{a}");
        assert!(a.contains("BIT"), "{a}");
        assert!(a.contains("JavaCup"), "{a}");
        // A zero first rung means nobody is plainly served.
        assert!(a.contains("0 served"), "{a}");
        assert!(a.contains("drop-hedges"), "{a}");
    }

    #[test]
    fn client_spread_slows_later_clients() {
        let out = run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "t1",
            "--clients",
            "2",
            "--client-spread",
            "500000",
        ])
        .unwrap();
        // Client 0 keeps the T1's 3815 cycles/byte; client 1 runs 50%
        // slower.
        assert!(out.contains(" 3815"), "{out}");
        assert!(out.contains(" 5722"), "{out}");
    }

    #[test]
    fn a_fleet_of_one_is_byte_identical_to_no_fleet_flags() {
        let plain = run_str(&["simulate", "hanoi", "--link", "t1"]).unwrap();
        let one = run_str(&["simulate", "hanoi", "--link", "t1", "--clients", "1"]).unwrap();
        // `--clients` lives outside SimConfig, so even the echoed
        // config line matches: the whole report must be identical.
        assert_eq!(plain, one);
        assert!(!plain.contains("fleet of"), "{plain}");
    }

    #[test]
    fn fleet_tuning_without_clients_is_a_usage_error() {
        for args in [
            ["simulate", "hanoi", "--admit-rate", "1"],
            ["simulate", "hanoi", "--client-spread", "100000"],
            ["simulate", "hanoi", "--shed-ladder", "1,2,3"],
        ] {
            let err = run_str(&args).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains("--clients 2"), "{}", err.message);
        }
        let err =
            run_str(&["simulate", "hanoi", "--clients", "1", "--admit-rate", "1"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--clients 2"), "{}", err.message);
    }

    #[test]
    fn bad_shed_ladders_are_usage_errors() {
        // Two rungs instead of three.
        let err = run_str(&[
            "simulate",
            "hanoi",
            "--clients",
            "2",
            "--shed-ladder",
            "1,2",
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("H,S,J"), "{}", err.message);
        // Rungs out of order get the typed ladder error.
        let err = run_str(&[
            "simulate",
            "hanoi",
            "--clients",
            "2",
            "--shed-ladder",
            "5,4,3",
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--shed-ladder"), "{}", err.message);
    }

    #[test]
    fn client_count_out_of_range_is_a_usage_error() {
        for n in ["0", "65"] {
            let err = run_str(&["simulate", "hanoi", "--clients", n]).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains("1..=64"), "{}", err.message);
        }
    }

    #[test]
    fn clients_with_journal_flags_is_a_usage_error() {
        let err = run_str(&[
            "simulate",
            "hanoi",
            "--clients",
            "2",
            "--interrupt",
            "1000",
            "--journal",
            "/tmp/never-written.bin",
        ])
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--clients"), "{}", err.message);
    }

    #[test]
    fn corrupt_journal_fails_closed_in_the_report() {
        let path = std::env::temp_dir().join(format!(
            "nonstrict-cli-torn-journal-{}.bin",
            std::process::id()
        ));
        let path = path.to_str().unwrap().to_string();
        std::fs::write(&path, b"not a journal at all").unwrap();
        let out = run_str(&["simulate", "hanoi", "--link", "modem", "--journal", &path]).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(out.contains("FAIL-CLOSED"), "{out}");
        assert!(out.contains("restarted under strict execution"), "{out}");
    }

    #[test]
    fn truncated_and_retired_format_journals_fail_closed() {
        let dir =
            std::env::temp_dir().join(format!("nonstrict-cli-journals-{}", std::process::id()));
        let path = dir.join("h.nsjl").to_str().unwrap().to_string();
        run_str(&[
            "simulate",
            "hanoi",
            "--link",
            "modem",
            "--interrupt",
            "5000000",
            "--journal",
            &path,
        ])
        .unwrap();
        let full = std::fs::read(&path).unwrap();
        // A file in the retired whole-snapshot format: its magic, format
        // version 3, content, and a CRC32 trailer over all of it.
        let mut retired = vec![0x4e, 0x53, 0x4a, 0x52, 3, 0];
        retired.extend_from_slice(&full[6..]);
        let crc = nonstrict_wire::crc32(&retired);
        retired.extend_from_slice(&crc.to_le_bytes());
        for bytes in [full[..full.len() / 2].to_vec(), retired] {
            std::fs::write(&path, &bytes).unwrap();
            let out =
                run_str(&["simulate", "hanoi", "--link", "modem", "--journal", &path]).unwrap();
            assert!(out.contains("FAIL-CLOSED"), "{out}");
            assert!(out.contains("restarted under strict execution"), "{out}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flags_of_other_subcommands_are_rejected() {
        for args in [
            ["simulate", "hanoi", "--addr", "127.0.0.1:1"],
            ["simulate", "hanoi", "--drain-ms", "5"],
            ["inspect", "hanoi", "--loss", "5"],
            ["serve", "hanoi", "--link", "t1"],
            ["loadgen", "hanoi", "--crash-plan", "1"],
            ["fleet", "hanoi", "--addr", "127.0.0.1:1"],
            ["paper", "table2", "--clients", "2"],
        ] {
            let err = run_str(&args).unwrap_err();
            assert_eq!(err.code, 2, "{args:?}");
            assert!(err.message.contains("unknown flag"), "{}", err.message);
        }
    }

    #[test]
    fn bad_paper_arguments_are_rejected_before_any_work() {
        let err = run_str(&["paper", "table11"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("unknown paper table"),
            "{}",
            err.message
        );
        let err = run_str(&["paper", "table2", "extra"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("unexpected argument"),
            "{}",
            err.message
        );
        let err = run_str(&["paper", "table2", "--repro", "x.nscr"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("paper chaos"), "{}", err.message);
    }

    #[test]
    fn committed_repro_replays_and_a_hostile_one_is_rejected() {
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/quiet.nscr");
        let out = run_str(&["paper", "chaos", "--repro", corpus]).unwrap();
        assert!(out.contains("invariants: PASS"), "{out}");
        let path =
            std::env::temp_dir().join(format!("nonstrict-cli-hostile-{}.nscr", std::process::id()));
        std::fs::write(&path, "NSCR 1\nbench = Hanoi\nfault.loss_pm = everything\n").unwrap();
        let err = run_str(&["paper", "chaos", "--repro", path.to_str().unwrap()]).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("bad repro artifact"),
            "{}",
            err.message
        );
    }

    #[test]
    fn store_flags_without_a_journal_dir_are_usage_errors() {
        for cmd in ["loadgen", "fleet"] {
            let err = run_str(&[cmd, "hanoi", "--kill-after-units", "3"]).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(
                err.message
                    .contains("--kill-after-units needs --journal-dir"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn retired_cache_dir_flag_is_an_unknown_flag() {
        for cmd in ["loadgen", "fleet"] {
            let err = run_str(&[cmd, "hanoi", "--cache-dir", "unused"]).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(
                err.message.contains("unknown flag --cache-dir"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn retired_queue_depth_flag_is_an_unknown_flag() {
        let err = run_str(&["serve", "hanoi", "--queue-depth", "8"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("unknown flag --queue-depth"),
            "{}",
            err.message
        );
    }

    #[test]
    fn fleet_rejects_zero_mirrors_and_malformed_crash_plans() {
        let err = run_str(&["fleet", "hanoi", "--mirrors", "0"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--mirrors"), "{}", err.message);
        for spec in ["1:2:3:4", "", "x", "1::2", "1:4294967296"] {
            let err = run_str(&["fleet", "hanoi", "--crash-plan", spec]).unwrap_err();
            assert_eq!(err.code, 2, "{spec:?}");
            assert!(err.message.contains("--crash-plan"), "{}", err.message);
        }
        let plan = parse_crash_plan("7:2:400").unwrap();
        assert_eq!((plan.seed, plan.kills_per_mirror), (7, 2));
        assert_eq!(plan.uptime_spread, Duration::from_millis(400));
        let plan = parse_crash_plan("7").unwrap();
        assert_eq!((plan.seed, plan.kills_per_mirror), (7, 1));
        assert_eq!(plan.uptime_spread, Duration::from_millis(500));
    }

    #[test]
    fn loadgen_rejects_bad_upstreams() {
        for args in [
            ["loadgen", "hanoi", "--addr", "nowhere"],
            ["loadgen", "hanoi", "--mirrors", "127.0.0.1:1,"],
        ] {
            let err = run_str(&args).unwrap_err();
            assert_eq!(err.code, 2, "{args:?}");
        }
    }

    #[test]
    fn serve_drains_cleanly_once_terminated() {
        // Nothing else reads the flag, so arming it up front makes the
        // server drain as soon as it has bound and announced itself.
        TERM.store(true, Ordering::SeqCst);
        let out = run_str(&["serve", "hanoi", "--addr", "127.0.0.1:0"]).unwrap();
        assert_eq!(out, "");
    }

    #[test]
    fn loadgen_warm_restarts_killed_clients_through_the_chaos_proxy() {
        let dir =
            std::env::temp_dir().join(format!("nonstrict-cli-loadgen-{}", std::process::id()));
        let dir_arg = dir.to_str().unwrap();
        let out = run_str(&[
            "loadgen",
            "hanoi",
            "--clients",
            "2",
            "--spread-ms",
            "0",
            "--chaos",
            "--journal-dir",
            dir_arg,
            "--kill-after-units",
            "3",
        ]);
        let journaled = dir.join("client-1").is_dir();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(out.unwrap(), "");
        assert!(journaled, "each client journals in its own subtree");
    }

    #[test]
    fn fleet_serves_every_client_from_supervised_mirrors() {
        let out = run_str(&[
            "fleet",
            "hanoi",
            "--mirrors",
            "2",
            "--clients",
            "2",
            "--spread-ms",
            "0",
        ]);
        assert_eq!(out.unwrap(), "");
    }
}
