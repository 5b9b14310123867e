//! Overlapping Just-In-Time **compilation** with transfer — the paper's
//! §8 future-work extension, implemented.
//!
//! > "If compilation can take place as the class files are being
//! > transferred, then the latency of transfer and compilation can
//! > overlap."
//!
//! Two JIT strategies run over the same non-strict interleaved transfer:
//!
//! * [`JitStrategy::AtFirstUse`] — the classic 1998 JIT: each method
//!   compiles *inline* at its first invocation, stalling execution for
//!   the full compile cost (after its bytes arrive).
//! * [`JitStrategy::Overlapped`] — a background compiler consumes
//!   methods in **arrival order** while the stream is still coming in;
//!   execution waits for `max(arrival, compile-finish)` instead of
//!   paying compile pauses inline; compilation demanded by execution
//!   preempts the background queue, so overlapping never loses.
//!
//! Compile cost is modelled as cycles per bytecode byte, the standard
//! first-order JIT cost model. On slow links transfer hides compilation
//! under *either* strategy (the next method's bytes are later than the
//! current pause anyway); the overlap pays off on fast links, where
//! inline pauses are exposed but a background compiler has already
//! worked through the stream — exactly the trade-off the paper predicts
//! for just-in-time versus "way ahead of time" compilation.

use nonstrict_bytecode::{Input, MethodId};
use nonstrict_netsim::{class_units, ClassUnits, InterleavedEngine, Link, TransferEngine};
use nonstrict_profile::TraceEvent;

use crate::model::OrderingSource;
use crate::sim::Session;

/// When methods get compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitStrategy {
    /// Compile inline at first invocation (execution pays the pause).
    AtFirstUse,
    /// Compile in arrival order on a background compiler, overlapped
    /// with transfer.
    Overlapped,
}

/// JIT cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitConfig {
    /// Compilation cycles per bytecode byte. The paper's JIT
    /// contemporaries spent on the order of thousands of cycles per
    /// byte; `0` disables compilation entirely.
    pub cycles_per_code_byte: u64,
    /// The strategy under test.
    pub strategy: JitStrategy,
}

/// Outcome of a JIT co-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitResult {
    /// Total cycles to program completion.
    pub total_cycles: u64,
    /// Pure bytecode-execution cycles.
    pub exec_cycles: u64,
    /// Total compilation cycles spent (both strategies compile every
    /// method they touch; `Overlapped` compiles the whole stream).
    pub compile_cycles: u64,
    /// Cycles execution spent waiting (for bytes or for the compiler).
    pub stall_cycles: u64,
}

/// Simulates non-strict interleaved transfer with JIT compilation.
///
/// Restricted to interleaved transfer (arrivals are closed-form, so the
/// background-compiler timeline is too); orderings behave exactly as in
/// [`Session::simulate`].
#[must_use]
pub fn simulate_jit(
    session: &Session,
    input: Input,
    link: Link,
    ordering: OrderingSource,
    jit: &JitConfig,
) -> JitResult {
    let app = &session.app;
    let restructured = session.restructured(ordering);
    let order = session.order(ordering);
    let units = class_units(app, restructured, None, nonstrict_netsim::DELIMITER_BYTES);
    let mut engine = InterleavedEngine::new(app, restructured, &units, order, link);

    // Per-method compile cost (unscaled code bytes — compilation reads
    // the real bytecode, not the wire encoding).
    let cost = |m: MethodId| -> u64 {
        u64::from(app.program.method(m).code_size()) * jit.cycles_per_code_byte
    };

    // Background-compiler work queue: methods in arrival (= stream)
    // order with their arrival times and compile costs.
    let mut queue: Vec<(u64, usize, u64)> = Vec::with_capacity(app.program.method_count());
    if jit.strategy == JitStrategy::Overlapped {
        for &m in order.order() {
            let c = m.class.0 as usize;
            let pos = restructured.layouts[c].position_of(m.method);
            let arrival = engine.unit_ready(c, ClassUnits::method_unit(pos), 0);
            queue.push((arrival, app.program.global_index(m), cost(m)));
        }
        queue.sort_unstable_by_key(|&(arrival, _, _)| arrival);
    }
    let mut compiler = Compiler {
        free_at: 0,
        queue,
        next: 0,
        compiled: vec![false; app.program.method_count()],
        compile_cycles: 0,
    };

    // Replay the trace.
    let trace = &session.collected(input).trace;
    let cpi = app.cpi;
    let mut clock = 0u64;
    let mut stall_cycles = 0u64;
    for event in trace.events() {
        match *event {
            TraceEvent::Enter(m) => {
                let c = m.class.0 as usize;
                let pos = restructured.layouts[c].position_of(m.method);
                let arrival = engine.unit_ready(c, ClassUnits::method_unit(pos), clock);
                let g = app.program.global_index(m);
                let ready = match jit.strategy {
                    JitStrategy::Overlapped => compiler.demand(g, arrival, cost(m), clock),
                    JitStrategy::AtFirstUse => {
                        let mut ready = arrival;
                        if !compiler.compiled[g] {
                            compiler.compiled[g] = true;
                            let pause = cost(m);
                            compiler.compile_cycles += pause;
                            ready = ready.max(clock) + pause;
                        }
                        ready
                    }
                };
                if ready > clock {
                    stall_cycles += ready - clock;
                    clock = ready;
                }
            }
            TraceEvent::Run { method: _, count } => clock += count * cpi,
            TraceEvent::Exit(_) => {}
        }
    }

    JitResult {
        total_cycles: clock,
        exec_cycles: trace.total_instructions() * cpi,
        compile_cycles: compiler.compile_cycles,
        stall_cycles,
    }
}

/// The background compiler: processes arrived methods in stream order
/// during idle time; execution demands preempt the queue.
struct Compiler {
    free_at: u64,
    /// `(arrival, global method index, cost)` in arrival order.
    queue: Vec<(u64, usize, u64)>,
    next: usize,
    compiled: Vec<bool>,
    compile_cycles: u64,
}

impl Compiler {
    /// Performs background compilation that completes by `now`.
    fn advance(&mut self, now: u64) {
        while self.next < self.queue.len() {
            let (arrival, g, cost) = self.queue[self.next];
            if self.compiled[g] {
                self.next += 1;
                continue;
            }
            let start = self.free_at.max(arrival);
            if start.saturating_add(cost) <= now {
                self.free_at = start + cost;
                self.compiled[g] = true;
                self.compile_cycles += cost;
                self.next += 1;
            } else {
                break;
            }
        }
    }

    /// Execution needs method `g` now: returns the cycle it is ready,
    /// preempting the background queue if it is not compiled yet.
    fn demand(&mut self, g: usize, arrival: u64, cost: u64, now: u64) -> u64 {
        self.advance(now);
        if self.compiled[g] {
            return arrival; // compiled implies arrived
        }
        self.compiled[g] = true;
        self.compile_cycles += cost;
        let done = self.free_at.max(arrival).max(now) + cost;
        self.free_at = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimConfig;
    use crate::model::TransferPolicy;

    fn session() -> Session {
        Session::new(nonstrict_workloads::jhlzip::build()).unwrap()
    }

    #[test]
    fn zero_cost_jit_matches_the_plain_simulation() {
        let s = session();
        let jit = JitConfig {
            cycles_per_code_byte: 0,
            strategy: JitStrategy::AtFirstUse,
        };
        let r = simulate_jit(
            &s,
            Input::Test,
            Link::MODEM_28_8,
            OrderingSource::TestProfile,
            &jit,
        );
        let plain = s.simulate(
            Input::Test,
            &SimConfig {
                transfer: TransferPolicy::Interleaved,
                ..SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::TestProfile)
            },
        );
        assert_eq!(r.total_cycles, plain.total_cycles);
        assert_eq!(r.compile_cycles, 0);
    }

    #[test]
    fn slow_links_hide_compilation_under_either_strategy() {
        // On the modem, the next method's bytes arrive later than any
        // compile pause finishes, so even inline compilation hides
        // behind transfer — overlapping matches it without ever losing.
        let s = session();
        let jit_cost = 2_000; // cycles per bytecode byte
        let run = |strategy| {
            simulate_jit(
                &s,
                Input::Test,
                Link::MODEM_28_8,
                OrderingSource::TestProfile,
                &JitConfig {
                    cycles_per_code_byte: jit_cost,
                    strategy,
                },
            )
        };
        let inline = run(JitStrategy::AtFirstUse);
        let overlapped = run(JitStrategy::Overlapped);
        assert!(overlapped.total_cycles <= inline.total_cycles);
        let zero = simulate_jit(
            &s,
            Input::Test,
            Link::MODEM_28_8,
            OrderingSource::TestProfile,
            &JitConfig {
                cycles_per_code_byte: 0,
                strategy: JitStrategy::Overlapped,
            },
        );
        let visible = overlapped.total_cycles - zero.total_cycles;
        assert!(
            visible * 10 < overlapped.compile_cycles.max(1),
            "compilation should be ~hidden on the modem: {visible} visible of {}",
            overlapped.compile_cycles
        );
    }

    #[test]
    fn fast_links_expose_inline_pauses_that_overlap_hides() {
        let s = session();
        let fast = Link::from_bandwidth(10_000_000, 500_000_000).unwrap();
        let jit = |strategy| {
            simulate_jit(
                &s,
                Input::Test,
                fast,
                OrderingSource::TestProfile,
                &JitConfig {
                    cycles_per_code_byte: 20_000,
                    strategy,
                },
            )
        };
        let inline = jit(JitStrategy::AtFirstUse);
        let overlapped = jit(JitStrategy::Overlapped);
        assert!(
            overlapped.total_cycles < inline.total_cycles,
            "background compilation must win on a fast link: {} vs {}",
            overlapped.total_cycles,
            inline.total_cycles
        );
    }

    #[test]
    fn compile_accounting_is_consistent() {
        let s = session();
        let jit = JitConfig {
            cycles_per_code_byte: 500,
            strategy: JitStrategy::AtFirstUse,
        };
        let r = simulate_jit(&s, Input::Test, Link::T1, OrderingSource::TestProfile, &jit);
        // inline JIT compiles exactly the executed methods
        let expected: u64 = s
            .test
            .profile
            .order()
            .iter()
            .map(|&m| u64::from(s.app.program.method(m).code_size()) * 500)
            .sum();
        assert_eq!(r.compile_cycles, expected);
        assert!(r.total_cycles >= r.exec_cycles + r.compile_cycles);
    }
}
