//! Static first-use estimation (§4.1 of the paper).
//!
//! The estimator predicts the order in which methods will first execute
//! using only the program text. It performs a modified depth-first
//! traversal of each method's basic-block CFG, descending into callees at
//! call sites (the interprocedural edges of the paper's combined graph):
//!
//! * at a conditional branch, it follows *"the path that contains the
//!   greatest number of static loops"* first — looping implies both code
//!   reuse (overlap opportunity) and likely early execution;
//! * edges that *exit* a loop are deferred on a placeholder stack (the
//!   paper's `(block, loop-header)` pairs) until every block inside the
//!   loop has been traversed, so call sites inside a loop body are
//!   predicted to run before the loop's continuation.
//!
//! The first time the traversal encounters a call to an unvisited
//! method, that method is appended to the predicted first-use order and
//! traversed recursively. Statically unreachable methods are appended in
//! source order at the end.

use nonstrict_bytecode::cfg::Cfg;
use nonstrict_bytecode::loops::LoopInfo;
use nonstrict_bytecode::{MethodId, Program};

use crate::order::FirstUseOrder;

/// Computes the static-call-graph first-use order for `program`.
#[must_use]
pub fn static_first_use(program: &Program) -> FirstUseOrder {
    first_use_with(program, Heuristics::LoopAware)
}

/// Ablation variant: a plain depth-first traversal with **no** loop
/// heuristics — branches are taken in textual order and loop exits are
/// not deferred. The paper's §4.1 heuristics exist to beat exactly this;
/// the ablation integration test (`tests/ablation_quality.rs`) compares
/// the two.
#[must_use]
pub fn static_first_use_plain(program: &Program) -> FirstUseOrder {
    first_use_with(program, Heuristics::Plain)
}

/// Which traversal refinements to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heuristics {
    LoopAware,
    Plain,
}

fn first_use_with(program: &Program, heuristics: Heuristics) -> FirstUseOrder {
    let mut state = Traversal {
        program,
        visited: vec![false; program.method_count()],
        order: Vec::with_capacity(program.method_count()),
        depth: 0,
        heuristics,
    };
    state.visit_method(program.entry());
    // Unreached methods: source order, at the end (§4.2's placement rule
    // applies them after every predicted method).
    for (id, _) in program.iter_methods() {
        if !state.visited[program.global_index(id)] {
            state.order.push(id);
        }
    }
    FirstUseOrder::from_order(program, state.order)
}

struct Traversal<'p> {
    program: &'p Program,
    visited: Vec<bool>,
    order: Vec<MethodId>,
    depth: usize,
    heuristics: Heuristics,
}

/// Recursion guard: programs here have at most a few thousand methods,
/// and the call-site descent recurses at most once per method.
const MAX_DEPTH: usize = 1 << 16;

impl Traversal<'_> {
    fn visit_method(&mut self, id: MethodId) {
        let g = self.program.global_index(id);
        if self.visited[g] || self.depth >= MAX_DEPTH {
            return;
        }
        self.visited[g] = true;
        self.order.push(id);
        self.depth += 1;
        self.walk_blocks(id);
        self.depth -= 1;
    }

    /// The modified DFS over one method's blocks.
    fn walk_blocks(&mut self, id: MethodId) {
        let body = &self.program.method(id).body;
        let cfg = Cfg::build(body);
        if cfg.is_empty() {
            return;
        }
        let loops = LoopInfo::analyze(&cfg);
        let sizes = loops.loop_sizes();
        // Unvisited-block count per loop, for exit deferral.
        let mut remaining = sizes.clone();
        let mut seen = vec![false; cfg.len()];
        // Main work stack plus the paper's placeholder stack of deferred
        // loop-exit edges: (exit block, loop header position).
        let mut work: Vec<usize> = vec![0];
        let mut deferred: Vec<(usize, usize)> = Vec::new();

        loop {
            let b = match work.pop() {
                Some(b) => b,
                None => {
                    // Pop placeholders whose loop has been fully walked
                    // first; if none qualify, take the most recent.
                    match deferred.pop() {
                        Some((block, _)) => block,
                        None => break,
                    }
                }
            };
            if seen[b] {
                continue;
            }
            seen[b] = true;
            for &hp in &loops.membership[b] {
                remaining[hp] = remaining[hp].saturating_sub(1);
            }

            // Descend into callees at call sites, in intra-block order.
            for &(_, callee) in &cfg.blocks[b].calls {
                self.visit_method(callee);
            }

            // Partition successors: in-loop edges continue now; edges
            // leaving a still-unfinished loop are deferred (loop-aware
            // mode only).
            let innermost = loops.innermost_loop(b, &sizes);
            let mut now: Vec<usize> = Vec::new();
            for &s in &cfg.blocks[b].succs {
                if seen[s] {
                    continue;
                }
                let defer = self.heuristics == Heuristics::LoopAware
                    && match innermost {
                        Some(hp) => !loops.in_loop(s, hp) && remaining[hp] > 0,
                        None => false,
                    };
                if defer {
                    deferred.push((s, innermost.expect("defer implies a loop")));
                } else {
                    now.push(s);
                }
            }
            match self.heuristics {
                // Loop-priority heuristic: follow the path with the most
                // reachable static loops first. The work stack is LIFO,
                // so push in ascending priority.
                Heuristics::LoopAware => now.sort_by_key(|&s| loops.reachable_loops[s]),
                // Plain DFS: textual order — push in reverse so the
                // fall-through successor pops first.
                Heuristics::Plain => now.reverse(),
            }
            work.extend(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonstrict_bytecode::builder::MethodBuilder;
    use nonstrict_bytecode::program::ClassDef;
    use nonstrict_bytecode::Cond;

    /// main: if (x) { call looper() (in a loop-rich path) } else { call flat() };
    /// then call tail().  SCG must predict looper before flat.
    #[test]
    fn loop_priority_guides_call_order() {
        let looper = MethodId::new(0, 1);
        let flat = MethodId::new(0, 2);
        let tail = MethodId::new(0, 3);

        let mut main = MethodBuilder::new("main", 1);
        let flat_path = main.new_label();
        let join = main.new_label();
        main.iload(0).if_(Cond::Eq, flat_path);
        // loopy path: a loop around the call
        main.iconst(3).istore(1);
        let head = main.new_label();
        let exit = main.new_label();
        main.bind(head);
        main.iload(1).if_(Cond::Le, exit);
        main.invoke(looper);
        main.iinc(1, -1).goto(head);
        main.bind(exit);
        main.goto(join);
        main.bind(flat_path);
        main.invoke(flat);
        main.bind(join);
        main.invoke(tail);
        main.ret();

        let mut c = ClassDef::new("s/A");
        c.add_method(main.finish());
        for name in ["looper", "flat", "tail"] {
            let mut b = MethodBuilder::new(name, 0);
            b.ret();
            c.add_method(b.finish());
        }
        let p = Program::new(vec![c], "s/A", "main").unwrap();
        let order = static_first_use(&p);
        assert!(
            order.rank(&p, looper) < order.rank(&p, flat),
            "loop-rich path should be predicted first: {:?}",
            order.order()
        );
        assert_eq!(order.rank(&p, p.entry()), 0);
    }

    /// Calls inside a loop must be ordered before calls on the loop's
    /// exit path.
    #[test]
    fn loop_body_calls_precede_exit_calls() {
        let inner = MethodId::new(0, 1);
        let after = MethodId::new(0, 2);

        let mut main = MethodBuilder::new("main", 0);
        main.iconst(3).istore(0);
        let head = main.new_label();
        let exit = main.new_label();
        main.bind(head);
        main.iload(0).if_(Cond::Le, exit);
        main.invoke(inner);
        main.iinc(0, -1).goto(head);
        main.bind(exit);
        main.invoke(after);
        main.ret();

        let mut c = ClassDef::new("s/B");
        c.add_method(main.finish());
        for name in ["inner", "after"] {
            let mut b = MethodBuilder::new(name, 0);
            b.ret();
            c.add_method(b.finish());
        }
        let p = Program::new(vec![c], "s/B", "main").unwrap();
        let order = static_first_use(&p);
        assert!(order.rank(&p, inner) < order.rank(&p, after));
    }

    #[test]
    fn unreachable_methods_go_last_in_source_order() {
        let mut c = ClassDef::new("s/C");
        let mut main = MethodBuilder::new("main", 0);
        main.invoke(MethodId::new(0, 3)).ret(); // calls only the last
        c.add_method(main.finish());
        for name in ["dead1", "dead2", "live"] {
            let mut b = MethodBuilder::new(name, 0);
            b.ret();
            c.add_method(b.finish());
        }
        let p = Program::new(vec![c], "s/C", "main").unwrap();
        let order = static_first_use(&p);
        assert_eq!(
            order.order(),
            &[
                MethodId::new(0, 0),
                MethodId::new(0, 3),
                MethodId::new(0, 1),
                MethodId::new(0, 2),
            ]
        );
    }

    #[test]
    fn recursion_terminates() {
        let me = MethodId::new(0, 0);
        let mut main = MethodBuilder::new("main", 0);
        let skip = main.new_label();
        main.iconst(0).if_(Cond::Ne, skip);
        main.invoke(me);
        main.bind(skip);
        main.ret();
        let mut c = ClassDef::new("s/D");
        c.add_method(main.finish());
        let p = Program::new(vec![c], "s/D", "main").unwrap();
        let order = static_first_use(&p);
        assert_eq!(order.order().len(), 1);
    }

    #[test]
    fn covers_whole_suite_without_panicking() {
        // Smoke: the estimator runs over a realistic generated program.
        let app = nonstrict_workloads::jhlzip::build();
        let order = static_first_use(&app.program);
        assert_eq!(order.order().len(), app.program.method_count());
        assert_eq!(order.rank(&app.program, app.program.entry()), 0);
    }
}
