//! The ablations: do the paper's design choices actually win in
//! simulation?

use nonstrict::core::{ExecutionModel, OrderingSource, Session, SimConfig, TransferPolicy};
use nonstrict::netsim::{class_units, greedy_schedule, ParallelEngine, TransferEngine, Weights};
use nonstrict::reorder::{restructure, static_first_use, static_first_use_plain};
use nonstrict_bytecode::Input;
use nonstrict_netsim::schedule::ParallelSchedule;
use nonstrict_netsim::Link;

#[test]
fn non_strict_gating_beats_strict_gating_under_identical_transfer() {
    // The core claim, isolated: same bytes, same engine, only the gating
    // granularity differs.
    for name in ["JHLZip", "Jess"] {
        let s = Session::new(nonstrict::workloads::build_by_name(name).unwrap()).unwrap();
        let mk = |execution| SimConfig {
            execution,
            ..SimConfig::non_strict(Link::MODEM_28_8, OrderingSource::StaticCallGraph)
        };
        let strict = s.simulate(Input::Test, &mk(ExecutionModel::Strict));
        let non_strict = s.simulate(Input::Test, &mk(ExecutionModel::NonStrict));
        assert!(
            non_strict.total_cycles < strict.total_cycles,
            "{name}: non-strict {} vs strict-gating {}",
            non_strict.total_cycles,
            strict.total_cycles
        );
        assert!(
            non_strict.invocation_latency < strict.invocation_latency,
            "{name}"
        );
    }
}

#[test]
fn loop_heuristics_win_where_loops_predict_first_use() {
    // On a program whose hot path is the loop-rich branch, the paper's
    // §4.1 heuristic predicts the true first-use order; plain DFS takes
    // the textual branch and misorders it. (On the generated suite the
    // two mostly agree — drivers call workers in body order — so this
    // constructed case is where the heuristic earns its keep.)
    use nonstrict::bytecode::builder::MethodBuilder;
    use nonstrict::bytecode::program::{ClassDef, Program};
    use nonstrict::bytecode::{Cond, MethodId};

    let looper = MethodId::new(0, 1);
    let flat = MethodId::new(0, 2);
    let mut main = MethodBuilder::new("main", 1);
    let flat_path = main.new_label();
    let join = main.new_label();
    // branch: textual arm is flat; loop-rich arm is the taken target
    main.iload(0).if_(Cond::Ne, flat_path);
    main.invoke(flat);
    main.goto(join);
    main.bind(flat_path);
    main.iconst(3).istore(1);
    let head = main.new_label();
    let exit = main.new_label();
    main.bind(head);
    main.iload(1).if_(Cond::Le, exit);
    main.invoke(looper);
    main.iinc(1, -1).goto(head);
    main.bind(exit);
    main.bind(join);
    main.ret();
    let mut c = ClassDef::new("abl/T");
    c.add_method(main.finish());
    for n in ["looper", "flat"] {
        let mut b = MethodBuilder::new(n, 0);
        b.ret();
        c.add_method(b.finish());
    }
    let p = Program::new(vec![c], "abl/T", "main").unwrap();

    let smart = static_first_use(&p);
    let plain = static_first_use_plain(&p);
    // loop-aware follows the loop-rich arm first
    assert!(
        smart.rank(&p, looper) < smart.rank(&p, flat),
        "{:?}",
        smart.order()
    );
    // plain DFS follows the textual arm first
    assert!(
        plain.rank(&p, flat) < plain.rank(&p, looper),
        "{:?}",
        plain.order()
    );
}

#[test]
fn method_delimiters_cost_less_wire_than_block_delimiters() {
    let app = nonstrict::workloads::jhlzip::build();
    let order = static_first_use(&app.program);
    let r = restructure(&app, &order);
    let method_level = class_units(&app, &r, None, 2);
    let block_level = class_units(&app, &r, None, 12);
    let m: u64 = method_level.iter().map(|u| u.total()).sum();
    let b: u64 = block_level.iter().map(|u| u.total()).sum();
    assert!(
        b > m,
        "block-level delimiters must cost more wire: {b} vs {m}"
    );
    // and the overhead is why the paper stops at method granularity
    let overhead = (b - m) as f64 / m as f64;
    assert!(overhead > 0.01, "{overhead}");
}

#[test]
fn greedy_schedule_delivers_the_first_class_sooner_than_naive() {
    // With zero thresholds everything streams at once and the entry
    // class gets 1/N of the link; the greedy schedule holds dependents
    // back until their unique bytes are due.
    let app = nonstrict::workloads::bit::build();
    let order = static_first_use(&app.program);
    let r = restructure(&app, &order);
    let units = class_units(&app, &r, None, 2);
    let greedy = greedy_schedule(&app, &order, &units, &r.layouts, Weights::Static);
    let naive = ParallelSchedule {
        class_order: greedy.class_order.clone(),
        thresholds: vec![0; units.len()],
    };
    let entry = app.program.entry().class.0 as usize;
    let mut e_greedy = ParallelEngine::new(Link::MODEM_28_8, units.clone(), &greedy, usize::MAX);
    let mut e_naive = ParallelEngine::new(Link::MODEM_28_8, units.clone(), &naive, usize::MAX);
    let t_greedy = e_greedy.unit_ready(entry, 1, 0);
    let t_naive = e_naive.unit_ready(entry, 1, 0);
    assert!(
        t_greedy < t_naive,
        "greedy should deliver main sooner: {t_greedy} vs naive {t_naive}"
    );
}

#[test]
fn restructuring_matters_source_order_loses_to_first_use_order() {
    // Without restructuring, non-strict execution still helps, but the
    // predicted-order layouts must beat source order on average.
    let s = Session::new(nonstrict::workloads::jess::build()).unwrap();
    let mk = |ordering| SimConfig {
        transfer: TransferPolicy::Interleaved,
        ..SimConfig::non_strict(Link::MODEM_28_8, ordering)
    };
    let source = s.simulate(Input::Test, &mk(OrderingSource::SourceOrder));
    let test = s.simulate(Input::Test, &mk(OrderingSource::TestProfile));
    assert!(
        test.total_cycles < source.total_cycles,
        "first-use layout {} must beat source order {}",
        test.total_cycles,
        source.total_cycles
    );
}
