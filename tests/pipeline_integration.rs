//! Cross-crate integration: the classfile → bytecode → profile →
//! reorder → netsim → core pipeline hangs together byte for byte.

use nonstrict::core::{OrderingSource, Session, SimConfig, TransferPolicy};
use nonstrict::netsim::{
    class_units, greedy_schedule, InterleavedEngine, Link, ParallelEngine, StrictEngine,
    TransferEngine, Weights, DELIMITER_BYTES,
};
use nonstrict::reorder::{partition_app, restructure, static_first_use, FirstUseOrder};
use nonstrict_bytecode::{Application, Input};
use nonstrict_profile::collect;

fn apps() -> Vec<Application> {
    vec![
        nonstrict::workloads::hanoi::build(),
        nonstrict::workloads::jhlzip::build(),
    ]
}

#[test]
fn serialized_class_files_are_wire_exact_for_every_benchmark() {
    for app in nonstrict::workloads::build_all() {
        for (ci, class) in app.classes.iter().enumerate() {
            let bytes = class.to_bytes();
            assert_eq!(
                bytes.len() as u32,
                class.total_size(),
                "{} class {ci}: serialized length must equal the size model",
                app.name
            );
            assert_eq!(&bytes[0..4], &[0xCA, 0xFE, 0xBA, 0xBE]);
            class.validate().unwrap();
        }
    }
}

#[test]
fn restructuring_preserves_every_byte_count() {
    for app in apps() {
        let order = static_first_use(&app.program);
        let r = restructure(&app, &order);
        for (orig, new) in app.classes.iter().zip(&r.classes) {
            assert_eq!(orig.total_size(), new.total_size());
            assert_eq!(orig.global_data_size(), new.global_data_size());
        }
    }
}

#[test]
fn partitioned_and_whole_units_carry_the_same_payload() {
    for app in apps() {
        let order = static_first_use(&app.program);
        let r = restructure(&app, &order);
        let parts = partition_app(&app);
        let whole = class_units(&app, &r, None, 0);
        let split = class_units(&app, &r, Some(&parts), 0);
        for (ci, (w, s)) in whole.iter().zip(&split).enumerate() {
            let slack = 2 * (s.methods.len() as u64 + 2); // per-unit rounding
            assert!(
                w.total().abs_diff(s.total()) <= slack,
                "{} class {ci}: {} vs {}",
                app.name,
                w.total(),
                s.total()
            );
        }
    }
}

#[test]
fn all_engines_agree_on_total_bytes_and_work_conserving_finish() {
    for app in apps() {
        let order = static_first_use(&app.program);
        let r = restructure(&app, &order);
        let units = class_units(&app, &r, None, DELIMITER_BYTES);
        let total: u64 = units.iter().map(|u| u.total()).sum();
        let link = Link::T1;
        let class_order: Vec<usize> = (0..units.len()).collect();

        let mut strict = StrictEngine::new(link, &units, &class_order);
        let mut interleaved = InterleavedEngine::new(&app, &r, &units, &order, link);
        let schedule = greedy_schedule(&app, &order, &units, &r.layouts, Weights::Static);
        let mut parallel = ParallelEngine::new(link, units.clone(), &schedule, 4);

        // The link is work-conserving under every policy: same bytes,
        // same completion time.
        assert_eq!(strict.total_bytes(), total);
        assert_eq!(interleaved.total_bytes(), total);
        assert_eq!(parallel.total_bytes(), total);
        assert_eq!(strict.finish_time(), link.cycles_for(total));
        assert_eq!(interleaved.finish_time(), link.cycles_for(total));
        assert_eq!(
            parallel.finish_time(),
            link.cycles_for(total),
            "{}",
            app.name
        );
    }
}

#[test]
fn engine_arrivals_are_monotone_within_each_class_stream() {
    let app = nonstrict::workloads::hanoi::build();
    let order = static_first_use(&app.program);
    let r = restructure(&app, &order);
    let units = class_units(&app, &r, None, DELIMITER_BYTES);
    let schedule = greedy_schedule(&app, &order, &units, &r.layouts, Weights::Static);
    let mut engine = ParallelEngine::new(Link::MODEM_28_8, units.clone(), &schedule, 2);
    for (c, u) in units.iter().enumerate() {
        let mut last = 0;
        for i in 0..u.unit_count() {
            let t = engine.unit_ready(c, i, 0);
            assert!(t >= last, "class {c} unit {i}");
            last = t;
        }
    }
}

#[test]
fn profile_collection_matches_interpreter_counts() {
    for app in apps() {
        let collected = collect(&app, Input::Test).unwrap();
        let mut interp = nonstrict_bytecode::Interpreter::new(&app.program);
        interp.run(app.args(Input::Test), &mut ()).unwrap();
        assert_eq!(
            collected.trace.total_instructions(),
            interp.executed(),
            "{}",
            app.name
        );
    }
}

#[test]
fn train_profile_covers_no_more_than_test_for_every_benchmark() {
    for app in nonstrict::workloads::build_all() {
        let session = Session::new(app).unwrap();
        let test_n = session.test.profile.executed_method_count();
        let train_n = session.train.profile.executed_method_count();
        assert!(
            train_n <= test_n,
            "{}: train covers {train_n} methods, test {test_n}",
            session.app.name
        );
    }
}

#[test]
fn strict_transfer_with_nonstrict_execution_is_a_valid_ablation() {
    // TransferPolicy::Strict + NonStrict execution = "strict with
    // overlap": between the baseline and real non-strict transfer.
    let app = nonstrict::workloads::jhlzip::build();
    let session = Session::new(app).unwrap();
    let link = Link::MODEM_28_8;
    let base = session.simulate(Input::Test, &SimConfig::strict(link));
    let overlap = SimConfig {
        transfer: TransferPolicy::Strict,
        ..SimConfig::non_strict(link, OrderingSource::TestProfile)
    };
    let mut ns = overlap;
    ns.transfer = TransferPolicy::Parallel { limit: 4 };
    let r_overlap = session.simulate(Input::Test, &overlap);
    let r_ns = session.simulate(Input::Test, &ns);
    assert!(r_overlap.total_cycles <= base.total_cycles);
    // Parallel fair-sharing may delay the critical class relative to a
    // dedicated sequential stream; allow a few percent of the baseline.
    assert!(r_ns.total_cycles <= r_overlap.total_cycles + base.total_cycles / 20);
}

#[test]
fn source_order_restructuring_is_identity() {
    let app = nonstrict::workloads::hanoi::build();
    let order = FirstUseOrder::source_order(&app.program);
    let r = restructure(&app, &order);
    for (ci, layout) in r.layouts.iter().enumerate() {
        let expect: Vec<u16> = (0..app.classes[ci].methods.len() as u16).collect();
        assert_eq!(layout.file_order, expect);
        assert_eq!(app.classes[ci].to_bytes(), r.classes[ci].to_bytes());
    }
}

#[test]
fn every_benchmark_class_file_parses_back_byte_exactly() {
    for app in nonstrict::workloads::build_all() {
        for (ci, class) in app.classes.iter().enumerate() {
            let bytes = class.to_bytes();
            let parsed = nonstrict::classfile::parse(&bytes)
                .unwrap_or_else(|e| panic!("{} class {ci}: {e}", app.name));
            assert_eq!(parsed.to_bytes(), bytes, "{} class {ci}", app.name);
            parsed.validate().unwrap();
        }
    }
}

#[test]
fn every_benchmark_method_disassembles_and_reencodes_exactly() {
    use nonstrict::classfile::Attribute;
    for app in nonstrict::workloads::build_all() {
        for class in &app.classes {
            for m in &class.methods {
                let Some(Attribute::Code { code, .. }) = m.code_attribute() else {
                    continue;
                };
                let ops = nonstrict::bytecode::decode(code)
                    .unwrap_or_else(|e| panic!("{}: {e}", app.name));
                let mut re = Vec::with_capacity(code.len());
                for (_, op) in &ops {
                    op.encode_into(&mut re);
                }
                assert_eq!(&re, code, "{}", app.name);
                // and the listing renders without error
                let text = nonstrict::bytecode::listing(code, &class.constant_pool).unwrap();
                assert_eq!(text.lines().count(), ops.len());
            }
        }
    }
}
