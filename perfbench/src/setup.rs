//! Set-up from outside, one span per public call: the same pipeline
//! `Session::new` runs (profile both inputs, order, restructure,
//! partition), so a traced set-up splits its time by layer.

use std::hint::black_box;

use nonstrict_bytecode::{Application, Input, Interpreter};
use nonstrict_profile::collect;
use nonstrict_reorder::{partition_app, restructure, static_first_use, FirstUseOrder};

use crate::trace::span;

/// Runs `Session::new`'s steps for `app`, each inside its layer's span.
///
/// # Errors
///
/// An interpreter fault while profiling, as text.
pub fn traced_pipeline(app: &Application) -> Result<(), String> {
    let run =
        |input| span("profile.collect", None, || collect(app, input)).map_err(|e| e.to_string());
    let test = run(Input::Test)?;
    let train = run(Input::Train)?;
    let scg = span("reorder.scg", None, || static_first_use(&app.program));
    let orders = span("reorder.order", None, || {
        [
            FirstUseOrder::source_order(&app.program),
            FirstUseOrder::from_profile(&app.program, &train.profile, &scg),
            FirstUseOrder::from_profile(&app.program, &test.profile, &scg),
        ]
    });
    span("reorder.restructure", None, || {
        for order in orders.iter().chain([&scg]) {
            black_box(restructure(app, order));
        }
    });
    span("reorder.partition", None, || black_box(partition_app(app)));
    Ok(())
}

/// The interpreter alone (null event sink) on the Test input: returns
/// the dynamic instruction count. Not part of any set-up time; it is
/// the `bytecode` layer's throughput probe.
///
/// # Errors
///
/// An interpreter fault, as text.
pub fn interp_probe(app: &Application) -> Result<u64, String> {
    span("bytecode.run", None, || {
        let mut interp = Interpreter::new(&app.program);
        interp
            .run(app.args(Input::Test), &mut ())
            .map_err(|e| e.to_string())?;
        Ok(interp.executed())
    })
}
