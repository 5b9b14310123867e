//! Compares every transfer policy on one benchmark: strict sequential,
//! parallel at each concurrent-file limit, and interleaved — with and
//! without global-data partitioning.
//!
//! ```text
//! cargo run --release --example transfer_policies [benchmark] [t1|modem]
//! ```

use nonstrict::core::metrics::normalized_percent;
use nonstrict::core::{DataLayout, OrderingSource, Session, SimConfig, TransferPolicy};
use nonstrict::netsim::Link;
use nonstrict_bytecode::Input;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "bit".to_owned());
    let link = match std::env::args().nth(2).as_deref() {
        Some("t1") => Link::T1,
        _ => Link::MODEM_28_8,
    };
    let app = nonstrict::workloads::build_by_name(&name)
        .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
    println!(
        "{} over the {} link — normalized execution time (% of strict base)\n",
        app.name, link.name
    );
    let session = Session::new(app)?;
    let base = session
        .simulate(Input::Test, &SimConfig::strict(link))
        .total_cycles;

    let policies = [
        TransferPolicy::Strict,
        TransferPolicy::Parallel { limit: 1 },
        TransferPolicy::Parallel { limit: 2 },
        TransferPolicy::Parallel { limit: 4 },
        TransferPolicy::Parallel { limit: usize::MAX },
        TransferPolicy::Interleaved,
    ];
    println!(
        "{:<10} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "policy", "SCG", "Train", "Test", "SCG+DP", "Train+DP", "Test+DP"
    );
    for policy in policies {
        print!("{:<10}", policy.label());
        for data_layout in [DataLayout::Whole, DataLayout::Partitioned] {
            for ordering in [
                OrderingSource::StaticCallGraph,
                OrderingSource::TrainProfile,
                OrderingSource::TestProfile,
            ] {
                let config = SimConfig {
                    transfer: policy,
                    data_layout,
                    ..SimConfig::non_strict(link, ordering)
                };
                let r = session.simulate(Input::Test, &config);
                print!(" {:>8.1}", normalized_percent(r.total_cycles, base));
            }
            if data_layout == DataLayout::Whole {
                print!(" |");
            }
        }
        println!();
    }
    println!("\n(smaller is better; 100 = the strict 1998 JVM baseline)");
    Ok(())
}
