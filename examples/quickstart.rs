//! Quickstart: train LISA for a 4×4 CGRA and map a PolyBench kernel.
//!
//! Run with: `cargo run --release --example quickstart`

use lisa_arch::Accelerator;
use lisa_core::{Lisa, LisaConfig};
use lisa_dfg::polybench;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The accelerator: a 4x4 mesh CGRA with 4 registers per PE and 24
    // configuration entries (the paper's baseline).
    let acc = Accelerator::cgra("4x4", 4, 4);

    // Train the GNN label models for this accelerator. `fast()` keeps the
    // example under a minute; `LisaConfig::default()` is experiment-scale.
    println!("training LISA for {acc} ...");
    let lisa = Lisa::train_for(&acc, &LisaConfig::fast())?;
    let stats = lisa.stats();
    println!(
        "  {} training DFGs kept, label accuracies {}",
        stats.dfgs_kept,
        stats.accuracy.summary()
    );

    // Map a real kernel: the GNN derives the four guidance labels and the
    // label-aware simulated annealer searches IIs from the minimum up.
    let dfg = polybench::kernel("gemm")?;
    println!(
        "mapping {} ({} nodes, {} edges) ...",
        dfg.name(),
        dfg.node_count(),
        dfg.edge_count()
    );
    let (outcome, mapping) = lisa.map_capped(&dfg, &acc, acc.max_ii());
    match outcome.ii {
        Some(ii) => {
            let m = mapping.expect("outcome and mapping agree");
            m.verify().expect("mapping invariants hold");
            println!(
                "  mapped at II {ii} in {:.2?} ({} routing cells)",
                outcome.compile_time, outcome.routing_cells
            );
        }
        None => println!("  could not map within the configuration depth"),
    }
    Ok(())
}
