//! Unrolled-kernel stress test (the paper's Fig. 9d scenario): unrolling
//! by 2 doubles the DFG size and density, which is where vanilla SA starts
//! failing while LISA's global view keeps mapping.
//!
//! Run with: `cargo run --release --example unrolled_kernels`

use lisa_arch::Accelerator;
use lisa_core::{Lisa, LisaConfig};
use lisa_dfg::{polybench, unroll::unroll};
use lisa_mapper::schedule::IiSearch;
use lisa_mapper::{LabelSaMapper, SaParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let acc = Accelerator::cgra("4x4", 4, 4);
    eprintln!("training LISA for {} ...", acc.name());
    let lisa = Lisa::train_for(&acc, &LisaConfig::fast())?;

    println!(
        "{:<12} {:>6} {:>7} {:>7} {:>7}",
        "kernel", "nodes", "SA", "LISA", "winner"
    );
    for name in ["atax", "gemm", "mvt", "symm"] {
        let body = polybench::kernel(name)?;
        let dfg = unroll(&body, 2);

        let sa = LabelSaMapper::vanilla(SaParams::paper(), 1);
        let sa_outcome = IiSearch { max_ii: Some(16) }.run(&sa, &dfg, &acc, 1).0;
        let (lisa_outcome, mapping) = lisa.map_capped(&dfg, &acc, 16);
        if let Some(m) = &mapping {
            m.verify().expect("mapping invariants hold");
        }

        let winner = match (sa_outcome.ii, lisa_outcome.ii) {
            (Some(s), Some(l)) if l < s => "LISA",
            (Some(s), Some(l)) if s < l => "SA",
            (Some(_), Some(_)) => "tie",
            (None, Some(_)) => "LISA",
            (Some(_), None) => "SA",
            (None, None) => "-",
        };
        println!(
            "{:<12} {:>6} {:>7} {:>7} {:>7}",
            dfg.name(),
            dfg.node_count(),
            sa_outcome.ii.map_or("fail".to_string(), |v| v.to_string()),
            lisa_outcome
                .ii
                .map_or("fail".to_string(), |v| v.to_string()),
            winner
        );
    }
    Ok(())
}
