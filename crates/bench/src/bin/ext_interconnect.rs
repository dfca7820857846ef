//! Extension experiment: interconnect richness. Compares the classic mesh
//! against a HyCUBE-style single-cycle multi-hop network (radius 2) on a
//! 4×4 CGRA. Richer routing shrinks the search problem, so all mappers
//! improve — and the gap between guided and unguided search narrows,
//! matching the paper's observation that constrained routing is where the
//! global view pays off most.

use lisa_arch::{Accelerator, Interconnect};
use lisa_bench::Harness;
use lisa_mapper::schedule::IiSearch;
use lisa_mapper::LabelSaMapper;

fn main() {
    let harness = Harness::from_env();
    let mesh = Accelerator::cgra("4x4-mesh", 4, 4);
    let hycube =
        Accelerator::cgra("4x4-hop2", 4, 4).with_interconnect(Interconnect::MultiHop { radius: 2 });

    println!("Extension: mesh vs multi-hop interconnect (vanilla SA II)");
    println!("{:<12} {:>8} {:>8}", "benchmark", "mesh", "hop-2");
    let search = IiSearch {
        max_ii: Some(harness.ii_cap()),
    };
    let mut mesh_sum = 0u32;
    let mut hop_sum = 0u32;
    for dfg in lisa_dfg::polybench::all_kernels() {
        let sa1 = LabelSaMapper::vanilla(harness.sa_params(), harness.seed());
        let m = search.run(&sa1, &dfg, &mesh, 1).0;
        let sa2 = LabelSaMapper::vanilla(harness.sa_params(), harness.seed());
        let h = search.run(&sa2, &dfg, &hycube, 1).0;
        println!(
            "{:<12} {:>8} {:>8}",
            dfg.name(),
            m.ii.unwrap_or(0),
            h.ii.unwrap_or(0)
        );
        mesh_sum += m.ii.unwrap_or(17);
        hop_sum += h.ii.unwrap_or(17);
    }
    println!("total II: mesh {mesh_sum}  hop-2 {hop_sum} (lower is better)");
}
