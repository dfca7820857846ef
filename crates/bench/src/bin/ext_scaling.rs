//! Extension experiment: mapper scalability across CGRA sizes. The paper
//! argues LISA "scales with spatial accelerators" (§VI-A); this binary
//! sweeps 2×2 → 6×6 arrays on one representative kernel and reports II
//! and compilation time per mapper, exposing where each approach falls
//! over as the search space grows.

use lisa_bench::Harness;
use lisa_mapper::exact::ExactMapper;
use lisa_mapper::schedule::IiSearch;
use lisa_mapper::LabelSaMapper;

fn main() {
    let harness = Harness::from_env();
    let dfg = lisa_dfg::polybench::kernel("gemm").expect("built-in kernel");
    println!("Extension: gemm across CGRA sizes (II / compile time)");
    println!("{:<6} {:>16} {:>16} {:>16}", "array", "ILP", "SA", "LISA");
    for size in 2..=6 {
        let acc = lisa_arch::Accelerator::cgra(format!("{size}x{size}"), size, size);
        let search = IiSearch {
            max_ii: Some(harness.ii_cap()),
        };

        let ilp = ExactMapper::new(harness.exact_params());
        let ilp_outcome = search.run(&ilp, &dfg, &acc, 1).0;

        let sa = LabelSaMapper::vanilla(harness.sa_params(), harness.seed());
        let sa_outcome = search.run(&sa, &dfg, &acc, 1).0;

        let lisa = harness.train_lisa(&acc);
        let (lisa_outcome, _) = lisa.map_capped(&dfg, &acc, harness.ii_cap());

        let fmt = |o: &lisa_mapper::MappingOutcome| {
            format!(
                "{}@{:>7.2}s",
                o.ii.map_or("fail".to_string(), |v| format!("II{v}")),
                o.compile_time.as_secs_f64()
            )
        };
        println!(
            "{:<6} {:>16} {:>16} {:>16}",
            acc.name(),
            fmt(&ilp_outcome),
            fmt(&sa_outcome),
            fmt(&lisa_outcome)
        );
    }
}
