//! Extension experiment: where does the deterministic list scheduler sit?
//! The paper's taxonomy (§I) puts hybrid heuristics between meta-heuristics
//! and mathematical optimisation; this binary quantifies that on the 4×4
//! baseline CGRA — the constructive list scheduler is near-instant but
//! pays II on dense kernels, SA recovers some II with stochastic search,
//! LISA recovers more.

use lisa_bench::Harness;
use lisa_mapper::schedule::IiSearch;
use lisa_mapper::ConstructiveStrategy;

fn main() {
    let harness = Harness::from_env();
    let acc = Harness::architecture("4x4");
    let lisa = harness.train_lisa(&acc);

    println!();
    println!("Extension: constructive list scheduling vs SA vs LISA (4x4, II / time)");
    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "benchmark", "Constructive", "SA", "LISA"
    );
    let search = IiSearch {
        max_ii: Some(harness.ii_cap()),
    };
    let fmt = |o: &lisa_mapper::MappingOutcome| {
        format!(
            "{}@{:>6.0}ms",
            o.ii.map_or("fail".to_string(), |v| format!("II{v}")),
            o.compile_time.as_secs_f64() * 1e3
        )
    };
    let mut sums = (0u32, 0u32, 0u32);
    for dfg in lisa_dfg::polybench::all_kernels() {
        let g = search.run(&ConstructiveStrategy::new(), &dfg, &acc, 1).0;
        let s = harness.median_sa(&dfg, &acc);
        let (l, _) = lisa.map_capped(&dfg, &acc, harness.ii_cap());
        println!(
            "{:<12} {:>14} {:>14} {:>14}",
            dfg.name(),
            fmt(&g),
            fmt(&s),
            fmt(&l)
        );
        sums.0 += g.ii.unwrap_or(17);
        sums.1 += s.ii.unwrap_or(17);
        sums.2 += l.ii.unwrap_or(17);
    }
    println!(
        "total II: Constructive {}  SA {}  LISA {} (lower is better)",
        sums.0, sums.1, sums.2
    );
}
