//! Ablation benches for LISA's design choices (DESIGN.md §7): label
//! subsets in the placement cost and the σ deviation schedule. Full mapper
//! runs: registered heavy, so `cargo test` smoke mode skips them.

use lisa_arch::Accelerator;
use lisa_bench::timing::Suite;
use lisa_dfg::polybench;
use lisa_mapper::schedule::IiSearch;
use lisa_mapper::{GuidanceLabels, LabelSaMapper, SaParams};

fn main() {
    let mut suite = Suite::from_args("ablation");
    let acc = Accelerator::cgra("4x4", 4, 4);
    let search = IiSearch { max_ii: Some(10) };
    let dfg = polybench::kernel("syr2k").unwrap();
    let labels = GuidanceLabels::initial(&dfg);

    let mut seed = 0;
    suite.bench_heavy("mode/full", || {
        seed += 1;
        let m = LabelSaMapper::new(labels.clone(), SaParams::fast(), seed);
        std::hint::black_box(search.run(&m, &dfg, &acc, 1).0);
    });
    let mut seed = 0;
    suite.bench_heavy("mode/routing_priority_only", || {
        seed += 1;
        let m = LabelSaMapper::routing_priority_only(labels.clone(), SaParams::fast(), seed);
        std::hint::black_box(search.run(&m, &dfg, &acc, 1).0);
    });
    let mut seed = 0;
    suite.bench_heavy("mode/initial_only", || {
        seed += 1;
        let m = LabelSaMapper::initial_only(labels.clone(), SaParams::fast(), seed);
        std::hint::black_box(search.run(&m, &dfg, &acc, 1).0);
    });

    suite.finish();
}
