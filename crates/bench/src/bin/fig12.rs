//! Figure 12 — effectiveness of the temporal-mapping-distance label
//! (label 4) used as routing priority alone (paper §VI-C).
//!
//! Compares vanilla SA, SA with label-4 routing priority ("SA+RP"), and
//! full LISA on the 4×4 baseline CGRA and the 4×4 CGRA with less routing
//! resources.

use lisa_bench::Harness;
use lisa_mapper::schedule::IiSearch;
use lisa_mapper::LabelSaMapper;

fn main() {
    let harness = Harness::from_env();
    for key in ["4x4", "4x4-lr"] {
        let acc = Harness::architecture(key);
        let lisa = harness.train_lisa(&acc);
        println!();
        println!("Figure 12 ({key}): routing-priority ablation (II; 0 = unmapped)");
        println!(
            "{:<12} {:>6} {:>7} {:>6}",
            "benchmark", "SA", "SA+RP", "LISA"
        );
        let mut counts = (0usize, 0usize, 0usize);
        for dfg in lisa_dfg::polybench::all_kernels() {
            let sa = harness.median_sa(&dfg, &acc);

            // SA + routing priority: vanilla SA movements, label-4 routing
            // order, using the GNN-predicted labels.
            let labels = lisa.predict_labels(&dfg);
            let rp =
                LabelSaMapper::routing_priority_only(labels, harness.sa_params(), harness.seed());
            let rp_outcome = IiSearch {
                max_ii: Some(harness.ii_cap()),
            }
            .run(&rp, &dfg, &acc, 1)
            .0;

            let (lisa_outcome, _) = lisa.map_capped(&dfg, &acc, harness.ii_cap());

            println!(
                "{:<12} {:>6} {:>7} {:>6}",
                dfg.name(),
                sa.ii.unwrap_or(0),
                rp_outcome.ii.unwrap_or(0),
                lisa_outcome.ii.unwrap_or(0)
            );
            counts.0 += usize::from(sa.mapped());
            counts.1 += usize::from(rp_outcome.mapped());
            counts.2 += usize::from(lisa_outcome.mapped());
        }
        println!(
            "mapped: SA {}/12  SA+RP {}/12  LISA {}/12",
            counts.0, counts.1, counts.2
        );
    }
}
