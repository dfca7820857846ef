//! Predict-then-verify A/B — router work saved by the learned movement
//! filter on the Fig. 9 benchmark suite (EXPERIMENTS.md "Movement
//! filter").
//!
//! Usage: `filter_ab [arch-key]` (default `4x4`).
//!
//! Phase 1 captures `(movement features, Δcost)` pairs by running vanilla
//! SA once per benchmark with a movement recorder attached, and trains
//! one movement predictor per benchmark from its own capture — the
//! deployment shape: capture is a free by-product of mapping a kernel,
//! and the predictor serves later mappings of that same kernel (the
//! repeat-request pattern the result cache exists for). A predictor
//! pooled across all twelve benchmarks keeps the aggregate reduction but
//! mis-scores outliers (atax's II-2 search regressed under it), so the
//! per-kernel shape is also the quality-safe one.
//! Phase 2 runs each benchmark's full II search with seeds disjoint from
//! the capture runs, five per arm (the paper's §VI median-of-runs SA
//! methodology, widened from three to five to damp seed noise),
//! interleaved off/on per seed so the two arms see the same machine
//! state. It prints the median II, total router
//! invocations, wall time, and the audited false-reject rate for both
//! arms. The off arm is byte-identical to the pre-filter binary; the on
//! arm must reach an equal-or-better median II — quality is exact by
//! construction on accepted states, so any II change comes from the
//! altered search trajectory (the gate skips the accept draw of
//! rejected proposals, desynchronising the RNG stream), not from
//! mispriced mappings.

use std::sync::Arc;
use std::time::Instant;

use lisa_bench::Harness;
use lisa_dfg::polybench;
use lisa_events::{EventSink, Observer};
use lisa_gnn::TrainConfig;
use lisa_labels::movement::{MovementPredictor, MovementRecorder, MovementSet};
use lisa_mapper::schedule::IiSearch;
use lisa_mapper::{FilterStats, FilterTotals, LabelSaMapper, MovementScorer};

fn main() {
    let arch_key = std::env::args().nth(1).unwrap_or_else(|| "4x4".to_string());
    let harness = Harness::from_env();
    let acc = Harness::architecture(&arch_key);
    let benches = polybench::all_kernels();
    let search = IiSearch {
        max_ii: Some(harness.ii_cap()),
    };
    let capture_seed = harness.seed() + 40_000;
    let ab_seed = harness.seed();

    // Phase 1: per benchmark, capture pairs from one observed run and
    // train that benchmark's predictor.
    eprintln!(
        "capturing movement pairs on {} ({} benchmarks)...",
        acc.name(),
        benches.len()
    );
    let config = TrainConfig {
        epochs: 120,
        ..TrainConfig::paper()
    };
    let mut predictors: Vec<Arc<MovementPredictor>> = Vec::new();
    for dfg in &benches {
        let recorder = Arc::new(MovementRecorder::new());
        let sa = LabelSaMapper::vanilla(harness.sa_params(), capture_seed)
            .with_observer(EventSink::new(Arc::clone(&recorder) as Arc<dyn Observer>));
        let _ = search.run(&sa, dfg, &acc, 1);
        let set: MovementSet = recorder.snapshot();
        let improving = set.pairs.iter().filter(|p| p.delta_cost <= 0.0).count();
        let (predictor, report) =
            MovementPredictor::train(&set, &config, ab_seed).expect("capture yields pairs");
        eprintln!(
            "  {:<12} {} pairs ({improving} improving): final loss {:.6}, threshold {:.4}",
            dfg.name(),
            set.len(),
            report.final_loss(),
            predictor.threshold()
        );
        predictors.push(Arc::new(predictor));
    }

    // Phase 2: interleaved A/B per benchmark, median of five seeds per
    // arm (the paper's SA methodology, widened to five), seeds disjoint
    // from the capture run.
    let totals = Arc::new(FilterTotals::default());
    let sink = EventSink::new(Arc::clone(&totals) as Arc<dyn Observer>);
    println!();
    println!(
        "Movement filter A/B on {} (seeds {ab_seed}+, median of 5, II cap {})",
        acc.name(),
        harness.ii_cap()
    );
    println!(
        "{:<12} {:>6} {:>6} {:>12} {:>12} {:>6} {:>9} {:>9}",
        "benchmark", "II off", "II on", "router off", "router on", "ratio", "time off", "time on"
    );
    let mut sum_off = FilterStats::default();
    let mut sum_on = FilterStats::default();
    let mut ok = true;
    for (dfg, predictor) in benches.iter().zip(&predictors) {
        let run = |seed: u64, filter: Option<Arc<dyn MovementScorer>>| {
            let mut sa =
                LabelSaMapper::vanilla(harness.sa_params(), seed).with_observer(sink.clone());
            if let Some(f) = filter {
                sa = sa.with_movement_filter(f);
            }
            let start = Instant::now();
            let (outcome, mapping) = search.run(&sa, dfg, &acc, 1);
            let elapsed = start.elapsed();
            if let Some(m) = &mapping {
                m.verify().expect("mapping invariants hold");
            }
            (outcome, totals.take(), elapsed)
        };
        let mut off = FilterStats::default();
        let mut on = FilterStats::default();
        let mut off_iis = Vec::new();
        let mut on_iis = Vec::new();
        let mut off_time = std::time::Duration::ZERO;
        let mut on_time = std::time::Duration::ZERO;
        for attempt in 0..5 {
            let seed = ab_seed + attempt * 101;
            let (o, stats, t) = run(seed, None);
            off.merge(&stats);
            off_iis.push(o.ii.unwrap_or(u32::MAX));
            off_time += t;
            let (o, stats, t) = run(seed, Some(Arc::clone(predictor) as Arc<dyn MovementScorer>));
            on.merge(&stats);
            on_iis.push(o.ii.unwrap_or(u32::MAX));
            on_time += t;
        }
        off_iis.sort_unstable();
        on_iis.sort_unstable();
        let (ii_off, ii_on) = (off_iis[2], on_iis[2]);
        sum_off.merge(&off);
        sum_on.merge(&on);
        if ii_on > ii_off {
            ok = false;
        }
        println!(
            "{:<12} {:>6} {:>6} {:>12} {:>12} {:>5.2}x {:>8.2?} {:>8.2?}",
            dfg.name(),
            if ii_off == u32::MAX { 0 } else { ii_off },
            if ii_on == u32::MAX { 0 } else { ii_on },
            off.router_invocations,
            on.router_invocations,
            off.router_invocations as f64 / on.router_invocations.max(1) as f64,
            off_time,
            on_time
        );
    }
    println!();
    println!(
        "totals: router invocations {} -> {} ({:.2}x fewer), proposals {} -> {} \
         (admitted {}, rejected {}), audited {} with {} false rejects ({:.1}%)",
        sum_off.router_invocations,
        sum_on.router_invocations,
        sum_off.router_invocations as f64 / sum_on.router_invocations.max(1) as f64,
        sum_off.proposals,
        sum_on.proposals,
        sum_on.admitted,
        sum_on.rejected,
        sum_on.audited,
        sum_on.false_rejects,
        100.0 * sum_on.false_rejects as f64 / sum_on.audited.max(1) as f64
    );
    if !ok {
        println!("WARNING: some benchmark regressed median II with the filter on");
    }
}
