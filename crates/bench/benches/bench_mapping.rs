//! Benches for the three mappers — the kernel behind the compilation-time
//! comparison of Fig. 11 — plus the annealer's inner-loop microbenches:
//! movement throughput (the undo-journal engine), the label-aware
//! candidate draw, and races of one and four annealing lanes. Mapper
//! runs take seconds, so they register as heavy benches: fewer samples,
//! skipped in `cargo test` smoke mode. The movement, label-draw and race
//! entries are cheap and run (once) even in smoke mode, so
//! `scripts/verify.sh` can check the suite's JSON end to end.

use std::sync::Arc;

use lisa_arch::Accelerator;
use lisa_bench::timing::Suite;
use lisa_dfg::{polybench, Dfg, OpKind};
use lisa_events::{EventSink, Observer};
use lisa_events::{PipelineEvent, RecordingObserver};
use lisa_gnn::TrainConfig;
use lisa_labels::movement::{MovementPredictor, MovementRecorder};
use lisa_mapper::exact::{ExactMapper, ExactParams};
use lisa_mapper::sa::movement_throughput;
use lisa_mapper::schedule::{IiMapper, IiSearch};
use lisa_mapper::{
    anneal_chain, ConstructiveStrategy, FilterStats, GuidanceLabels, LabelSaMapper, SaParams,
    StrategySpec,
};

/// The paper's Fig. 4 DFG (A..J, dense region around B) — the running
/// example, and small enough that a movement costs microseconds.
fn fig4() -> Dfg {
    let mut g = Dfg::new("fig4");
    let a = g.add_node(OpKind::Load, "A");
    let b = g.add_node(OpKind::Load, "B");
    let c = g.add_node(OpKind::Add, "C");
    let d = g.add_node(OpKind::Mul, "D");
    let e = g.add_node(OpKind::Add, "E");
    let _f = g.add_node(OpKind::Sub, "F");
    let gg = g.add_node(OpKind::Add, "G");
    let h = g.add_node(OpKind::Mul, "H");
    let i = g.add_node(OpKind::Add, "I");
    let j = g.add_node(OpKind::Store, "J");
    g.add_data_edge(a, c).unwrap();
    g.add_data_edge(b, d).unwrap();
    g.add_data_edge(b, e).unwrap();
    g.add_data_edge(b, _f).unwrap();
    g.add_data_edge(b, i).unwrap();
    g.add_data_edge(c, gg).unwrap();
    g.add_data_edge(d, gg).unwrap();
    g.add_data_edge(d, h).unwrap();
    g.add_data_edge(e, h).unwrap();
    g.add_data_edge(e, i).unwrap();
    g.add_data_edge(gg, j).unwrap();
    g.add_data_edge(h, j).unwrap();
    g.validate().unwrap();
    g
}

fn main() {
    let mut suite = Suite::from_args("mapping");
    let acc = Accelerator::cgra("4x4", 4, 4);
    let search = IiSearch { max_ii: Some(10) };

    // Movement throughput: the annealer's hot loop on the Fig. 4 running
    // example over a 3x3 CGRA at II 3, using the transaction rollback +
    // incremental cost.
    let fig4 = fig4();
    let acc3 = Accelerator::cgra("3x3", 3, 3);
    const MOVES: u32 = 200;
    suite.bench("movement/fig4_3x3/journal", || {
        std::hint::black_box(movement_throughput(&fig4, &acc3, 3, 42, MOVES));
    });

    // Label pricing: the label-aware annealer (initial labels) on the
    // unrolled gemm over the 8x8 at II 2, which it cannot meet, so the
    // lane runs its whole schedule and every remap lists and prices
    // up to 128 candidates (two free times on each of 64 PEs).
    let gemm_x2 = lisa_dfg::unroll::unroll(&polybench::kernel("gemm").unwrap(), 2);
    let acc8 = Accelerator::cgra("8x8", 8, 8);
    let gemm_labels = GuidanceLabels::initial(&gemm_x2);
    let no_deadline = SaParams {
        time_limit: std::time::Duration::from_secs(3600),
        ..SaParams::fast()
    };
    suite.bench("label_draw/gemm_x2_8x8_ii2", || {
        let mut lisa = LabelSaMapper::new(gemm_labels.clone(), no_deadline.clone(), 7);
        let mapped = lisa.map_at_ii(&gemm_x2, &acc8, 2);
        assert!(mapped.is_none(), "the unrolled gemm must not map at II 2");
        std::hint::black_box(mapped);
    });

    // Big-fabric scaling: beyond 128 PEs the accelerator swaps its dense
    // all-pairs hop table for the landmark distance oracle. These entries
    // demonstrate end-to-end mapping on fabrics the dense table would
    // make needlessly heavy (a 32×32 table alone is 2 MiB, rebuilt per
    // interconnect change) and record the index footprint as metrics,
    // alongside the movement throughput the annealer sustains there. The
    // end-to-end map uses the constructive list scheduler: its
    // producer-adjacent placement stays compact regardless of fabric
    // size, whereas the annealer's fixed iteration budget cannot pull a
    // random scatter over 1024 PEs back together.
    let doitgen = polybench::kernel("doitgen").unwrap();
    for (key, dim) in [("16x16", 16usize), ("32x32", 32)] {
        let big = Accelerator::cgra(key, dim, dim);
        assert_eq!(big.distance_index_kind(), "oracle");
        let dense_equiv = big.pe_count() * big.pe_count() * std::mem::size_of::<u16>();
        suite.metric(
            &format!("distance/{key}_oracle_bytes"),
            big.distance_index_bytes() as f64,
            "bytes",
        );
        suite.metric(
            &format!("distance/{key}_dense_bytes"),
            dense_equiv as f64,
            "bytes",
        );
        suite.bench(&format!("movement/fig4_{key}/journal"), || {
            std::hint::black_box(movement_throughput(&fig4, &big, 3, 42, MOVES));
        });
        suite.bench(&format!("e2e/doitgen_{key}/constructive"), || {
            let outcome = IiSearch { max_ii: Some(8) }
                .run(&ConstructiveStrategy::new(), &doitgen, &big, 1)
                .0;
            assert!(outcome.mapped(), "doitgen must map on {key}");
            std::hint::black_box(outcome);
        });
    }

    // Predict-then-verify A/B: train a micro-predictor from one observed
    // run (movement samples are a free by-product of an attached sink),
    // then run the identical fixed-length annealing chain with the
    // filter off and on. The router-invocation counters land in the JSON
    // as metrics, so the reduction is machine-checkable from
    // `target/bench`; the timing pair measures the wall-clock effect.
    let recorder = Arc::new(MovementRecorder::new());
    let observed = LabelSaMapper::vanilla(SaParams::fast(), 42)
        .with_observer(EventSink::new(Arc::clone(&recorder) as Arc<dyn Observer>));
    let _ = IiSearch { max_ii: Some(4) }.run(&observed, &fig4, &acc3, 1);
    let (predictor, _) = MovementPredictor::train(
        &recorder.snapshot(),
        &TrainConfig {
            epochs: 40,
            ..TrainConfig::fast()
        },
        7,
    )
    .expect("observed run yields training pairs");
    let (_, off) = anneal_chain(&SaParams::fast(), &fig4, &acc3, 3, 42, None);
    let (_, on) = anneal_chain(&SaParams::fast(), &fig4, &acc3, 3, 42, Some(&predictor));
    suite.metric(
        "filter/fig4_3x3/off_router_invocations",
        off.router_invocations as f64,
        "calls",
    );
    suite.metric(
        "filter/fig4_3x3/on_router_invocations",
        on.router_invocations as f64,
        "calls",
    );
    suite.metric("filter/fig4_3x3/on_rejected", on.rejected as f64, "moves");
    suite.metric(
        "filter/fig4_3x3/on_false_rejects",
        on.false_rejects as f64,
        "moves",
    );
    suite.bench("filter/fig4_3x3/off", || {
        std::hint::black_box(anneal_chain(&SaParams::fast(), &fig4, &acc3, 3, 42, None));
    });
    suite.bench("filter/fig4_3x3/on", || {
        std::hint::black_box(anneal_chain(
            &SaParams::fast(),
            &fig4,
            &acc3,
            3,
            42,
            Some(&predictor),
        ));
    });

    // Annealing races: one II search on Fig. 4 per iteration. lanes1 is
    // the single-chain annealer (`sa`); lanes4 races four seeds
    // (`sa,sa,sa,sa`) one after another and keeps the best.
    let one_lane = StrategySpec::default();
    let four_lanes = StrategySpec::parse("sa,sa,sa,sa").expect("four SA lanes");
    let two_lanes = StrategySpec::parse("sa,sa").expect("two SA lanes");
    for (lanes, spec) in [(1, &one_lane), (4, &four_lanes)] {
        suite.bench(&format!("race/fig4_3x3/lanes{lanes}"), || {
            let sa = LabelSaMapper::vanilla(SaParams::fast(), 42).with_strategy(spec.clone());
            std::hint::black_box(IiSearch { max_ii: Some(4) }.run(&sa, &fig4, &acc3, 1).0);
        });
    }

    // Strategy A/B (same shape as the filter A/B above): arm A races two
    // SA lanes (`sa,sa`), arm B the mixed lanes (`constructive,sa`: the
    // constructive scout, then one annealer). The sweep interleaves the
    // arms per kernel across the fig9 4x4 suite at II 8, so machine drift
    // lands on both arms equally, and counts which lane wins each kernel
    // in arm B from the StrategyLaneWon events. Win counts, mapped
    // counts, and the constructive-vs-SA router-work comparison land in
    // the JSON as metrics (machine-checked by bench_check); the timing
    // pair on doitgen is the cheap-tier A/B, the full-suite pair below
    // is heavy tier.
    let mixed_spec = StrategySpec::parse("mixed").expect("mixed is a valid spec");
    let fig9: Vec<Dfg> = polybench::KERNEL_NAMES
        .iter()
        .map(|n| polybench::kernel(n).expect("fig9 kernel"))
        .collect();
    let recorder = Arc::new(RecordingObserver::default());
    let sink = EventSink::new(Arc::clone(&recorder) as Arc<dyn Observer>);
    let (mut mapped_sa, mut mapped_mixed) = (0u64, 0u64);
    let (mut wins_constructive, mut wins_sa) = (0u64, 0u64);
    for dfg in &fig9 {
        let mut a = LabelSaMapper::vanilla(SaParams::fast(), 7).with_strategy(two_lanes.clone());
        mapped_sa += u64::from(a.map_at_ii(dfg, &acc, 8).is_some());
        let mut b = LabelSaMapper::vanilla(SaParams::fast(), 7)
            .with_strategy(mixed_spec.clone())
            .with_observer(sink.clone());
        mapped_mixed += u64::from(b.map_at_ii(dfg, &acc, 8).is_some());
        for event in recorder.take() {
            if let PipelineEvent::StrategyLaneWon { strategy, .. } = event {
                match strategy {
                    "constructive" => wins_constructive += 1,
                    _ => wins_sa += 1,
                }
            }
        }
    }
    suite.metric("strategy/fig9_4x4/mapped_sa", mapped_sa as f64, "kernels");
    suite.metric(
        "strategy/fig9_4x4/mapped_mixed",
        mapped_mixed as f64,
        "kernels",
    );
    suite.metric(
        "strategy/fig9_4x4/wins_constructive",
        wins_constructive as f64,
        "kernels",
    );
    suite.metric("strategy/fig9_4x4/wins_sa", wins_sa as f64, "kernels");

    // Router-work comparison at a common II: the constructive lane and a
    // single annealing chain (at the production `paper` schedule) both
    // map doitgen at II 3 on the 4x4; the lane does it in about one
    // router call per edge.
    let mut cstats = FilterStats::default();
    let built = ConstructiveStrategy::new().run(&doitgen, &acc, 3, &mut cstats);
    assert!(
        built.is_some(),
        "constructive lane completes doitgen at II 3"
    );
    let (annealed, sastats) = anneal_chain(&SaParams::paper(), &doitgen, &acc, 3, 7, None);
    assert!(annealed.is_some(), "SA chain completes doitgen at II 3");
    suite.metric(
        "strategy/doitgen_4x4/constructive_router_invocations",
        cstats.router_invocations as f64,
        "calls",
    );
    suite.metric(
        "strategy/doitgen_4x4/sa_router_invocations",
        sastats.router_invocations as f64,
        "calls",
    );

    for (tag, spec) in [("sa", &two_lanes), ("mixed", &mixed_spec)] {
        suite.bench(&format!("strategy/doitgen_4x4/{tag}"), || {
            let mut sa = LabelSaMapper::vanilla(SaParams::fast(), 7).with_strategy(spec.clone());
            std::hint::black_box(sa.map_at_ii(&doitgen, &acc, 3));
        });
    }
    for (tag, spec) in [("sa", &two_lanes), ("mixed", &mixed_spec)] {
        let fig9 = &fig9;
        suite.bench_heavy(&format!("strategy/fig9_4x4/{tag}"), || {
            for dfg in fig9 {
                let sa = LabelSaMapper::vanilla(SaParams::fast(), 7).with_strategy(spec.clone());
                std::hint::black_box(search.run(&sa, dfg, &acc, 1).0);
            }
        });
    }

    for name in ["doitgen", "gemm", "mvt"] {
        let dfg = polybench::kernel(name).unwrap();
        let mut seed = 0;
        suite.bench_heavy(&format!("sa/{name}"), || {
            seed += 1;
            let sa = LabelSaMapper::vanilla(SaParams::fast(), seed);
            std::hint::black_box(search.run(&sa, &dfg, &acc, 1).0);
        });
        let mut seed = 0;
        suite.bench_heavy(&format!("lisa_initial_labels/{name}"), || {
            seed += 1;
            let labels = GuidanceLabels::initial(&dfg);
            let lisa = LabelSaMapper::new(labels, SaParams::fast(), seed);
            std::hint::black_box(search.run(&lisa, &dfg, &acc, 1).0);
        });
    }

    // The same races at realistic scale: four SA lanes vs. the single
    // chain on a polybench kernel (heavy tier).
    let doitgen = polybench::kernel("doitgen").unwrap();
    for (lanes, spec) in [(1, &one_lane), (4, &four_lanes)] {
        suite.bench_heavy(&format!("race/doitgen_4x4/lanes{lanes}"), || {
            let sa = LabelSaMapper::vanilla(SaParams::fast(), 7).with_strategy(spec.clone());
            std::hint::black_box(search.run(&sa, &doitgen, &acc, 1).0);
        });
    }

    // The exact mapper only on the smallest kernel (it is the slow one).
    let dfg = polybench::kernel("doitgen").unwrap();
    suite.bench_heavy("ilp/doitgen", || {
        let ilp = ExactMapper::new(ExactParams::fast());
        std::hint::black_box(search.run(&ilp, &dfg, &acc, 1).0);
    });

    suite.finish();
}
