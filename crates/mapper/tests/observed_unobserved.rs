//! Observed and unobserved anneals decide the same.
//!
//! Unobserved, an annealing movement's routing pass stops as soon as the
//! accept test is sure to reject the movement. Observed, every admitted
//! movement routes to the end, because its `SaMovementSample` carries the
//! exact Δcost. The early stop may only save router work: every RNG draw,
//! accept decision and route must stay the same, so the two runs must
//! return the same mapping, byte for byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lisa_arch::Accelerator;
use lisa_dfg::{polybench, Dfg};
use lisa_events::{EventSink, RecordingObserver};
use lisa_mapper::schedule::mii;
use lisa_mapper::{
    anneal_chain, FilterStats, GuidanceLabels, IiMapper, LabelSaMapper, MovementScorer, SaParams,
    StrategySpec,
};

/// Admits every other proposal, so the filter's reject, audit and
/// admitted paths all run.
#[derive(Debug, Default)]
struct RejectOdd(AtomicU64);

impl MovementScorer for RejectOdd {
    fn admit(&self, _features: &[f64], _temp: f64) -> bool {
        self.0.fetch_add(1, Ordering::Relaxed).is_multiple_of(2)
    }
}

/// Non-uniform labels, so every label term steers a decision.
fn skewed_labels(dfg: &Dfg) -> GuidanceLabels {
    let mut labels = GuidanceLabels::initial(dfg);
    for (i, v) in labels.spatial.iter_mut().enumerate() {
        *v = (i % 3) as f64 * 0.75;
    }
    for (i, v) in labels.temporal.iter_mut().enumerate() {
        *v = 1.0 + (i % 4) as f64 * 0.5;
    }
    for (i, pair) in labels.same_level.iter_mut().enumerate() {
        pair.2 = 1.0 + (i % 2) as f64;
    }
    labels
}

/// The five mappers of the grid, all racing the `mixed` lanes: vanilla
/// SA, the three label modes, and vanilla SA behind a movement filter.
/// Built afresh per run, so each run gets its own filter state.
fn mapper(variant: usize, dfg: &Dfg, params: &SaParams, seed: u64) -> LabelSaMapper {
    let labels = || skewed_labels(dfg);
    let params = params.clone();
    let mapper = match variant {
        0 => LabelSaMapper::vanilla(params, seed),
        1 => LabelSaMapper::new(labels(), params, seed),
        2 => LabelSaMapper::routing_priority_only(labels(), params, seed),
        3 => LabelSaMapper::initial_only(labels(), params, seed),
        _ => LabelSaMapper::vanilla(params, seed)
            .with_movement_filter(Arc::new(RejectOdd::default())),
    };
    mapper.with_strategy(StrategySpec::parse("mixed").unwrap())
}

/// Every fig9 kernel on the fabric `key` at MII..MII+2, under each
/// mapper of [`mapper`]. The schedule is shortened for a debug-build test
/// run, and the wall-clock limit lifted so it never decides.
fn assert_same_decisions_on(key: &str) {
    let params = SaParams {
        moves_per_temp: 10,
        cooling: 0.75,
        time_limit: Duration::from_secs(3600),
        ..SaParams::fast()
    };
    let acc = Accelerator::standard(key).unwrap();
    for (k, name) in polybench::KERNEL_NAMES.iter().enumerate() {
        let dfg = polybench::kernel(name).unwrap();
        let lo = mii(&dfg, &acc);
        for ii in lo..=lo + 2 {
            for variant in 0..5 {
                let seed = (k * 10 + variant) as u64;
                let unobserved = mapper(variant, &dfg, &params, seed).map_at_ii(&dfg, &acc, ii);
                let observed = mapper(variant, &dfg, &params, seed)
                    .with_observer(EventSink::new(Arc::new(RecordingObserver::default())))
                    .map_at_ii(&dfg, &acc, ii);
                assert_eq!(
                    format!("{unobserved:?}"),
                    format!("{observed:?}"),
                    "{name} on {key} at II {ii}, mapper {variant}"
                );
            }
        }
    }
}

#[test]
fn observed_and_unobserved_anneals_agree_on_3x3() {
    assert_same_decisions_on("3x3");
}

#[test]
fn observed_and_unobserved_anneals_agree_on_4x4() {
    assert_same_decisions_on("4x4");
}

#[test]
fn observed_and_unobserved_anneals_agree_on_4x4_lm() {
    assert_same_decisions_on("4x4-lm");
}

#[test]
fn observed_and_unobserved_anneals_agree_on_4x4_lr() {
    assert_same_decisions_on("4x4-lr");
}

#[test]
fn observed_and_unobserved_anneals_agree_on_8x8() {
    assert_same_decisions_on("8x8");
}

/// The early stop fires on a paper-scale run: unobserved, the lane makes
/// fewer `route_edge` calls than the same lane observed (886 against
/// 977), and returns the same mapping.
#[test]
fn the_unobserved_lane_routes_less_for_the_same_mapping() {
    let dfg = polybench::kernel("doitgen").unwrap();
    let acc = Accelerator::standard("4x4").unwrap();
    let (unobserved, stats) = anneal_chain(&SaParams::paper(), &dfg, &acc, 3, 7, None);
    let recorder = Arc::new(RecordingObserver::default());
    let observed = LabelSaMapper::vanilla(SaParams::paper(), 7)
        .with_observer(EventSink::new(recorder.clone()))
        .map_at_ii(&dfg, &acc, 3);
    let observed_stats = recorder
        .take()
        .iter()
        .find_map(FilterStats::from_event)
        .expect("the lane reports its router work");
    assert_eq!(format!("{unobserved:?}"), format!("{observed:?}"));
    assert_eq!(stats.proposals, observed_stats.proposals);
    assert_eq!(
        (stats.router_invocations, observed_stats.router_invocations),
        (886, 977)
    );
}
