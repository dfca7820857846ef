//! Determinism contract of the lane race.
//!
//! Three layers of pinning:
//!
//! * **Golden digests** — a race of four annealing lanes
//!   (`sa,sa,sa,sa`) must stay byte-identical to the pre-`StrategySpec`
//!   mapper. The digests below were captured by running the four-chain
//!   portfolio of that mapper (`SaParams::paper()`) on this exact suite.
//! * **Event streams** — every event a race emits (per-temperature
//!   snapshots, movement samples, per-lane filter summaries, the lane
//!   win) is pinned by count and digest for the one-lane, two-lane and
//!   mixed races.
//! * **Rerun identity** — every strategy mix maps byte-identically when
//!   run twice in the same process. (Thread-count invariance of the
//!   II search around a race is pinned in `schedule.rs`.)

use lisa_arch::Accelerator;
use lisa_dfg::{polybench, Dfg, OpKind};
use lisa_mapper::{GuidanceLabels, IiMapper, LabelSaMapper, Mapping, SaParams, StrategySpec};

/// FNV-1a over every placement and route step: byte-level identity of
/// the mapping, independent of `Debug` formatting.
fn digest(m: &Mapping) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let put = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for v in m.dfg().node_ids() {
        match m.placement(v) {
            Some(p) => {
                put(&mut h, 1);
                put(&mut h, p.pe.index() as u64);
                put(&mut h, u64::from(p.time));
            }
            None => put(&mut h, 0),
        }
    }
    for e in m.dfg().edge_ids() {
        match m.route(e) {
            Some(steps) => {
                put(&mut h, steps.len() as u64);
                for s in steps {
                    let (kind, pe, reg) = match s.resource {
                        lisa_arch::Resource::Fu(p) => (1u64, p.index() as u64, 0u64),
                        lisa_arch::Resource::Reg(p, r) => (2u64, p.index() as u64, u64::from(r)),
                    };
                    put(&mut h, kind);
                    put(&mut h, pe);
                    put(&mut h, reg);
                    put(&mut h, u64::from(s.time));
                }
            }
            None => put(&mut h, u64::MAX),
        }
    }
    h
}

fn chain_dfg() -> Dfg {
    let mut g = Dfg::new("chain4");
    let a = g.add_node(OpKind::Load, "a");
    let b = g.add_node(OpKind::Add, "b");
    let c = g.add_node(OpKind::Mul, "c");
    let d = g.add_node(OpKind::Store, "d");
    g.add_data_edge(a, b).unwrap();
    g.add_data_edge(b, c).unwrap();
    g.add_data_edge(c, d).unwrap();
    g
}

/// `(name, dfg, acc, ii, seed, sa_digest, label_sa_digest)` — digests
/// of the four-lane annealing race (see module docs).
fn golden_suite() -> Vec<(&'static str, Dfg, Accelerator, u32, u64, u64, u64)> {
    let acc3 = Accelerator::cgra("3x3", 3, 3);
    let acc2 = Accelerator::cgra("2x2", 2, 2);
    let doitgen = polybench::kernel("doitgen").unwrap();
    vec![
        (
            "doitgen/3x3/ii3/seed7",
            doitgen.clone(),
            acc3.clone(),
            3,
            7,
            11412025636391995084,
            17301522656703535662,
        ),
        (
            "doitgen/3x3/ii3/seed42",
            doitgen,
            acc3,
            3,
            42,
            5232973181229138593,
            6783208404875980690,
        ),
        (
            "chain/2x2/ii2/seed9",
            chain_dfg(),
            acc2,
            2,
            9,
            4772941992497756841,
            225515969889060149,
        ),
    ]
}

fn four_sa_lanes() -> StrategySpec {
    StrategySpec::parse("sa,sa,sa,sa").unwrap()
}

#[test]
fn four_sa_lanes_match_pre_refactor_golden_digests() {
    for (name, dfg, acc, ii, seed, sa_digest, label_digest) in golden_suite() {
        let mut sa = LabelSaMapper::vanilla(SaParams::paper(), seed).with_strategy(four_sa_lanes());
        let m = sa.map_at_ii(&dfg, &acc, ii).expect("golden case maps");
        assert_eq!(digest(&m), sa_digest, "SA digest drifted on {name}");

        let mut label = LabelSaMapper::new(GuidanceLabels::initial(&dfg), SaParams::paper(), seed)
            .with_strategy(four_sa_lanes());
        let m = label.map_at_ii(&dfg, &acc, ii).expect("golden case maps");
        assert_eq!(digest(&m), label_digest, "LabelSA digest drifted on {name}");
    }
}

#[test]
fn explicit_strategy_sa_is_byte_identical_to_the_default() {
    for (name, dfg, acc, ii, seed, _, _) in golden_suite() {
        let run = |strategy: StrategySpec| {
            LabelSaMapper::vanilla(SaParams::paper(), seed)
                .with_strategy(strategy)
                .map_at_ii(&dfg, &acc, ii)
                .map(|m| digest(&m))
        };
        let default = run(StrategySpec::default());
        assert!(default.is_some(), "golden case maps on one lane: {name}");
        assert_eq!(
            run(StrategySpec::parse("sa").unwrap()),
            default,
            "--strategy sa diverged on {name}"
        );
    }
}

#[test]
fn mixed_race_reruns_byte_identically() {
    let acc = Accelerator::cgra("4x4", 4, 4);
    let dfg = polybench::kernel("gemm").unwrap();
    let mixed = StrategySpec::parse("mixed").unwrap();
    let mut digests = Vec::new();
    for _ in 0..2 {
        let mut sa = LabelSaMapper::vanilla(SaParams::fast(), 7).with_strategy(mixed.clone());
        let m = sa.map_at_ii(&dfg, &acc, 8).expect("gemm maps at ii 8");
        m.verify().expect("mixed-lane winner verifies");
        digests.push(digest(&m));

        let mut label = LabelSaMapper::new(GuidanceLabels::initial(&dfg), SaParams::fast(), 7)
            .with_strategy(mixed.clone());
        let m = label.map_at_ii(&dfg, &acc, 8).expect("gemm maps at ii 8");
        digests.push(digest(&m));
    }
    assert_eq!(
        digests[..2],
        digests[2..],
        "mixed race varied across reruns"
    );
}

#[test]
fn every_lane_mix_reruns_byte_identically() {
    let acc = Accelerator::cgra("4x4", 4, 4);
    let dfg = polybench::kernel("doitgen").unwrap();
    for spec in [
        "constructive",
        "constructive,sa,sa",
        "sa,constructive",
        "mixed",
    ] {
        let strategy = StrategySpec::parse(spec).unwrap();
        let run = || {
            let mut sa =
                LabelSaMapper::vanilla(SaParams::fast(), 11).with_strategy(strategy.clone());
            sa.map_at_ii(&dfg, &acc, 8).map(|m| digest(&m))
        };
        assert_eq!(run(), run(), "strategy `{spec}` rerun diverged");
    }
}

/// FNV-1a over every event's JSON line, in emission order.
fn event_digest(events: &[lisa_events::PipelineEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for event in events {
        for byte in event.to_json().bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(spec, kernel, ii, event count, event digest)` of one race on the
/// 4x4 with the wall-clock budget lifted, so only the deterministic
/// schedule ends a lane. The `mixed` cases cover a constructive lane
/// winning outright (doitgen at II 3 and 8, gemm at II 8) and one
/// failing before the annealing lane runs (gemm at II 3); no lane maps
/// either kernel at II 2.
const GOLDEN_EVENT_STREAMS: [(&str, &str, u32, usize, u64); 18] = [
    ("sa", "gemm", 2, 547, 14492659912298790084),
    ("sa", "gemm", 3, 328, 5410176975074676387),
    ("sa", "gemm", 8, 38, 3041022995340015426),
    ("sa", "doitgen", 2, 547, 2320415247619678907),
    ("sa", "doitgen", 3, 96, 17833746960220310465),
    ("sa", "doitgen", 8, 26, 13363920132132380314),
    ("sa,sa", "gemm", 2, 1094, 9829447112007088840),
    ("sa,sa", "gemm", 3, 639, 16028225284003066918),
    ("sa,sa", "gemm", 8, 66, 8539375947834367896),
    ("sa,sa", "doitgen", 2, 1094, 1471514438544590220),
    ("sa,sa", "doitgen", 3, 378, 9262935021948066658),
    ("sa,sa", "doitgen", 8, 120, 5957810927113793096),
    ("mixed", "gemm", 2, 548, 4311322698647310911),
    ("mixed", "gemm", 3, 313, 12925406287603589487),
    ("mixed", "gemm", 8, 2, 4324360756635529744),
    ("mixed", "doitgen", 2, 548, 16903789097203782237),
    ("mixed", "doitgen", 3, 2, 4142506878854493405),
    ("mixed", "doitgen", 8, 2, 676892500876768635),
];

#[test]
fn race_event_streams_match_golden_digests() {
    use lisa_events::{EventSink, RecordingObserver};
    use std::sync::Arc;
    let acc = Accelerator::cgra("4x4", 4, 4);
    let params = SaParams {
        time_limit: std::time::Duration::from_secs(3600),
        ..SaParams::fast()
    };
    let mut got = Vec::new();
    for (spec, kernel, ii, _, _) in GOLDEN_EVENT_STREAMS {
        let dfg = polybench::kernel(kernel).unwrap();
        let recorder = Arc::new(RecordingObserver::default());
        let _ = LabelSaMapper::vanilla(params.clone(), 7)
            .with_strategy(StrategySpec::parse(spec).unwrap())
            .with_observer(EventSink::new(recorder.clone()))
            .map_at_ii(&dfg, &acc, ii);
        let events = recorder.take();
        got.push((spec, kernel, ii, events.len(), event_digest(&events)));
    }
    assert_eq!(got, GOLDEN_EVENT_STREAMS, "a race's event stream drifted");
}
