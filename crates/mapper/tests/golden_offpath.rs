//! Golden predictor-off trajectory pins.
//!
//! These digests were captured from the annealer BEFORE the
//! predict-then-verify movement filter existed. The filter-off path must
//! stay byte-identical to that binary: same placements, same routes, for
//! the same `(dfg, accelerator, ii, seed)`. Any drift here means the
//! gating refactor changed the RNG draw order or the movement logic.
//!
//! The deterministic mappers are pinned the same way: the constructive
//! list scheduler (with its router-invocation count) and the exact
//! branch-and-bound search, captured before their shared place-and-route
//! step was factored out.

use lisa_arch::Accelerator;
use lisa_dfg::{polybench, Dfg, OpKind};
use lisa_mapper::exact::{ExactMapper, ExactParams};
use lisa_mapper::{
    ConstructiveStrategy, FilterStats, GuidanceLabels, IiMapper, LabelSaMapper, Mapping, SaParams,
};

/// FNV-1a over every placement and route step, in id order.
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

fn sa_digest(dfg: &Dfg, acc: &Accelerator, ii: u32, seed: u64) -> u64 {
    let mut mapper = LabelSaMapper::vanilla(SaParams::paper(), seed);
    let m = mapper
        .map_at_ii(dfg, acc, ii)
        .expect("golden case must map");
    m.verify().unwrap();
    digest(&m)
}

fn label_sa_digest(dfg: &Dfg, acc: &Accelerator, ii: u32, seed: u64) -> u64 {
    let mut mapper = LabelSaMapper::new(GuidanceLabels::initial(dfg), SaParams::paper(), seed);
    let m = mapper
        .map_at_ii(dfg, acc, ii)
        .expect("golden case must map");
    m.verify().unwrap();
    digest(&m)
}

#[test]
fn vanilla_sa_trajectories_match_pre_filter_binary() {
    let acc3 = Accelerator::cgra("3x3", 3, 3);
    let acc2 = Accelerator::cgra("2x2", 2, 2);
    let doitgen = polybench::kernel("doitgen").unwrap();
    let chain = chain_dfg();
    let got = [
        sa_digest(&doitgen, &acc3, 3, 1),
        sa_digest(&doitgen, &acc3, 3, 7),
        sa_digest(&doitgen, &acc3, 3, 42),
        sa_digest(&chain, &acc2, 1, 42),
        sa_digest(&chain, &acc2, 2, 9),
    ];
    assert_eq!(got, GOLDEN_SA, "vanilla SA trajectory drifted");
}

#[test]
fn label_sa_trajectories_match_pre_filter_binary() {
    let acc3 = Accelerator::cgra("3x3", 3, 3);
    let doitgen = polybench::kernel("doitgen").unwrap();
    let chain = chain_dfg();
    let got = [
        label_sa_digest(&doitgen, &acc3, 3, 1),
        label_sa_digest(&doitgen, &acc3, 3, 42),
        label_sa_digest(&chain, &acc3, 1, 9),
    ];
    assert_eq!(got, GOLDEN_LABEL_SA, "label-aware SA trajectory drifted");
}

/// Non-uniform labels, so every label term steers a decision: spatial
/// `(i mod 3)·0.75`, temporal `1 + (i mod 4)·0.5` and same-level
/// `1 + (i mod 2)` by position; the schedule order stays ASAP.
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

#[test]
fn every_label_mode_matches_its_pinned_trajectory() {
    let acc3 = Accelerator::cgra("3x3", 3, 3);
    let acc4 = Accelerator::cgra("4x4", 4, 4);
    let doitgen = polybench::kernel("doitgen").unwrap();
    let gemm = polybench::kernel("gemm").unwrap();
    let chain = chain_dfg();
    let cases = [
        (&doitgen, &acc3, 3, 1),
        (&doitgen, &acc3, 3, 42),
        (&gemm, &acc4, 3, 7),
        (&chain, &acc3, 1, 9),
    ];
    let got: Vec<[Option<u64>; 3]> = cases
        .into_iter()
        .map(|(dfg, acc, ii, seed)| {
            let labels = skewed_labels(dfg);
            let params = SaParams::paper();
            [
                LabelSaMapper::new(labels.clone(), params.clone(), seed),
                LabelSaMapper::routing_priority_only(labels.clone(), params.clone(), seed),
                LabelSaMapper::initial_only(labels, params, seed),
            ]
            .map(|mut mapper| {
                mapper.map_at_ii(dfg, acc, ii).map(|m| {
                    m.verify().unwrap();
                    digest(&m)
                })
            })
        })
        .collect();
    assert_eq!(got, GOLDEN_LABEL_MODES, "a label mode's trajectory drifted");
}

#[test]
fn constructive_lane_matches_pinned_list_schedule() {
    let acc = Accelerator::cgra("4x4", 4, 4);
    let got: Vec<(u64, u64)> = ["gemm", "doitgen", "atax"]
        .into_iter()
        .map(|kernel| {
            let dfg = polybench::kernel(kernel).unwrap();
            let mut stats = FilterStats::default();
            let m = ConstructiveStrategy::new()
                .run(&dfg, &acc, 8, &mut stats)
                .expect("golden case must map");
            m.verify().unwrap();
            (digest(&m), stats.router_invocations)
        })
        .collect();
    assert_eq!(
        got, GOLDEN_CONSTRUCTIVE,
        "constructive list schedule drifted"
    );
}

#[test]
fn exact_search_matches_pinned_branch_and_bound() {
    let acc2 = Accelerator::cgra("2x2", 2, 2);
    let chain = chain_dfg();
    let got: Vec<u64> = [1, 2]
        .into_iter()
        .map(|ii| {
            let m = ExactMapper::new(ExactParams::fast())
                .map_at_ii(&chain, &acc2, ii)
                .expect("golden case must map");
            m.verify().unwrap();
            digest(&m)
        })
        .collect();
    assert_eq!(got, GOLDEN_EXACT, "exact branch-and-bound drifted");
}

const GOLDEN_SA: [u64; 5] = [
    6022767452455792074,
    6253017857123897318,
    2509703924138623634,
    15469199065668036785,
    2349378152788221529,
];
const GOLDEN_LABEL_SA: [u64; 3] = [
    6850723976941017084,
    10280484549389806084,
    3047957704053923850,
];
/// Full, routing-priority-only and initial-only label SA with
/// [`skewed_labels`], per case: doitgen on the 3x3 at II 3 (seeds 1
/// and 42), gemm on the 4x4 at II 3 (seed 7) and chain4 on the 3x3 at
/// II 1 (seed 9). `None`: the mode finds no mapping at that II.
const GOLDEN_LABEL_MODES: [[Option<u64>; 3]; 4] = [
    [
        Some(3547673152523311758),
        Some(11054732065322721129),
        Some(16398538448478539527),
    ],
    [
        Some(4323581605048807123),
        Some(1164974617176085014),
        Some(6293682701653913751),
    ],
    [Some(14550787325410828135), None, Some(16748770195430179392)],
    [
        Some(14225589811632017166),
        Some(14970556677559479370),
        Some(14225589811632017166),
    ],
];
/// `(digest, router_invocations)` of the constructive lane on gemm,
/// doitgen and atax at II 8 on the 4x4.
const GOLDEN_CONSTRUCTIVE: [(u64, u64); 3] = [
    (2049525194344201933, 59),
    (13450619748932264468, 37),
    (13359770638350078899, 75),
];
/// The exact mapper on `chain4` over the 2x2 at II 1 and II 2.
const GOLDEN_EXACT: [u64; 2] = [15776762944823591485, 225515969889060149];
