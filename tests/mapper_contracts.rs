//! Cross-mapper contracts: the exact mapper's optimality, agreement
//! between outcome metrics and mapping state, and the II search driver's
//! guarantees — spanning `lisa-dfg`, `lisa-arch`, and `lisa-mapper`.

use lisa::arch::Accelerator;
use lisa::dfg::{Dfg, OpKind};
use lisa::mapper::exact::{ExactMapper, ExactParams};
use lisa::mapper::schedule::{mii, IiSearch};
use lisa::mapper::{GuidanceLabels, LabelSaMapper, SaParams};

fn tiny_graphs() -> Vec<Dfg> {
    let mut graphs = Vec::new();

    let mut chain = Dfg::new("chain");
    let a = chain.add_node(OpKind::Load, "a");
    let b = chain.add_node(OpKind::Add, "b");
    let c = chain.add_node(OpKind::Store, "c");
    chain.add_data_edge(a, b).unwrap();
    chain.add_data_edge(b, c).unwrap();
    graphs.push(chain);

    let mut diamond = Dfg::new("diamond");
    let a = diamond.add_node(OpKind::Load, "a");
    let b = diamond.add_node(OpKind::Add, "b");
    let c = diamond.add_node(OpKind::Mul, "c");
    let d = diamond.add_node(OpKind::Store, "d");
    diamond.add_data_edge(a, b).unwrap();
    diamond.add_data_edge(a, c).unwrap();
    diamond.add_data_edge(b, d).unwrap();
    diamond.add_data_edge(c, d).unwrap();
    graphs.push(diamond);

    let mut mac = Dfg::new("mac");
    let x = mac.add_node(OpKind::Load, "x");
    let y = mac.add_node(OpKind::Load, "y");
    let m = mac.add_node(OpKind::Mul, "m");
    let acc = mac.add_node(OpKind::Add, "acc");
    mac.add_data_edge(x, m).unwrap();
    mac.add_data_edge(y, m).unwrap();
    mac.add_data_edge(m, acc).unwrap();
    mac.add_recurrence_edge(acc, acc, 1).unwrap();
    graphs.push(mac);

    graphs
}

#[test]
fn exact_ii_is_a_lower_bound_for_heuristics() {
    let acc = Accelerator::cgra("2x2", 2, 2);
    for dfg in tiny_graphs() {
        let ilp = ExactMapper::new(ExactParams::default());
        let exact = IiSearch { max_ii: Some(12) }.run(&ilp, &dfg, &acc, 1).0;
        let exact_ii = exact
            .ii
            .unwrap_or_else(|| panic!("exact mapper must solve the tiny graph {}", dfg.name()));

        let sa = LabelSaMapper::vanilla(SaParams::paper(), 3);
        let sa_outcome = IiSearch { max_ii: Some(12) }.run(&sa, &dfg, &acc, 1).0;
        if let Some(sa_ii) = sa_outcome.ii {
            assert!(
                sa_ii >= exact_ii,
                "{}: SA found II {sa_ii} below the exact optimum {exact_ii}",
                dfg.name()
            );
        }

        let labels = GuidanceLabels::initial(&dfg);
        let lisa = LabelSaMapper::new(labels, SaParams::paper(), 3);
        let lisa_outcome = IiSearch { max_ii: Some(12) }.run(&lisa, &dfg, &acc, 1).0;
        if let Some(lisa_ii) = lisa_outcome.ii {
            assert!(lisa_ii >= exact_ii, "{}: LISA beat the optimum", dfg.name());
        }
    }
}

#[test]
fn outcome_metrics_agree_with_mapping_state() {
    let acc = Accelerator::cgra("3x3", 3, 3);
    for dfg in tiny_graphs() {
        let sa = LabelSaMapper::vanilla(SaParams::paper(), 1);
        let (outcome, mapping) = IiSearch { max_ii: Some(12) }.run(&sa, &dfg, &acc, 1);
        let m = mapping.expect("tiny graphs map");
        assert_eq!(outcome.ii, Some(m.ii()));
        assert_eq!(outcome.routing_cells, m.routing_cells());
        assert_eq!(outcome.ops, dfg.op_count());
        let activity = m.activity();
        assert_eq!(outcome.activity, activity);
        assert_eq!(activity.compute_slots, dfg.node_count());
        assert_eq!(activity.route_slots + activity.reg_slots, m.routing_cells());
    }
}

#[test]
fn search_starts_at_mii() {
    let acc = Accelerator::cgra("2x2", 2, 2);
    // 9 nodes on 4 PEs: ResMII = 3.
    let mut g = Dfg::new("nine");
    let root = g.add_node(OpKind::Load, "n0");
    for i in 1..9 {
        let n = g.add_node(OpKind::Add, format!("n{i}"));
        if i <= 2 {
            g.add_data_edge(root, n).unwrap();
        } else {
            g.add_data_edge(lisa::dfg::NodeId::new(i - 2), n).unwrap();
        }
    }
    assert_eq!(mii(&g, &acc), 3);
    let sa = LabelSaMapper::vanilla(SaParams::paper(), 2);
    let outcome = IiSearch { max_ii: Some(12) }.run(&sa, &g, &acc, 1).0;
    if let Some(ii) = outcome.ii {
        assert!(ii >= 3);
    }
}

#[test]
fn memory_constrained_cgra_keeps_loads_on_left_column() {
    let acc =
        Accelerator::cgra("4x4-lm", 4, 4).with_memory(lisa::arch::MemoryConnectivity::LeftColumn);
    let dfg = lisa::dfg::polybench::kernel("doitgen").unwrap();
    let sa = LabelSaMapper::vanilla(SaParams::paper(), 4);
    let (outcome, mapping) = IiSearch { max_ii: Some(12) }.run(&sa, &dfg, &acc, 1);
    assert!(outcome.mapped(), "doitgen maps on the left-column CGRA");
    let m = mapping.unwrap();
    m.verify().unwrap();
    for v in dfg.node_ids() {
        if dfg.node(v).op.is_memory() {
            let p = m.placement(v).unwrap();
            assert_eq!(
                acc.coord(p.pe).col,
                0,
                "memory op {v} placed off the left column"
            );
        }
    }
}

#[test]
fn systolic_maps_only_supported_shapes() {
    let acc = Accelerator::systolic("sys", 5, 5);
    // A kernel with division can never map on the systolic array.
    let mut g = Dfg::new("divy");
    let a = g.add_node(OpKind::Load, "a");
    let d = g.add_node(OpKind::Div, "d");
    let s = g.add_node(OpKind::Store, "s");
    g.add_data_edge(a, d).unwrap();
    g.add_data_edge(d, s).unwrap();
    let sa = LabelSaMapper::vanilla(SaParams::paper(), 0);
    let outcome = IiSearch::default().run(&sa, &g, &acc, 1).0;
    assert!(!outcome.mapped());

    // The doitgen compute core does map.
    let core = lisa::dfg::polybench::kernel_core("doitgen").unwrap();
    let sa = LabelSaMapper::vanilla(SaParams::paper(), 0);
    let (outcome, mapping) = IiSearch::default().run(&sa, &core, &acc, 1);
    assert!(outcome.mapped(), "doitgen-core maps on the systolic array");
    mapping.unwrap().verify().unwrap();
}

#[test]
fn heterogeneous_cgra_places_muls_on_capable_pes() {
    use lisa::arch::Heterogeneity;
    let acc = Accelerator::cgra("4x4-het", 4, 4).with_heterogeneity(Heterogeneity::CheckerboardMul);
    let dfg = lisa::dfg::polybench::kernel("gemm").unwrap();
    let sa = LabelSaMapper::vanilla(SaParams::paper(), 8);
    let (outcome, mapping) = IiSearch { max_ii: Some(12) }.run(&sa, &dfg, &acc, 1);
    assert!(outcome.mapped(), "gemm maps on the heterogeneous 4x4");
    let m = mapping.unwrap();
    m.verify().unwrap();
    for v in dfg.node_ids() {
        if dfg.node(v).op == OpKind::Mul {
            let p = m.placement(v).unwrap();
            let c = acc.coord(p.pe);
            assert_eq!((c.row + c.col) % 2, 0, "mul on incapable PE {p:?}");
        }
    }
}

#[test]
fn multihop_interconnect_reduces_or_preserves_ii() {
    use lisa::arch::Interconnect;
    let mesh = Accelerator::cgra("m", 4, 4);
    let hop = Accelerator::cgra("h", 4, 4).with_interconnect(Interconnect::MultiHop { radius: 2 });
    let dfg = lisa::dfg::polybench::kernel("syr2k").unwrap();
    let run = |acc: &Accelerator| {
        let sa = LabelSaMapper::vanilla(SaParams::paper(), 3);
        IiSearch { max_ii: Some(12) }.run(&sa, &dfg, acc, 1).0
    };
    let (m, h) = (run(&mesh), run(&hop));
    assert!(m.mapped() && h.mapped());
    // Strictly more routing reach can only help (same seed, same budget,
    // aggregate comparison would be noisy: allow a 1-II tolerance).
    assert!(h.ii.unwrap() <= m.ii.unwrap() + 1);
}
