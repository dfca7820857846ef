//! Output checks that do not trust the code under test: a mapping is
//! re-checked from its public accessors against the accelerator's
//! public description, without `Mapping::verify`.

use std::collections::BTreeMap;

use lisa_arch::{Accelerator, PeId, Resource};
use lisa_dfg::Dfg;
use lisa_mapper::{Mapping, Placement, RouteStep};

/// What a mapping claims, read through its public accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingView {
    /// Initiation interval.
    pub ii: u32,
    /// Placement per DFG node.
    pub placements: Vec<Option<Placement>>,
    /// Route per DFG edge.
    pub routes: Vec<Option<Vec<RouteStep>>>,
}

impl MappingView {
    /// Snapshots a mapping.
    pub fn of(m: &Mapping<'_>) -> Self {
        let dfg = m.dfg();
        MappingView {
            ii: m.ii(),
            placements: dfg.node_ids().map(|n| m.placement(n)).collect(),
            routes: dfg
                .edge_ids()
                .map(|e| m.route(e).map(<[_]>::to_vec))
                .collect(),
        }
    }
}

/// Who holds one `(resource, time mod II)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Holder {
    Op(usize),
    /// The value of a node, at an absolute cycle (fan-out may share it).
    Value(usize, u32),
}

/// A resource as an ordered key: `(pe, None)` is the FU, `(pe, Some(r))`
/// register `r`.
fn key(r: Resource) -> (usize, Option<u8>) {
    match r {
        Resource::Fu(p) => (p.index(), None),
        Resource::Reg(p, reg) => (p.index(), Some(reg)),
    }
}

/// Whether a value held at `from` in one cycle may sit at `to` in the
/// next: one hop per cycle over the accelerator's links, registers only
/// on their own PE.
fn legal_move(acc: &Accelerator, from: Resource, to: Resource) -> bool {
    let linked = |p: PeId, q: PeId| p == q || acc.neighbors(p).contains(&q);
    match (from, to) {
        (Resource::Fu(p), Resource::Fu(q)) => linked(p, q),
        (Resource::Fu(p), Resource::Reg(q, _)) => p == q,
        (Resource::Reg(p, r), Resource::Reg(q, s)) => p == q && r == s,
        (Resource::Reg(p, _), Resource::Fu(q)) => linked(p, q),
    }
}

/// Checks a complete mapping of `dfg` on `acc`:
///
/// * the II is at least ⌈nodes / PEs⌉ and within the configuration depth;
/// * every node sits on a PE that supports its operation;
/// * each `(resource, time mod II)` cell has one holder — one operation,
///   or one value at one absolute cycle;
/// * every data and recurrence edge meets the timing rule: the consumer
///   runs after the producer, `distance · II` cycles later for a
///   recurrence;
/// * every route moves one hop per cycle between linked PEs and ends
///   next to (or on) the consumer.
pub fn check_mapping(view: &MappingView, dfg: &Dfg, acc: &Accelerator) -> Result<(), String> {
    let ii = view.ii;
    let pes = acc.pe_count();
    let floor = dfg.node_count().div_ceil(pes).max(1) as u32;
    if ii < floor || ii > acc.max_ii() {
        return Err(format!("II {ii} outside [{floor}, {}]", acc.max_ii()));
    }
    if view.placements.len() != dfg.node_count() || view.routes.len() != dfg.edge_count() {
        return Err("mapping does not match the DFG's shape".to_string());
    }
    let regs = acc.regs_per_pe();
    let valid = |r: Resource| {
        r.pe().index() < pes
            && match r {
                Resource::Fu(_) => true,
                Resource::Reg(_, reg) => usize::from(reg) < regs,
            }
    };

    let mut cells: BTreeMap<((usize, Option<u8>), u32), Holder> = BTreeMap::new();
    let mut placements = Vec::with_capacity(dfg.node_count());
    for n in dfg.node_ids() {
        let p = view.placements[n.index()].ok_or(format!("node {} is unplaced", n.index()))?;
        if p.pe.index() >= pes || !acc.supports(p.pe, dfg.node(n).op) {
            return Err(format!(
                "node {} ({:?}) on unsupporting PE {}",
                n.index(),
                dfg.node(n).op,
                p.pe.index()
            ));
        }
        let cell = (key(Resource::Fu(p.pe)), p.time % ii);
        if let Some(other) = cells.insert(cell, Holder::Op(n.index())) {
            return Err(format!(
                "node {} shares PE {} slot {} with {other:?}",
                n.index(),
                p.pe.index(),
                p.time % ii
            ));
        }
        placements.push(p);
    }

    for e in dfg.edge_ids() {
        let edge = dfg.edge(e);
        let src = placements[edge.src.index()];
        let dst = placements[edge.dst.index()];
        let due = dst.time + edge.kind.distance() * ii;
        if due <= src.time {
            return Err(format!(
                "edge {} breaks the timing rule: produced at {}, consumed at {due}",
                e.index(),
                src.time
            ));
        }
        let steps = view.routes[e.index()]
            .as_ref()
            .ok_or(format!("edge {} is unrouted", e.index()))?;
        if steps.len() as u32 + 1 != due - src.time {
            return Err(format!(
                "edge {} route has {} steps for {} cycles",
                e.index(),
                steps.len(),
                due - src.time
            ));
        }
        let mut at = Resource::Fu(src.pe);
        for (k, step) in steps.iter().enumerate() {
            let cycle = src.time + k as u32 + 1;
            if step.time != cycle || !valid(step.resource) || !legal_move(acc, at, step.resource) {
                return Err(format!(
                    "edge {} step {k} ({:?} at {}) is not one hop from {at:?}",
                    e.index(),
                    step.resource,
                    step.time
                ));
            }
            let holder = Holder::Value(edge.src.index(), step.time);
            match cells.insert((key(step.resource), step.time % ii), holder) {
                None => {}
                Some(h) if h == holder => {}
                Some(other) => {
                    return Err(format!(
                        "edge {} step {k} collides with {other:?} on {:?} slot {}",
                        e.index(),
                        step.resource,
                        step.time % ii
                    ))
                }
            }
            at = step.resource;
        }
        let last = at.pe();
        if last != dst.pe && !acc.neighbors(last).contains(&dst.pe) {
            return Err(format!(
                "edge {} ends on PE {}, not next to consumer PE {}",
                e.index(),
                last.index(),
                dst.pe.index()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_dfg::OpKind;
    use lisa_mapper::schedule::IiMapper;
    use lisa_mapper::{GuidanceLabels, LabelSaMapper, SaParams};

    /// Two loads into an add with a loop-carried accumulator, a
    /// multiply and two stores, on the memory-restricted 4×4.
    fn sample() -> (Dfg, Accelerator) {
        let mut g = Dfg::new("sample");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Load, "b");
        let s = g.add_node(OpKind::Add, "s");
        let m = g.add_node(OpKind::Mul, "m");
        let o = g.add_node(OpKind::Store, "o");
        let p = g.add_node(OpKind::Store, "p");
        g.add_data_edge(a, s).unwrap();
        g.add_data_edge(b, s).unwrap();
        g.add_data_edge(s, m).unwrap();
        g.add_data_edge(a, m).unwrap();
        g.add_data_edge(m, o).unwrap();
        g.add_data_edge(s, p).unwrap();
        g.add_recurrence_edge(s, s, 1).unwrap();
        (g, Accelerator::standard("4x4-lm").unwrap())
    }

    fn mapped(dfg: &Dfg, acc: &Accelerator) -> MappingView {
        let mut mapper = LabelSaMapper::new(GuidanceLabels::initial(dfg), SaParams::fast(), 3);
        let m = (1..=8)
            .find_map(|ii| mapper.map_at_ii(dfg, acc, ii))
            .expect("sample maps within II 8");
        m.verify().unwrap();
        MappingView::of(&m)
    }

    #[test]
    fn accepts_a_real_mapping_and_rejects_hand_broken_ones() {
        let (dfg, acc) = sample();
        let good = mapped(&dfg, &acc);
        check_mapping(&good, &dfg, &acc).unwrap();
        let routed = (0..dfg.edge_count())
            .find(|&e| !good.routes[e].as_ref().unwrap().is_empty())
            .expect("some edge needs a route step");

        let mut broken: Vec<(&str, MappingView)> = Vec::new();

        let mut v = good.clone();
        let load = v.placements[0].unwrap();
        let col1 = PeId::new(load.pe.index() / acc.cols() * acc.cols() + 1);
        v.placements[0] = Some(Placement { pe: col1, ..load });
        broken.push(("load off the memory column", v));

        let mut v = good.clone();
        let s = v.placements[2].unwrap();
        v.placements[3] = Some(Placement {
            pe: s.pe,
            time: s.time + v.ii,
        });
        broken.push(("two ops in one slot", v));

        let mut v = good.clone();
        v.placements[4] = None;
        broken.push(("unplaced node", v));

        let mut v = good.clone();
        v.routes[routed].as_mut().unwrap().pop();
        broken.push(("route one step short", v));

        let mut v = good.clone();
        let steps = v.routes[routed].as_mut().unwrap();
        let far = (0..acc.pe_count())
            .map(PeId::new)
            .find(|&q| acc.spatial_distance(q, steps[0].resource.pe()) > 2)
            .unwrap();
        steps[0].resource = Resource::Fu(far);
        broken.push(("route teleports", v));

        let mut v = good.clone();
        let m = v.placements[3].unwrap();
        v.placements[4] = Some(Placement {
            pe: v.placements[4].unwrap().pe,
            time: m.time,
        });
        broken.push(("consumer runs with its producer", v));

        let mut v = good.clone();
        v.ii = 0;
        broken.push(("II below the resource bound", v));

        for (what, view) in broken {
            assert!(
                check_mapping(&view, &dfg, &acc).is_err(),
                "checker accepted: {what}"
            );
        }
    }
}
