//! Modulo routing resource graph (MRRG).
//!
//! For a target initiation interval II, the accelerator's resources are
//! replicated across II modulo time slots. Each PE contributes per slot:
//!
//! * one **FU slot** — executes an operation *or* routes one value
//!   ("Each PE can do either compute or routing per cycle", paper §II-B),
//! * `regs_per_pe` **register slots** — hold a value in place for a cycle.
//!
//! A value produced by `Fu(p)` at absolute cycle `t` can, at cycle `t+1`,
//! be (a) consumed by a neighbouring FU, (b) routed onward through a
//! neighbouring FU, or (c) written to one of `p`'s registers. Registers
//! hold values and can drive the local FU or the outgoing links. Occupancy
//! is always accounted at `t mod II`: the same physical slot repeats every
//! II cycles.
//!
//! The MRRG is purely structural; the occupancy tables live in the mapper.
//! It numbers each slot's resources by a dense *offset*
//! ([`Mrrg::offset`]) and reads every offset's successor offsets
//! ([`Mrrg::move_offsets`]), which is what the router expands, from a
//! table the accelerator builds once for all IIs.

use lisa_dfg::OpKind;

use crate::{Accelerator, ArchError, PeId};

/// One physical resource of the accelerator (before time replication).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The functional unit of a PE (compute or route-through).
    Fu(PeId),
    /// Register `reg` of a PE.
    Reg(PeId, u8),
}

impl Resource {
    /// The PE owning this resource.
    pub fn pe(self) -> PeId {
        match self {
            Resource::Fu(p) | Resource::Reg(p, _) => p,
        }
    }

    /// Whether this is a functional-unit resource.
    pub fn is_fu(self) -> bool {
        matches!(self, Resource::Fu(_))
    }
}

/// The modulo routing resource graph for one `(accelerator, II)` pair.
///
/// # Example
///
/// ```
/// use lisa_arch::{Accelerator, Mrrg, Resource, PeId};
///
/// # fn main() -> Result<(), lisa_arch::ArchError> {
/// let acc = Accelerator::cgra("4x4", 4, 4);
/// let mrrg = Mrrg::new(&acc, 2)?;
/// // 16 PEs x (1 FU + 4 regs) x 2 slots.
/// assert_eq!(mrrg.resource_count(), 16 * 5 * 2);
/// // A value at a corner FU can move to 2 neighbours, itself, or 4 regs.
/// assert_eq!(mrrg.moves_from(Resource::Fu(PeId::new(0))).len(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mrrg<'a> {
    acc: &'a Accelerator,
    ii: u32,
    /// `⌊2³²/ii⌋ + 1`: turns the `t mod ii` in every occupancy-index
    /// computation into a multiply-shift (exact for `t < 2¹⁶`, see
    /// [`slot`](Self::slot)) — `slot_base` runs once per router layer
    /// and per placement probe, where a hardware divide dominates.
    slot_magic: u64,
}

/// [`Mrrg::moves_from`] for every resource, precomputed over resource
/// offsets (see [`Mrrg::offset`]) so the router expands a search state
/// without building resources or re-deriving their offsets. It depends
/// only on the links and the register count, not on the II, so the
/// accelerator builds it once and every MRRG of that accelerator reads
/// it; its size is linear in the resources per slot.
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct MoveTable {
    /// CSR row starts: the successors of offset `o` are
    /// `succ[start[o]..start[o + 1]]`.
    start: Vec<u32>,
    /// Successor offsets, each row in `moves_from` order.
    succ: Vec<u32>,
    /// The PE owning each offset.
    pe: Vec<PeId>,
}

impl MoveTable {
    /// Builds the table from [`Mrrg::moves_from_into`], the one statement
    /// of the move rules, in offset order. Reads only `acc`'s links and
    /// register count, never its (possibly stale) table.
    pub(crate) fn build(acc: &Accelerator) -> Self {
        let mrrg = Mrrg::at(acc, 1);
        let per_slot = mrrg.resources_per_slot();
        let mut table = MoveTable {
            start: Vec::with_capacity(per_slot + 1),
            succ: Vec::new(),
            pe: Vec::with_capacity(per_slot),
        };
        let mut row = Vec::new();
        for offset in 0..per_slot {
            let r = mrrg.resource(offset);
            table.start.push(table.succ.len() as u32);
            table.pe.push(r.pe());
            mrrg.moves_from_into(r, &mut row);
            table
                .succ
                .extend(row.iter().map(|&next| mrrg.offset(next) as u32));
        }
        table.start.push(table.succ.len() as u32);
        table
    }
}

impl<'a> Mrrg<'a> {
    /// Builds the MRRG for a target II.
    ///
    /// # Errors
    ///
    /// Fails if `ii` is zero or exceeds the accelerator's configuration
    /// depth ([`Accelerator::max_ii`]).
    pub fn new(acc: &'a Accelerator, ii: u32) -> Result<Self, ArchError> {
        if ii == 0 {
            return Err(ArchError::ZeroIi);
        }
        if ii > acc.max_ii() {
            return Err(ArchError::IiTooLarge {
                ii,
                max_ii: acc.max_ii(),
            });
        }
        Ok(Mrrg::at(acc, ii))
    }

    /// The MRRG at a nonzero `ii`, without the configuration-depth check.
    fn at(acc: &'a Accelerator, ii: u32) -> Self {
        Mrrg {
            acc,
            ii,
            slot_magic: (1u64 << 32) / u64::from(ii) + 1,
        }
    }

    /// The accelerator this MRRG was built for.
    pub fn accelerator(&self) -> &Accelerator {
        self.acc
    }

    /// The initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The modulo slot of an absolute cycle.
    pub fn slot(&self, t: u32) -> u32 {
        if t < (1 << 16) {
            // Granlund–Montgomery round-up division: with
            // magic = ⌊2³²/ii⌋ + 1 = (2³² + e)/ii for some e ≤ ii, the
            // quotient ⌊t·magic/2³²⌋ equals ⌊t/ii⌋ whenever t·e < 2³²,
            // which holds for all t < 2¹⁶ (ii ≤ 2¹⁶). Schedule times are
            // tiny, so this replaces a hardware divide on the hot path.
            let q = (u64::from(t) * self.slot_magic) >> 32;
            let s = t - (q as u32) * self.ii;
            debug_assert_eq!(s, t % self.ii);
            s
        } else {
            t % self.ii
        }
    }

    /// Resources per modulo slot: one FU plus the register file per PE.
    pub fn resources_per_slot(&self) -> usize {
        self.acc.pe_count() * (1 + self.acc.regs_per_pe())
    }

    /// Total number of (resource, slot) pairs.
    pub fn resource_count(&self) -> usize {
        self.resources_per_slot() * self.ii as usize
    }

    /// Dense index of a (resource, absolute time) pair, folding time into
    /// its modulo slot. Used as the key of occupancy tables; equal to
    /// `slot_base(t) + offset(r)`.
    pub fn index_at(&self, r: Resource, t: u32) -> usize {
        self.slot_base(t) + self.offset(r)
    }

    /// Occupancy index of the first resource of `t`'s modulo slot.
    pub fn slot_base(&self, t: u32) -> usize {
        self.slot(t) as usize * self.resources_per_slot()
    }

    /// Dense index of a resource within one modulo slot: FUs first, in PE
    /// order, then each PE's registers.
    pub fn offset(&self, r: Resource) -> usize {
        match r {
            Resource::Fu(p) => p.index(),
            Resource::Reg(p, reg) => {
                debug_assert!((reg as usize) < self.acc.regs_per_pe());
                self.acc.pe_count() + p.index() * self.acc.regs_per_pe() + reg as usize
            }
        }
    }

    /// The resource at a slot offset: the inverse of
    /// [`offset`](Self::offset).
    pub fn resource(&self, offset: usize) -> Resource {
        let pes = self.acc.pe_count();
        if offset < pes {
            Resource::Fu(PeId::new(offset))
        } else {
            let regs = self.acc.regs_per_pe();
            let reg = offset - pes;
            Resource::Reg(PeId::new(reg / regs), (reg % regs) as u8)
        }
    }

    /// The PE owning the resource at a slot offset (a table read).
    pub fn offset_pe(&self, offset: usize) -> PeId {
        self.acc.move_table().pe[offset]
    }

    /// Offsets of [`moves_from`](Self::moves_from)`(self.resource(offset))`,
    /// in the same order, read from the table the accelerator built.
    pub fn move_offsets(&self, offset: usize) -> &'a [u32] {
        let t = self.acc.move_table();
        &t.succ[t.start[offset] as usize..t.start[offset + 1] as usize]
    }

    /// Dense index of an FU at an absolute time.
    pub fn fu_index_at(&self, pe: PeId, t: u32) -> usize {
        self.index_at(Resource::Fu(pe), t)
    }

    /// Resources a value held at `r` in cycle `t` can occupy at `t + 1`.
    ///
    /// * From an FU: the FU of every outgoing neighbour, the same FU
    ///   (re-route locally), or any local register.
    /// * From a register: the same register (hold), the local FU, or a
    ///   neighbour's FU (registers drive the output links).
    pub fn moves_from(&self, r: Resource) -> Vec<Resource> {
        let mut out = Vec::new();
        self.moves_from_into(r, &mut out);
        out
    }

    /// Allocation-free variant of [`moves_from`](Self::moves_from):
    /// clears `out` and fills it with the successor resources in the same
    /// order. The accelerator builds the
    /// [`move_offsets`](Self::move_offsets) table with it.
    pub fn moves_from_into(&self, r: Resource, out: &mut Vec<Resource>) {
        out.clear();
        match r {
            Resource::Fu(p) => {
                for &q in self.acc.neighbors(p) {
                    out.push(Resource::Fu(q));
                }
                out.push(Resource::Fu(p));
                for reg in 0..self.acc.regs_per_pe() {
                    out.push(Resource::Reg(p, reg as u8));
                }
            }
            Resource::Reg(p, reg) => {
                out.push(Resource::Reg(p, reg));
                out.push(Resource::Fu(p));
                for &q in self.acc.neighbors(p) {
                    out.push(Resource::Fu(q));
                }
            }
        }
    }

    /// Whether a value held at `r` in cycle `t` can be consumed as an
    /// operand by the FU of `dest` in cycle `t + 1`.
    pub fn can_consume(&self, r: Resource, dest: PeId) -> bool {
        let p = r.pe();
        p == dest || self.acc.linked(p, dest)
    }

    /// Whether an operation may be placed on the FU of `pe` (capability
    /// check; slot availability is the mapper's concern).
    pub fn placeable(&self, pe: PeId, op: OpKind) -> bool {
        self.acc.supports(pe, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_ii() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        assert_eq!(Mrrg::new(&acc, 0).unwrap_err(), ArchError::ZeroIi);
        assert!(matches!(
            Mrrg::new(&acc, 25).unwrap_err(),
            ArchError::IiTooLarge { .. }
        ));
        assert!(Mrrg::new(&acc, 24).is_ok());
    }

    #[test]
    fn index_is_dense_and_unique() {
        let acc = Accelerator::cgra("3x3", 3, 3).with_regs_per_pe(2);
        let mrrg = Mrrg::new(&acc, 3).unwrap();
        let mut seen = vec![false; mrrg.resource_count()];
        for t in 0..3 {
            for p in 0..9 {
                let pe = PeId::new(p);
                for r in
                    std::iter::once(Resource::Fu(pe)).chain((0..2).map(|i| Resource::Reg(pe, i)))
                {
                    let idx = mrrg.index_at(r, t);
                    assert!(idx < mrrg.resource_count());
                    assert!(!seen[idx], "index {idx} reused");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn time_folds_modulo_ii() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let mrrg = Mrrg::new(&acc, 3).unwrap();
        let r = Resource::Fu(PeId::new(5));
        assert_eq!(mrrg.index_at(r, 1), mrrg.index_at(r, 4));
        assert_ne!(mrrg.index_at(r, 1), mrrg.index_at(r, 2));
    }

    #[test]
    fn moves_from_fu() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let mrrg = Mrrg::new(&acc, 1).unwrap();
        // Interior PE: 4 neighbours + self + 4 regs.
        let m = mrrg.moves_from(Resource::Fu(PeId::new(5)));
        assert_eq!(m.len(), 9);
        assert!(m.contains(&Resource::Fu(PeId::new(5))));
        assert!(m.contains(&Resource::Reg(PeId::new(5), 3)));
    }

    #[test]
    fn moves_from_reg() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let mrrg = Mrrg::new(&acc, 1).unwrap();
        let m = mrrg.moves_from(Resource::Reg(PeId::new(0), 0));
        // hold + local FU + 2 corner neighbours.
        assert_eq!(m.len(), 4);
        assert!(m.contains(&Resource::Reg(PeId::new(0), 0)));
        assert!(m.contains(&Resource::Fu(PeId::new(0))));
    }

    #[test]
    fn offsets_round_trip_and_move_table_matches_moves_from() {
        // The register and interconnect builders run after the table is
        // first built, so a table they failed to rebuild mismatches here.
        let accs = [
            Accelerator::cgra("3x3", 3, 3).with_regs_per_pe(2),
            Accelerator::cgra("4x4", 4, 4),
            Accelerator::systolic("sys", 3, 3),
            Accelerator::cgra("2x2", 2, 2).with_regs_per_pe(0),
            Accelerator::cgra("4x4-mh", 4, 4)
                .with_interconnect(crate::Interconnect::MultiHop { radius: 2 }),
        ];
        for acc in &accs {
            let mrrg = Mrrg::new(acc, 1).unwrap();
            for offset in 0..mrrg.resources_per_slot() {
                let r = mrrg.resource(offset);
                assert_eq!(mrrg.offset(r), offset);
                assert_eq!(mrrg.offset_pe(offset), r.pe());
                let table: Vec<Resource> = mrrg
                    .move_offsets(offset)
                    .iter()
                    .map(|&o| mrrg.resource(o as usize))
                    .collect();
                assert_eq!(table, mrrg.moves_from(r), "{} offset {offset}", acc.name());
            }
            assert_eq!(
                mrrg.index_at(Resource::Fu(PeId::new(1)), 0),
                mrrg.slot_base(0) + 1
            );
        }
    }

    #[test]
    fn mrrgs_of_one_accelerator_share_its_move_table() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let (a, b) = (Mrrg::new(&acc, 1).unwrap(), Mrrg::new(&acc, 5).unwrap());
        for offset in 0..a.resources_per_slot() {
            assert!(std::ptr::eq(a.move_offsets(offset), b.move_offsets(offset)));
        }
        // A corner FU: 2 neighbours, itself and its registers.
        let corner_row = |acc: &Accelerator| Mrrg::new(acc, 3).unwrap().move_offsets(0).len();
        assert_eq!(corner_row(&acc), 7);
        assert_eq!(corner_row(&acc.clone().with_regs_per_pe(1)), 4);
        let multihop = acc.with_interconnect(crate::Interconnect::MultiHop { radius: 2 });
        assert_eq!(corner_row(&multihop), 5 + 1 + 4);
    }

    /// The router skips search states by three properties of the move
    /// rules (`lisa_mapper::router`, "What a search skips"): all states of
    /// a PE share their FU successors, a register's only register
    /// successor is itself and an FU's are its own registers, and FUs are
    /// numbered before registers, each at its PE's index. A move rule that
    /// breaks one must fail here rather than silently change routes.
    #[test]
    fn move_rules_keep_the_properties_the_router_prunes_by() {
        let mut accs: Vec<Accelerator> = Accelerator::STANDARD_KEYS
            .iter()
            .map(|key| Accelerator::standard(key).unwrap())
            .collect();
        accs.push(Accelerator::cgra("4x4-r0", 4, 4).with_regs_per_pe(0));
        accs.push(Accelerator::cgra("4x4-r2", 4, 4).with_regs_per_pe(2));
        accs.push(Accelerator::cgra("12x12", 12, 12));
        for acc in &accs {
            let mrrg = Mrrg::new(acc, 1).unwrap();
            let pes = acc.pe_count();
            let split = |row: &[u32]| {
                let (mut fus, regs): (Vec<u32>, Vec<u32>) =
                    row.iter().partition(|&&o| (o as usize) < pes);
                fus.sort_unstable();
                (fus, regs)
            };
            for offset in 0..mrrg.resources_per_slot() {
                let pe = mrrg.offset_pe(offset);
                let (fus, regs) = split(mrrg.move_offsets(offset));
                let (own_fus, _) = split(mrrg.move_offsets(mrrg.offset(Resource::Fu(pe))));
                assert_eq!(fus, own_fus, "{} offset {offset}", acc.name());
                let want: Vec<u32> = match mrrg.resource(offset) {
                    Resource::Fu(_) => (0..acc.regs_per_pe())
                        .map(|reg| mrrg.offset(Resource::Reg(pe, reg as u8)) as u32)
                        .collect(),
                    Resource::Reg(..) => vec![offset as u32],
                };
                assert_eq!(regs, want, "{} offset {offset}", acc.name());
            }
            for p in (0..pes).map(PeId::new) {
                assert_eq!(mrrg.offset(Resource::Fu(p)), p.index());
                for reg in 0..acc.regs_per_pe() {
                    assert!(mrrg.offset(Resource::Reg(p, reg as u8)) >= pes);
                }
            }
        }
    }

    #[test]
    fn consume_adjacency() {
        let acc = Accelerator::cgra("4x4", 4, 4);
        let mrrg = Mrrg::new(&acc, 2).unwrap();
        // Same PE.
        assert!(mrrg.can_consume(Resource::Reg(PeId::new(5), 0), PeId::new(5)));
        // Linked neighbour.
        assert!(mrrg.can_consume(Resource::Fu(PeId::new(5)), PeId::new(6)));
        // Distant PE.
        assert!(!mrrg.can_consume(Resource::Fu(PeId::new(0)), PeId::new(15)));
    }

    #[test]
    fn systolic_moves_are_directional() {
        let acc = Accelerator::systolic("sys", 3, 3);
        let mrrg = Mrrg::new(&acc, 1).unwrap();
        let mid = PeId::new(4); // (1,1)
        let m = mrrg.moves_from(Resource::Fu(mid));
        // right, up, down, self, 1 reg = 5; no left.
        assert_eq!(m.len(), 5);
        assert!(!m.contains(&Resource::Fu(PeId::new(3)))); // left of (1,1)
    }
}
