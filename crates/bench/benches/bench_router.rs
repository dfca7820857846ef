//! Benches for the Dijkstra router over the time-expanded MRRG.
//!
//! Every row searches through one reused `RouterScratch`, as the
//! annealer does through its mapping's, so a row times the search and
//! not the allocation of a fresh scratch.

use lisa_arch::{Accelerator, Mrrg, PeId, Resource};
use lisa_bench::timing::Suite;
use lisa_mapper::router::{find_route_in, RouterScratch};

fn main() {
    let mut suite = Suite::from_args("router");
    let mut scratch = RouterScratch::default();

    let acc = Accelerator::cgra("4x4", 4, 4);
    let mrrg = Mrrg::new(&acc, 4).unwrap();
    suite.bench("adjacent_4x4", || {
        std::hint::black_box(find_route_in(
            &mut scratch,
            &mrrg,
            PeId::new(5),
            0,
            PeId::new(6),
            1,
            |_cell, _t| Some(1),
        ));
    });

    let acc8 = Accelerator::cgra("8x8", 8, 8);
    let mrrg8 = Mrrg::new(&acc8, 8).unwrap();
    suite.bench("corner_to_corner_8x8", || {
        std::hint::black_box(find_route_in(
            &mut scratch,
            &mrrg8,
            PeId::new(0),
            0,
            PeId::new(63),
            14,
            |_cell, _t| Some(1),
        ));
    });

    let mrrg6 = Mrrg::new(&acc, 6).unwrap();
    // Only even-index PEs usable: forces detours.
    let per_slot6 = mrrg6.resources_per_slot();
    let filter = |cell: usize, _t: u32| match mrrg6.resource(cell % per_slot6) {
        Resource::Fu(p) if p.index() % 2 == 1 => None,
        _ => Some(1),
    };
    suite.bench("congested_4x4", || {
        std::hint::black_box(find_route_in(
            &mut scratch,
            &mrrg6,
            PeId::new(0),
            0,
            PeId::new(10),
            8,
            filter,
        ));
    });

    // The retry the annealer pays most often: an infeasible route whose
    // search exhausts its cone. Column 4 of the 8x8 is a wall (every FU
    // and register busy at every cycle), so nothing crosses from the left
    // half to the right half and the search runs out of states.
    let per_slot8 = mrrg8.resources_per_slot();
    let wall =
        |cell: usize, _t: u32| (mrrg8.offset_pe(cell % per_slot8).index() % 8 != 4).then_some(1);
    suite.bench("congested_8x8_fail", || {
        let route = find_route_in(
            &mut scratch,
            &mrrg8,
            PeId::new(24),
            0,
            PeId::new(31),
            12,
            wall,
        );
        debug_assert!(route.is_none());
        std::hint::black_box(route);
    });

    // A value with slack: one hop to cover in 12 cycles on an all-free
    // 8x8, so the search spreads over every register and FU it can
    // still wait in before the consumer.
    suite.bench("slack_wait_8x8", || {
        std::hint::black_box(find_route_in(
            &mut scratch,
            &mrrg8,
            PeId::new(27),
            0,
            PeId::new(28),
            12,
            |_cell, _t| Some(1),
        ));
    });

    suite.finish();
}
