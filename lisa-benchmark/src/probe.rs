//! Per-call probes of the layers a request passes before the mapper runs
//! — request parsing and canonicalization, attribute generation, label
//! prediction — on the workload's own kernels, plus the accelerators'
//! distance-index footprint.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use lisa_arch::Accelerator;
use lisa_core::{Lisa, MapRequest};
use lisa_dfg::Dfg;
use lisa_labels::attributes::DfgAttributes;
use lisa_mapper::StrategySpec;

use crate::inputs::{self, DEFAULT_SEED};
use crate::report::Report;
use crate::stats;

/// Timed calls per kernel and probe, after one warm-up call.
const REPS: usize = 5;

/// Median wall time of `f` in microseconds.
fn median_us(mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// Sets `core.request_parse_us`, `labels.attributes_us` and
/// `core.predict_labels_us` (means over the kernels of each kernel's
/// median) and `arch.distance_index_bytes`.
pub fn run(targets: &[(&Dfg, &Lisa, &Accelerator)], strategy: &StrategySpec, report: &mut Report) {
    let mut parse = Vec::new();
    let mut attributes = Vec::new();
    let mut predict = Vec::new();
    let mut index_bytes = BTreeMap::new();
    for &(dfg, model, acc) in targets {
        let text = inputs::request_text(acc.name(), DEFAULT_SEED, strategy, dfg);
        parse.push(median_us(|| {
            black_box(
                MapRequest::parse(black_box(&text))
                    .map(|r| r.cache_key())
                    .ok(),
            );
        }));
        attributes.push(median_us(|| {
            black_box(DfgAttributes::generate(black_box(dfg)));
        }));
        predict.push(median_us(|| {
            black_box(model.predict_labels(black_box(dfg)));
        }));
        index_bytes.insert(acc.name(), acc.distance_index_bytes());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.set("core.request_parse_us", mean(&parse));
    report.set("labels.attributes_us", mean(&attributes));
    report.set("core.predict_labels_us", mean(&predict));
    report.set(
        "arch.distance_index_bytes",
        index_bytes.values().sum::<usize>() as f64,
    );
}
