//! The mapping workloads: closed-loop compile requests through
//! `Lisa::map_request`, each returned mapping checked from outside, and
//! the traced replay that decomposes one request into label prediction,
//! MII, and one `map_at_ii` per II.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use lisa_arch::Accelerator;
use lisa_core::Lisa;
use lisa_dfg::{polybench, Dfg};
use lisa_events::EventSink;
use lisa_mapper::schedule::{mii, IiMapper};
use lisa_mapper::{LabelSaMapper, SaParams, StrategySpec};

use crate::check::{check_mapping, MappingView};
use crate::inputs::{self, MapOp, MAX_II};
use crate::report::Report;
use crate::stats;
use crate::trace::{TallyObserver, Trace, OP};
use crate::Scale;

/// One mapping workload.
#[derive(Debug, Clone, Copy)]
pub struct MapWorkload {
    /// Workload name.
    pub name: &'static str,
    /// `(kernels, unrolled ×2, accelerator)` groups.
    groups: &'static [(&'static [&'static str], bool, &'static str)],
    /// Lane mix.
    strategy: &'static str,
    /// Worker threads per request.
    parallelism: usize,
    /// Requests per second of `--seconds` a run plans for; about the rate
    /// of a two-core x86-64 machine, so a run measures for about that long.
    maps_per_second: f64,
}

/// The twelve PolyBench kernels of Fig. 9 on the 4×4 CGRA, annealer lane
/// only, one worker: the typical compile path.
pub const FIG9: MapWorkload = MapWorkload {
    name: "map-fig9",
    groups: &[(&polybench::KERNEL_NAMES, false, "4x4")],
    strategy: "sa",
    parallelism: 1,
    maps_per_second: 50.0,
};

/// Unrolled kernels on the memory-restricted 4×4 and on the 8×8 with the
/// mixed lane portfolio on two workers: most II attempts fail.
pub const HARD: MapWorkload = MapWorkload {
    name: "map-hard",
    groups: &[
        (&polybench::UNROLLED_4X4_NAMES, true, "4x4-lm"),
        (&polybench::UNROLLED_8X8_NAMES, true, "8x8"),
    ],
    strategy: "mixed",
    parallelism: 2,
    maps_per_second: 2.9,
};

/// One kernel on one accelerator, with its lower bound.
pub struct Target {
    /// The kernel.
    pub dfg: Dfg,
    /// Index into the setup's accelerators and models.
    pub acc: usize,
    /// `mii(dfg, acc)`.
    pub mii: u32,
}

/// Everything a mapping run needs, built by [`MapWorkload::setup`].
pub struct MapSetup {
    models: Vec<Lisa>,
    accs: Vec<Accelerator>,
    targets: Vec<Target>,
    ops: Vec<MapOp>,
    strategy: StrategySpec,
}

impl MapWorkload {
    /// Imports the pinned models, builds the accelerators and kernels,
    /// and draws the request stream from `seed`. A traced run replays
    /// every request, so it plans half as many.
    pub fn setup(&self, seed: u64, scale: Scale, traced: bool) -> Result<MapSetup, String> {
        let mut models = Vec::new();
        let mut accs = Vec::new();
        let mut targets = Vec::new();
        for (names, unrolled, key) in self.groups {
            let acc = Accelerator::standard(key).ok_or(format!("unknown accelerator {key}"))?;
            models.push(inputs::load_model(key)?);
            let dfgs = if *unrolled {
                polybench::unrolled_kernels(names)
            } else {
                names
                    .iter()
                    .map(|n| polybench::kernel(n).map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?
            };
            for dfg in dfgs {
                let bound = mii(&dfg, &acc);
                targets.push(Target {
                    dfg,
                    acc: accs.len(),
                    mii: bound,
                });
            }
            accs.push(acc);
        }
        let planned = scale.seconds * self.maps_per_second / if traced { 2.0 } else { 1.0 };
        let rounds = ((planned / targets.len() as f64).round() as usize).max(1);
        let mut ops =
            inputs::map_rounds(&mut inputs::stream(seed, self.name), targets.len(), rounds);
        if scale.smoke {
            ops.truncate(1);
        }
        Ok(MapSetup {
            models,
            accs,
            targets,
            ops,
            strategy: StrategySpec::parse(self.strategy).map_err(|e| e.to_string())?,
        })
    }

    /// Runs every request of the stream and checks every mapping. Traced,
    /// each request is also replayed span by span; the replay must return
    /// the same mapping.
    pub fn run(&self, setup: &MapSetup, traced: bool, report: &mut Report) {
        let jobs = setup.ops.iter().map(|op| {
            let target = &setup.targets[op.target];
            Job {
                input: op.target,
                model: &setup.models[target.acc],
                dfg: &target.dfg,
                acc: &setup.accs[target.acc],
                mii: target.mii,
                seed: op.seed,
            }
        });
        let mut tracer = traced.then(|| Tracer::new(true, inputs::import_config().sa));
        let (latencies, quality) = run_jobs(
            jobs,
            &setup.strategy,
            self.parallelism,
            tracer.as_mut(),
            report,
        );
        if latencies.is_empty() {
            report.fail("no request completed".to_string());
            return;
        }
        set_latency_metrics(report, &latencies, setup.ops.len());
        let busy: f64 = latencies.iter().map(|(_, ms)| ms / 1e3).sum();
        report.set("ops_per_s", latencies.len() as f64 / busy);
        quality.report(report);
        if let Some(tracer) = tracer {
            let untraced = tracer.untraced;
            let trace = tracer.finish(report);
            report.set("trace.overhead", trace.op_total() / untraced - 1.0);
            report.trace = Some(trace);
            let probes: Vec<(&Dfg, &Lisa, &Accelerator)> = setup
                .targets
                .iter()
                .map(|t| (&t.dfg, &setup.models[t.acc], &setup.accs[t.acc]))
                .collect();
            crate::probe::run(&probes, &setup.strategy, report);
        }
    }
}

/// Sets `op_p50_ms` from `(input, latency ms)` samples: each input
/// program's median latency, averaged across programs by geometric mean,
/// so a shift in which programs a seed draws slow cannot move it. Also
/// records the tail over all samples: the highest percentile with ten
/// samples beyond it, fixed by the planned count so it never changes
/// with run speed.
pub fn set_latency_metrics(report: &mut Report, samples: &[(usize, f64)], planned: usize) {
    let latencies: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    let tail = stats::highest_supported_percentile(planned).unwrap_or(100.0);
    let tail_ms = stats::percentile(&latencies, tail);
    report.note(format!(
        "op latency over {} samples: median {:.3} ms, p{tail} {tail_ms:.3} ms",
        latencies.len(),
        stats::median(&latencies),
    ));
    report.set("op_p50_ms", stats::geomean_of_medians(samples));
    report.set("op_tail_ms", tail_ms);
}

/// One map request of a workload.
pub struct Job<'a> {
    /// Which of the workload's input programs the request maps.
    pub input: usize,
    /// The model serving the request.
    pub model: &'a Lisa,
    /// The kernel.
    pub dfg: &'a Dfg,
    /// The target accelerator.
    pub acc: &'a Accelerator,
    /// `mii(dfg, acc)`.
    pub mii: u32,
    /// Request seed.
    pub seed: u64,
}

/// Runs jobs through `Lisa::map_request`, timing each and checking each
/// mapping; with a tracer, replays each one and requires the same
/// mapping. Returns `(input, latency ms)` of the completed jobs.
pub fn run_jobs<'a>(
    jobs: impl Iterator<Item = Job<'a>>,
    strategy: &StrategySpec,
    parallelism: usize,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> (Vec<(usize, f64)>, Quality) {
    let mut latencies = Vec::new();
    let mut quality = Quality::default();
    for (i, job) in jobs.enumerate() {
        report.attempted += 1;
        let what = format!("{} on {} seed {}", job.dfg.name(), job.acc.name(), job.seed);
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            job.model
                .map_request(job.dfg, job.acc, job.seed, MAX_II, strategy, parallelism)
        }));
        let latency = started.elapsed().as_secs_f64();
        let Ok((outcome, mapping)) = result else {
            report.fail(format!("{what}: mapper panicked"));
            continue;
        };
        latencies.push((job.input, latency * 1e3));
        let view = mapping.as_ref().map(MappingView::of);
        let checked = match (outcome.ii, &view) {
            (Some(ii), Some(v)) if v.ii == ii => check_mapping(v, job.dfg, job.acc),
            (None, None) => Ok(()),
            _ => Err("outcome and mapping disagree".to_string()),
        };
        if let Err(e) = checked.and_then(|()| quality.push(outcome.ii, job.mii)) {
            report.fail(format!("{what}: {e}"));
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.untraced += latency;
            let replay = tracer.map(i, job.model, job.dfg, job.acc, job.seed, strategy);
            if replay != view {
                report.fail(format!(
                    "{what}: traced replay mapped at {:?}, the request at {:?}",
                    replay.as_ref().map(|v| v.ii),
                    outcome.ii
                ));
            }
        }
    }
    (latencies, quality)
}

/// Achieved II against the lower bound, over every request.
#[derive(Debug, Default)]
pub struct Quality {
    ratios: Vec<f64>,
    requests: usize,
}

impl Quality {
    /// Records one outcome: `Some(ii)` if it mapped.
    pub fn push(&mut self, ii: Option<u32>, mii: u32) -> Result<(), String> {
        self.requests += 1;
        if let Some(ii) = ii {
            if ii < mii {
                return Err(format!("II {ii} below the lower bound {mii}"));
            }
            self.ratios.push(f64::from(ii) / f64::from(mii));
        }
        Ok(())
    }

    /// Sets `ii_over_mii` (geomean over mapped requests) and
    /// `mapped_frac`.
    pub fn report(&self, report: &mut Report) {
        if self.ratios.is_empty() {
            report.fail("no request mapped".to_string());
            return;
        }
        report.set("ii_over_mii", stats::geomean(&self.ratios));
        report.set(
            "mapped_frac",
            self.ratios.len() as f64 / self.requests as f64,
        );
    }
}

/// Lane kinds, in the order the per-lane metrics name them.
const LANES: [&str; 3] = ["constructive", "sa", "evolutionary"];

/// Replays requests attempt by attempt and sums the program's work
/// counters.
pub struct Tracer {
    trace: Trace,
    spans: bool,
    sa: SaParams,
    tally: Arc<TallyObserver>,
    sink: EventSink,
    /// Summed untraced latencies of the replayed requests, seconds.
    pub untraced: f64,
    maps: u64,
    mapped: u64,
    attempts: u64,
    attempt_time: f64,
    infeasible_time: f64,
    router: u64,
    router_infeasible: u64,
    proposals: u64,
    router_by_lane: BTreeMap<&'static str, u64>,
    wins: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer for models whose inference annealer runs with `sa`;
    /// `spans` says whether replays record operation spans (they do when
    /// the replayed requests are the workload's operations).
    pub fn new(spans: bool, sa: SaParams) -> Self {
        let tally = Arc::new(TallyObserver::default());
        Tracer {
            trace: Trace::new(Instant::now()),
            spans,
            sa,
            sink: EventSink::new(tally.clone()),
            tally,
            untraced: 0.0,
            maps: 0,
            mapped: 0,
            attempts: 0,
            attempt_time: 0.0,
            infeasible_time: 0.0,
            router: 0,
            router_infeasible: 0,
            proposals: 0,
            router_by_lane: BTreeMap::new(),
            wins: BTreeMap::new(),
        }
    }

    /// One request, decomposed the way `Lisa::map_request` runs it:
    /// `predict_labels`, then `mii`, then `map_at_ii` at each II in
    /// sequence, on a `LabelSaMapper` built like `Lisa::build_mapper`
    /// builds it for an imported model, with an observer attached.
    /// Returns the mapping, if any II succeeded.
    pub fn map(
        &mut self,
        request: usize,
        model: &Lisa,
        dfg: &Dfg,
        acc: &Accelerator,
        seed: u64,
        strategy: &StrategySpec,
    ) -> Option<MappingView> {
        let lanes = strategy.expand(1);
        let mut children = Vec::new();
        let start = Instant::now();
        let labels = model.predict_labels(dfg);
        let predicted = Instant::now();
        children.push(("core.predict_labels", start, predicted, vec![]));
        let lo = mii(dfg, acc);
        let hi = MAX_II.min(acc.max_ii());
        let bounded = Instant::now();
        children.push(("mapper.mii", predicted, bounded, vec![]));
        let mut mapper = LabelSaMapper::new(labels, self.sa.clone(), seed)
            .with_strategy(strategy.clone())
            .with_observer(self.sink.clone());
        let mut view = None;
        let mut attempts: u32 = 0;
        for ii in lo..=hi {
            attempts += 1;
            let t0 = Instant::now();
            let mapping = mapper.map_at_ii(dfg, acc, ii);
            let t1 = Instant::now();
            let tally = self.tally.take();
            let seconds = (t1 - t0).as_secs_f64();
            self.attempt_time += seconds;
            self.router += tally.router_invocations;
            self.proposals += tally.proposals;
            if mapping.is_none() {
                self.router_infeasible += tally.router_invocations;
                self.infeasible_time += seconds;
            }
            for (lane, calls) in &tally.router_by_lane {
                let kind = lanes.get(*lane).map_or("sa", |k| k.name());
                *self.router_by_lane.entry(kind).or_default() += calls;
            }
            for lane in &tally.wins {
                *self.wins.entry(lane).or_default() += 1;
            }
            let name = if mapping.is_some() {
                "mapper.attempt_feasible"
            } else {
                "mapper.attempt_infeasible"
            };
            children.push((
                name,
                t0,
                t1,
                vec![
                    ("ii", u64::from(ii)),
                    ("router_invocations", tally.router_invocations),
                    ("proposals", tally.proposals),
                ],
            ));
            if let Some(m) = mapping {
                view = Some(MappingView::of(&m));
                break;
            }
        }
        let end = Instant::now();
        self.maps += 1;
        self.attempts += u64::from(attempts);
        self.mapped += u64::from(view.is_some());
        if self.spans {
            let root = self.trace.record(
                None,
                OP,
                start,
                end,
                request,
                vec![("mii", u64::from(lo)), ("attempts", u64::from(attempts))],
            );
            for (name, t0, t1, counters) in children {
                self.trace
                    .record(Some(root), name, t0, t1, request, counters);
            }
        }
        view
    }

    /// Sets the mapper counters and returns the spans.
    pub fn finish(self, report: &mut Report) -> Trace {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let maps = self.maps as f64;
        let router = self.router as f64;
        report.set("mapper.router_invocations_per_map", ratio(router, maps));
        report.set(
            "mapper.proposals_per_map",
            ratio(self.proposals as f64, maps),
        );
        report.set(
            "mapper.router_per_proposal",
            ratio(router, self.proposals as f64),
        );
        report.set(
            "mapper.ii_attempts_per_map",
            ratio(self.attempts as f64, maps),
        );
        report.set(
            "mapper.useful_attempt_ratio",
            ratio(self.mapped as f64, self.attempts as f64),
        );
        report.set(
            "mapper.infeasible_router_share",
            ratio(self.router_infeasible as f64, router),
        );
        report.set(
            "mapper.infeasible_time_share",
            ratio(self.infeasible_time, self.attempt_time),
        );
        let wins: u64 = self.wins.values().sum();
        for lane in LANES {
            let get = |m: &BTreeMap<&str, u64>| m.get(lane).copied().unwrap_or(0) as f64;
            report.set(
                format!("mapper.lane_win_share.{lane}"),
                ratio(get(&self.wins), wins as f64),
            );
            report.set(
                format!("mapper.lane_router_share.{lane}"),
                ratio(get(&self.router_by_lane), router),
            );
        }
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two replays of the same requests record the same spans with the
    /// same work counters, and report the same counter metrics.
    #[test]
    fn traced_replays_are_identical_for_a_seed() {
        let model = inputs::load_model("4x4").unwrap();
        let acc = Accelerator::standard("4x4").unwrap();
        let dfgs = [
            polybench::kernel("doitgen").unwrap(),
            polybench::kernel("gemm").unwrap(),
        ];
        let strategy = StrategySpec::default();
        let replay = || {
            let mut tracer = Tracer::new(true, inputs::import_config().sa);
            let views: Vec<_> = dfgs
                .iter()
                .enumerate()
                .map(|(i, dfg)| tracer.map(i, &model, dfg, &acc, 7 + i as u64, &strategy))
                .collect();
            let mut report = Report::default();
            let trace = tracer.finish(&mut report);
            let spans: Vec<_> = trace
                .spans()
                .iter()
                .map(|s| (s.parent, s.name, s.request, s.counters.clone()))
                .collect();
            report.values.remove("mapper.infeasible_time_share");
            (views, spans, report.values)
        };
        let first = replay();
        assert!(first.0.iter().all(Option::is_some), "both kernels map");
        assert_eq!(first, replay());
    }
}
