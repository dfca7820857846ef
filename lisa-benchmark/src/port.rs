//! The porting workload: the full training pipeline retargets LISA to
//! the 3×3 CGRA, several times with one configuration. Every port must
//! export the same model. The first ported model then compiles the Fig. 9
//! kernels, so the II it reaches is the quality of the port.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use lisa_arch::Accelerator;
use lisa_core::request::fnv1a64;
use lisa_core::{Lisa, LisaConfig, Pipeline};
use lisa_dfg::{polybench, Dfg};
use lisa_events::EventSink;
use lisa_mapper::schedule::mii;
use lisa_mapper::StrategySpec;

use crate::inputs::{self, DEFAULT_SEED, PINNED_MODELS};
use crate::map::{run_jobs, set_latency_metrics, Job, Tracer};
use crate::report::Report;
use crate::stats;
use crate::trace::{TallyObserver, Trace, OP};
use crate::Scale;

/// The accelerator LISA is ported to.
const TARGET: &str = "3x3";
/// Seconds of `--seconds` one port is planned at: the time of the porting
/// configuration on a two-core x86-64 machine (6–10 s), with room for the
/// evaluation maps.
const PORT_SECONDS: f64 = 8.0;
/// Ports per run, at least.
const MIN_PORTS: usize = 2;
/// Evaluation requests per Fig. 9 kernel.
const EVAL_SEEDS: usize = 3;

/// Everything a porting run needs, built by [`setup`].
pub struct PortSetup {
    acc: Accelerator,
    config: LisaConfig,
    ports: usize,
    /// The Fig. 9 kernels with their MII on the target.
    kernels: Vec<(Dfg, u32)>,
    /// Evaluation requests: `(kernel index, request seed)`.
    eval: Vec<(usize, u64)>,
}

/// Builds the target, the porting configuration for `seed` and the
/// evaluation requests.
pub fn setup(seed: u64, scale: Scale) -> Result<PortSetup, String> {
    let acc = Accelerator::standard(TARGET).ok_or("unknown accelerator")?;
    let (config, ports) = if scale.smoke {
        let config = LisaConfig {
            training_dfgs: 4,
            parallelism: 2,
            seed,
            ..LisaConfig::fast()
        };
        (config, MIN_PORTS)
    } else {
        let ports = (scale.seconds / PORT_SECONDS).round() as usize;
        (inputs::port_config(seed), ports.max(MIN_PORTS))
    };
    let kernels: Vec<(Dfg, u32)> = polybench::KERNEL_NAMES
        .iter()
        .map(|n| {
            let dfg = polybench::kernel(n).map_err(|e| e.to_string())?;
            let bound = mii(&dfg, &acc);
            Ok((dfg, bound))
        })
        .collect::<Result<_, String>>()?;
    let mut rng = inputs::stream(seed, "port-eval");
    let mut eval = Vec::new();
    for _ in 0..EVAL_SEEDS {
        for kernel in 0..kernels.len() {
            eval.push((kernel, rng.next_u64()));
        }
    }
    if scale.smoke {
        eval.truncate(2);
    }
    Ok(PortSetup {
        acc,
        config,
        ports,
        kernels,
        eval,
    })
}

/// Maps pipeline stages to the span of the layer doing the work.
fn stage_span(stage: &str) -> Option<&'static str> {
    Some(match stage {
        "generate_dfgs" => "dfg.generate",
        "generate_labels" => "labels.generate",
        "filter_and_split" => "labels.filter",
        "train_nets" => "gnn.train",
        "evaluate" => "gnn.evaluate",
        _ => return None,
    })
}

/// Runs the ports, checks that they agree, and compiles the evaluation
/// kernels with the first ported model. Traced, the first port runs
/// without an observer and the others with one, whose stage events give
/// the spans.
pub fn run(setup: &PortSetup, traced: bool, report: &mut Report) {
    let mut first: Option<(Lisa, u64)> = None;
    let mut untraced = Vec::new();
    let mut observed = Vec::new();
    let mut trace = Trace::new(Instant::now());
    let (mut decided, mut kept, mut router) = (0, 0, 0);
    for rep in 0..setup.ports {
        report.attempted += 1;
        let tally = Arc::new(TallyObserver::default());
        let observe = traced && rep > 0;
        let mut pipeline = Pipeline::new(&setup.acc, setup.config.clone());
        if observe {
            pipeline = pipeline.with_observer(EventSink::new(tally.clone()));
        }
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| pipeline.run()));
        let ended = Instant::now();
        let lisa = match result {
            Ok(Ok(Some(lisa))) => lisa,
            Ok(Ok(None)) => {
                report.fail(format!("port {rep}: the pipeline stopped early"));
                continue;
            }
            Ok(Err(e)) => {
                report.fail(format!("port {rep}: {e}"));
                continue;
            }
            Err(_) => {
                report.fail(format!("port {rep}: the pipeline panicked"));
                continue;
            }
        };
        let seconds = (ended - started).as_secs_f64();
        if observe {
            observed.push(seconds);
            let tally = tally.take();
            let root = trace.record(None, OP, started, ended, rep, vec![]);
            for (stage, a, b) in tally.stages {
                match stage_span(stage) {
                    Some(name) => {
                        trace.record(Some(root), name, a, b, rep, vec![]);
                    }
                    None => report.fail(format!("unknown pipeline stage {stage}")),
                }
            }
            decided += tally.filter.0;
            kept += tally.filter.1;
            router += tally.router_invocations;
        } else {
            untraced.push(seconds);
        }
        let digest = fnv1a64(lisa.export_model().as_bytes());
        match &first {
            None => first = Some((lisa, digest)),
            Some((_, d)) if *d != digest => report.fail(format!(
                "port {rep} exported model {digest:016x}, port 0 exported {d:016x}"
            )),
            Some(_) => {}
        }
    }
    let Some((model, digest)) = first else {
        return;
    };
    report.note(format!("ported model digest {digest:016x}"));
    // One input program: the porting configuration.
    let ports: Vec<(usize, f64)> = untraced
        .iter()
        .chain(&observed)
        .map(|s| (0, s * 1e3))
        .collect();
    set_latency_metrics(report, &ports, setup.ports);
    let busy: f64 = untraced.iter().chain(&observed).sum();
    report.set("ops_per_s", ports.len() as f64 / busy);
    let accuracy: Vec<f64> = model
        .stats()
        .accuracy
        .values
        .iter()
        .flatten()
        .copied()
        .collect();
    report.set(
        "gnn.label_accuracy",
        accuracy.iter().sum::<f64>() / accuracy.len().max(1) as f64,
    );

    let strategy = StrategySpec::default();
    let jobs = setup.eval.iter().map(|&(kernel, seed)| Job {
        input: kernel,
        model: &model,
        dfg: &setup.kernels[kernel].0,
        acc: &setup.acc,
        mii: setup.kernels[kernel].1,
        seed,
    });
    let mut tracer = traced.then(|| Tracer::new(false, setup.config.sa.clone()));
    let (_, quality) = run_jobs(jobs, &strategy, 1, tracer.as_mut(), report);
    quality.report(report);

    if let Some(tracer) = tracer {
        tracer.finish(report);
        let traced_ports = observed.len().max(1) as f64;
        report.set(
            "labels.filter_kept_frac",
            kept as f64 / decided.max(1) as f64,
        );
        report.set(
            "labels.iter_gen_router_invocations",
            router as f64 / traced_ports,
        );
        if !untraced.is_empty() && !observed.is_empty() {
            report.set(
                "trace.overhead",
                stats::median(&observed) / stats::median(&untraced) - 1.0,
            );
        }
        report.trace = Some(trace);
        let probes: Vec<(&Dfg, &Lisa, &Accelerator)> = setup
            .kernels
            .iter()
            .map(|(dfg, _)| (dfg, &model, &setup.acc))
            .collect();
        crate::probe::run(&probes, &strategy, report);
    }
}

/// Trains the pinned mapping models with the porting configuration at
/// the default seed, writes them, and prints their digests for
/// [`PINNED_MODELS`].
pub fn write_models() -> Result<(), String> {
    std::fs::create_dir_all(inputs::MODEL_DIR).map_err(|e| e.to_string())?;
    for (accelerator, _) in PINNED_MODELS {
        let acc = Accelerator::standard(accelerator).ok_or("unknown accelerator")?;
        let started = Instant::now();
        let lisa = Lisa::train_for(&acc, &inputs::port_config(DEFAULT_SEED))
            .map_err(|e| format!("training for {accelerator}: {e}"))?;
        let text = lisa.export_model();
        let path = inputs::model_path(accelerator);
        std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "(\"{accelerator}\", 0x{:016x}), // {} in {:.1} s, accuracy {}",
            fnv1a64(text.as_bytes()),
            path.display(),
            started.elapsed().as_secs_f64(),
            lisa.stats().accuracy.summary()
        );
    }
    Ok(())
}
