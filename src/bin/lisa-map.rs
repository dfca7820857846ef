//! `lisa-map` — command-line mapper: place and route a kernel on a
//! modelled spatial accelerator, or train the label models offline.
//!
//! ```text
//! lisa-map <kernel> [--arch <key>] [--mapper lisa|sa|ilp]
//!          [--model <path>] [--unroll <k>] [--max-ii <n>] [--seed <n>]
//!          [--strategy sa|constructive|mixed|<lane,lane,...>]
//!          [--predictor <path>|off] [--capture-movements <path>]
//!          [--verbose] [--show]
//!
//! lisa-map train [--arch <key>] [--full] [--dfgs <n>] [--seed <n>]
//!          [--checkpoint <dir>] [--resume <dir>] [--stop-after <stage>]
//!          [--out <path>] [--verbose] [--quiet]
//!
//! lisa-map train-predictor --pairs <path> --out <path>
//!          [--epochs <n>] [--seed <n>]
//!
//! kernel:  one of the 12 PolyBench kernels (gemm, atax, ...),
//!          `core:<kernel>` for the systolic compute core, or
//!          `rand:<seed>` for a synthetic DFG
//! --arch:  3x3 | 4x4 | 4x4-lr | 4x4-lm | 8x8 | systolic   (default 4x4),
//!          or any `ROWSxCOLS` (e.g. 16x16, at most 65535 PEs) for a
//!          baseline CGRA — big fabrics index hop distances with the
//!          landmark oracle
//! --show:  print the time-extended mapping grid (Fig. 5 style)
//! ```
//!
//! The `lisa` mapper trains the GNN label models for the chosen
//! accelerator on the fly (quick scale); pass `--model <path>` to load a
//! model previously written by `lisa-map train --out`, or use
//! `--mapper sa` for an untrained baseline run.
//!
//! `train` runs the staged pipeline (`generate_dfgs -> generate_labels ->
//! filter_and_split -> train_nets -> evaluate`) with progress on stderr.
//! With `--checkpoint <dir>` each stage persists its artifacts as it
//! goes; `--resume <dir>` picks a killed run back up from those files and
//! produces a byte-identical model. `--stop-after <stage>` ends the run
//! early (useful with `--checkpoint` to split work across invocations).
//!
//! The predict-then-verify movement filter closes a capture → train →
//! gate loop: `--capture-movements <path>` journals `(movement features,
//! Δcost)` pairs from any annealing run as a `lisa-movement-set v1`
//! file, `train-predictor` fits a movement predictor to such a file, and
//! `--predictor <path>` gates subsequent runs' routers with it (`off`,
//! the default, maps exactly as the unfiltered binary). `--verbose`
//! prints the run's aggregate filter counters as a final
//! `filter: proposals=... router_invocations=...` line on stdout.

use std::path::PathBuf;
use std::sync::Arc;

use lisa::arch::Accelerator;
use lisa::core::{Lisa, LisaConfig, Pipeline, Stage, MODEL_FILE};
use lisa::dfg::{generate_random_dfg, polybench, unroll::unroll, Dfg, RandomDfgConfig};
use lisa::events::{EventSink, MultiObserver, Observer, StderrObserver};
use lisa::gnn::TrainConfig;
use lisa::labels::movement::{parse_movement_set, write_movement_set, MovementPredictor};
use lisa::labels::MovementRecorder;
use lisa::mapper::display::render;
use lisa::mapper::exact::{ExactMapper, ExactParams};
use lisa::mapper::schedule::IiSearch;
use lisa::mapper::{FilterTotals, LabelSaMapper, SaParams, StrategySpec};

/// The `--mapper` choice, checked while the flags are parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapperKind {
    Lisa,
    Sa,
    Ilp,
}

impl MapperKind {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "lisa" => Ok(MapperKind::Lisa),
            "sa" => Ok(MapperKind::Sa),
            "ilp" => Ok(MapperKind::Ilp),
            other => Err(format!("unknown mapper {other}\n{}", usage())),
        }
    }

    fn name(self) -> &'static str {
        match self {
            MapperKind::Lisa => "lisa",
            MapperKind::Sa => "sa",
            MapperKind::Ilp => "ilp",
        }
    }
}

struct Options {
    kernel: String,
    arch: String,
    mapper: MapperKind,
    model: Option<PathBuf>,
    unroll: u32,
    max_ii: u32,
    seed: u64,
    strategy: StrategySpec,
    predictor: Option<PathBuf>,
    capture: Option<PathBuf>,
    verbose: bool,
    show: bool,
}

struct TrainPredictorOptions {
    pairs: PathBuf,
    out: PathBuf,
    epochs: usize,
    seed: u64,
}

struct TrainOptions {
    acc: Accelerator,
    full: bool,
    dfgs: Option<usize>,
    seed: Option<u64>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    stop_after: Option<Stage>,
    out: Option<PathBuf>,
    verbose: bool,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let kernel = args.next().ok_or_else(usage)?;
    if kernel == "--help" || kernel == "-h" {
        return Err(usage());
    }
    let mut opts = Options {
        kernel,
        arch: "4x4".to_string(),
        mapper: MapperKind::Lisa,
        model: None,
        unroll: 1,
        max_ii: 16,
        seed: 2022,
        strategy: StrategySpec::default(),
        predictor: None,
        capture: None,
        verbose: false,
        show: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--arch" => opts.arch = value("--arch")?,
            "--mapper" => opts.mapper = MapperKind::parse(&value("--mapper")?)?,
            "--model" => opts.model = Some(PathBuf::from(value("--model")?)),
            "--unroll" => {
                opts.unroll = value("--unroll")?
                    .parse()
                    .map_err(|e| format!("bad --unroll: {e}"))?
            }
            "--max-ii" => {
                opts.max_ii = value("--max-ii")?
                    .parse()
                    .map_err(|e| format!("bad --max-ii: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--strategy" => {
                opts.strategy = StrategySpec::parse(&value("--strategy")?)
                    .map_err(|e| format!("bad --strategy: {e}"))?
            }
            "--predictor" => {
                let v = value("--predictor")?;
                opts.predictor = if v == "off" {
                    None
                } else {
                    Some(PathBuf::from(v))
                };
            }
            "--capture-movements" => {
                opts.capture = Some(PathBuf::from(value("--capture-movements")?))
            }
            "--verbose" => opts.verbose = true,
            "--show" => opts.show = true,
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn parse_train_predictor_args() -> Result<TrainPredictorOptions, String> {
    let mut args = std::env::args().skip(2);
    let mut pairs = None;
    let mut out = None;
    let mut epochs = 200;
    let mut seed = 2022;
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", train_predictor_usage()))
        };
        match flag.as_str() {
            "--pairs" => pairs = Some(PathBuf::from(value("--pairs")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--epochs" => {
                epochs = value("--epochs")?
                    .parse()
                    .map_err(|e| format!("bad --epochs: {e}"))?
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--help" | "-h" => return Err(train_predictor_usage()),
            other => return Err(format!("unknown flag {other}\n{}", train_predictor_usage())),
        }
    }
    Ok(TrainPredictorOptions {
        pairs: pairs.ok_or_else(|| format!("--pairs is required\n{}", train_predictor_usage()))?,
        out: out.ok_or_else(|| format!("--out is required\n{}", train_predictor_usage()))?,
        epochs,
        seed,
    })
}

fn parse_train_args() -> Result<TrainOptions, String> {
    let mut args = std::env::args().skip(2);
    let mut opts = TrainOptions {
        acc: build_arch("4x4")?,
        full: false,
        dfgs: None,
        seed: None,
        checkpoint: None,
        resume: false,
        stop_after: None,
        out: None,
        verbose: false,
        quiet: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", train_usage()))
        };
        match flag.as_str() {
            "--arch" => opts.acc = build_arch(&value("--arch")?)?,
            "--full" => opts.full = true,
            "--dfgs" => {
                opts.dfgs = Some(
                    value("--dfgs")?
                        .parse()
                        .map_err(|e| format!("bad --dfgs: {e}"))?,
                )
            }
            "--seed" => {
                opts.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--resume" => {
                opts.checkpoint = Some(PathBuf::from(value("--resume")?));
                opts.resume = true;
            }
            "--stop-after" => {
                let name = value("--stop-after")?;
                opts.stop_after = Some(Stage::from_name(&name).ok_or_else(|| {
                    format!(
                        "unknown stage `{name}` (stages: {})",
                        Stage::ALL
                            .iter()
                            .map(|s| s.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?)
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--verbose" => opts.verbose = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => return Err(train_usage()),
            other => return Err(format!("unknown flag {other}\n{}", train_usage())),
        }
    }
    if opts.resume {
        let dir = opts.checkpoint.as_ref().expect("--resume sets checkpoint");
        if !dir.is_dir() {
            return Err(format!(
                "--resume {}: no such checkpoint directory",
                dir.display()
            ));
        }
    }
    Ok(opts)
}

fn usage() -> String {
    "usage: lisa-map <kernel|core:<kernel>|rand:<seed>> \
     [--arch 3x3|4x4|4x4-lr|4x4-lm|8x8|systolic|<RxC>] \
     [--mapper lisa|sa|ilp] [--model path] [--unroll k] [--max-ii n] [--seed n] \
     [--strategy sa|constructive|mixed|lane,lane,...] \
     [--predictor path|off] [--capture-movements path] [--verbose] [--show]\n\
     \x20      lisa-map train --help             for offline label training\n\
     \x20      lisa-map train-predictor --help   for movement-predictor training"
        .to_string()
}

fn train_predictor_usage() -> String {
    "usage: lisa-map train-predictor --pairs path --out path [--epochs n] [--seed n]".to_string()
}

fn train_usage() -> String {
    "usage: lisa-map train [--arch 3x3|4x4|4x4-lr|4x4-lm|8x8|systolic|<RxC>] [--full] [--dfgs n] \
     [--seed n] [--checkpoint dir] [--resume dir] [--stop-after stage] [--out path] \
     [--verbose] [--quiet]"
        .to_string()
}

/// Resolves an `--arch` key: first the named catalog, then a bare
/// `ROWSxCOLS` dimension spec (e.g. `16x16`) building a baseline CGRA —
/// the escape hatch for fabrics beyond the paper suite, where the
/// accelerator automatically switches its hop-distance index from the
/// dense table to the landmark oracle. A grid of more than
/// [`Accelerator::MAX_PES`] PEs is refused.
fn build_arch(key: &str) -> Result<Accelerator, String> {
    if let Some(acc) = Accelerator::standard(key) {
        return Ok(acc);
    }
    if let Some((r, c)) = key.split_once('x') {
        if let (Ok(rows), Ok(cols)) = (r.parse::<usize>(), c.parse::<usize>()) {
            if rows > 0 && cols > 0 {
                return match rows.checked_mul(cols) {
                    Some(pes) if pes <= Accelerator::MAX_PES => {
                        Ok(Accelerator::cgra(key, rows, cols))
                    }
                    _ => Err(format!(
                        "architecture {key} has more than {} PEs",
                        Accelerator::MAX_PES
                    )),
                };
            }
        }
    }
    Err(format!("unknown architecture {key}\n{}", usage()))
}

fn build_dfg(spec: &str, factor: u32) -> Result<Dfg, String> {
    let base = if let Some(seed) = spec.strip_prefix("rand:") {
        let seed: u64 = seed.parse().map_err(|e| format!("bad rand seed: {e}"))?;
        generate_random_dfg(&RandomDfgConfig::default(), seed)
    } else if let Some(core) = spec.strip_prefix("core:") {
        polybench::kernel_core(core).map_err(|e| e.to_string())?
    } else {
        polybench::kernel(spec).map_err(|e| e.to_string())?
    };
    Ok(if factor > 1 {
        unroll(&base, factor)
    } else {
        base
    })
}

/// The quick-scale config the `lisa` mapper trains (and imports) with.
fn mapping_config(acc: &Accelerator, seed: u64, strategy: StrategySpec) -> LisaConfig {
    let mut config = LisaConfig::fast();
    config.training_dfgs = 24;
    config.seed = seed;
    config.strategy = strategy;
    if acc.is_spatial_only() {
        config = config.for_systolic();
    }
    config
}

fn run_train(opts: TrainOptions) -> Result<(), String> {
    let acc = &opts.acc;
    let mut config = if opts.full {
        LisaConfig::default()
    } else {
        LisaConfig::fast()
    };
    if let Some(n) = opts.dfgs {
        config.training_dfgs = n;
    }
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }
    if acc.is_spatial_only() {
        config = config.for_systolic();
    }

    let mut pipeline = Pipeline::new(acc, config);
    if !opts.quiet {
        let observer = if opts.verbose {
            StderrObserver::verbose()
        } else {
            StderrObserver::new()
        };
        pipeline = pipeline.with_observer(EventSink::new(Arc::new(observer)));
    }
    if let Some(dir) = &opts.checkpoint {
        pipeline = pipeline.with_checkpoint_dir(dir);
    } else if opts.stop_after.is_some() && opts.out.is_none() {
        eprintln!("note: --stop-after without --checkpoint discards all work");
    }
    if let Some(stage) = opts.stop_after {
        pipeline = pipeline.stop_after(stage);
    }

    let lisa = pipeline.run().map_err(|e| e.to_string())?;
    match lisa {
        Some(lisa) => {
            let stats = lisa.stats();
            eprintln!(
                "trained for {}: {} DFGs kept of {}, label accuracies {}",
                acc.name(),
                stats.dfgs_kept,
                stats.dfgs_generated,
                stats.accuracy.summary()
            );
            if let Some(out) = &opts.out {
                std::fs::write(out, lisa.export_model())
                    .map_err(|e| format!("writing {}: {e}", out.display()))?;
                eprintln!("model written to {}", out.display());
            } else if let Some(dir) = &opts.checkpoint {
                eprintln!("model written to {}", dir.join(MODEL_FILE).display());
            } else {
                // No destination given: emit the model on stdout so the
                // run is not thrown away (`lisa-map train > model.txt`).
                print!("{}", lisa.export_model());
            }
        }
        None => {
            let stage = opts.stop_after.expect("run ends early only on stop_after");
            match &opts.checkpoint {
                Some(dir) => eprintln!(
                    "stopped after {stage}; artifacts in {} (resume with --resume)",
                    dir.display()
                ),
                None => eprintln!("stopped after {stage}"),
            }
        }
    }
    Ok(())
}

fn run_train_predictor(opts: TrainPredictorOptions) -> Result<(), String> {
    let text = std::fs::read_to_string(&opts.pairs)
        .map_err(|e| format!("{}: {e}", opts.pairs.display()))?;
    let set = parse_movement_set(&text).map_err(|e| format!("{}: {e}", opts.pairs.display()))?;
    let config = TrainConfig {
        epochs: opts.epochs,
        ..TrainConfig::paper()
    };
    let (predictor, report) = MovementPredictor::train(&set, &config, opts.seed)
        .map_err(|e| format!("training on {}: {e}", opts.pairs.display()))?;
    std::fs::write(&opts.out, predictor.export())
        .map_err(|e| format!("writing {}: {e}", opts.out.display()))?;
    let improving = set.pairs.iter().filter(|p| p.delta_cost <= 0.0).count();
    eprintln!(
        "trained movement predictor on {} pairs ({improving} improving): \
         final loss {:.6}, threshold {:?}; written to {}",
        set.len(),
        report.final_loss(),
        predictor.threshold(),
        opts.out.display()
    );
    Ok(())
}

fn load_predictor(path: &PathBuf) -> Result<Arc<MovementPredictor>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let predictor =
        MovementPredictor::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Arc::new(predictor))
}

fn load_model(path: &PathBuf, acc: &Accelerator, config: &LisaConfig) -> Result<Lisa, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lisa = Lisa::import_model(config, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    if lisa.accelerator_name() != acc.name() {
        eprintln!(
            "warning: model was trained for {} but mapping on {}",
            lisa.accelerator_name(),
            acc.name()
        );
    }
    Ok(lisa)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("train") {
        let opts = match parse_train_args() {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        };
        if let Err(msg) = run_train(opts) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("train-predictor") {
        let opts = match parse_train_predictor_args() {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        };
        if let Err(msg) = run_train_predictor(opts) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        return;
    }

    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    // Loaded before anything runs, so a bad path fails before the label
    // models train.
    let filter = match opts.predictor.as_ref().map(load_predictor).transpose() {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let acc = match build_arch(&opts.arch) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let dfg = match build_dfg(&opts.kernel, opts.unroll) {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "mapping {} ({} nodes, {} edges) on {} with {}",
        dfg.name(),
        dfg.node_count(),
        dfg.edge_count(),
        acc.name(),
        opts.mapper.name()
    );

    // Event plumbing: the movement recorder captures training pairs, the
    // totals observer aggregates filter counters for the `--verbose`
    // summary line. The null sink keeps unobserved runs on the historical
    // fast path.
    let totals = Arc::new(FilterTotals::default());
    let recorder = opts
        .capture
        .as_ref()
        .map(|_| Arc::new(MovementRecorder::new()));
    let sink = if opts.verbose || recorder.is_some() {
        let mut observers: Vec<Arc<dyn Observer>> = Vec::new();
        if let Some(rec) = &recorder {
            observers.push(Arc::clone(rec) as Arc<dyn Observer>);
        }
        if opts.verbose {
            observers.push(Arc::clone(&totals) as Arc<dyn Observer>);
            observers.push(Arc::new(StderrObserver::verbose()));
        }
        EventSink::new(Arc::new(MultiObserver::new(observers)))
    } else {
        EventSink::null()
    };
    if let Some(p) = &filter {
        if opts.mapper == MapperKind::Ilp {
            eprintln!("note: --predictor only gates the annealing mappers (lisa, sa); ignored");
        } else {
            eprintln!("movement filter attached (threshold {:?})", p.threshold());
        }
    }
    if opts.strategy != StrategySpec::default() && opts.mapper == MapperKind::Ilp {
        eprintln!("note: --strategy only selects the lanes of lisa and sa; ignored");
    }

    let search = IiSearch {
        max_ii: Some(opts.max_ii),
    };
    let (outcome, mapping) = match opts.mapper {
        MapperKind::Lisa => {
            let config = mapping_config(&acc, opts.seed, opts.strategy.clone());
            let lisa = if let Some(path) = &opts.model {
                match load_model(path, &acc, &config) {
                    Ok(l) => l,
                    Err(msg) => {
                        eprintln!("{msg}");
                        std::process::exit(2);
                    }
                }
            } else {
                eprintln!("training label models (quick scale)...");
                match Lisa::train_for(&acc, &config) {
                    Ok(l) => l,
                    Err(e) => {
                        eprintln!("training failed: {e}");
                        std::process::exit(1);
                    }
                }
            };
            let mut mapper = lisa
                .mapper(&dfg, opts.seed, &opts.strategy)
                .with_observer(sink.clone());
            if let Some(f) = &filter {
                mapper = mapper.with_movement_filter(f.clone());
            }
            search.run(&mapper, &dfg, &acc, config.parallelism)
        }
        MapperKind::Sa => {
            let mut sa = LabelSaMapper::vanilla(SaParams::paper(), opts.seed)
                .with_strategy(opts.strategy.clone())
                .with_observer(sink.clone());
            if let Some(f) = &filter {
                sa = sa.with_movement_filter(f.clone());
            }
            search.run(&sa, &dfg, &acc, 1)
        }
        MapperKind::Ilp => {
            let ilp = ExactMapper::new(ExactParams::default());
            search.run(&ilp, &dfg, &acc, 1)
        }
    };

    if let (Some(path), Some(rec)) = (&opts.capture, &recorder) {
        let set = rec.snapshot();
        match std::fs::write(path, write_movement_set(&set)) {
            Ok(()) => eprintln!(
                "captured {} movement pairs to {}",
                set.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if opts.verbose {
        let t = totals.take();
        println!(
            "filter: proposals={} admitted={} rejected={} audited={} false_rejects={} \
             router_invocations={} audit_router_invocations={}",
            t.proposals,
            t.admitted,
            t.rejected,
            t.audited,
            t.false_rejects,
            t.router_invocations,
            t.audit_router_invocations
        );
    }

    match (outcome.ii, mapping) {
        (Some(ii), Some(m)) => {
            m.verify().expect("mapping invariants hold");
            println!(
                "mapped at II {ii} in {:.2?}: {} routing cells, makespan {}",
                outcome.compile_time,
                outcome.routing_cells,
                m.makespan()
            );
            if opts.show {
                println!("{}", render(&m));
            }
        }
        _ => {
            println!(
                "could not map within II {} (took {:.2?})",
                opts.max_ii, outcome.compile_time
            );
            std::process::exit(1);
        }
    }
}
