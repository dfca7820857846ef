//! `lisa-benchmark`: the LISA compiler measured end to end and layer by
//! layer on four seeded workloads.
//!
//! ```text
//! lisa-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! lisa-benchmark --repeat N [--workload a,b,..] [--seed N] [--seconds S] [--trace 0|1]
//! lisa-benchmark --write-models
//! lisa-benchmark --workload <name> --setup-only [--seed N] [--seconds S]
//! ```
//!
//! One run times its workload's set-up, in its own process and in four
//! fresh ones started with `--setup-only` (`setup_s` is the median over
//! the five), measures the workload, checks every output from outside the
//! program, prints each metric as `metric <workload> <name> <value>
//! <unit>`, writes a JSON result under `target/benchmark/`, and ends
//! standard output with a one-line JSON summary. It exits non-zero when any check fails. See the
//! README next to this package for the workloads and metrics.

mod check;
mod inputs;
mod map;
mod port;
mod probe;
mod repeat;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{Metric, Report, END_TO_END, PER_LAYER};

/// Where results and traces are written, relative to the working
/// directory.
pub const OUT_DIR: &str = "target/benchmark";

/// The workloads, in the order `--repeat` starts from.
pub const WORKLOADS: [&str; 4] = ["map-fig9", "map-hard", "serve-zipf", "train-port"];

/// Batches of set-ups a process times; its set-up time is the median of
/// the batches' mean set-up time.
const SETUP_BATCHES: usize = 7;

/// Processes whose set-up times make `setup_s`: the run's own and fresh
/// ones started for nothing else. One set-up takes 0.1–8 ms, and its time
/// varies more between processes (by up to 80% on a shared host) than
/// within one, so `setup_s` is the median over processes.
const SETUP_PROCESSES: usize = 5;

/// Set-ups per batch: enough for a batch to take about 50 ms on a
/// two-core x86-64 machine, so the first, cold set-ups of a process weigh
/// little.
fn setup_batch(workload: &str, scale: Scale) -> usize {
    if scale.smoke {
        return 1;
    }
    match workload {
        "map-fig9" => 256,
        "map-hard" => 80,
        "serve-zipf" => 10,
        _ => 512,
    }
}

/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 24.0;

/// How much work a run plans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Seconds the run should measure for.
    pub seconds: f64,
    /// Toy sizes for the unit tests.
    pub smoke: bool,
}

/// A workload after set-up.
enum Setup {
    Map(map::MapWorkload, map::MapSetup),
    Serve(serve::ServeSetup),
    Port(Box<port::PortSetup>),
}

fn setup(
    workload: &str,
    seed: u64,
    scale: Scale,
    traced: bool,
    rep: usize,
) -> Result<Setup, String> {
    Ok(match workload {
        "map-fig9" => Setup::Map(map::FIG9, map::FIG9.setup(seed, scale, traced)?),
        "map-hard" => Setup::Map(map::HARD, map::HARD.setup(seed, scale, traced)?),
        "serve-zipf" => {
            let dir = PathBuf::from(OUT_DIR)
                .join(format!("serve-cache-{seed}-{}-{rep}", std::process::id()));
            Setup::Serve(serve::setup(seed, scale, traced, dir)?)
        }
        "train-port" => Setup::Port(Box::new(port::setup(seed, scale)?)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn teardown(setup: Setup) -> Result<(), String> {
    match setup {
        Setup::Serve(s) => serve::teardown(s),
        Setup::Map(..) | Setup::Port(_) => Ok(()),
    }
}

/// Per-layer counters of layers the workload never enters.
fn absent_counters(setup: &Setup) -> Vec<&'static str> {
    match setup {
        Setup::Map(..) => [&report::SERVE_COUNTERS[..], &report::PORT_COUNTERS].concat(),
        Setup::Serve(_) => report::PORT_COUNTERS.to_vec(),
        Setup::Port(_) => report::SERVE_COUNTERS.to_vec(),
    }
}

/// Sets up `workload` in [`SETUP_BATCHES`] batches, timing only the
/// set-ups, not the teardowns between them. Returns this process's
/// set-up time and the last set-up.
fn time_setups(
    workload: &str,
    seed: u64,
    scale: Scale,
    traced: bool,
) -> Result<(f64, Setup), String> {
    let batch = setup_batch(workload, scale);
    let mut batch_means = Vec::with_capacity(SETUP_BATCHES);
    let mut current = None;
    for b in 0..SETUP_BATCHES {
        let mut seconds = 0.0;
        for i in 0..batch {
            if let Some(previous) = current.take() {
                teardown(previous)?;
            }
            let started = Instant::now();
            current = Some(setup(workload, seed, scale, traced, b * batch + i)?);
            seconds += started.elapsed().as_secs_f64();
        }
        batch_means.push(seconds / batch as f64);
    }
    let current = current.expect("at least one set-up");
    Ok((stats::median(&batch_means), current))
}

/// Times the set-ups of `workload`, runs the last set-up, and returns
/// what it measured and checked; `setup_s` is this process's set-up time.
///
/// # Errors
///
/// Fails when the workload cannot be set up.
pub fn run_workload(
    workload: &str,
    seed: u64,
    scale: Scale,
    traced: bool,
) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, current) = time_setups(workload, seed, scale, traced)?;
    report.set("setup_s", setup_s);
    match &current {
        Setup::Map(w, s) => w.run(s, traced, &mut report),
        Setup::Serve(s) => serve::run(s, &mut report),
        Setup::Port(s) => port::run(s, traced, &mut report),
    }
    if traced {
        for name in absent_counters(&current) {
            report.set(name, 0.0);
        }
    }
    if let Err(e) = teardown(current) {
        report.fail(e);
    }
    match stats::peak_rss_mb() {
        Ok(mb) => report.set("peak_rss_mb", mb),
        Err(e) => report.fail(e),
    }
    if traced {
        set_shares(&mut report);
    }
    Ok(report)
}

/// Turns the trace into the `<span>.share` metrics; a span outside the
/// catalog is a failure, so every row is always reported.
fn set_shares(report: &mut Report) {
    let Some(table) = report.trace.as_ref().map(trace::Trace::table) else {
        report.fail("the traced run recorded no spans".to_string());
        return;
    };
    for name in table.rows.keys() {
        if !report::share_spans().any(|s| s == *name) {
            report.fail(format!("span `{name}` is not in the metric catalog"));
        }
    }
    for span in report::share_spans() {
        report.set(format!("{span}{}", report::SHARE), table.share(span));
    }
}

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: Option<usize>,
    write_models: bool,
    setup_only: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        repeat: None,
        write_models: false,
        setup_only: false,
    };
    let mut args = std::iter::from_fn(move || args.next()).peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                out.workloads = value("--workload")?
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !out.seconds.is_finite() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                // `--trace 0`, `--trace 1`, or a bare `--trace`.
                let value = args.next_if(|v| v == "0" || v == "1");
                out.traced = value.as_deref() != Some("0");
            }
            "--repeat" => {
                let n: usize = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                out.repeat = Some(n.max(1));
            }
            "--write-models" => out.write_models = true,
            "--setup-only" => out.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    for w in &out.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"));
        }
    }
    if out.workloads.is_empty() && out.repeat.is_some() {
        out.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if !out.write_models && out.repeat.is_none() && out.workloads.len() != 1 {
        return Err("give one --workload, --repeat N, or --write-models".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lisa-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_models {
        return match port::write_models() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("lisa-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(n) = args.repeat {
        return repeat::run(&args.workloads, args.seed, args.seconds, args.traced, n);
    }
    if let Err(e) = inputs::verify_pinned_models() {
        eprintln!("lisa-benchmark: refusing to start: {e}");
        return ExitCode::from(2);
    }
    let workload = args.workloads[0].as_str();
    let scale = Scale {
        seconds: args.seconds,
        smoke: false,
    };
    if args.setup_only {
        let timed = time_setups(workload, args.seed, scale, args.traced)
            .and_then(|(seconds, last)| teardown(last).map(|()| seconds));
        return match timed {
            Ok(seconds) => {
                println!("{seconds:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lisa-benchmark: {workload}: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut report = match run_workload(workload, args.seed, scale, args.traced) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lisa-benchmark: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.traced {
        match setup_in_fresh_processes(&args) {
            Ok(mut samples) => {
                samples.extend(report.values.get("setup_s"));
                report.set("setup_s", stats::median(&samples));
            }
            Err(e) => report.fail(e),
        }
    }
    let catalog: &[Metric] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let metrics = match report.select(catalog) {
        Ok(metrics) => metrics,
        Err(missing) => {
            report.fail(format!("metrics not measured: {missing:?}"));
            catalog
                .iter()
                .filter_map(|m| report.values.get(m.name).map(|&v| (*m, v)))
                .collect()
        }
    };
    emit(workload, args.seed, args.traced, &report, &metrics);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-up times of `SETUP_PROCESSES - 1` fresh processes, each started
/// with `--setup-only` and waited for in turn.
fn setup_in_fresh_processes(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    (1..SETUP_PROCESSES)
        .map(|_| {
            let output = Command::new(&exe)
                .args(["--workload", &args.workloads[0], "--setup-only"])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("starting a set-up process: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            match stdout.trim().parse() {
                Ok(seconds) if output.status.success() => Ok(seconds),
                _ => Err(format!("a set-up process failed ({})", output.status)),
            }
        })
        .collect()
}

/// Prints the run and writes its files; the summary line comes last.
fn emit(workload: &str, seed: u64, traced: bool, report: &Report, metrics: &[(Metric, f64)]) {
    if let Some(trace) = &report.trace {
        print!("{}", trace.table().render(workload));
    }
    for (metric, value) in metrics {
        println!(
            "metric {workload} {} {value:?} {}",
            metric.name, metric.unit
        );
    }
    for note in &report.notes {
        println!("note {workload} {note}");
    }
    for failure in &report.failures {
        eprintln!("check {workload} FAILED: {failure}");
    }
    let suffix = if traced { "-trace" } else { "" };
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            PathBuf::from(OUT_DIR).join(format!("{workload}-{seed}{suffix}.json")),
            report::result_json(workload, seed, traced, report, metrics),
        )?;
        if let Some(trace) = &report.trace {
            std::fs::write(
                PathBuf::from(OUT_DIR).join(format!("{workload}-{seed}.trace.jsonl")),
                trace.to_jsonl(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("lisa-benchmark: writing results under {OUT_DIR}: {e}");
    }
    println!("{}", report::summary_line(report, metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload map-fig9 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads, ["map-fig9"]);
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10.0, true));
        assert!(!args("--workload map-fig9 --trace 0").unwrap().traced);
        assert!(args("--workload map-fig9 --trace").unwrap().traced);
        assert!(args("--workload map-fig9 --setup-only").unwrap().setup_only);
        assert_eq!(args("--repeat 3").unwrap().workloads.len(), 4);
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload map-fig9 --seconds 0").is_err());
    }

    /// Every workload at toy size, untraced and traced: all checks pass
    /// and every metric of the mode is measured.
    #[test]
    fn smoke_runs_every_workload() {
        let scale = Scale {
            seconds: 1.0,
            smoke: true,
        };
        for workload in WORKLOADS {
            for traced in [false, true] {
                let report = run_workload(workload, 11, scale, traced).unwrap();
                assert!(
                    report.correct(),
                    "{workload} traced={traced}: {:?}",
                    report.failures
                );
                let catalog: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
                report
                    .select(catalog)
                    .unwrap_or_else(|m| panic!("{workload} traced={traced} lacks {m:?}"));
                if traced {
                    let table = report.trace.as_ref().unwrap().table();
                    let sum: f64 = table.rows.values().map(|r| r.own).sum();
                    assert!((sum - table.total).abs() <= 1e-9 * table.total.max(1.0));
                }
            }
        }
    }
}
