//! `lisa-serve` — the mapping-as-a-service daemon and its client.
//!
//! ```text
//! lisa-serve serve [--model <path>]... [--models <dir>]
//!            [--listen <addr>] [--stdio] [--port-file <path>]
//!            [--cache-dir <dir>] [--cache-mem <n>]
//!            [--workers <n>] [--queue <n>] [--parallelism <n>]
//!            [--events <path>] [--verbose]
//!
//! lisa-serve client [--connect <addr>] [--kernel <spec>]
//!            [--arch <key>] [--seed <n>] [--max-ii <n>] [--strategy <spec>]
//!            [--stats] [--shutdown]
//! ```
//!
//! The daemon loads each `lisa-model v1` once (`--model` per file,
//! `--models` for a directory of `*.model`/`*.lisa-model` files) and
//! serves mapping requests over the length-prefixed frame protocol —
//! on a TCP listener (`--listen`, default `127.0.0.1:0`; the bound
//! address goes to stderr and, with `--port-file`, to a file scripts
//! can read) or on stdin/stdout (`--stdio`). Identical requests are
//! answered from the two-tier result cache: an in-memory LRU
//! (`--cache-mem` entries) over an optional on-disk directory
//! (`--cache-dir`) that survives restarts. At most `--workers`
//! computations run at once with `--queue` more waiting; beyond that
//! requests are rejected with `status overloaded`. `--events` appends
//! per-request telemetry as JSONL.
//!
//! The client builds a `lisa-request v1` document from a kernel spec
//! (a PolyBench name, `core:<kernel>`, or `rand:<seed>`), sends it,
//! and prints the response on stdout. `--stats` fetches the daemon
//! counters; `--shutdown` stops the daemon. Exit status 1 means the
//! final response was `error` or `overloaded`.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use lisa::core::{LisaConfig, MapRequest, ModelRegistry};
use lisa::dfg::{generate_random_dfg, polybench, Dfg, RandomDfgConfig};
use lisa::events::{EventSink, JsonlObserver, MultiObserver, Observer, StderrObserver};
use lisa::serve::protocol::{read_frame, response_status, write_frame};
use lisa::serve::{serve_connection, serve_tcp, ServeConfig, ServeEngine};

struct ServeOptions {
    models: Vec<PathBuf>,
    model_dirs: Vec<PathBuf>,
    listen: String,
    stdio: bool,
    port_file: Option<PathBuf>,
    events: Option<PathBuf>,
    verbose: bool,
    config: ServeConfig,
}

struct ClientOptions {
    connect: String,
    kernel: Option<String>,
    arch: String,
    seed: u64,
    max_ii: u32,
    strategy: lisa::mapper::StrategySpec,
    stats: bool,
    shutdown: bool,
}

fn usage() -> String {
    "usage: lisa-serve serve [--model path]... [--models dir] [--listen addr] [--stdio] \
     [--port-file path] [--cache-dir dir] [--cache-mem n] [--workers n] [--queue n] \
     [--parallelism n] [--events path] [--verbose]\n\
     \x20      lisa-serve client [--connect addr] [--kernel spec] [--arch key] [--seed n] \
     [--max-ii n] [--strategy sa|constructive|mixed|lane,lane,...] \
     [--stats] [--shutdown]"
        .to_string()
}

fn parse_serve_args() -> Result<ServeOptions, String> {
    let mut args = std::env::args().skip(2);
    let mut opts = ServeOptions {
        models: Vec::new(),
        model_dirs: Vec::new(),
        listen: "127.0.0.1:0".to_string(),
        stdio: false,
        port_file: None,
        events: None,
        verbose: false,
        config: ServeConfig::default(),
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--model" => opts.models.push(PathBuf::from(value("--model")?)),
            "--models" => opts.model_dirs.push(PathBuf::from(value("--models")?)),
            "--listen" => opts.listen = value("--listen")?,
            "--stdio" => opts.stdio = true,
            "--port-file" => opts.port_file = Some(PathBuf::from(value("--port-file")?)),
            "--cache-dir" => opts.config.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--cache-mem" => {
                opts.config.mem_cache = value("--cache-mem")?
                    .parse()
                    .map_err(|e| format!("bad --cache-mem: {e}"))?
            }
            "--workers" => {
                opts.config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?
            }
            "--queue" => {
                opts.config.queue = value("--queue")?
                    .parse()
                    .map_err(|e| format!("bad --queue: {e}"))?
            }
            "--parallelism" => {
                opts.config.parallelism = value("--parallelism")?
                    .parse()
                    .map_err(|e| format!("bad --parallelism: {e}"))?
            }
            "--events" => opts.events = Some(PathBuf::from(value("--events")?)),
            "--verbose" => opts.verbose = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if opts.models.is_empty() && opts.model_dirs.is_empty() {
        return Err(format!(
            "serve needs at least one --model or --models\n{}",
            usage()
        ));
    }
    Ok(opts)
}

fn parse_client_args() -> Result<ClientOptions, String> {
    let mut args = std::env::args().skip(2);
    let mut opts = ClientOptions {
        connect: "127.0.0.1:4161".to_string(),
        kernel: None,
        arch: "4x4".to_string(),
        seed: 2022,
        max_ii: 16,
        strategy: Default::default(),
        stats: false,
        shutdown: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--connect" => opts.connect = value("--connect")?,
            "--kernel" => opts.kernel = Some(value("--kernel")?),
            "--arch" => opts.arch = value("--arch")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--max-ii" => {
                opts.max_ii = value("--max-ii")?
                    .parse()
                    .map_err(|e| format!("bad --max-ii: {e}"))?
            }
            "--strategy" => {
                opts.strategy = lisa::mapper::StrategySpec::parse(&value("--strategy")?)
                    .map_err(|e| format!("bad --strategy: {e}"))?
            }
            "--stats" => opts.stats = true,
            "--shutdown" => opts.shutdown = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if opts.kernel.is_none() && !opts.stats && !opts.shutdown {
        return Err(format!(
            "client needs --kernel, --stats, or --shutdown\n{}",
            usage()
        ));
    }
    Ok(opts)
}

fn build_dfg(spec: &str) -> Result<Dfg, String> {
    if let Some(seed) = spec.strip_prefix("rand:") {
        let seed: u64 = seed.parse().map_err(|e| format!("bad rand seed: {e}"))?;
        Ok(generate_random_dfg(&RandomDfgConfig::default(), seed))
    } else if let Some(core) = spec.strip_prefix("core:") {
        polybench::kernel_core(core).map_err(|e| e.to_string())
    } else {
        polybench::kernel(spec).map_err(|e| e.to_string())
    }
}

fn build_sink(opts: &ServeOptions) -> Result<EventSink, String> {
    let mut observers: Vec<Arc<dyn Observer>> = Vec::new();
    if opts.verbose {
        observers.push(Arc::new(StderrObserver::verbose()));
    }
    if let Some(path) = &opts.events {
        let jsonl =
            JsonlObserver::to_file(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
        observers.push(Arc::new(jsonl));
    }
    Ok(match observers.len() {
        0 => EventSink::null(),
        1 => EventSink::new(observers.remove(0)),
        _ => EventSink::new(Arc::new(MultiObserver::new(observers))),
    })
}

fn run_serve(opts: ServeOptions) -> Result<(), String> {
    let config = LisaConfig::fast();
    let mut registry = ModelRegistry::new();
    for path in &opts.models {
        registry
            .load_file(path, &config)
            .map_err(|e| e.to_string())?;
    }
    for dir in &opts.model_dirs {
        registry.load_dir(dir, &config).map_err(|e| e.to_string())?;
    }
    let sink = build_sink(&opts)?;
    let engine = ServeEngine::new(registry, opts.config.clone(), sink)
        .map_err(|e| format!("starting engine: {e}"))?;
    let accelerators = engine.accelerators();
    eprintln!(
        "serving {} model(s): {}",
        accelerators.len(),
        accelerators.join(", ")
    );

    if opts.stdio {
        let mut stdin = std::io::stdin().lock();
        let mut stdout = std::io::stdout().lock();
        serve_connection(&engine, &mut stdin, &mut stdout)
            .map_err(|e| format!("stdio session: {e}"))?;
        return Ok(());
    }

    let listener =
        TcpListener::bind(&opts.listen).map_err(|e| format!("binding {}: {e}", opts.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    eprintln!("listening on {addr}");
    if let Some(path) = &opts.port_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    serve_tcp(Arc::new(engine), listener).map_err(|e| format!("serving: {e}"))?;
    eprintln!("shutdown complete");
    Ok(())
}

/// Sends one frame and prints the answer. Returns the response body.
fn exchange(conn: &mut TcpStream, payload: &[u8]) -> Result<String, String> {
    write_frame(conn, payload).map_err(|e| format!("send: {e}"))?;
    let frame = read_frame(conn)
        .map_err(|e| format!("receive: {e}"))?
        .ok_or_else(|| "daemon closed the connection".to_string())?;
    String::from_utf8(frame).map_err(|e| format!("non-UTF-8 response: {e}"))
}

fn run_client(opts: ClientOptions) -> Result<(), String> {
    // Build the request first: a bad kernel spec is a usage error whether
    // or not a daemon is listening.
    let request = match &opts.kernel {
        Some(spec) => Some(MapRequest {
            accelerator: opts.arch.clone(),
            seed: opts.seed,
            max_ii: opts.max_ii,
            strategy: opts.strategy.clone(),
            dfg: build_dfg(spec)?,
        }),
        None => None,
    };
    let mut conn = TcpStream::connect(&opts.connect)
        .map_err(|e| format!("connecting {}: {e}", opts.connect))?;

    let mut failed = false;
    if let Some(request) = &request {
        let body = exchange(&mut conn, request.canonical_text().as_bytes())?;
        print!("{body}");
        failed = matches!(response_status(&body), Some("error" | "overloaded") | None);
    }
    if opts.stats {
        print!("{}", exchange(&mut conn, b"stats")?);
    }
    if opts.shutdown {
        exchange(&mut conn, b"shutdown")?;
        eprintln!("daemon acknowledged shutdown");
    }
    if failed {
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    let mode = std::env::args().nth(1);
    let result = match mode.as_deref() {
        Some("serve") => parse_serve_args().and_then(run_serve),
        Some("client") => parse_client_args().and_then(run_client),
        Some("--help" | "-h") | None => Err(usage()),
        Some(other) => Err(format!("unknown mode {other}\n{}", usage())),
    };
    if let Err(msg) = result {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}
