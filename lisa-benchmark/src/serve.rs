//! The serving workload: an in-process `lisa-serve` engine on loopback
//! TCP with a memory tier a quarter the size of the key space and a fresh
//! disk tier, driven by two client threads.
//!
//! * Warm-up: a seeded half of the keys is computed in process, so the
//!   phases below see memory hits, disk hits and misses.
//! * Phase A, open loop of independent users: seeded Poisson arrivals over
//!   Zipf-drawn keys, one connection per request as `lisa-serve client`
//!   makes. A request is timed from when it was due, so a stall also
//!   charges the requests queued behind it; how late the generator sent
//!   is recorded.
//! * Phase B, closed loop of two callers that keep their connection and
//!   send each request once the previous reply is in; its rate is the
//!   served capacity.
//!
//! Phase A does not keep connections because a kept connection that goes
//! idle between requests turns the receiver's delayed acknowledgements on
//! and off, which makes its latencies bimodal from run to run. Phase B
//! keeps them busy, so they stay on.
//!
//! The engine always runs behind the program's own `serve_tcp`, and the
//! client sockets set `TCP_NODELAY`, so time the transport adds belongs
//! to the server's sockets. Traced, the engine's event sink feeds an
//! observer: its `ServeResponded` events give the time spent in
//! `ServeEngine::handle` per disposition, and the rest of each client
//! exchange — framing, socket I/O, waiting on acknowledgements — is the
//! transport's.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lisa_arch::Accelerator;
use lisa_core::ModelRegistry;
use lisa_dfg::{polybench, Dfg};
use lisa_events::EventSink;
use lisa_mapper::schedule::mii;
use lisa_mapper::StrategySpec;
use lisa_serve::protocol::{read_frame, response_status, write_frame};
use lisa_serve::{serve_tcp, ServeConfig, ServeEngine, StatsSnapshot};

use crate::check::check_mapping;
use crate::inputs::{self, Zipf};
use crate::map::{set_latency_metrics, Quality, Tracer};
use crate::report::Report;
use crate::stats;
use crate::trace::{TallyObserver, Trace, OP};
use crate::Scale;

/// Target accelerator of every request.
const ACCELERATOR: &str = "4x4";
/// Request seeds per kernel: 12 kernels × 40 seeds = 480 keys.
const SEEDS_PER_KERNEL: usize = 40;
/// Memory-tier entries: a quarter of the key space.
const MEM_CACHE: usize = 120;
/// Share of the keys computed before the phases.
const WARM_SHARE: f64 = 0.5;
/// Phase A arrival rate, requests per second.
const RATE: f64 = 50.0;
/// Share of `--seconds` phase A spends at [`RATE`].
const PHASE_A_SHARE: f64 = 0.6;
/// Phase B requests per second of `--seconds`.
const PHASE_B_PER_SECOND: f64 = 12.0;
/// Latency objective recorded with the phase A results.
const SLO_MS: f64 = 100.0;

/// One request of a phase: its key and, in the open loop, when it is due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    /// Index into the key space.
    pub key: usize,
    /// Offset from the phase start; `None` in the closed loop.
    pub due: Option<Duration>,
}

/// Everything a serving run needs, built by [`setup`].
pub struct ServeSetup {
    engine: Arc<ServeEngine>,
    addr: SocketAddr,
    server: JoinHandle<io::Result<()>>,
    /// The engine's observer in a traced run.
    tally: Option<Arc<TallyObserver>>,
    cache_dir: PathBuf,
    kernels: Vec<(Dfg, u32)>,
    seeds: Vec<u64>,
    texts: Vec<String>,
    warm: Vec<usize>,
    phase_a: Vec<Scheduled>,
    phase_b: Vec<Scheduled>,
}

/// The seeded request streams: the key documents' seeds, the warm set,
/// phase A (keys and due times), phase B (keys).
pub fn schedule(
    seed: u64,
    scale: Scale,
    keys: usize,
) -> (Vec<u64>, Vec<usize>, Vec<Scheduled>, Vec<Scheduled>) {
    let mut rng = inputs::stream(seed, "serve-zipf");
    let seeds = (0..SEEDS_PER_KERNEL).map(|_| rng.next_u64()).collect();
    let mut warm: Vec<usize> = (0..keys).collect();
    rng.shuffle(&mut warm);
    let zipf = Zipf::new(keys, &mut rng);
    let (n_a, n_b, rate) = if scale.smoke {
        warm.truncate(4);
        (8, 8, 200.0)
    } else {
        warm.truncate((keys as f64 * WARM_SHARE) as usize);
        (
            (scale.seconds * PHASE_A_SHARE * RATE).round() as usize,
            (scale.seconds * PHASE_B_PER_SECOND).round() as usize,
            RATE,
        )
    };
    let due = inputs::poisson_arrivals(&mut rng, n_a, rate);
    let phase_a = due
        .into_iter()
        .map(|due| Scheduled {
            key: zipf.sample(&mut rng),
            due: Some(due),
        })
        .collect();
    let phase_b = (0..n_b)
        .map(|_| Scheduled {
            key: zipf.sample(&mut rng),
            due: None,
        })
        .collect();
    (seeds, warm, phase_a, phase_b)
}

/// Imports the model, starts an engine with a fresh disk tier behind a
/// loopback listener, and builds the request documents and streams.
pub fn setup(
    seed: u64,
    scale: Scale,
    traced: bool,
    run_dir: PathBuf,
) -> Result<ServeSetup, String> {
    let acc = Accelerator::standard(ACCELERATOR).ok_or("unknown accelerator")?;
    let kernels: Vec<(Dfg, u32)> = polybench::KERNEL_NAMES
        .iter()
        .map(|n| {
            let dfg = polybench::kernel(n).map_err(|e| e.to_string())?;
            let bound = mii(&dfg, &acc);
            Ok((dfg, bound))
        })
        .collect::<Result<_, String>>()?;
    let keys = kernels.len() * SEEDS_PER_KERNEL;
    let (seeds, warm, phase_a, phase_b) = schedule(seed, scale, keys);
    let strategy = StrategySpec::default();
    let texts = (0..keys)
        .map(|k| {
            let (dfg, _) = &kernels[k % kernels.len()];
            inputs::request_text(ACCELERATOR, seeds[k / kernels.len()], &strategy, dfg)
        })
        .collect();

    let mut registry = ModelRegistry::new();
    registry
        .insert(inputs::load_model(ACCELERATOR)?)
        .map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&run_dir);
    let config = ServeConfig {
        mem_cache: MEM_CACHE,
        cache_dir: Some(run_dir.clone()),
        ..ServeConfig::default()
    };
    let tally = traced.then(|| Arc::new(TallyObserver::default()));
    let sink = match &tally {
        Some(tally) => EventSink::new(tally.clone()),
        None => EventSink::null(),
    };
    let engine = Arc::new(
        ServeEngine::new(registry, config, sink)
            .map_err(|e| format!("starting the engine: {e}"))?,
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = {
        let engine = engine.clone();
        std::thread::spawn(move || serve_tcp(engine, listener))
    };
    Ok(ServeSetup {
        engine,
        addr,
        server,
        tally,
        cache_dir: run_dir,
        kernels,
        seeds,
        texts,
        warm,
        phase_a,
        phase_b,
    })
}

/// Stops the server, waits for it, and removes the disk tier.
pub fn teardown(setup: ServeSetup) -> Result<(), String> {
    let stopped = (|| -> io::Result<()> {
        let mut conn = TcpStream::connect(setup.addr)?;
        write_frame(&mut conn, b"shutdown")?;
        read_frame(&mut conn)?;
        Ok(())
    })();
    let joined = setup.server.join();
    let _ = std::fs::remove_dir_all(&setup.cache_dir);
    stopped.map_err(|e| format!("stopping the server: {e}"))?;
    match joined {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server: {e}")),
        Err(_) => Err("server thread panicked".to_string()),
    }
}

/// One request as the client saw it.
#[derive(Debug)]
pub struct Sample {
    /// Index in the phase schedule.
    pub index: usize,
    /// When the request was due (the send time in the closed loop).
    pub due: Instant,
    /// When the client started sending it.
    pub sent: Instant,
    /// When the response had arrived.
    pub received: Instant,
    /// The response, or the transport error.
    pub result: Result<Vec<u8>, String>,
}

/// How a client sends a request and waits for its response. Replaced by
/// a stalling fake in tests.
pub trait Exchange: Send {
    /// Sends `text` and waits for the response.
    fn exchange(&mut self, text: &str) -> io::Result<Vec<u8>>;
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn send(stream: &mut TcpStream, text: &str) -> io::Result<Vec<u8>> {
    write_frame(stream, text.as_bytes())?;
    read_frame(stream)?.ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
}

/// A caller that keeps its connection and sends each request once the
/// previous reply is in (phase B).
struct Persistent(TcpStream);

impl Exchange for Persistent {
    fn exchange(&mut self, text: &str) -> io::Result<Vec<u8>> {
        send(&mut self.0, text)
    }
}

/// An independent user: one connection per request, the way
/// `lisa-serve client` sends one (phase A).
struct PerRequest(SocketAddr);

impl Exchange for PerRequest {
    fn exchange(&mut self, text: &str) -> io::Result<Vec<u8>> {
        send(&mut connect(self.0)?, text)
    }
}

/// Runs one phase over the clients, each taking the next request as soon
/// as it is free and, in the open loop, not before it is due. Returns the
/// samples in schedule order and the phase's wall time.
pub fn run_phase<C: Exchange>(
    clients: &mut [C],
    texts: &[String],
    schedule: &[Scheduled],
) -> (Vec<Sample>, Duration) {
    let cursor = AtomicUsize::new(0);
    let origin = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = schedule.get(index) else {
                            break;
                        };
                        let due = req.due.map(|d| origin + d);
                        if let Some(due) = due {
                            std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        }
                        let sent = Instant::now();
                        let result = client.exchange(&texts[req.key]).map_err(|e| e.to_string());
                        let received = Instant::now();
                        out.push(Sample {
                            index,
                            due: due.unwrap_or(sent),
                            sent,
                            received,
                            result,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall = origin.elapsed();
    samples.sort_by_key(|s| s.index);
    (samples, wall)
}

/// The `ii` line of an `ok` response body.
fn body_ii(body: &str) -> Option<u32> {
    body.lines()
        .find_map(|l| l.strip_prefix("ii "))
        .and_then(|v| v.parse().ok())
}

/// First answer per key; every later answer must repeat it byte for byte,
/// and every status must be `ok` or `unmappable`.
#[derive(Default)]
struct Answers {
    first: BTreeMap<usize, Arc<String>>,
}

impl Answers {
    fn check(&mut self, key: usize, body: &str, report: &mut Report) {
        match response_status(body) {
            Some("ok" | "unmappable") => {}
            other => {
                report.fail(format!("key {key}: status {other:?}"));
                return;
            }
        }
        match self.first.get(&key) {
            Some(first) if first.as_str() != body => {
                report.fail(format!("key {key}: a repeat differs from its first answer"));
            }
            Some(_) => {}
            None => {
                self.first.insert(key, Arc::new(body.to_string()));
            }
        }
    }
}

/// Runs warm-up, phase A and phase B, and checks every response. A traced
/// setup also yields the per-layer metrics.
pub fn run(setup: &ServeSetup, report: &mut Report) {
    let mut answers = Answers::default();
    let warmed = lisa_mapper::portfolio::par_map(2, setup.warm.clone(), |_, key| {
        (key, setup.engine.handle(&setup.texts[key]).0)
    });
    for (key, body) in warmed {
        report.attempted += 1;
        answers.check(key, &body, report);
    }

    if let Some(tally) = &setup.tally {
        tally.take();
    }
    let before_a = setup.engine.stats();
    let mut users = [PerRequest(setup.addr), PerRequest(setup.addr)];
    let (phase_a, _) = run_phase(&mut users, &setup.texts, &setup.phase_a);
    let after_a = setup.engine.stats();
    let callers = (0..2)
        .map(|_| connect(setup.addr).map(Persistent))
        .collect::<io::Result<Vec<_>>>();
    let mut callers = match callers {
        Ok(callers) => callers,
        Err(e) => {
            report.fail(format!("connecting: {e}"));
            return;
        }
    };
    let (phase_b, wall_b) = run_phase(&mut callers, &setup.texts, &setup.phase_b);
    drop(callers);
    let after_b = setup.engine.stats();

    let phases = [
        (&phase_a[..], &setup.phase_a[..]),
        (&phase_b[..], &setup.phase_b[..]),
    ];
    for (samples, schedule) in phases {
        for sample in samples {
            report.attempted += 1;
            let key = schedule[sample.index].key;
            match &sample.result {
                Ok(bytes) => match std::str::from_utf8(bytes) {
                    Ok(body) => answers.check(key, body, report),
                    Err(_) => report.fail(format!("key {key}: response is not UTF-8")),
                },
                Err(e) => report.fail(format!("key {key}: {e}")),
            }
        }
    }

    // The kernel a request maps is its input program.
    let latencies: Vec<(usize, f64)> = phase_a
        .iter()
        .map(|s| {
            let kernel = setup.phase_a[s.index].key % setup.kernels.len();
            (kernel, (s.received - s.due).as_secs_f64() * 1e3)
        })
        .collect();
    if latencies.is_empty() || phase_b.is_empty() {
        report.fail("a phase completed no request".to_string());
        return;
    }
    set_latency_metrics(report, &latencies, setup.phase_a.len());
    let late: Vec<f64> = phase_a
        .iter()
        .map(|s| (s.sent - s.due).as_secs_f64() * 1e3)
        .collect();
    let over_slo = latencies.iter().filter(|&&(_, l)| l > SLO_MS).count();
    report.note(format!(
        "phase A: {} requests at {RATE}/s; generator late p50 {:.3} ms, p99 {:.3} ms; \
         {over_slo} over the {SLO_MS} ms objective",
        latencies.len(),
        stats::median(&late),
        stats::percentile(&late, 99.0),
    ));
    report.set(
        "serve.slo_miss_frac",
        over_slo as f64 / latencies.len() as f64,
    );
    report.set("ops_per_s", phase_b.len() as f64 / wall_b.as_secs_f64());

    let mut quality = Quality::default();
    for (&key, body) in &answers.first {
        let (_, bound) = &setup.kernels[key % setup.kernels.len()];
        if let Err(e) = quality.push(body_ii(body), *bound) {
            report.fail(format!("key {key}: {e}"));
        }
    }
    quality.report(report);

    set_cache_fractions(report, before_a, after_a);
    if let Some(tally) = &setup.tally {
        let tally = tally.take();
        let trace = phase_trace(&phases, &tally.handled);
        let observing = tally.observing.as_secs_f64();
        report.set("trace.overhead", observing / trace.op_total());
        report.trace = Some(trace);
        // The disk tier keeps every answer, so each key the warm-up left
        // out was computed once, by the first phase request for it.
        let warm: BTreeSet<usize> = setup.warm.iter().copied().collect();
        let mut computed: Vec<usize> = Vec::new();
        for (_, schedule) in phases {
            for s in schedule {
                if !warm.contains(&s.key) && !computed.contains(&s.key) {
                    computed.push(s.key);
                }
            }
        }
        let anneals = after_b.anneals - before_a.anneals;
        if computed.len() as u64 != anneals {
            report.fail(format!(
                "the phases computed {anneals} keys, {} were never answered before",
                computed.len()
            ));
        }
        replay(setup, &computed, &answers, report);
    }
}

/// Memory hits, disk hits, misses and coalesced waits as shares of the
/// phase A requests.
fn set_cache_fractions(report: &mut Report, before: StatsSnapshot, after: StatsSnapshot) {
    let requests = (after.requests - before.requests).max(1) as f64;
    let share = |a: u64, b: u64| (a - b) as f64 / requests;
    report.set(
        "serve.hit_memory_frac",
        share(after.hit_memory, before.hit_memory),
    );
    report.set(
        "serve.hit_disk_frac",
        share(after.hit_disk, before.hit_disk),
    );
    report.set("serve.miss_frac", share(after.anneals, before.anneals));
    report.set(
        "serve.coalesced_frac",
        share(after.coalesced, before.coalesced),
    );
}

/// Row names of the time `ServeEngine::handle` spent per disposition. An
/// `overloaded` or `error` answer fails the response check instead.
const HANDLE_ROWS: [(&str, &str); 4] = [
    ("hit_memory", "serve.handle.hit_memory"),
    ("hit_disk", "serve.handle.hit_disk"),
    ("computed", "serve.handle.computed"),
    ("coalesced", "serve.handle.coalesced"),
];

/// Builds the trace of both phases: per request, the wait for a free
/// client (`serve.queue`, open loop only), then the exchange
/// (`serve.transport`). The engine's summed `handle` time per disposition
/// is carved out of the exchanges, so the transport row keeps what the
/// sockets and framing add.
fn phase_trace(
    phases: &[(&[Sample], &[Scheduled])],
    handled: &BTreeMap<&'static str, (usize, Duration)>,
) -> Trace {
    let origin = phases
        .iter()
        .flat_map(|(samples, _)| samples.iter().map(|s| s.due))
        .min()
        .unwrap_or_else(Instant::now);
    let mut trace = Trace::new(origin);
    let mut request = 0;
    for (samples, _) in phases {
        for s in samples.iter().filter(|s| s.result.is_ok()) {
            let root = trace.record(None, OP, s.due, s.received, request, vec![]);
            if s.sent > s.due {
                trace.record(Some(root), "serve.queue", s.due, s.sent, request, vec![]);
            }
            trace.record(
                Some(root),
                "serve.transport",
                s.sent,
                s.received,
                request,
                vec![],
            );
            request += 1;
        }
    }
    for (disposition, row) in HANDLE_ROWS {
        if let Some(&(calls, total)) = handled.get(disposition) {
            trace.carve("serve.transport", row, calls, total.as_secs_f64());
        }
    }
    trace
}

/// Replays the computed keys attempt by attempt for the mapper counters;
/// each replay must reach the II the server answered with, and its
/// mapping must pass the checker.
fn replay(setup: &ServeSetup, keys: &[usize], answers: &Answers, report: &mut Report) {
    let model = match inputs::load_model(ACCELERATOR) {
        Ok(model) => model,
        Err(e) => {
            report.fail(e);
            return;
        }
    };
    let acc = Accelerator::standard(ACCELERATOR).expect("catalog accelerator");
    let strategy = StrategySpec::default();
    let mut tracer = Tracer::new(false, inputs::import_config().sa);
    for (i, &key) in keys.iter().enumerate() {
        let (dfg, _) = &setup.kernels[key % setup.kernels.len()];
        let seed = setup.seeds[key / setup.kernels.len()];
        let view = tracer.map(i, &model, dfg, &acc, seed, &strategy);
        let served = answers.first.get(&key).and_then(|b| body_ii(b));
        if view.as_ref().map(|v| v.ii) != served {
            report.fail(format!("key {key}: served II {served:?}, replay {view:?}"));
        } else if let Some(view) = &view {
            if let Err(e) = check_mapping(view, dfg, &acc) {
                report.fail(format!("key {key}: {e}"));
            }
        }
    }
    tracer.finish(report);
    let probes: Vec<(&Dfg, &lisa_core::Lisa, &Accelerator)> = setup
        .kernels
        .iter()
        .map(|(d, _)| (d, &model, &acc))
        .collect();
    crate::probe::run(&probes, &strategy, report);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers each request after `stall`, but the first request stalls
    /// for `first_stall` instead.
    struct StallingServer {
        exchanges: usize,
        first_stall: Duration,
        stall: Duration,
    }

    impl Exchange for StallingServer {
        fn exchange(&mut self, _text: &str) -> io::Result<Vec<u8>> {
            let stall = if self.exchanges == 0 {
                self.first_stall
            } else {
                self.stall
            };
            self.exchanges += 1;
            std::thread::sleep(stall);
            Ok(b"lisa-response v1\nstatus ok\n".to_vec())
        }
    }

    #[test]
    fn open_loop_latency_is_charged_from_the_due_time() {
        let texts = vec![String::new()];
        let schedule: Vec<Scheduled> = (0..4)
            .map(|i| Scheduled {
                key: 0,
                due: Some(Duration::from_millis(10 * i)),
            })
            .collect();
        let mut server = [StallingServer {
            exchanges: 0,
            first_stall: Duration::from_millis(80),
            stall: Duration::from_millis(1),
        }];
        let (samples, _) = run_phase(&mut server, &texts, &schedule);
        assert_eq!(samples.len(), 4);
        // Requests due during the stall were sent late, and their latency
        // counts the wait: the last was due at 30 ms and answered after
        // about 82 ms.
        for s in &samples[1..] {
            assert!(s.sent - s.due >= Duration::from_millis(40), "{s:?}");
            assert!(s.received - s.due >= Duration::from_millis(50), "{s:?}");
        }
    }

    #[test]
    fn schedules_are_identical_for_a_seed() {
        let scale = Scale {
            seconds: 5.0,
            smoke: false,
        };
        let a = schedule(7, scale, 240);
        assert_eq!(a, schedule(7, scale, 240));
        assert_ne!(a.2, schedule(8, scale, 240).2);
        let (seeds, warm, phase_a, phase_b) = a;
        assert_eq!(seeds.len(), SEEDS_PER_KERNEL);
        assert_eq!(warm.len(), 120);
        assert_eq!(phase_a.len(), (5.0 * PHASE_A_SHARE * RATE) as usize);
        assert_eq!(phase_b.len(), (5.0 * PHASE_B_PER_SECOND) as usize);
        assert!(phase_a.windows(2).all(|w| w[0].due <= w[1].due));
    }
}
