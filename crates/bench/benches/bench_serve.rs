//! Benches for the serving daemon: per-tier response cost (memory hit,
//! disk hit, full compute), a memory hit over loopback TCP through
//! `serve_tcp` (on a kept connection and on one connection per request),
//! and a load-generator replay that reports the service-level numbers —
//! cache-hit rate, p50/p99 latency, and mappings/sec — for a mixed trace
//! of repeated and unique requests.

use std::cell::Cell;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa_arch::Accelerator;
use lisa_bench::timing::Suite;
use lisa_core::{Lisa, LisaConfig, MapRequest, ModelRegistry};
use lisa_dfg::polybench;
use lisa_events::EventSink;
use lisa_serve::protocol::{read_frame, write_frame};
use lisa_serve::{serve_tcp, ServeConfig, ServeEngine};

fn registry() -> ModelRegistry {
    let acc = Accelerator::standard("4x4").expect("standard catalog has 4x4");
    let config = LisaConfig {
        training_dfgs: 6,
        ..LisaConfig::fast()
    };
    let lisa = Lisa::train_for(&acc, &config).expect("tiny training run completes");
    let mut registry = ModelRegistry::new();
    registry.insert(lisa).expect("fresh registry");
    registry
}

fn request(kernel: &str, seed: u64) -> String {
    MapRequest {
        accelerator: "4x4".to_string(),
        seed,
        max_ii: 8,
        strategy: Default::default(),
        dfg: polybench::kernel(kernel).expect("known kernel"),
    }
    .canonical_text()
}

fn engine(registry: ModelRegistry, config: ServeConfig) -> ServeEngine {
    ServeEngine::new(registry, config, EventSink::null()).expect("engine starts")
}

/// Replays `trace` through the engine from `threads` client threads and
/// returns the per-request latencies in submission order per thread.
fn replay(engine: &Arc<ServeEngine>, trace: &[Arc<String>], threads: usize) -> Vec<Duration> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let engine = engine.clone();
                let slice: Vec<Arc<String>> =
                    trace.iter().skip(t).step_by(threads).cloned().collect();
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(slice.len());
                    for req in &slice {
                        let t0 = Instant::now();
                        let (_, _) = engine.handle(req);
                        latencies.push(t0.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Sends one frame and returns the daemon's answer.
fn exchange(conn: &mut TcpStream, payload: &[u8]) -> Vec<u8> {
    write_frame(conn, payload).expect("loopback send");
    read_frame(conn)
        .expect("loopback receive")
        .expect("daemon answers every frame")
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// One mixed trace: `unique` distinct requests, each repeated `repeats`
/// times, interleaved — the shape a compiler-service cache lives on.
fn mixed_trace(unique: usize, repeats: usize) -> Vec<Arc<String>> {
    let kernels = ["gemm", "atax", "bicg", "mvt"];
    let uniques: Vec<Arc<String>> = (0..unique)
        .map(|i| Arc::new(request(kernels[i % kernels.len()], 3000 + i as u64)))
        .collect();
    let mut trace = Vec::with_capacity(unique * repeats);
    for round in 0..repeats {
        for i in 0..unique {
            // Stagger rounds so repeats of one request are spread out.
            trace.push(uniques[(i + round) % unique].clone());
        }
    }
    trace
}

fn main() {
    let mut suite = Suite::from_args("serve");

    // One tiny model trained once; every engine below shares its text.
    let model_text = {
        let reg = registry();
        reg.get("4x4").expect("4x4 model resident").export_model()
    };
    let import = |text: &str| {
        let mut reg = ModelRegistry::new();
        reg.insert(Lisa::import_model(&LisaConfig::fast(), text).expect("model re-imports"))
            .expect("fresh registry");
        reg
    };

    // Memory-tier hit: the request is resident in the LRU.
    let warm = engine(import(&model_text), ServeConfig::default());
    let req = request("gemm", 2022);
    let _ = warm.handle(&req);
    suite.bench("engine/hit_memory", || {
        std::hint::black_box(warm.handle(&req));
    });

    // The same memory hit across the transport: `serve_tcp` on loopback,
    // once over a kept connection and once with a connection per request,
    // as `lisa-serve client` makes.
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound address");
    let tcp = Arc::new(engine(import(&model_text), ServeConfig::default()));
    let _ = tcp.handle(&req);
    let server = {
        let tcp = tcp.clone();
        std::thread::spawn(move || serve_tcp(tcp, listener))
    };
    let mut kept = TcpStream::connect(addr).expect("loopback connect");
    suite.bench("tcp/kept_hit_memory", || {
        std::hint::black_box(exchange(&mut kept, req.as_bytes()));
    });
    suite.bench("tcp/connect_hit_memory", || {
        let mut conn = TcpStream::connect(addr).expect("loopback connect");
        std::hint::black_box(exchange(&mut conn, req.as_bytes()));
    });
    exchange(&mut kept, b"shutdown");
    drop(kept);
    server
        .join()
        .expect("accept loop thread")
        .expect("accept loop");

    // Disk-tier hit: memory tier disabled, so every probe reads the
    // response file back (the restarted-daemon steady state).
    let disk_dir = std::env::temp_dir().join("lisa_bench_serve_disk");
    let _ = std::fs::remove_dir_all(&disk_dir);
    let disk_only = engine(
        import(&model_text),
        ServeConfig {
            mem_cache: 0,
            cache_dir: Some(disk_dir.clone()),
            ..ServeConfig::default()
        },
    );
    let _ = disk_only.handle(&req);
    suite.bench("engine/hit_disk", || {
        std::hint::black_box(disk_only.handle(&req));
    });

    // Full compute: a never-before-seen request every iteration (the
    // seed is part of the cache key), so the annealer runs each time.
    let cold = engine(import(&model_text), ServeConfig::default());
    let next_seed = Cell::new(10_000u64);
    suite.bench("engine/miss_compute", || {
        let seed = next_seed.get();
        next_seed.set(seed + 1);
        std::hint::black_box(cold.handle(&request("gemm", seed)));
    });

    // Load-generator replay: 6 unique requests x 4 repeats from 4 client
    // threads. The first pass reports the service-level numbers (hit
    // rate, p50/p99, mappings/sec); the registered bench then measures
    // steady-state (fully cached) replay throughput.
    let load = Arc::new(engine(
        import(&model_text),
        ServeConfig {
            workers: 2,
            queue: 24,
            ..ServeConfig::default()
        },
    ));
    let trace = mixed_trace(6, 4);
    let t0 = Instant::now();
    let mut latencies = replay(&load, &trace, 4);
    let wall = t0.elapsed();
    latencies.sort();
    let stats = load.stats();
    let hits = stats.hit_memory + stats.hit_disk + stats.coalesced;
    let hit_rate = 100.0 * hits as f64 / stats.requests as f64;
    let p50_ms = percentile(&latencies, 0.50).as_secs_f64() * 1e3;
    let p99_ms = percentile(&latencies, 0.99).as_secs_f64() * 1e3;
    let throughput = stats.requests as f64 / wall.as_secs_f64();
    println!(
        "serve-load: {} requests, hit_rate {hit_rate:.1}%, p50 {p50_ms:.2}ms, \
         p99 {p99_ms:.2}ms, {throughput:.1} mappings/sec",
        stats.requests,
    );
    // Also emit the service-level numbers through the JSON path so
    // BENCH_serve.json captures their trajectory across PRs.
    suite.metric("load/hit_rate_pct", hit_rate, "percent");
    suite.metric("load/p50_ms", p50_ms, "ms");
    suite.metric("load/p99_ms", p99_ms, "ms");
    suite.metric("load/mappings_per_sec", throughput, "per_sec");
    suite.bench("load/replay_24", || {
        std::hint::black_box(replay(&load, &trace, 4));
    });

    // Sustained load (heavy tier): a larger mixed trace with cold misses
    // on a fresh engine each iteration.
    let trace_heavy = mixed_trace(12, 8);
    suite.bench_heavy("load/sustained_96", || {
        let fresh = Arc::new(engine(
            import(&model_text),
            ServeConfig {
                workers: 4,
                queue: 96,
                ..ServeConfig::default()
            },
        ));
        std::hint::black_box(replay(&fresh, &trace_heavy, 8));
    });

    let _ = std::fs::remove_dir_all(&disk_dir);
    suite.finish();
}
