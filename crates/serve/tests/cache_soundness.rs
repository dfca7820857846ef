//! Cache-soundness contract of the serving daemon: same request text and
//! same resident model → same hash → byte-identical response, from any
//! tier, in any process; and concurrent identical misses compute exactly
//! once.

use std::sync::{Arc, Barrier, OnceLock};

use lisa_core::{Lisa, LisaConfig, MapRequest, ModelRegistry};
use lisa_dfg::polybench;
use lisa_events::EventSink;
use lisa_serve::{Disposition, ServeConfig, ServeEngine};

/// One tiny 4x4 model, trained once and shared by every test (training
/// is the expensive part; the tests exercise serving, not training).
fn model_text() -> &'static str {
    static MODEL: OnceLock<String> = OnceLock::new();
    MODEL.get_or_init(|| train_tiny_model(LisaConfig::fast().seed))
}

fn train_tiny_model(seed: u64) -> String {
    let acc = lisa_arch::Accelerator::standard("4x4").unwrap();
    let config = LisaConfig {
        training_dfgs: 6,
        seed,
        ..LisaConfig::fast()
    };
    Lisa::train_for(&acc, &config)
        .expect("tiny training run completes")
        .export_model()
}

fn gemm_request() -> String {
    gemm_request_with_strategy("sa")
}

fn gemm_request_with_strategy(spec: &str) -> String {
    MapRequest {
        accelerator: "4x4".to_string(),
        seed: 2022,
        max_ii: 8,
        strategy: lisa_mapper::StrategySpec::parse(spec).unwrap(),
        dfg: polybench::kernel("gemm").unwrap(),
    }
    .canonical_text()
}

fn engine(config: ServeConfig) -> ServeEngine {
    engine_on(model_text(), config)
}

/// An engine serving one model, given as `lisa-model v1` text.
fn engine_on(model: &str, config: ServeConfig) -> ServeEngine {
    let mut registry = ModelRegistry::new();
    registry
        .insert(Lisa::import_model(&LisaConfig::fast(), model).unwrap())
        .unwrap();
    ServeEngine::new(registry, config, EventSink::null()).unwrap()
}

#[test]
fn repeated_request_is_a_byte_identical_cache_hit_without_annealing() {
    let engine = engine(ServeConfig::default());
    let request = gemm_request();

    let (first, d1) = engine.handle(&request);
    assert_eq!(d1, Disposition::Computed);
    assert!(first.contains("status ok"), "body was {first}");

    let (second, d2) = engine.handle(&request);
    assert_eq!(d2, Disposition::HitMemory);
    assert_eq!(*first, *second, "cache hit must be byte-identical");

    let stats = engine.stats();
    assert_eq!(stats.anneals, 1, "second request must not anneal");
    assert_eq!(stats.hit_memory, 1);

    // Formatting noise in the request text canonicalizes to the same key.
    let noisy = format!("{}\r\n", request.replace('\n', "\r\n"));
    let (third, d3) = engine.handle(&noisy);
    assert_eq!(d3, Disposition::HitMemory);
    assert_eq!(*first, *third);
    assert_eq!(engine.stats().anneals, 1);
}

#[test]
fn disk_tier_serves_byte_identical_responses_across_restarts() {
    let dir = std::env::temp_dir().join("lisa_serve_restart_soundness");
    let _ = std::fs::remove_dir_all(&dir);
    let request = gemm_request();
    let config = ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let first_daemon = engine(config.clone());
    let (first, d1) = first_daemon.handle(&request);
    assert_eq!(d1, Disposition::Computed);
    drop(first_daemon);

    // A "restarted daemon": fresh process state, same cache directory.
    let second_daemon = engine(config);
    let (second, d2) = second_daemon.handle(&request);
    assert_eq!(d2, Disposition::HitDisk);
    assert_eq!(
        *first, *second,
        "disk-tier hit must be byte-identical across restarts"
    );
    assert_eq!(
        second_daemon.stats().anneals,
        0,
        "restarted daemon must serve the repeat from disk without annealing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_misses_compute_once() {
    let engine = Arc::new(engine(ServeConfig {
        workers: 4,
        queue: 16,
        ..ServeConfig::default()
    }));
    let request = Arc::new(gemm_request());
    let callers = 8;
    let barrier = Arc::new(Barrier::new(callers));

    let handles: Vec<_> = (0..callers)
        .map(|_| {
            let engine = engine.clone();
            let request = request.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                engine.handle(&request)
            })
        })
        .collect();
    let results: Vec<(Arc<String>, Disposition)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(
        engine.stats().anneals,
        1,
        "identical concurrent misses must single-flight into one computation"
    );
    let computed = results
        .iter()
        .filter(|(_, d)| *d == Disposition::Computed)
        .count();
    assert_eq!(computed, 1, "exactly one caller computes");
    for (body, disposition) in &results {
        assert!(
            matches!(
                disposition,
                Disposition::Computed | Disposition::Coalesced | Disposition::HitMemory
            ),
            "unexpected disposition {disposition:?}"
        );
        assert_eq!(**body, *results[0].0, "all callers get the same bytes");
    }
}

#[test]
fn strategy_selection_separates_keys_and_hits_across_tiers_and_restarts() {
    let dir = std::env::temp_dir().join("lisa_serve_strategy_soundness");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Requests differing only in strategy must have distinct cache keys…
    let sa = gemm_request_with_strategy("sa");
    let mixed = gemm_request_with_strategy("mixed");
    let constructive = gemm_request_with_strategy("constructive");
    let keys = [
        MapRequest::parse(&sa).unwrap().cache_key(),
        MapRequest::parse(&mixed).unwrap().cache_key(),
        MapRequest::parse(&constructive).unwrap().cache_key(),
    ];
    let mut unique = keys.to_vec();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), keys.len(), "strategy did not separate keys");
    // …while alias spellings of the same mix share one key (one cached
    // computation, not two).
    assert_eq!(
        MapRequest::parse(&mixed).unwrap().cache_key(),
        MapRequest::parse(&gemm_request_with_strategy("constructive,sa"))
            .unwrap()
            .cache_key()
    );

    // Each strategy computes once and then hits the memory tier with
    // byte-identical bodies.
    let first_daemon = engine(config.clone());
    let mut firsts = Vec::new();
    for request in [&sa, &mixed, &constructive] {
        let (body, d) = first_daemon.handle(request);
        assert_eq!(d, Disposition::Computed);
        assert!(body.contains("status ok"), "body was {body}");
        let (again, d) = first_daemon.handle(request);
        assert_eq!(d, Disposition::HitMemory);
        assert_eq!(*body, *again, "memory hit must be byte-identical");
        firsts.push(body);
    }
    drop(first_daemon);

    // A restarted daemon answers every strategy from the disk tier,
    // byte-identically, without annealing.
    let second_daemon = engine(config);
    for (request, first) in [&sa, &mixed, &constructive].into_iter().zip(&firsts) {
        let (body, d) = second_daemon.handle(request);
        assert_eq!(d, Disposition::HitDisk);
        assert_eq!(**first, *body, "disk hit must be byte-identical");
    }
    assert_eq!(second_daemon.stats().anneals, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restart_on_another_model_recomputes_instead_of_serving_the_old_mapping() {
    let dir = std::env::temp_dir().join("lisa_serve_model_key_soundness");
    let _ = std::fs::remove_dir_all(&dir);
    let request = gemm_request();
    let config = ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let first_daemon = engine(config.clone());
    let (first, d1) = first_daemon.handle(&request);
    assert_eq!(d1, Disposition::Computed);
    drop(first_daemon);

    // The same configuration at another seed trains another model.
    let other = train_tiny_model(LisaConfig::fast().seed + 1);
    assert_ne!(other, model_text());
    let restarted = engine_on(&other, config);
    let (body, d2) = restarted.handle(&request);
    assert_eq!(
        d2,
        Disposition::Computed,
        "a disk entry written under another model must not be served"
    );
    assert_eq!(restarted.stats().hit_disk, 0);

    let cacheless = engine_on(
        &other,
        ServeConfig {
            mem_cache: 0,
            ..ServeConfig::default()
        },
    );
    let (fresh, _) = cacheless.handle(&request);
    assert_eq!(*body, *fresh, "the answer is the resident model's mapping");
    assert_ne!(*body, *first, "the two models map gemm differently");
    let _ = std::fs::remove_dir_all(&dir);
}
