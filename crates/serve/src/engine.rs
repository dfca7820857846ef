//! Request handling: canonicalize → resolve the resident model → hash →
//! cache probe → single-flight compute under a bounded admission gate.
//!
//! The cache and single-flight key is FNV-1a 64 over the canonical
//! request text, the resident model's digest, and [`MAPPER_FORMAT`]: a
//! daemon restarted on the same cache directory with another model, or
//! with a mapper whose output changed, computes instead of answering
//! with the old mapping.
//!
//! Concurrency structure, outermost first:
//!
//! * **Single-flight.** Concurrent identical misses register one
//!   in-flight entry per key; one caller (the leader) computes, the rest
//!   block on the entry and receive the same shared body. Determinism
//!   makes this free: followers lose nothing by not computing.
//! * **Admission gate.** At most `workers` leaders compute at once; at
//!   most `queue` more may wait. Beyond that the daemon answers
//!   `status overloaded` immediately — explicit rejection instead of an
//!   unbounded queue (the backpressure contract).
//! * **II-search waves.** Inside one compute, `Lisa::map_request` runs
//!   the II search in waves of `parallelism` speculative IIs on
//!   `par_map` threads; each II's lane race runs on its wave thread, and
//!   thread count never changes the result.

use std::collections::{BTreeMap, HashMap};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use lisa_arch::Accelerator;
use lisa_core::request::fnv1a64;
use lisa_core::{Lisa, MapRequest, ModelRegistry};
use lisa_events::{EventSink, PipelineEvent};

use crate::cache::{CacheTier, ResultCache};
use crate::error::{ServeError, StartError};
use crate::lock_unpoisoned;
use crate::protocol::{render_error, render_ok, render_overloaded, render_unmappable};

/// Version of the mapper's output, hashed into every cache key. A change
/// that moves a golden digest (a mapping, an event stream, or trained
/// weights) bumps it, so no disk tier written before the change is
/// served after it.
pub const MAPPER_FORMAT: u32 = 1;

/// Daemon sizing knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Memory-tier capacity in entries (0 disables the tier).
    pub mem_cache: usize,
    /// Disk-tier directory (`None` disables the tier).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Concurrent mapping computations admitted.
    pub workers: usize,
    /// Requests allowed to wait for a compute slot before overload.
    pub queue: usize,
    /// Width of the II-search waves per computation: the `parallelism`
    /// passed to `Lisa::map_request`. Never changes the result.
    pub parallelism: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mem_cache: 256,
            cache_dir: None,
            workers: 2,
            queue: 8,
            parallelism: 1,
        }
    }
}

/// How one request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Answered from the in-memory tier.
    HitMemory,
    /// Answered from the on-disk tier.
    HitDisk,
    /// Computed by this request (the annealer ran).
    Computed,
    /// Waited on an identical in-flight computation.
    Coalesced,
    /// Rejected: workers and queue were full.
    Overloaded,
    /// Malformed request, unknown accelerator, or internal failure.
    Error,
}

impl Disposition {
    /// Stable snake_case name (telemetry and stats use it).
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::HitMemory => "hit_memory",
            Disposition::HitDisk => "hit_disk",
            Disposition::Computed => "computed",
            Disposition::Coalesced => "coalesced",
            Disposition::Overloaded => "overloaded",
            Disposition::Error => "error",
        }
    }
}

/// Monotonic counters, readable while the daemon runs.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    hit_memory: AtomicU64,
    hit_disk: AtomicU64,
    anneals: AtomicU64,
    coalesced: AtomicU64,
    overloaded: AtomicU64,
    errors: AtomicU64,
}

/// A point-in-time copy of the daemon counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests received (all dispositions).
    pub requests: u64,
    /// Memory-tier cache hits.
    pub hit_memory: u64,
    /// Disk-tier cache hits.
    pub hit_disk: u64,
    /// Annealer invocations (cache misses actually computed).
    pub anneals: u64,
    /// Requests served by waiting on an identical in-flight computation.
    pub coalesced: u64,
    /// Requests rejected for overload.
    pub overloaded: u64,
    /// Requests answered with `status error`.
    pub errors: u64,
}

/// One in-flight computation; followers block on `done`.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<Option<Arc<String>>>,
    cv: Condvar,
}

/// Bounded admission: `active` compute permits plus a bounded wait queue.
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_active: usize,
    max_waiting: usize,
}

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    waiting: usize,
}

impl Gate {
    fn new(max_active: usize, max_waiting: usize) -> Self {
        Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            max_active: max_active.max(1),
            max_waiting,
        }
    }

    /// Blocks until a permit is free, or fails fast when the wait queue
    /// is already full.
    fn acquire(&self) -> Result<(), Overloaded> {
        let mut s = lock_unpoisoned(&self.state);
        if s.active < self.max_active {
            s.active += 1;
            return Ok(());
        }
        if s.waiting >= self.max_waiting {
            return Err(Overloaded);
        }
        s.waiting += 1;
        loop {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
            if s.active < self.max_active {
                s.active += 1;
                s.waiting -= 1;
                return Ok(());
            }
        }
    }

    fn release(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.active -= 1;
        drop(s);
        self.cv.notify_one();
    }

    fn waiting(&self) -> usize {
        lock_unpoisoned(&self.state).waiting
    }
}

struct Overloaded;

/// A resident model and what a request for its accelerator needs,
/// resolved once when the engine starts.
struct Resident {
    acc: Accelerator,
    model: Arc<Lisa>,
}

/// The serving engine: warm models, two-tier cache, single-flight
/// computation, telemetry. Transport-agnostic — [`crate::server`] feeds
/// it request payloads.
pub struct ServeEngine {
    registry: ModelRegistry,
    /// Resident models by catalog key (`Accelerator::standard`).
    residents: BTreeMap<&'static str, Resident>,
    cache: ResultCache,
    config: ServeConfig,
    sink: EventSink,
    counters: Counters,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    gate: Gate,
    next_request: AtomicU64,
}

impl ServeEngine {
    /// Builds an engine over resident models, keyed by their stored
    /// [`Lisa::digest`].
    ///
    /// # Errors
    ///
    /// [`StartError::UnknownAccelerator`] when a model targets an
    /// accelerator outside the catalog (`Accelerator::STANDARD_KEYS`),
    /// which no request can name; cache-directory creation failures.
    pub fn new(
        registry: ModelRegistry,
        config: ServeConfig,
        sink: EventSink,
    ) -> Result<Self, StartError> {
        let residents: BTreeMap<&'static str, Resident> = Accelerator::STANDARD_KEYS
            .into_iter()
            .filter_map(|key| {
                let acc = Accelerator::standard(key)?;
                let model = registry.get(acc.name())?;
                Some((key, Resident { acc, model }))
            })
            .collect();
        if let Some(stray) = registry
            .accelerators()
            .into_iter()
            .find(|name| !residents.values().any(|r| r.acc.name() == *name))
        {
            return Err(StartError::UnknownAccelerator(stray.to_string()));
        }
        let cache = ResultCache::new(config.mem_cache, config.cache_dir.clone())?;
        Ok(ServeEngine {
            registry,
            residents,
            cache,
            gate: Gate::new(config.workers, config.queue),
            config,
            sink,
            counters: Counters::default(),
            inflight: Mutex::new(HashMap::new()),
            next_request: AtomicU64::new(1),
        })
    }

    /// The accelerators this engine can map for.
    pub fn accelerators(&self) -> Vec<&str> {
        self.registry.accelerators()
    }

    /// Handles one request document and returns the response body plus
    /// how it was served.
    pub fn handle(&self, text: &str) -> (Arc<String>, Disposition) {
        let id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.sink.emit(PipelineEvent::ServeEnqueued {
            request: id,
            queue_depth: self.gate.waiting(),
        });

        let req = match MapRequest::parse(text) {
            Ok(req) => req,
            Err(e) => {
                let err = ServeError::BadRequest(e.to_string());
                let body = Arc::new(render_error(&err.to_string()));
                return self.respond(id, started, body, Disposition::Error);
            }
        };
        // A request that cannot run answers before the probe: it takes no
        // permit and counts no anneal.
        let resident = match self.resident(&req.accelerator) {
            Ok(resident) => resident,
            Err(e) => {
                let body = Arc::new(render_error(&e.to_string()));
                return self.respond(id, started, body, Disposition::Error);
            }
        };
        let key = response_key(&req, resident.model.digest());

        if let Some((body, tier)) = self.cache.get(key) {
            let (tier_name, disposition) = match tier {
                CacheTier::Memory => ("memory", Disposition::HitMemory),
                CacheTier::Disk => ("disk", Disposition::HitDisk),
            };
            self.sink.emit(PipelineEvent::ServeCacheProbe {
                request: id,
                key,
                tier: tier_name,
            });
            return self.respond(id, started, body, disposition);
        }
        self.sink.emit(PipelineEvent::ServeCacheProbe {
            request: id,
            key,
            tier: "none",
        });

        // Single-flight: one leader per key; everyone else waits for its
        // shared result.
        let (flight, leader) = {
            let mut map = lock_unpoisoned(&self.inflight);
            match map.get(&key) {
                Some(flight) => (flight.clone(), false),
                None => {
                    let flight = Arc::new(Flight::default());
                    map.insert(key, flight.clone());
                    (flight, true)
                }
            }
        };
        if !leader {
            let mut done = lock_unpoisoned(&flight.done);
            let body = loop {
                if let Some(body) = done.as_ref() {
                    break body.clone();
                }
                done = flight.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
            };
            return self.respond(id, started, body, Disposition::Coalesced);
        }

        let (body, disposition) = match self.gate.acquire() {
            Err(Overloaded) => (Arc::new(render_overloaded()), Disposition::Overloaded),
            Ok(()) => {
                self.sink
                    .emit(PipelineEvent::ServeAnnealStarted { request: id });
                self.counters.anneals.fetch_add(1, Ordering::Relaxed);
                let computed =
                    std::panic::catch_unwind(AssertUnwindSafe(|| self.compute(&req, resident)));
                self.gate.release();
                match computed.unwrap_or(Err(ServeError::MappingPanicked)) {
                    Ok(body) => {
                        let body = Arc::new(body);
                        // A failed disk write only costs a future
                        // recompute; the response already exists.
                        let _ = self.cache.put(key, body.clone());
                        (body, Disposition::Computed)
                    }
                    // Errors are never cached: a fixed bug must not be
                    // shadowed by a cached failure.
                    Err(e) => (Arc::new(render_error(&e.to_string())), Disposition::Error),
                }
            }
        };

        // Publish to followers before answering, then retire the flight.
        *lock_unpoisoned(&flight.done) = Some(body.clone());
        flight.cv.notify_all();
        lock_unpoisoned(&self.inflight).remove(&key);
        self.respond(id, started, body, disposition)
    }

    /// The resident model for a request's accelerator key.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownAccelerator`] or [`ServeError::NoModel`] —
    /// the caller answers `status error` and keeps serving.
    fn resident(&self, accelerator: &str) -> Result<&Resident, ServeError> {
        self.residents
            .get(accelerator)
            .ok_or_else(|| match Accelerator::standard(accelerator) {
                Some(acc) => ServeError::NoModel(acc.name().to_string()),
                None => ServeError::UnknownAccelerator(accelerator.to_string()),
            })
    }

    /// The miss path: run the annealer and render its answer.
    ///
    /// # Errors
    ///
    /// [`ServeError::MissingIi`] for an internally inconsistent outcome —
    /// the caller answers `status error` and keeps serving.
    fn compute(&self, req: &MapRequest, resident: &Resident) -> Result<String, ServeError> {
        let (outcome, mapping) = resident.model.map_request(
            &req.dfg,
            &resident.acc,
            req.seed,
            req.max_ii,
            &req.strategy,
            self.config.parallelism,
        );
        match &mapping {
            Some(m) => render_ok(req, &outcome, m),
            None => Ok(render_unmappable(req, &outcome)),
        }
    }

    fn respond(
        &self,
        id: u64,
        started: Instant,
        body: Arc<String>,
        disposition: Disposition,
    ) -> (Arc<String>, Disposition) {
        let counter = match disposition {
            Disposition::HitMemory => &self.counters.hit_memory,
            Disposition::HitDisk => &self.counters.hit_disk,
            Disposition::Computed => return self.finish(id, started, body, disposition),
            Disposition::Coalesced => &self.counters.coalesced,
            Disposition::Overloaded => &self.counters.overloaded,
            Disposition::Error => &self.counters.errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.finish(id, started, body, disposition)
    }

    fn finish(
        &self,
        id: u64,
        started: Instant,
        body: Arc<String>,
        disposition: Disposition,
    ) -> (Arc<String>, Disposition) {
        self.sink.emit(PipelineEvent::ServeResponded {
            request: id,
            disposition: disposition.as_str(),
            duration: started.elapsed(),
        });
        (body, disposition)
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.counters.requests.load(Ordering::Relaxed),
            hit_memory: self.counters.hit_memory.load(Ordering::Relaxed),
            hit_disk: self.counters.hit_disk.load(Ordering::Relaxed),
            anneals: self.counters.anneals.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            overloaded: self.counters.overloaded.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
        }
    }

    /// The `lisa-serve-stats v1` document the `stats` command answers
    /// with.
    pub fn stats_text(&self) -> String {
        let s = self.stats();
        format!(
            "{}\nrequests {}\nhit_memory {}\nhit_disk {}\nanneals {}\ncoalesced {}\noverloaded {}\nerrors {}\nmodels {}\ncache_entries {}\n",
            crate::protocol::STATS_HEADER,
            s.requests,
            s.hit_memory,
            s.hit_disk,
            s.anneals,
            s.coalesced,
            s.overloaded,
            s.errors,
            self.registry.len(),
            self.cache.memory_len(),
        )
    }
}

/// The cache and single-flight key of a request served by a model with
/// digest `model_digest`: FNV-1a 64 over the canonical request text, the
/// model digest, and [`MAPPER_FORMAT`].
fn response_key(req: &MapRequest, model_digest: u64) -> u64 {
    let mut text = req.canonical_text();
    text.push_str(&format!(
        "model {model_digest:016x}\nmapper_format {MAPPER_FORMAT}\n"
    ));
    fnv1a64(text.as_bytes())
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("models", &self.registry.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_workers_and_bounds_the_queue() {
        let gate = Gate::new(1, 0);
        gate.acquire().ok().expect("first permit");
        assert!(
            gate.acquire().is_err(),
            "queue of 0 must reject a second leader immediately"
        );
        gate.release();
        assert!(gate.acquire().is_ok(), "released permit is reusable");
    }

    #[test]
    fn gate_wakes_a_bounded_waiter() {
        let gate = Arc::new(Gate::new(1, 1));
        gate.acquire().ok().expect("permit");
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || gate.acquire().is_ok())
        };
        // Give the waiter time to enter the queue, then free the permit.
        while gate.waiting() == 0 {
            std::thread::yield_now();
        }
        gate.release();
        assert!(waiter.join().unwrap(), "waiter must get the permit");
        gate.release();
    }

    #[test]
    fn bad_requests_are_error_responses_not_panics() {
        let engine = ServeEngine::new(
            ModelRegistry::new(),
            ServeConfig::default(),
            EventSink::null(),
        )
        .unwrap();
        let (body, disposition) = engine.handle("not a request");
        assert_eq!(disposition, Disposition::Error);
        assert!(body.contains("status error"));
        // A well-formed document naming a lane kind that does not exist
        // fails at the strategy parse, before any accelerator or model
        // lookup.
        let request = MapRequest {
            accelerator: "4x4".to_string(),
            seed: 1,
            max_ii: 4,
            strategy: Default::default(),
            dfg: lisa_dfg::polybench::kernel("gemm").unwrap(),
        }
        .canonical_text()
        .replace("strategy sa\n", "strategy evolutionary\n");
        let (body, disposition) = engine.handle(&request);
        assert_eq!(disposition, Disposition::Error);
        assert!(
            body.contains("status error\nreason bad request: strategy field: unknown strategy"),
            "body was {body}"
        );
        assert_eq!(engine.stats().errors, 2);
        assert_eq!(engine.stats().anneals, 0, "errors never reach the annealer");
    }

    #[test]
    fn unknown_accelerator_and_missing_model_are_errors() {
        let recorder = Arc::new(lisa_events::RecordingObserver::default());
        let engine = ServeEngine::new(
            ModelRegistry::new(),
            ServeConfig::default(),
            EventSink::new(recorder.clone()),
        )
        .unwrap();
        let req = MapRequest {
            accelerator: "not-a-fabric".to_string(),
            seed: 1,
            max_ii: 4,
            strategy: Default::default(),
            dfg: lisa_dfg::polybench::kernel("gemm").unwrap(),
        };
        let (body, disposition) = engine.handle(&req.canonical_text());
        assert_eq!(disposition, Disposition::Error);
        assert!(body.contains("unknown accelerator"));

        let req = MapRequest {
            accelerator: "4x4".to_string(),
            ..req
        };
        let (body, disposition) = engine.handle(&req.canonical_text());
        assert_eq!(disposition, Disposition::Error);
        assert!(body.contains("no model resident"));
        // Error responses are never cached: a model loaded later must not
        // be shadowed by a cached failure.
        let (_, disposition) = engine.handle(&req.canonical_text());
        assert_eq!(disposition, Disposition::Error);
        // None of the three reached the cache probe or the annealer.
        let stats = engine.stats();
        assert_eq!(stats.anneals, 0);
        assert_eq!(stats.errors, 3);
        let events = recorder.take();
        assert_eq!(events.len(), 6, "one enqueue and one response each");
        assert!(events.iter().all(|e| matches!(
            e,
            PipelineEvent::ServeEnqueued { .. } | PipelineEvent::ServeResponded { .. }
        )));
    }

    #[test]
    fn a_model_outside_the_catalog_is_refused_at_start() {
        // What `lisa-map train --arch 5x5` writes: a valid model that no
        // request can name, since requests resolve catalog keys only.
        let acc = Accelerator::cgra("5x5", 5, 5);
        let config = lisa_core::LisaConfig {
            training_dfgs: 4,
            ..lisa_core::LisaConfig::fast()
        };
        let model = Lisa::train_for(&acc, &config).expect("tiny training run completes");
        let mut registry = ModelRegistry::new();
        registry.insert(model).unwrap();
        let err = match ServeEngine::new(registry, ServeConfig::default(), EventSink::null()) {
            Ok(_) => panic!("an engine over a 5x5 model must not start"),
            Err(e) => e,
        };
        assert!(matches!(&err, StartError::UnknownAccelerator(name) if name == "5x5"));
        assert_eq!(
            err.to_string(),
            "model for accelerator `5x5` cannot be served: requests name one of \
             3x3, 4x4, 4x4-lr, 4x4-lm, 8x8, systolic"
        );
    }
}
