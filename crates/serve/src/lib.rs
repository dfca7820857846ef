//! Mapping-as-a-service: a long-running daemon over the LISA compiler.
//!
//! The compiler is a deterministic pure function — `(dfg, accelerator,
//! config, seed) → mapping`, byte-identical across reruns — which makes
//! it servable: a warm model answers repeated requests without
//! retraining, and responses are content-addressed by the hash of the
//! canonical request text ([`lisa_core::MapRequest`]), the resident
//! model's digest, and [`MAPPER_FORMAT`].
//!
//! Layering:
//!
//! * [`protocol`] — length-prefixed framing and the `lisa-response v1`
//!   document the daemon answers with;
//! * [`cache`] — the two-tier content-addressed store (in-memory LRU
//!   over an on-disk directory keyed by hash);
//! * [`engine`] — request handling: canonicalize → hash → probe →
//!   single-flight compute under a bounded admission gate, with
//!   `lisa-events` telemetry per request;
//! * [`server`] — connection loops for TCP and stdio transports.
//!
//! The wire protocol and its guarantees are documented in DESIGN.md
//! ("Serving"): identical requests are served from cache byte-identically
//! — including across daemon restarts via the disk tier — and overload is
//! an explicit `status overloaded` response, never an unbounded queue.

pub mod cache;
pub mod engine;
pub mod error;
pub mod protocol;
pub mod server;

pub use cache::{CacheTier, ResultCache};
pub use engine::{Disposition, ServeConfig, ServeEngine, StatsSnapshot, MAPPER_FORMAT};
pub use error::{ServeError, StartError};
pub use server::{serve_connection, serve_tcp, Served};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning instead of panicking.
///
/// Every mutex in this crate guards state that is valid at all times —
/// whole `Arc<String>` bodies, whole counters — and the critical
/// sections never call back into code that can panic mid-update, so a
/// poisoned lock means some *other* panic (already contained at the
/// request boundary) happened to hold it. Propagating that poison as a
/// second panic would kill the daemon; recovering serves sound data
/// (PANIC001: the daemon answers, it does not die).
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
