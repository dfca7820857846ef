//! Deterministic work distribution and lane seeding.
//!
//! [`par_map`] applies a function to a list of items on scoped threads
//! and returns the results in item order, so its output never depends on
//! thread count or scheduling. It backs the wave-parallel II search
//! ([`crate::schedule::IiSearch::run`]) and the training pipeline's
//! fan-out across DFGs; a lane race itself runs on the calling thread
//! ([`crate::strategy`]). [`chain_seed`] derives each lane's RNG seed
//! from its index, so a race's outcome is a pure function of its seed.
//!
//! Threads come from `std::thread::scope` — the workspace is hermetic, so
//! no rayon.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads, with a safe floor of 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `parallelism` scoped threads and
/// returns the results in item order. The work distribution is a shared
/// atomic cursor, but each result lands in its item's slot, so the output
/// is invariant to thread count and scheduling. `parallelism <= 1` (or a
/// single item) runs inline with no threads at all.
///
/// # Panics
///
/// A panic inside `f` is re-raised with its original payload. Sibling
/// workers stop claiming new items as soon as the first panic lands, so
/// propagation is prompt: only items already in flight finish first.
pub fn par_map<T, R, F>(parallelism: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = parallelism.max(1).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Worker panics are caught and stashed here, then re-raised verbatim
    // after the scope joins. Letting them unwind through the scope instead
    // would replace the payload with scope's generic "a scoped thread
    // panicked" message and let every sibling drain the whole queue first.
    let aborted = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if aborted.load(Ordering::Acquire) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot poisoned")
                    .take()
                    .expect("each item is claimed exactly once");
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(r) => *results[i].lock().expect("result slot poisoned") = Some(r),
                    Err(payload) => {
                        let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        aborted.store(true, Ordering::Release);
                        break;
                    }
                }
            });
        }
    });
    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .take()
    {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item produces a result")
        })
        .collect()
}

/// Derives the RNG seed of lane `chain` for target `ii`. Lane 0 keeps
/// the historical single-chain derivation (`seed ^ (ii << 32)`); later
/// lanes decorrelate through a splitmix64-style finalizer.
pub(crate) fn chain_seed(seed: u64, chain: u64, ii: u32) -> u64 {
    let base = if chain == 0 {
        seed
    } else {
        let mut z = seed.wrapping_add(chain.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    base ^ (u64::from(ii) << 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_item_order() {
        for parallelism in [1, 2, 4, 7] {
            let items: Vec<u64> = (0..20).collect();
            let out = par_map(parallelism, items, |i, x| x * 10 + i as u64);
            let expect: Vec<u64> = (0..20).map(|x| x * 10 + x).collect();
            assert_eq!(out, expect, "parallelism {parallelism}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, empty, |_, x: u32| x).is_empty());
        assert_eq!(par_map(4, vec![9], |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn par_map_reraises_the_first_panic_verbatim() {
        let err = std::panic::catch_unwind(|| {
            par_map(4, (0..16u64).collect::<Vec<u64>>(), |_, x| {
                if x == 3 {
                    panic!("chain {x} exploded with cost {}", x * 2);
                }
                x
            })
        })
        .expect_err("a worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic! with arguments carries a String payload");
        assert_eq!(msg, "chain 3 exploded with cost 6");
    }

    #[test]
    fn par_map_siblings_stop_after_a_panic() {
        use std::sync::atomic::AtomicUsize;
        let processed = AtomicUsize::new(0);
        let total = 512usize;
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(2, (0..total).collect::<Vec<usize>>(), |_, x| {
                if x == 0 {
                    panic!("first item fails");
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                processed.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(err.is_err());
        let done = processed.load(Ordering::SeqCst);
        assert!(
            done < total - 1,
            "siblings drained the whole queue ({done} items) after a panic"
        );
    }

    #[test]
    fn chain_zero_keeps_historical_seed() {
        assert_eq!(chain_seed(42, 0, 3), 42 ^ (3u64 << 32));
        // Later chains must decorrelate from chain 0 and each other.
        assert_ne!(chain_seed(42, 1, 3), chain_seed(42, 0, 3));
        assert_ne!(chain_seed(42, 1, 3), chain_seed(42, 2, 3));
    }
}
