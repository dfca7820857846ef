//! Deterministic work distribution and lane seeding.
//!
//! [`par_stream`] is the workspace's one fan-out: workers pull item
//! indices from a shared cursor, and the calling thread hands each result
//! to a consumer in item order as soon as every earlier item has been
//! handed over, so what the consumer sees never depends on thread count
//! or scheduling. The training pipeline streams its label generation
//! through it (each finished DFG is appended to the checkpoint as the
//! finished prefix grows). [`par_map`] collects over it; it backs the
//! wave-parallel II search ([`crate::schedule::IiSearch::run`]) and the
//! pipeline's four label networks. A lane race itself runs on the calling
//! thread ([`crate::strategy`]). `chain_seed` derives each lane's RNG
//! seed from its index, so a race's outcome is a pure function of its
//! seed.
//!
//! Threads come from `std::thread::scope` — the workspace is hermetic, so
//! no rayon.

use std::convert::Infallible;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Number of hardware threads, with a safe floor of 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `parallelism` scoped threads and
/// returns the results in item order: [`par_stream`] with a consumer
/// that collects. The output is invariant to thread count and
/// scheduling; `parallelism <= 1` (or a single item) runs inline with no
/// threads at all.
///
/// # Panics
///
/// A panic inside `f` is re-raised with its original payload, as
/// [`par_stream`] describes.
pub fn par_map<T, R, F>(parallelism: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let Ok(()) = par_stream(parallelism, items, f, |_, r| {
        out.push(r);
        Ok::<(), Infallible>(())
    });
    out
}

/// Applies `f` to every item on up to `parallelism` scoped threads and
/// passes each result to `consume` on the calling thread, in item order:
/// item `i` is consumed once items `0..i` have been, however the workers
/// finish. Workers claim item indices from one shared atomic cursor, so a
/// slow item holds back only the consumer, never the other workers.
/// `parallelism <= 1` (or a single item) runs inline with no threads at
/// all: `f` then `consume`, item by item.
///
/// # Errors
///
/// The first error `consume` returns. Workers claim no new item after
/// it; items already in flight finish and are dropped unconsumed.
///
/// # Panics
///
/// A panic inside `f` is re-raised with its original payload once the
/// workers have joined; it wins over a consumer error. Workers claim no
/// new item after the first panic lands, so propagation is prompt: only
/// items already in flight finish first, and none is consumed after it.
/// A panic inside `consume` also stops the claims before it unwinds.
pub fn par_stream<T, R, E, F, C>(
    parallelism: usize,
    items: Vec<T>,
    f: F,
    mut consume: C,
) -> Result<(), E>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    C: FnMut(usize, R) -> Result<(), E>,
{
    let n = items.len();
    let workers = parallelism.max(1).min(n);
    if workers <= 1 {
        for (i, item) in items.into_iter().enumerate() {
            consume(i, f(i, item))?;
        }
        return Ok(());
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    // Set by the first worker panic, a consumer error, or a consumer
    // panic; workers check it before every claim.
    let stop = AtomicBool::new(false);
    // Worker panics are caught and stashed here, then re-raised verbatim
    // after the scope joins. Letting them unwind through the scope instead
    // would replace the payload with scope's generic "a scoped thread
    // panicked" message and let every sibling drain the whole queue first.
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let consumed = std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (slots, cursor, stop, first_panic, f) = (&slots, &cursor, &stop, &first_panic, &f);
            scope.spawn(move || loop {
                if stop.load(Ordering::Acquire) {
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
                    // A closed channel means the consumer has stopped.
                    Ok(r) => {
                        if tx.send((i, r)).is_err() {
                            break;
                        }
                    }
                    Err(payload) => {
                        let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        stop.store(true, Ordering::Release);
                        break;
                    }
                }
            });
        }
        // The workers hold the only senders, so the receive loop ends
        // when the last of them exits.
        drop(tx);
        let _stop_on_unwind = StopOnUnwind(&stop);
        let mut finished: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut next = 0;
        for (i, r) in rx {
            if stop.load(Ordering::Acquire) {
                break;
            }
            finished[i] = Some(r);
            while let Some(r) = finished.get_mut(next).and_then(Option::take) {
                if let Err(e) = consume(next, r) {
                    stop.store(true, Ordering::Release);
                    return Err(e);
                }
                next += 1;
            }
        }
        Ok(())
    });
    if let Some(payload) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        std::panic::resume_unwind(payload);
    }
    consumed
}

/// Raises the stop flag if the consumer unwinds, so the workers stop
/// claiming before the scope waits for them.
struct StopOnUnwind<'a>(&'a AtomicBool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
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
    fn par_stream_consumes_in_order_when_later_items_finish_first() {
        use std::time::Duration;
        // Item 0 sleeps longest, so the workers finish the later items
        // first; the consumer must still see 0, 1, 2, ... in order.
        let mut seen = Vec::new();
        let done: Result<(), ()> = par_stream(
            3,
            (0..9u64).collect(),
            |i, x| {
                std::thread::sleep(Duration::from_millis(if i == 0 { 60 } else { 2 }));
                x * 3
            },
            |i, r| {
                seen.push((i, r));
                Ok(())
            },
        );
        assert_eq!(done, Ok(()));
        let expect: Vec<(usize, u64)> = (0..9).map(|i| (i as usize, i * 3)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn par_stream_stops_claiming_after_a_consumer_error() {
        let claimed = AtomicUsize::new(0);
        let total = 512usize;
        let mut consumed = Vec::new();
        let done = par_stream(
            2,
            (0..total).collect(),
            |_, x| {
                claimed.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                x
            },
            |i, x| {
                if i == 3 {
                    return Err(format!("consumer refused item {x}"));
                }
                consumed.push(x);
                Ok(())
            },
        );
        assert_eq!(done, Err("consumer refused item 3".to_string()));
        assert_eq!(
            consumed,
            vec![0, 1, 2],
            "nothing is consumed after the error"
        );
        let claimed = claimed.load(Ordering::SeqCst);
        assert!(
            claimed < total / 2,
            "workers kept claiming after the consumer stopped ({claimed} items)"
        );
    }

    #[test]
    fn par_stream_reraises_the_first_panic_verbatim() {
        let mut consumed = Vec::new();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_stream(
                4,
                (0..64u64).collect(),
                |_, x| {
                    if x == 5 {
                        panic!("dfg {x} exploded at round {}", x + 1);
                    }
                    x
                },
                |_, x| {
                    consumed.push(x);
                    Ok::<(), ()>(())
                },
            )
        }))
        .expect_err("a worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic! with arguments carries a String payload");
        assert_eq!(msg, "dfg 5 exploded at round 6");
        // Whatever was consumed before the panic is a prefix.
        let prefix: Vec<u64> = (0..consumed.len() as u64).collect();
        assert_eq!(consumed, prefix);
        assert!(consumed.len() <= 5, "item 5 never produced a result");
    }

    #[test]
    fn par_stream_consumer_panic_stops_the_claims() {
        let claimed = AtomicUsize::new(0);
        let total = 512usize;
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_stream(
                2,
                (0..total).collect::<Vec<usize>>(),
                |_, x| {
                    claimed.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    x
                },
                |i, _| {
                    if i == 2 {
                        panic!("consumer failed on item {i}");
                    }
                    Ok::<(), ()>(())
                },
            )
        }))
        .expect_err("a consumer panic must propagate");
        let msg = err.downcast_ref::<String>().expect("String payload");
        assert_eq!(msg, "consumer failed on item 2");
        let claimed = claimed.load(Ordering::SeqCst);
        assert!(
            claimed < total / 2,
            "workers kept claiming after the consumer panicked ({claimed} items)"
        );
    }

    #[test]
    fn par_stream_inline_interleaves_work_and_consumption() {
        let log = Mutex::new(Vec::new());
        let done: Result<(), ()> = par_stream(
            1,
            vec!['a', 'b'],
            |i, c| {
                log.lock().unwrap().push(format!("f{i}"));
                c
            },
            |i, c| {
                log.lock().unwrap().push(format!("c{i}{c}"));
                Ok(())
            },
        );
        assert_eq!(done, Ok(()));
        assert_eq!(log.into_inner().unwrap(), ["f0", "c0a", "f1", "c1b"]);
    }

    #[test]
    fn chain_zero_keeps_historical_seed() {
        assert_eq!(chain_seed(42, 0, 3), 42 ^ (3u64 << 32));
        // Later chains must decorrelate from chain 0 and each other.
        assert_ne!(chain_seed(42, 1, 3), chain_seed(42, 0, 3));
        assert_ne!(chain_seed(42, 1, 3), chain_seed(42, 2, 3));
    }
}
