//! # wtq-runtime
//!
//! Scoped batch fan-out for the offline loops — the trainer's candidate
//! generation, the parser's reference trainer, the study's deployment loop
//! and `wtq_core::Engine::explain_batch` — built from `std::thread` alone.
//! Results are **deterministic**: [`run_batch`] always returns them in
//! input order, regardless of how the operating system schedules the
//! workers. (The server does not fan out: its batch questions run as jobs
//! on its own scheduler pool.)
//!
//! Each batch spawns its workers inside [`std::thread::scope`], which lets
//! the work closure borrow the caller's data (tables, catalogs, a shared
//! `Engine`) without `Arc`-wrapping everything, and guarantees every worker
//! has exited — and every panic has propagated — before the call returns.

use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::thread;

/// The default worker count: one per available hardware thread (1 when the
/// parallelism cannot be queried, e.g. in restricted sandboxes).
pub fn default_workers() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `work` over every item of `items` on `workers` threads and return
/// the results **in input order**.
///
/// `work` receives `(input_index, item)`. Items are pulled from a shared
/// queue, which balances uneven per-item cost (questions over a 2000-row
/// table next to questions over a 20-row one), so the *execution* order
/// across workers is nondeterministic; but each result lands in its input
/// slot, so the returned `Vec` is what a sequential `items.map(work)` would
/// produce (assuming `work(i, x)` depends only on `(i, x)` and shared
/// immutable state).
///
/// `workers` is clamped to `1..=items.len()`; with one worker (or one item)
/// the batch runs inline on the caller's thread. A panic in any worker
/// propagates to the caller once every worker has stopped.
pub fn run_batch<T, R, F>(workers: usize, items: Vec<T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let total = items.len();
    let workers = workers.clamp(1, total.max(1));
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(index, item)| work(index, item))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
    thread::scope(|scope| {
        let pull = || {
            let mut done = Vec::new();
            loop {
                // Take the lock only to pop: `work` runs with the queue
                // free, so a panicking job cannot poison it.
                let next = queue.lock().expect("work queue poisoned").next();
                let Some((index, item)) = next else {
                    return done;
                };
                done.push((index, work(index, item)));
            }
        };
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(pull)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (index, result) in done {
                        slots[index] = Some(result);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 3, 8, 200] {
            let out = run_batch(workers, items.clone(), |index, item| {
                assert_eq!(index, item);
                item * 2
            });
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let out: Vec<usize> = run_batch(4, Vec::<usize>::new(), |_, item| item);
        assert!(out.is_empty());
    }

    #[test]
    fn workers_can_borrow_caller_state() {
        let base = [10usize, 20, 30];
        let counter = AtomicUsize::new(0);
        let out = run_batch(2, vec![0usize, 1, 2], |_, item| {
            counter.fetch_add(1, Ordering::Relaxed);
            base[item] + 1
        });
        assert_eq!(out, vec![11, 21, 31]);
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Later items finish first; order must still be the input order.
        let out = run_batch(4, (0..16u64).collect(), |_, item| {
            if item < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            item
        });
        assert_eq!(out, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = run_batch(2, vec![0, 1, 2, 3], |_, item| {
            if item == 2 {
                panic!("boom");
            }
            item
        });
    }

    #[test]
    fn pool_survives_a_panicking_batch_and_runs_the_next_one() {
        // A panic in one batch reaches the caller with its message and
        // leaves nothing poisoned behind: the very next batch over the
        // same closure environment runs to completion.
        let base = [1usize, 2, 3];
        for workers in [1, 2, 4] {
            let panicked = std::panic::catch_unwind(|| {
                run_batch(workers, vec![0usize, 1, 2], |_, item| {
                    if item == 1 {
                        panic!("transient on {item}");
                    }
                    base[item]
                })
            })
            .expect_err("the panicking job reaches the caller");
            let message = panicked
                .downcast_ref::<String>()
                .expect("a formatted panic");
            assert!(message.contains("transient on 1"), "{message}");
            let ok = run_batch(workers, vec![0usize, 1, 2], |_, item| base[item]);
            assert_eq!(ok, vec![1, 2, 3]);
        }
    }
}
