//! A minimal work-stealing thread pool for independent tasks.
//!
//! The workspace builds offline (no rayon), so this module provides the
//! small slice of it the callers need: seed a fixed set of tasks across
//! per-worker deques, let each worker drain its own queue from the front
//! and steal from the *back* of its neighbours' when idle — long-running
//! tasks (fig13's queue build-up, fig16's GPT-175B iterations) migrate to
//! idle workers instead of serializing behind a round-robin assignment.
//!
//! It lives in `hpn-sim` (the workspace's bottom crate) so any layer can
//! use it; today the experiment runner (`hpn-bench`, one task per
//! experiment cell) does.
//!
//! Determinism contract: results are returned **indexed by task order**,
//! never by completion order. The scheduler affects wall-clock only; any
//! task-order-dependent state must live inside the task closure.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Run `f(index, item)` for every item, on up to `jobs` worker threads,
/// and return the results in item order.
///
/// `jobs <= 1` runs inline on the caller's thread with no pool at all, so
/// a `--jobs 1` run is *exactly* the sequential code path, not a pool with
/// one worker. A panicking task propagates its original payload out of the
/// pool (first panic wins) once the remaining workers drain.
pub fn run_indexed<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Seed the deques round-robin; no task is ever added after this, so
    // "every queue empty" is the exit condition and needs no counter.
    let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % jobs]
            .lock()
            .expect("pool queue")
            .push_back((i, item));
    }

    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // First panic payload, preserved across the thread boundary so the
    // caller sees the task's own message, not "a scoped thread panicked".
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|s| {
        for w in 0..jobs {
            let queues = &queues;
            let results = &results;
            let panicked = &panicked;
            let f = &f;
            // Match the main thread's default 8 MiB stack: tasks run the
            // same simulations the sequential path runs on the main thread.
            let worker = std::thread::Builder::new()
                .name(format!("hpn-worker-{w}"))
                .stack_size(8 << 20);
            worker
                .spawn_scoped(s, move || loop {
                    let task = {
                        let own = queues[w].lock().expect("pool queue").pop_front();
                        own.or_else(|| {
                            (1..jobs).find_map(|d| {
                                queues[(w + d) % jobs]
                                    .lock()
                                    .expect("pool queue")
                                    .pop_back()
                            })
                        })
                    };
                    match task {
                        Some((i, item)) => {
                            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                f(i, item)
                            })) {
                                Ok(r) => {
                                    *results[i].lock().expect("pool result slot") = Some(r);
                                }
                                Err(payload) => {
                                    panicked
                                        .lock()
                                        .expect("pool panic slot")
                                        .get_or_insert(payload);
                                    break;
                                }
                            }
                        }
                        None => break,
                    }
                })
                .expect("spawn pool worker");
        }
    });
    if let Some(payload) = panicked.into_inner().expect("pool panic slot") {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool result slot")
                .expect("every task ran exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_task_order_regardless_of_jobs() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 8, 200] {
            let out = run_indexed(jobs, items.clone(), |i, x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = run_indexed(4, (0..57).collect::<Vec<_>>(), |_, x: i32| {
            ran.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 57);
        assert_eq!(ran.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn empty_and_single_item_plans() {
        let none: Vec<i32> = run_indexed(8, Vec::new(), |_, x: i32| x);
        assert!(none.is_empty());
        assert_eq!(run_indexed(8, vec![42], |_, x| x + 1), vec![43]);
    }

    #[test]
    fn work_is_stolen_from_loaded_workers() {
        // 1 slow task + 7 fast ones, 2 workers: with stealing, the fast
        // tasks all complete even though round-robin seeded half of them
        // behind the slow task's queue.
        let slow_then_fast: Vec<u64> = vec![30, 1, 1, 1, 1, 1, 1, 1];
        let out = run_indexed(2, slow_then_fast, |_, ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms
        });
        assert_eq!(out.iter().sum::<u64>(), 37);
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn task_panics_propagate() {
        run_indexed(4, (0..8).collect::<Vec<_>>(), |i, _| {
            if i == 3 {
                panic!("task 3 exploded");
            }
            i
        });
    }
}
