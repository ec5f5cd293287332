//! The one task executor every parallel site of the tree submits to.
//!
//! A scan is cut into contiguous permutation-cycle segments
//! ([`crate::engine::scan_jobs`]), an alias round into candidate chunks;
//! either way the pile goes to [`execute`]. Tasks are dealt round-robin
//! onto per-worker deques; each worker drains its own queue from the
//! front and, when empty, steals from the *back* of a sibling's queue —
//! the classic work-stealing discipline, so one slow scan is finished by
//! whatever workers run dry first.
//!
//! The budget is the number of threads: the calling thread is worker 0
//! and `threads − 1` scoped threads are spawned beside it, so a budget of
//! 1 spawns nothing and is the sequential reference.
//!
//! Determinism does not depend on the schedule: every result carries its
//! submission index, so the caller sees results in submission order no
//! matter which worker ran what, or in what order.
//! The only schedule-dependent output is [`ExecutorStats::stolen`],
//! which is telemetry, never an input to any round artifact.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What an [`execute`] run did: how many tasks ran, and how many of
/// them ran on a worker other than the one they were dealt to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Tasks executed (always the number submitted).
    pub executed: u64,
    /// Tasks that ran via a steal rather than the owner's own queue.
    /// Scheduling noise — varies with thread timing — and therefore
    /// only ever exported as telemetry.
    pub stolen: u64,
}

/// The thread budget [`execute`] actually runs with: `threads` held to
/// `1..=32`. Callers that size their tasks by the worker count cut with
/// this, so the cut and the pool agree.
pub fn clamp_threads(threads: usize) -> usize {
    threads.clamp(1, 32)
}

/// Renders a panic payload as text.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match (payload.downcast_ref::<&'static str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s,
        _ => "non-string panic payload",
    }
}

/// Runs `tasks` across `threads` workers with work stealing and returns
/// their results in submission order.
///
/// `threads` is held to [`clamp_threads`] and never exceeds the task
/// count. The calling thread is worker 0; with one worker nothing is
/// spawned and the tasks run in submission order — same results, zero
/// steals.
///
/// # Panics
///
/// A panicking task is caught where it ran, so every other task still
/// runs; the panic of the lowest submission index is then raised on the
/// caller as `task <index> panicked: <original message>`.
pub fn execute<T, F>(threads: usize, tasks: Vec<F>) -> (Vec<T>, ExecutorStats)
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let n = tasks.len();
    let threads = clamp_threads(threads).min(n.max(1));
    // Deal round-robin so every worker starts with an even share of
    // every job rather than one job's whole workload.
    let queues: Vec<Mutex<VecDeque<(usize, F)>>> = (0..threads).map(|_| Mutex::default()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        queues[i % threads].lock().expect("queue lock").push_back((i, task));
    }
    let stolen = AtomicU64::new(0);
    let work = |w: usize| {
        let mut done = Vec::new();
        loop {
            // Own queue first (front), then scan siblings and steal from
            // the back. Tasks never spawn tasks, so "all queues empty"
            // is terminal.
            let mut grabbed = queues[w].lock().expect("queue lock").pop_front();
            if grabbed.is_none() {
                grabbed = (1..threads)
                    .find_map(|k| queues[(w + k) % threads].lock().expect("queue lock").pop_back());
                stolen.fetch_add(u64::from(grabbed.is_some()), Ordering::Relaxed);
            }
            match grabbed {
                Some((idx, task)) => done.push((idx, catch_unwind(AssertUnwindSafe(task)))),
                None => return done,
            }
        }
    };
    let mut done = std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|w| s.spawn(move || work(w))).collect();
        let mut done = work(0);
        for handle in handles {
            done.extend(handle.join().expect("tasks are caught, so a worker cannot panic"));
        }
        done
    });
    done.sort_unstable_by_key(|&(idx, _)| idx);
    let results = done
        .into_iter()
        .map(|(idx, outcome)| {
            outcome.unwrap_or_else(|payload| {
                panic!("task {idx} panicked: {}", panic_message(&*payload))
            })
        })
        .collect();
    (results, ExecutorStats { executed: n as u64, stolen: stolen.load(Ordering::Relaxed) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A task whose cost depends on its index: every seventh spins long.
    fn uneven(i: u64) -> (u64, u64) {
        let spin = if i.is_multiple_of(7) { 20_000 } else { 10 };
        let mut acc = i;
        for k in 0..spin {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        (i, acc)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        // Determinism under real scheduling: which worker runs or steals
        // what differs from pass to pass, the result order never does.
        let expected: Vec<(u64, u64)> = (0..37).map(uneven).collect();
        for _ in 0..200 {
            for threads in [1, 2, 4, 8] {
                let tasks: Vec<_> = (0..37u64).map(|i| move || uneven(i)).collect();
                let (results, stats) = execute(threads, tasks);
                assert_eq!(results, expected, "{threads} threads");
                assert_eq!(stats.executed, 37);
            }
        }
    }

    #[test]
    fn single_worker_never_steals() {
        let tasks: Vec<_> = (0..16).map(|i| move || i).collect();
        let (_, stats) = execute(1, tasks);
        assert_eq!(stats.stolen, 0);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let (results, stats) = execute(4, Vec::<Box<dyn FnOnce() -> u32 + Send>>::new());
        assert!(results.is_empty());
        assert_eq!(stats, ExecutorStats::default());
    }

    #[test]
    fn the_budget_is_the_number_of_threads() {
        // No more than `threads` tasks are ever in flight, the calling
        // thread included, and a budget of 1 stays on the caller.
        let caller = std::thread::current().id();
        for threads in [1usize, 2, 4] {
            let in_flight = AtomicUsize::new(0);
            let high_water = AtomicUsize::new(0);
            let tasks: Vec<_> = (0..64u64)
                .map(|i| {
                    let (in_flight, high_water) = (&in_flight, &high_water);
                    move || {
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        high_water.fetch_max(now, Ordering::SeqCst);
                        let out = uneven(i * 7);
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        (out, std::thread::current().id())
                    }
                })
                .collect();
            let (results, _) = execute(threads, tasks);
            let peak = high_water.load(Ordering::SeqCst);
            assert!((1..=threads).contains(&peak), "{peak} in flight at budget {threads}");
            if threads == 1 {
                assert!(results.iter().all(|(_, id)| *id == caller), "budget 1 runs inline");
            }
        }
    }

    #[test]
    fn a_task_panic_keeps_its_message_and_index() {
        for threads in [1usize, 4] {
            let ran = AtomicUsize::new(0);
            let tasks: Vec<_> = (0..24u32)
                .map(|i| {
                    let ran = &ran;
                    move || {
                        if i == 5 {
                            panic!("boom {}", 17);
                        }
                        ran.fetch_add(1, Ordering::SeqCst);
                        i
                    }
                })
                .collect();
            let payload = catch_unwind(AssertUnwindSafe(|| execute(threads, tasks)))
                .expect_err("the task's panic reaches the caller");
            let message = panic_message(&*payload);
            assert!(message.contains("task 5"), "{message}");
            assert!(message.contains("boom 17"), "{message}");
            assert_eq!(ran.load(Ordering::SeqCst), 23, "the other tasks still ran");
        }
    }
}
