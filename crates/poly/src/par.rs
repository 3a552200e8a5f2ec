//! The scoped fan-out every parallel stage of the engine runs on, and
//! the one place where work crosses threads.
//!
//! Workers drain an atomic index into index-addressed slots, so results
//! come back in job order whoever computed them. Each worker runs under
//! [`offload_obs::measure`] and its work record is added to the caller's
//! after join; the sum does not depend on which worker did which job, so
//! the caller's record is exact and scheduling-independent.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Worker threads the machine can actually run at once. Spawning more
/// scoped workers than cores never helps — they time-slice one another
/// and pay spawn/teardown plus cold thread-local caches for nothing.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The worker count [`fan_out`] uses for `jobs` jobs when granted
/// `threads`: capped at the job count and the hardware thread count,
/// and at least 1.
pub fn worker_count(threads: usize, jobs: usize) -> usize {
    threads.min(jobs).min(hardware_threads()).max(1)
}

/// Runs `job(state, i)` for every `i` in `0..n` and returns the results
/// in index order.
///
/// With one worker (see [`worker_count`]) everything runs inline on the
/// calling thread with one `init()` state. Otherwise scoped workers each
/// build their own state and claim indices until none are left. A worker
/// panic is re-raised on the caller. Each job must be a pure function of
/// its index (and the worker state's reusable scratch), so which thread
/// computes which slot never affects the output.
pub fn fan_out<S, T>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T>
where
    T: Send,
{
    let workers = worker_count(threads, n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|i| job(&mut state, i)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    offload_obs::measure(|| {
                        let mut state = init();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let v = job(&mut state, i);
                            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                        }
                    })
                    .1
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(work) => offload_obs::record(|s| s.add(&work)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every slot is filled before the scope joins")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_at_any_width() {
        for threads in [1, 2, 4] {
            let out = fan_out(37, threads, || (), |_, i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_records_reach_the_caller_exactly() {
        for threads in [1, 2, 4] {
            let (_, work) = offload_obs::measure(|| {
                fan_out(
                    20,
                    threads,
                    || (),
                    |_, i| {
                        offload_obs::record(|s| s.lp_pivots += i as u64);
                    },
                )
            });
            assert_eq!(work.lp_pivots, (0..20).sum::<u64>(), "threads={threads}");
        }
    }

    #[test]
    fn worker_count_is_capped() {
        assert_eq!(worker_count(0, 10), 1);
        assert_eq!(worker_count(8, 1), 1);
        assert!(worker_count(64, 64) <= hardware_threads());
    }
}
