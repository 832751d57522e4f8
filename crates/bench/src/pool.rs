//! A work-stealing replication pool for independent benchmark jobs whose
//! *fold* must stay deterministic: idle workers claim the next job index
//! from a shared counter and stream `(index, result)` pairs back, and the
//! caller folds them in **strict submission order**, so the outcome, early
//! cut included, is bit-identical for any worker count. Results speculated
//! past a cut are discarded identically in every configuration.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `run` over every job on `threads` workers, folding results in
/// submission order. `fold` receives `(index, result)` strictly by
/// ascending index and may return [`ControlFlow::Break`] to cut the
/// replication early (workers stop claiming new jobs; in-flight speculative
/// results are discarded).
///
/// Determinism contract: for a fixed `jobs` and a pure `run`, the sequence
/// of `fold` calls — and therefore anything accumulated inside the fold,
/// floating-point order included — is identical for every `threads ≥ 1`.
///
/// `threads == 1` runs everything inline on the caller's thread with no
/// pool, no channel, and no speculation; this is also the reference
/// behaviour the threaded path must reproduce.
pub fn replicate_in_order<J, T>(
    jobs: &[J],
    threads: usize,
    run: impl Fn(&J) -> T + Sync,
    mut fold: impl FnMut(usize, T) -> ControlFlow<()>,
) where
    J: Sync,
    T: Send,
{
    assert!(threads >= 1, "need at least one replication worker");
    if threads == 1 || jobs.len() <= 1 {
        for (idx, job) in jobs.iter().enumerate() {
            if fold(idx, run(job)).is_break() {
                return;
            }
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, T)>();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            let tx = tx.clone();
            let (next, stop, run) = (&next, &stop, &run);
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(idx) else { break };
                    // A send only fails when the folder dropped the
                    // receiver after cutting; the surplus result is
                    // discarded either way.
                    if tx.send((idx, run(job))).is_err() {
                        break;
                    }
                }
            });
        }
        // The workers hold their own clones.
        drop(tx);

        // Fold strictly by index: buffer results that arrive out of order
        // until their predecessors have been folded.
        let mut pending: Vec<Option<T>> = jobs.iter().map(|_| None).collect();
        let mut next_fold = 0usize;
        'folding: while next_fold < jobs.len() {
            let Ok((idx, result)) = rx.recv() else {
                // All workers exited (only possible after `stop`, a cut,
                // or job exhaustion — every pre-cut result was received).
                break;
            };
            pending[idx] = Some(result);
            while let Some(result) = pending.get_mut(next_fold).and_then(Option::take) {
                next_fold += 1;
                if fold(next_fold - 1, result).is_break() {
                    stop.store(true, Ordering::Release);
                    break 'folding;
                }
            }
        }
        // Unblock workers parked in `send` and let the scope join them;
        // their remaining speculative results are dropped.
        drop(rx);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold_all(jobs: &[u64], threads: usize) -> Vec<(usize, u64)> {
        let mut seen = Vec::new();
        replicate_in_order(
            jobs,
            threads,
            |&j| {
                // Uneven, order-scrambling work so fast jobs finish first.
                std::thread::sleep(std::time::Duration::from_micros(j % 7 * 200));
                j * 10
            },
            |idx, r| {
                seen.push((idx, r));
                ControlFlow::Continue(())
            },
        );
        seen
    }

    #[test]
    fn folds_in_submission_order_regardless_of_threads() {
        let jobs: Vec<u64> = (0..20).rev().collect();
        let reference = fold_all(&jobs, 1);
        assert_eq!(reference.len(), 20);
        for threads in [2, 4, 8] {
            assert_eq!(fold_all(&jobs, threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn early_cut_is_thread_count_invariant() {
        let jobs: Vec<u64> = (1..=30).collect();
        let cut_sum = |threads: usize| {
            let mut sum = 0u64;
            replicate_in_order(
                &jobs,
                threads,
                |&j| {
                    std::thread::sleep(std::time::Duration::from_micros(j % 5 * 150));
                    j
                },
                |_, r| {
                    sum += r;
                    if sum >= 40 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            sum
        };
        let reference = cut_sum(1);
        assert_eq!(reference, 45, "1+2+...+9 crosses 40 at index 8");
        for threads in [2, 4, 8] {
            assert_eq!(cut_sum(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_job_lists() {
        let mut calls = 0;
        replicate_in_order(
            &[],
            4,
            |_: &u64| 0u64,
            |_, _| {
                calls += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(calls, 0);
        replicate_in_order(
            &[5u64],
            4,
            |&j| j,
            |idx, r| {
                calls += 1;
                assert_eq!((idx, r), (0, 5));
                ControlFlow::Continue(())
            },
        );
        assert_eq!(calls, 1);
    }

    #[test]
    #[should_panic(expected = "at least one replication worker")]
    fn zero_threads_panics() {
        replicate_in_order(&[1u64], 0, |&j| j, |_, _| ControlFlow::Continue(()));
    }
}
