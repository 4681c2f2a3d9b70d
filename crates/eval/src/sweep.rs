//! Work-stealing sweep executor for experiment batteries.
//!
//! Model evaluation is embarrassingly parallel across schemes, but the
//! items are far from uniform (a 10-comm MK2 run costs many times a
//! 2-comm ladder), so a static block split leaves workers idle. The
//! [`SweepExecutor`] gives every worker its own deque over a contiguous
//! block of item indices; a worker that drains its block steals the back
//! half of a victim's deque. Results land in per-worker `(index, result)`
//! buffers that are merged once at join — no shared results lock on the
//! per-item path (the pre-executor `parallel_map` funnelled every result
//! through a single `Mutex<Vec<Option<R>>>`) — and output always keeps
//! input order, whatever the steal schedule was.
//!
//! [`parallel_map`] survives as a thin stateless wrapper. Stateful sweeps
//! (per-worker fabric arenas, solver reuse) go through
//! [`SweepExecutor::map_init`], which is what
//! [`crate::session::EvalSession`] builds on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-worker `(input index, result)` buffers handed over at join.
type ResultBuffers<R> = Mutex<Vec<(usize, Vec<(usize, R)>)>>;

/// Observability counters of one executor run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Workers that ran (1 = inline sequential path).
    pub workers: usize,
    /// Successful steal operations (batches moved, not items).
    pub steals: u64,
    /// Items each worker processed, indexed by worker.
    pub per_worker_items: Vec<u64>,
}

/// Work-stealing executor over a fixed item set.
#[derive(Clone, Copy, Debug)]
pub struct SweepExecutor {
    threads: usize,
}

impl SweepExecutor {
    /// An executor using up to `threads` workers (0 = available
    /// parallelism).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
        SweepExecutor { threads }
    }

    /// The configured worker ceiling.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, returning results in input order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_init(items, |_| (), |(), item, _| f(item)).0
    }

    /// Applies `f` to every item with per-worker state: `init(worker)`
    /// runs once on each worker thread before it takes its first item,
    /// and the state is threaded through every item that worker processes
    /// (its own block plus anything it steals). Results keep input order;
    /// `f` also receives the item's input index.
    ///
    /// A panicking `f` propagates to the caller (scoped threads re-raise
    /// on join), matching the sequential path.
    pub fn map_init<T, R, S, I, F>(&self, items: &[T], init: I, f: F) -> (Vec<R>, ExecutorStats)
    where
        T: Sync,
        R: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, &T, usize) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return (
                Vec::new(),
                ExecutorStats {
                    workers: 1,
                    steals: 0,
                    per_worker_items: vec![0],
                },
            );
        }
        let workers = self.threads.min(n).max(1);
        if workers == 1 {
            let mut state = init(0);
            let out = items
                .iter()
                .enumerate()
                .map(|(i, item)| f(&mut state, item, i))
                .collect();
            return (
                out,
                ExecutorStats {
                    workers: 1,
                    steals: 0,
                    per_worker_items: vec![n as u64],
                },
            );
        }

        // Contiguous blocks keep each worker on cache-friendly, input-order
        // work until stealing begins.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w * n / workers..(w + 1) * n / workers).collect()))
            .collect();
        let steals = AtomicU64::new(0);
        // Per-worker result buffers, handed over once per worker at join —
        // the only cross-thread write is one push per worker.
        let buffers: ResultBuffers<R> = Mutex::new(Vec::with_capacity(workers));
        std::thread::scope(|scope| {
            for w in 0..workers {
                let deques = &deques;
                let steals = &steals;
                let buffers = &buffers;
                let f = &f;
                let init = &init;
                scope.spawn(move || {
                    let mut state = init(w);
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let next = deques[w].lock().expect("sweep deque").pop_front();
                        let i = match next {
                            Some(i) => i,
                            None => match steal_batch(deques, w) {
                                Some(mut batch) => {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    let first = batch.pop_front().expect("non-empty steal");
                                    if !batch.is_empty() {
                                        deques[w].lock().expect("sweep deque").append(&mut batch);
                                    }
                                    first
                                }
                                None => break,
                            },
                        };
                        local.push((i, f(&mut state, &items[i], i)));
                    }
                    buffers.lock().expect("sweep buffers").push((w, local));
                });
            }
        });

        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut per_worker_items = vec![0u64; workers];
        for (w, buf) in buffers.into_inner().expect("sweep buffers") {
            per_worker_items[w] = buf.len() as u64;
            for (i, r) in buf {
                debug_assert!(out[i].is_none(), "item {i} processed twice");
                out[i] = Some(r);
            }
        }
        let out = out
            .into_iter()
            .map(|r| r.expect("every item processed"))
            .collect();
        let stats = ExecutorStats {
            workers,
            steals: steals.into_inner(),
            per_worker_items,
        };
        (out, stats)
    }
}

/// The sweep executor doubles as the settle dispatcher for the sharded
/// fluid engine ([`netbw_fluid::FluidNetwork::with_sharded_dispatch`]):
/// one settle barrier's dirty-shard refreshes are independent one-shot
/// jobs, exactly the uneven-item workload the work-stealing deques were
/// built for. Jobs are wrapped in per-item mutexes only to satisfy
/// `map`'s `&T` access — each job is taken by exactly one worker, so the
/// locks are uncontended. Panicking jobs propagate through the scoped
/// join, which is what keeps a poisoned shard from deadlocking the settle
/// barrier above. A single-job barrier (or a 1-thread executor) runs
/// inline on the calling thread — no spawn cost for mostly-serial
/// workloads.
impl netbw_fluid::SettleDispatch for SweepExecutor {
    fn run_settles(&self, jobs: &mut [netbw_fluid::SettleJob<'_>]) {
        let cells: Vec<Mutex<&mut netbw_fluid::SettleJob<'_>>> =
            jobs.iter_mut().map(Mutex::new).collect();
        self.map(&cells, |cell| {
            cell.lock().expect("settle job lock").run();
        });
    }
}

/// Steals the back half (at least one item) of the first non-empty
/// victim deque, scanning round-robin from the thief's successor. `None`
/// when every other deque is empty — with a fixed item set that means
/// the thief is done. (An item may briefly be in a thief's hands between
/// two locks; the thief itself processes it, so no item is ever lost.)
fn steal_batch(deques: &[Mutex<VecDeque<usize>>], thief: usize) -> Option<VecDeque<usize>> {
    let workers = deques.len();
    for off in 1..workers {
        let victim = (thief + off) % workers;
        let mut q = deques[victim].lock().expect("sweep deque");
        let len = q.len();
        if len > 0 {
            // Take the back half: the victim keeps the front it is already
            // working towards.
            return Some(q.split_off(len / 2));
        }
    }
    None
}

/// Applies `f` to every item on a pool of work-stealing workers, returning
/// results in input order. Uses up to `threads` workers (0 = available
/// parallelism). Thin stateless wrapper over [`SweepExecutor::map`].
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    SweepExecutor::new(threads).map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u64> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u64], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn zero_threads_means_auto() {
        let items: Vec<u64> = (0..16).collect();
        assert_eq!(parallel_map(&items, 0, |&x| x), items);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items = vec![1u64, 2, 3];
        parallel_map(&items, 2, |&x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn per_worker_state_covers_every_item_once() {
        let items: Vec<usize> = (0..257).collect();
        let exec = SweepExecutor::new(4);
        let (out, stats) = exec.map_init(
            &items,
            |w| (w, 0u64),
            |s, &x, i| {
                s.1 += 1;
                assert_eq!(x, i);
                x * 3
            },
        );
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(stats.per_worker_items.iter().sum::<u64>(), 257);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn skewed_items_get_stolen() {
        // Worker 0's first item blocks until another worker has run an
        // item of block 0, which only a steal can hand it; a timeout
        // would mean the stuck worker was never relieved.
        use std::sync::Condvar;
        use std::time::Duration;
        let items: Vec<u64> = (0..64).collect();
        let exec = SweepExecutor::new(4);
        let relieved = (Mutex::new(false), Condvar::new());
        let (out, stats) = exec.map_init(
            &items,
            |w| w,
            |&mut w, &x, _| {
                let (done, wake) = &relieved;
                if x == 0 {
                    let guard = done.lock().expect("relief flag");
                    let (_relief, waited) = wake
                        .wait_timeout_while(guard, Duration::from_secs(30), |done| !*done)
                        .expect("relief flag");
                    assert!(!waited.timed_out(), "nobody stole from the stuck worker");
                } else if x < 16 && w != 0 {
                    *done.lock().expect("relief flag") = true;
                    wake.notify_all();
                }
                (x + 1, w)
            },
        );
        let values: Vec<u64> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, (1..=64).collect::<Vec<_>>());
        assert!(stats.steals > 0, "expected steals: {stats:?}");
        // worker 0 was stuck on item 0: it cannot have run its whole block
        let own = out[..16].iter().filter(|&&(_, w)| w == 0).count();
        assert!(own < 16, "steals must relieve the stuck worker: {stats:?}");
    }

    #[test]
    fn executor_caps_workers_at_item_count() {
        let items = vec![1u64, 2];
        let (out, stats) = SweepExecutor::new(16).map_init(&items, |_| (), |(), &x, _| x);
        assert_eq!(out, items);
        assert!(stats.workers <= 2);
    }
}
