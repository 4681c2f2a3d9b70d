//! Work-stealing sweep executor for experiment batteries, on a persistent
//! worker pool.
//!
//! Model evaluation is embarrassingly parallel across schemes, but the
//! items are far from uniform (a 10-comm MK2 run costs many times a
//! 2-comm ladder), so a static block split leaves workers idle. The
//! [`SweepExecutor`] gives every worker its own deque over a contiguous
//! block of item indices; a worker that drains its block steals the back
//! half of a victim's deque. Results land in per-worker `(index, result)`
//! buffers that are merged once at the end of the round — no shared
//! results lock on the per-item path (the pre-executor `parallel_map`
//! funnelled every result through a single `Mutex<Vec<Option<R>>>`) — and
//! output always keeps input order, whatever the steal schedule was.
//!
//! The workers are `threads − 1` OS threads, spawned on the executor's
//! first parallel round and joined when its last handle (clones share the
//! pool) drops. Between rounds they park on a condvar, so an idle pool
//! costs no CPU. A round publishes a claim counter over its jobs and
//! wakes the pool; the calling thread claims from the same counter, so a
//! round never waits for a thread to start — only for a job a worker has
//! actually claimed — and a round whose jobs are done before a worker
//! wakes costs the caller about what running them serially would. Jobs
//! run under `catch_unwind`: a panicking job does not stop the round,
//! its payload is re-raised on the caller once the round is over, and the
//! workers live on. A round issued while the pool is held — from inside
//! one of its own jobs, or by another thread — runs inline on its caller
//! rather than waiting for the pool.
//!
//! [`parallel_map`] survives as a thin stateless wrapper. Stateful sweeps
//! (per-worker fabric arenas, solver reuse) go through
//! [`SweepExecutor::map_init`], which is what
//! [`crate::session::EvalSession`] builds on.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-worker `(input index, result)` buffers handed over at the end of
/// a round.
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

/// Work-stealing executor over a fixed item set. Clones share one worker
/// pool (see the module docs).
#[derive(Clone)]
pub struct SweepExecutor {
    threads: usize,
    pool: Arc<OnceLock<Pool>>,
}

impl std::fmt::Debug for SweepExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepExecutor")
            .field("threads", &self.threads)
            .field(
                "pool_workers",
                &self.pool.get().map_or(0, |p| p.workers.len()),
            )
            .finish()
    }
}

impl SweepExecutor {
    /// An executor using up to `threads` workers (0 = available
    /// parallelism). No thread is spawned until the first round that can
    /// use one, and a 1-thread executor never spawns.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
        SweepExecutor {
            threads,
            pool: Arc::new(OnceLock::new()),
        }
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
    /// runs once per worker before it takes its first item, and the state
    /// is threaded through every item that worker processes (its own
    /// block plus anything it steals). Results keep input order; `f` also
    /// receives the item's input index.
    ///
    /// Each worker's deque loop is one pool job. A panicking `f`
    /// propagates to the caller with its original payload once the round
    /// is over, matching the sequential path. A call made while the pool
    /// is held (from inside a pool job, or concurrently with another
    /// thread's round) takes the sequential path.
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
        let workers = self.threads.min(n);
        let Some(lease) = (workers > 1).then(|| self.lease()).flatten() else {
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
        };

        // Contiguous blocks keep each worker on cache-friendly, input-order
        // work until stealing begins.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w * n / workers..(w + 1) * n / workers).collect()))
            .collect();
        let steals = AtomicU64::new(0);
        // Per-worker result buffers, handed over once per worker at the
        // end of its job — the only cross-thread write is one push per
        // worker.
        let buffers: ResultBuffers<R> = Mutex::new(Vec::with_capacity(workers));
        lease.run(workers, &|w| {
            let mut state = init(w);
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let next = deques[w].lock().expect("sweep deque").pop_front();
                let i = match next {
                    Some(i) => i,
                    None => match steal_batch(&deques, w) {
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

    /// The pool for one parallel round, spawning it on first use; `None`
    /// for a 1-thread executor or while another round holds the pool, in
    /// which case the caller runs its jobs inline.
    fn lease(&self) -> Option<Lease<'_>> {
        if self.threads < 2 {
            return None;
        }
        let pool = self.pool.get_or_init(|| Pool::spawn(self.threads - 1));
        pool.shared
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()?;
        Some(Lease {
            shared: &pool.shared,
            workers: pool.workers.len(),
        })
    }
}

/// The sweep executor doubles as the settle dispatcher for the sharded
/// fluid engine ([`netbw_fluid::FluidNetwork::with_sharded_dispatch`]):
/// one settle barrier's dirty-shard refreshes are independent one-shot
/// jobs, which the caller and the parked pool workers claim by index from
/// one counter — each job is reached by exactly one claimant, so no lock
/// guards it. A panicking job is caught, the rest of the barrier still
/// runs, and the first payload is re-raised here on the caller: a
/// poisoned shard can neither deadlock the barrier nor kill a worker. A
/// single-job barrier, a 1-thread executor, or a barrier that finds the
/// pool held runs inline on the calling thread.
impl netbw_fluid::SettleDispatch for SweepExecutor {
    fn run_settles(&self, jobs: &mut [netbw_fluid::SettleJob<'_>]) {
        let Some(lease) = (jobs.len() > 1).then(|| self.lease()).flatten() else {
            jobs.iter_mut().for_each(netbw_fluid::SettleJob::run);
            return;
        };
        let claims = SettleClaims(jobs.as_mut_ptr());
        // SAFETY: the round hands every index below `jobs.len()` to exactly
        // one claimant, and `jobs` outlives the round.
        lease.run(jobs.len(), &|i| unsafe { claims.run(i) });
    }
}

/// The settle jobs of one barrier, reached by claimed index.
struct SettleClaims<'s>(*mut netbw_fluid::SettleJob<'s>);

// SAFETY: `SettleJob` is `Send`, and each index is dereferenced by one
// thread only (see `run_settles`).
unsafe impl Sync for SettleClaims<'_> {}

impl SettleClaims<'_> {
    /// Runs job `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and claimed by the caller alone.
    unsafe fn run(&self, i: usize) {
        (*self.0.add(i)).run();
    }
}

/// An executor's parked worker threads.
struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

/// What a pool's workers share with the thread running a round.
#[derive(Default)]
struct PoolShared {
    /// Taken by the thread whose round holds the pool; a round that finds
    /// it taken runs inline instead of waiting. Taken with `Acquire` and
    /// released with `Release`, so one round's owner sees everything the
    /// previous round left behind.
    busy: AtomicBool,
    /// Workers inside the current round. Changed only under the `state`
    /// lock, so the owner's condvar wait cannot miss the last exit, but
    /// readable without it, so the owner can spin on it briefly first: a
    /// worker leaves with a `Release` decrement that the owner's `Acquire`
    /// load pairs with, which publishes the worker's job results.
    active: AtomicUsize,
    state: Mutex<PoolState>,
    /// Parked workers wait here for a round (or shutdown).
    wake: Condvar,
    /// A round's owner waits here for the last worker to leave it.
    idle: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// The round open for claiming, if any.
    round: Option<RoundRef>,
    /// Bumped per round, so a worker enters each round at most once.
    epoch: u64,
    /// Workers waiting on `wake`: a round wakes no more than it can use,
    /// and none when every worker is still awake.
    parked: usize,
    /// Whether a round's owner is waiting on `idle`.
    owner_waiting: bool,
    shutdown: bool,
}

/// How long a round's owner spins for the last busy worker before it
/// parks on the `idle` condvar: long enough to cover a typical settle
/// job, so short rounds skip a sleep/wake pair, and short enough that
/// a long job costs the owner's core little.
const OWNER_SPIN: Duration = Duration::from_micros(50);

/// One round of indexed jobs, on its owner's stack.
struct Round<'a> {
    /// The first unclaimed job index. `Relaxed` suffices: it publishes
    /// nothing, since the jobs' inputs reach a worker through the `state`
    /// lock it entered the round under.
    next: AtomicUsize,
    jobs: usize,
    /// A claim takes this fraction of the unclaimed jobs (at least one).
    share: usize,
    job: &'a (dyn Fn(usize) + Sync),
    /// The first panic payload of the round.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Round<'_> {
    /// Claims and runs jobs until none are left. Claims are contiguous
    /// runs that shrink as the round drains (guided self-scheduling): a
    /// wide barrier costs a few claims per thread instead of one per job,
    /// and neighbouring jobs — whose shard state tends to share cache
    /// lines — stay on one core. A panicking job is caught and its
    /// payload kept, so the round always completes and the thread
    /// survives.
    fn work(&self) {
        let mut start = self.next.load(Ordering::Relaxed);
        while start < self.jobs {
            let end = start + ((self.jobs - start) / self.share).max(1);
            match self
                .next
                .compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    for i in start..end {
                        if let Err(payload) =
                            panic::catch_unwind(AssertUnwindSafe(|| (self.job)(i)))
                        {
                            lock(&self.panic).get_or_insert(payload);
                        }
                    }
                    start = self.next.load(Ordering::Relaxed);
                }
                Err(now) => start = now,
            }
        }
    }
}

/// The open round with its lifetime erased: workers dereference it only
/// between entering the round and leaving it, and the owner keeps it
/// alive until every worker that entered has left ([`Close`]).
#[derive(Clone, Copy)]
struct RoundRef(*const Round<'static>);

// SAFETY: a `Round` is `Sync` (atomics, a mutex, a `Sync` closure), and
// the pointer is only dereferenced while the round is alive (see above).
unsafe impl Send for RoundRef {}

/// Exclusive use of a pool for one round; dropping it frees the pool.
struct Lease<'p> {
    shared: &'p PoolShared,
    workers: usize,
}

impl Lease<'_> {
    /// Runs jobs `0..jobs` on the calling thread and the pool's workers,
    /// returning once every job has run; the first panicking job's payload
    /// is then re-raised here.
    fn run(self, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        let helpers = jobs.saturating_sub(1).min(self.workers);
        let round = Round {
            next: AtomicUsize::new(0),
            jobs,
            share: 2 * (helpers + 1),
            job,
            panic: Mutex::new(None),
        };
        let parked = {
            let mut st = lock(&self.shared.state);
            st.round = Some(RoundRef(std::ptr::from_ref(&round).cast()));
            st.epoch = st.epoch.wrapping_add(1);
            st.parked
        };
        // Declared after `round`, so it drops (and waits the workers out)
        // first, even if this thread unwinds.
        let close = Close(self.shared);
        if helpers >= parked {
            if parked > 0 {
                self.shared.wake.notify_all();
            }
        } else {
            for _ in 0..helpers {
                self.shared.wake.notify_one();
            }
        }
        round.work();
        drop(close);
        let payload = round.panic.into_inner();
        drop(self);
        if let Some(payload) = payload.unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.shared.busy.store(false, Ordering::Release);
    }
}

/// Retires the open round and waits until no worker is inside it —
/// spinning for up to [`OWNER_SPIN`], then parking.
struct Close<'p>(&'p PoolShared);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        lock(&shared.state).round = None;
        // No worker can enter a retired round, so `active` only falls.
        let spin = Instant::now();
        while shared.active.load(Ordering::Acquire) > 0 {
            if spin.elapsed() >= OWNER_SPIN {
                let mut st = lock(&shared.state);
                while shared.active.load(Ordering::Acquire) > 0 {
                    st.owner_waiting = true;
                    st = shared.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                st.owner_waiting = false;
                return;
            }
            std::hint::spin_loop();
        }
    }
}

impl Pool {
    /// Spawns up to `workers` parked threads (fewer if the OS refuses
    /// some; the caller runs every job a missing worker would have).
    fn spawn(workers: usize) -> Pool {
        let shared = Arc::new(PoolShared::default());
        let workers = (0..workers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        Pool { shared, workers }
    }
}

/// Joins the workers. Workers run nothing but round jobs, and a round's
/// owner holds a handle for the whole round, so the last handle never
/// drops on a worker (which would then join itself).
impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            // jobs run under `catch_unwind`, so a worker never panics
            let _ = worker.join();
        }
    }
}

/// A pool worker: park until a round opens, claim its jobs alongside the
/// owner, leave, repeat until shutdown.
fn worker_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let round = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                match st.round {
                    Some(round) if st.epoch != seen => {
                        seen = st.epoch;
                        shared.active.fetch_add(1, Ordering::Relaxed);
                        break round;
                    }
                    _ => {
                        st.parked += 1;
                        st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                        st.parked -= 1;
                    }
                }
            }
        };
        // SAFETY: the owner keeps the round alive until `active` is back
        // to zero (`Close`).
        unsafe { &*round.0 }.work();
        let st = lock(&shared.state);
        if shared.active.fetch_sub(1, Ordering::Release) == 1 && st.owner_waiting {
            shared.idle.notify_one();
        }
    }
}

/// Locks a pool mutex. Nothing panics while holding one (jobs run outside
/// them), so poisoning carries no meaning here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
