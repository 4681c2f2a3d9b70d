//! The core what-if service: authoritative engine, snapshot cache, and
//! batched speculative evaluation on the sweep executor.

use netbw_core::{GigabitEthernetModel, PenaltyModel};
use netbw_eval::{EvalSession, SweepStats, SweepWorker};
use netbw_fluid::{AddError, CompletedTransfer, FluidNetwork, NetworkParams, TransferKey};
use netbw_graph::Communication;
use netbw_packet::FabricConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Key bit marking a speculative (what-if) flow inside a fork. Admitted
/// transfers take keys counting up from zero, so the two namespaces can
/// never collide in practice.
const SPEC_BASE: TransferKey = 1 << 63;

/// Shared penalty model handle: the authoritative engine, its snapshot
/// and every per-query fork alias one model allocation.
type ModelHandle = Arc<dyn PenaltyModel>;

/// The service's key into each worker's fork arena (see
/// [`netbw_eval::SweepWorker::take_fork_arena`]); one engine is parked
/// per worker.
const FORK_ARENA_KEY: u64 = 0;

/// The largest what-if flow the service answers, in bytes (4 GiB).
/// Normalising a flow's slowdown needs `Tref(size)`, a packet-level
/// simulation whose cost grows linearly with the size — about 20 ms at
/// this cap on the GigE fabric — so a larger flow is refused with
/// [`ServeError::FlowTooLarge`] instead of stalling its worker.
pub const MAX_WHAT_IF_BYTES: u64 = 1 << 32;

/// The latest start offset a what-if flow may take, in seconds (2^26 s,
/// about 2.1 years). A start is `now + offset` in `f64`, so a huge offset
/// swallows the flow: at 1e300 the flow's whole transfer time is below
/// one ulp of its start, and the answer reads `elapsed 0`. At this cap an
/// ulp of the start is about 15 ns; a larger offset is refused with
/// [`ServeError::OffsetTooLarge`].
pub const MAX_WHAT_IF_OFFSET: f64 = (1u64 << 26) as f64;

/// Configuration of a [`WhatIfService`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Fluid-network parameters (bandwidth/latency) of the served cluster.
    pub params: NetworkParams,
    /// Packet fabric used to measure `Tref(size)` for slowdown
    /// normalisation.
    pub fabric: FabricConfig,
    /// Worker ceiling for query batches (0 = available parallelism).
    pub threads: usize,
}

impl Default for ServeConfig {
    /// The paper's Gigabit Ethernet cluster, all cores.
    fn default() -> Self {
        ServeConfig {
            params: NetworkParams::gige(),
            fabric: FabricConfig::gige(),
            threads: 0,
        }
    }
}

/// A typed refusal from the service. Malformed requests come back as
/// values — a long-running service must never panic on user input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServeError {
    /// The engine refused the flow (non-finite start, or a start before
    /// the current clock).
    Rejected(AddError),
    /// `advance_to(t)` would move the clock backwards (or `t` is NaN).
    NonMonotonicClock {
        /// The requested clock value.
        t: f64,
        /// The service clock at the time of the request.
        now: f64,
    },
    /// A what-if query with no flows.
    EmptyQuery,
    /// A what-if flow larger than [`MAX_WHAT_IF_BYTES`].
    FlowTooLarge {
        /// The refused flow's size in bytes.
        size: u64,
    },
    /// A what-if flow starting more than [`MAX_WHAT_IF_OFFSET`] seconds
    /// after the service clock.
    OffsetTooLarge {
        /// The refused start offset in seconds.
        offset: f64,
    },
    /// The service thread behind a [`crate::ServeHandle`] has shut down.
    ServiceStopped,
    /// The engine or the model panicked. A what-if query that panics
    /// answers this and its fork is dropped, and the service goes on
    /// serving; a panic while admitting into or advancing the engine of
    /// record leaves it untrustworthy, so every later admission, advance
    /// and query answers this too (the counters stay readable).
    Internal,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(err) => write!(f, "admission rejected: {err}"),
            ServeError::NonMonotonicClock { t, now } => {
                write!(f, "cannot advance to {t}: clock is already at {now}")
            }
            ServeError::EmptyQuery => write!(f, "what-if query has no flows"),
            ServeError::FlowTooLarge { size } => write!(
                f,
                "what-if flow of {size} bytes exceeds the {MAX_WHAT_IF_BYTES}-byte limit"
            ),
            ServeError::OffsetTooLarge { offset } => write!(
                f,
                "what-if start offset of {offset} s exceeds the {MAX_WHAT_IF_OFFSET} s limit"
            ),
            ServeError::ServiceStopped => write!(f, "service thread has shut down"),
            ServeError::Internal => write!(f, "internal error: the engine panicked"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Rejected(err) => Some(err),
            _ => None,
        }
    }
}

impl From<AddError> for ServeError {
    fn from(err: AddError) -> Self {
        ServeError::Rejected(err)
    }
}

/// A speculative placement: flows to superimpose on the live cluster
/// state, each starting `offset` seconds after the service clock.
#[derive(Clone, Debug, Default)]
pub struct WhatIfQuery {
    /// `(communication, start offset from now)` pairs; offsets must be
    /// finite and non-negative or the query is [`ServeError::Rejected`],
    /// and at most [`MAX_WHAT_IF_OFFSET`] or it is
    /// [`ServeError::OffsetTooLarge`].
    pub flows: Vec<(Communication, f64)>,
}

impl WhatIfQuery {
    /// A single-flow query starting `offset` seconds from now.
    pub fn flow(comm: Communication, offset: f64) -> Self {
        WhatIfQuery {
            flows: vec![(comm, offset)],
        }
    }
}

/// Predicted outcome of one speculative flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowAnswer {
    /// Absolute completion time on the service clock.
    pub completion: f64,
    /// Elapsed time from the flow's start to its completion.
    pub elapsed: f64,
    /// Uncontended reference time `Tref(size)` on the service fabric.
    pub tref: f64,
    /// `elapsed / tref` — the paper's penalty, as experienced end to end
    /// (1.0 = the cluster looks idle to this flow).
    pub slowdown: f64,
}

/// Predicted outcome of a [`WhatIfQuery`].
#[derive(Clone, Debug, PartialEq)]
pub struct WhatIfAnswer {
    /// Per-flow outcomes, in query order.
    pub flows: Vec<FlowAnswer>,
    /// Time from now until the last speculative flow completes.
    pub makespan: f64,
}

/// Observability counters of a [`WhatIfService`].
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Transfers admitted into the authoritative engine.
    pub admitted: u64,
    /// Admitted transfers that have completed.
    pub completed: u64,
    /// What-if queries answered through the fork path.
    pub queries: u64,
    /// Snapshot forks taken from the authoritative engine.
    pub snapshot_builds: u64,
    /// Queries served from an already-warm snapshot (every query of a
    /// batch beyond the one that built it, plus whole batches served from
    /// cache). Per-query unit — pairs with [`ServeStats::queries`].
    pub snapshot_reuses: u64,
    /// Batches that found the snapshot cache warm (per-batch unit — pairs
    /// with [`ServeStats::snapshot_builds`]).
    pub snapshot_batch_reuses: u64,
    /// Admission/advance deltas replayed onto the cached snapshot in
    /// place (O(delta)) instead of invalidating it.
    pub rebases: u64,
    /// Re-bases that could not mutate the cached snapshot in place —
    /// it was still aliased by an in-flight batch, so the delta was
    /// applied to a privately re-based successor published in its stead
    /// (paying one fork), or replay was refused and the snapshot dropped.
    pub rebase_fallbacks: u64,
    /// Per-query engine forks that recycled a warm per-worker arena via
    /// `FluidNetwork::clone_from` instead of deep-copying afresh.
    pub fork_reuses: u64,
    /// Executor / arena / `Tref` memo counters of the underlying session.
    pub sweep: SweepStats,
}

impl ServeStats {
    /// Share of *queries* answered without forking the authoritative
    /// engine, in `[0, 1]` — the unit `serve_qps` guards. A batch of `n`
    /// that builds the snapshot still serves `n - 1` queries from it.
    pub fn per_query_snapshot_reuse_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.snapshot_reuses as f64 / self.queries as f64
        }
    }

    /// Share of *batches* that found the snapshot cache warm, in
    /// `[0, 1]`. Counts builds against whole-batch cache hits — the unit
    /// the pre-re-base `snapshot_reuse_rate` conflated with per-query
    /// reuses.
    pub fn per_batch_snapshot_reuse_rate(&self) -> f64 {
        let total = self.snapshot_builds + self.snapshot_batch_reuses;
        if total == 0 {
            0.0
        } else {
            self.snapshot_batch_reuses as f64 / total as f64
        }
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} admitted ({} completed) | {} queries | snapshots: {} built, {} reused \
             ({:.1}% of queries, {:.1}% of batches) | {} rebases ({} fallbacks) | \
             {} fork reuses | {}",
            self.admitted,
            self.completed,
            self.queries,
            self.snapshot_builds,
            self.snapshot_reuses,
            self.per_query_snapshot_reuse_rate() * 100.0,
            self.per_batch_snapshot_reuse_rate() * 100.0,
            self.rebases,
            self.rebase_fallbacks,
            self.fork_reuses,
            self.sweep,
        )
    }
}

/// A cached fork of the authoritative engine, shared by every query of a
/// batch (and across batches until an admission or advance invalidates
/// it). Queries fork *this* instead of the authoritative state, so the
/// authoritative lock is held only for the cache check, never for the
/// speculative settles.
struct Snapshot {
    net: FluidNetwork<ModelHandle>,
    now: f64,
}

/// State behind the authoritative lock: the engine of record, the
/// admission log (for the rebuild ablation), and the snapshot cache.
struct Authoritative {
    net: FluidNetwork<ModelHandle>,
    log: Vec<(TransferKey, Communication, f64)>,
    snapshot: Option<Arc<Snapshot>>,
    next_key: TransferKey,
    completed: u64,
    /// Set when the engine of record panicked: it may be half-settled,
    /// so the service refuses further work on it.
    broken: bool,
}

impl Authoritative {
    /// Runs `f` on the engine of record, isolating a panic: the engine may
    /// then be half-settled, so it is marked broken, the snapshot is
    /// dropped, and the call answers [`ServeError::Internal`].
    fn guarded<R>(
        &mut self,
        f: impl FnOnce(&mut FluidNetwork<ModelHandle>) -> R,
    ) -> Result<R, ServeError> {
        catch_unwind(AssertUnwindSafe(|| f(&mut self.net))).map_err(|_| {
            self.broken = true;
            self.snapshot = None;
            ServeError::Internal
        })
    }
}

/// A long-running what-if service: admit real transfers, advance the
/// clock as they progress, and ask speculative placement questions at any
/// point — answered from forks of the warm engine state, batched on the
/// sweep executor, with `Tref` normalisation deduplicated through the
/// session memo. See the crate docs for the dataflow.
pub struct WhatIfService {
    model: ModelHandle,
    config: ServeConfig,
    session: EvalSession,
    state: Mutex<Authoritative>,
    queries: AtomicU64,
    snapshot_builds: AtomicU64,
    snapshot_reuses: AtomicU64,
    snapshot_batch_reuses: AtomicU64,
    rebases: AtomicU64,
    rebase_fallbacks: AtomicU64,
    fork_reuses: AtomicU64,
}

impl WhatIfService {
    /// A service over the paper's Gigabit Ethernet model.
    pub fn new(config: ServeConfig) -> Self {
        WhatIfService::with_model(Arc::new(GigabitEthernetModel::default()), config)
    }

    /// A service over an explicit penalty model.
    pub fn with_model(model: ModelHandle, config: ServeConfig) -> Self {
        let net = FluidNetwork::new(Arc::clone(&model), config.params);
        WhatIfService {
            model,
            config,
            session: EvalSession::with_threads(config.threads),
            state: Mutex::new(Authoritative {
                net,
                log: Vec::new(),
                snapshot: None,
                next_key: 0,
                completed: 0,
                broken: false,
            }),
            queries: AtomicU64::new(0),
            snapshot_builds: AtomicU64::new(0),
            snapshot_reuses: AtomicU64::new(0),
            snapshot_batch_reuses: AtomicU64::new(0),
            rebases: AtomicU64::new(0),
            rebase_fallbacks: AtomicU64::new(0),
            fork_reuses: AtomicU64::new(0),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of sweep workers query batches fan out on.
    pub fn threads(&self) -> usize {
        self.session.threads()
    }

    /// The current service clock.
    pub fn now(&self) -> f64 {
        self.state().net.time()
    }

    /// Admitted transfers still in flight.
    pub fn in_flight(&self) -> usize {
        self.state().net.in_flight()
    }

    /// Admits a transfer into the authoritative engine, returning its
    /// key. Rejections are typed values ([`AddError`] routed through
    /// [`ServeError::Rejected`]) — never panics.
    pub fn admit(&self, comm: Communication, start: f64) -> Result<TransferKey, ServeError> {
        let mut st = self.live_state()?;
        let key = st.next_key;
        st.guarded(|net| net.try_add(key, comm, start))??;
        st.next_key += 1;
        st.log.push((key, comm, start));
        // Re-base instead of invalidating: the same admission that just
        // succeeded on the authoritative engine replays onto the cached
        // snapshot at O(delta), keeping it bitwise equal to a fresh fork.
        self.rebase(&mut st, |snap| snap.net.try_add(key, comm, start).is_ok());
        Ok(key)
    }

    /// Advances the authoritative clock to `t`, returning the transfers
    /// that completed on the way.
    pub fn advance_to(&self, t: f64) -> Result<Vec<CompletedTransfer>, ServeError> {
        let mut st = self.live_state()?;
        let now = st.net.time();
        if t.is_nan() || t < now {
            return Err(ServeError::NonMonotonicClock { t, now });
        }
        let done = st.guarded(|net| net.advance_to(t))?;
        st.completed += done.len() as u64;
        // Any real clock movement must reach the snapshot too: its cached
        // `now` (the origin of query offsets) must match the service
        // clock, and latency gates may have opened even when nothing
        // completed. The same `advance_to` replays onto the snapshot at
        // O(affected); a no-op advance (`t == now`) touches nothing. A
        // replay that panics drops the snapshot.
        if t > now {
            self.rebase(&mut st, |snap| {
                let replayed = catch_unwind(AssertUnwindSafe(|| snap.net.advance_to(t))).is_ok();
                snap.now = t;
                replayed
            });
        }
        Ok(done)
    }

    /// Answers one query (a batch of one).
    pub fn what_if(&self, query: &WhatIfQuery) -> Result<WhatIfAnswer, ServeError> {
        self.what_if_batch(std::slice::from_ref(query))
            .pop()
            .expect("one answer per query")
    }

    /// Answers a batch of speculative queries, fanned out on the session
    /// executor. Each query runs on a private fork of the shared snapshot
    /// (built at most once per batch), so queries neither perturb the
    /// authoritative state nor each other. The fork lands in the worker's
    /// persistent fork arena: after each worker's first query ever, the
    /// deep copy recycles the previous fork's allocations
    /// ([`Clone::clone_from`]) instead of building a fresh engine. A query
    /// whose settles panic answers [`ServeError::Internal`], and its fork
    /// is dropped instead of parked in the arena.
    pub fn what_if_batch(&self, queries: &[WhatIfQuery]) -> Vec<Result<WhatIfAnswer, ServeError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let snap = match self.snapshot_for(queries.len() as u64) {
            Ok(snap) => snap,
            Err(err) => return vec![Err(err); queries.len()],
        };
        self.queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        self.session.sweep(queries, |worker, query| {
            // The arena engine is taken *out* of the worker for the
            // query's duration, so `answer_on` can borrow the worker for
            // `Tref` lookups while the engine is live.
            let mut engine = match worker
                .take_fork_arena(FORK_ARENA_KEY)
                .and_then(|warm| warm.downcast::<FluidNetwork<ModelHandle>>().ok())
            {
                Some(mut warm) => {
                    (*warm).clone_from(&snap.net);
                    self.fork_reuses.fetch_add(1, Ordering::Relaxed);
                    warm
                }
                None => Box::new(snap.net.clone()),
            };
            let answer = catch_unwind(AssertUnwindSafe(|| {
                self.answer_on(&mut engine, snap.now, worker, query)
            }));
            match answer {
                Ok(answer) => {
                    worker.put_fork_arena(FORK_ARENA_KEY, engine);
                    answer
                }
                // the fork may be half-settled: drop it, and the worker's
                // next query forks afresh
                Err(_) => Err(ServeError::Internal),
            }
        })
    }

    /// Ablation baseline: answers the same queries by rebuilding a fresh
    /// engine per query and replaying the full admission log. Bitwise
    /// identical to [`Self::what_if_batch`] (guarded by `serve_smoke` and
    /// the fork-equivalence proptests) — it exists to measure what the
    /// fork path saves, so it deliberately takes none of the shortcuts:
    /// no snapshot, no re-base, no fork arena (pinned by the
    /// `rebuild_ablation_takes_no_shortcuts` test).
    pub fn what_if_batch_via_rebuild(
        &self,
        queries: &[WhatIfQuery],
    ) -> Vec<Result<WhatIfAnswer, ServeError>> {
        let (log, now) = match self.live_state() {
            Ok(st) => (st.log.clone(), st.net.time()),
            Err(err) => return vec![Err(err); queries.len()],
        };
        self.session.sweep(queries, |worker, query| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut net = FluidNetwork::new(Arc::clone(&self.model), self.config.params);
                for &(key, comm, start) in &log {
                    net.add(key, comm, start);
                }
                net.advance_to(now);
                self.answer_on(&mut net, now, worker, query)
            }))
            .unwrap_or(Err(ServeError::Internal))
        })
    }

    /// The service counters (includes the underlying session's sweep
    /// stats).
    pub fn stats(&self) -> ServeStats {
        let (admitted, completed) = {
            let st = self.state();
            (st.next_key, st.completed)
        };
        ServeStats {
            admitted,
            completed,
            queries: self.queries.load(Ordering::Relaxed),
            snapshot_builds: self.snapshot_builds.load(Ordering::Relaxed),
            snapshot_reuses: self.snapshot_reuses.load(Ordering::Relaxed),
            snapshot_batch_reuses: self.snapshot_batch_reuses.load(Ordering::Relaxed),
            rebases: self.rebases.load(Ordering::Relaxed),
            rebase_fallbacks: self.rebase_fallbacks.load(Ordering::Relaxed),
            fork_reuses: self.fork_reuses.load(Ordering::Relaxed),
            sweep: self.session.stats(),
        }
    }

    fn state(&self) -> MutexGuard<'_, Authoritative> {
        self.state.lock().expect("authoritative state lock")
    }

    /// The authoritative state, or [`ServeError::Internal`] once a panic
    /// in it has left it untrustworthy.
    fn live_state(&self) -> Result<MutexGuard<'_, Authoritative>, ServeError> {
        let st = self.state();
        if st.broken {
            Err(ServeError::Internal)
        } else {
            Ok(st)
        }
    }

    /// Replays one authoritative delta onto the cached snapshot (the
    /// re-base lifecycle; runs under the state lock, so batches never
    /// observe a half-applied snapshot). Three paths:
    ///
    /// * the cache is cold — nothing to do, the next batch forks fresh;
    /// * the snapshot is unaliased (`Arc::get_mut`) — `apply` mutates it
    ///   in place at O(delta), counted in [`ServeStats::rebases`];
    /// * the snapshot is still aliased by an in-flight batch (its queries
    ///   hold `Arc` clones and are forking it right now) — mutating it
    ///   would race those forks, so the delta applies to a privately
    ///   re-based successor that is published atomically in its place,
    ///   counted in [`ServeStats::rebase_fallbacks`].
    ///
    /// `apply` returning `false` (replay refused — cannot happen for
    /// deltas the authoritative engine just accepted, kept as a defensive
    /// rail) drops the snapshot, falling back to PR 8's invalidation.
    fn rebase(&self, st: &mut Authoritative, apply: impl FnOnce(&mut Snapshot) -> bool) {
        let Some(arc) = st.snapshot.as_mut() else {
            return;
        };
        if let Some(snap) = Arc::get_mut(arc) {
            if apply(snap) {
                self.rebases.fetch_add(1, Ordering::Relaxed);
            } else {
                st.snapshot = None;
                self.rebase_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        let mut next = Snapshot {
            net: arc.net.clone(),
            now: arc.now,
        };
        if apply(&mut next) {
            st.snapshot = Some(Arc::new(next));
        } else {
            st.snapshot = None;
        }
        self.rebase_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// The shared snapshot for a batch of `queries` queries, forking the
    /// authoritative engine only if the cache was invalidated since the
    /// last batch.
    fn snapshot_for(&self, queries: u64) -> Result<Arc<Snapshot>, ServeError> {
        let mut st = self.live_state()?;
        if let Some(snap) = &st.snapshot {
            self.snapshot_batch_reuses.fetch_add(1, Ordering::Relaxed);
            self.snapshot_reuses.fetch_add(queries, Ordering::Relaxed);
            return Ok(Arc::clone(snap));
        }
        let snap = Arc::new(Snapshot {
            net: st.net.clone(),
            now: st.net.time(),
        });
        st.snapshot = Some(Arc::clone(&snap));
        self.snapshot_builds.fetch_add(1, Ordering::Relaxed);
        self.snapshot_reuses
            .fetch_add(queries.saturating_sub(1), Ordering::Relaxed);
        Ok(snap)
    }

    /// Superimposes the query's flows on `net` (already positioned at
    /// `now`) and settles until every speculative flow completes. `net`
    /// is a private fork or rebuild — it is left diverged, to be
    /// overwritten by the next `clone_from` (arena path) or dropped
    /// (rebuild path).
    fn answer_on(
        &self,
        net: &mut FluidNetwork<ModelHandle>,
        now: f64,
        worker: &mut SweepWorker<'_>,
        query: &WhatIfQuery,
    ) -> Result<WhatIfAnswer, ServeError> {
        if query.flows.is_empty() {
            return Err(ServeError::EmptyQuery);
        }
        if let Some(&(comm, _)) = query.flows.iter().find(|(c, _)| c.size > MAX_WHAT_IF_BYTES) {
            return Err(ServeError::FlowTooLarge { size: comm.size });
        }
        if let Some(&(_, offset)) = query.flows.iter().find(|&&(_, o)| o > MAX_WHAT_IF_OFFSET) {
            return Err(ServeError::OffsetTooLarge { offset });
        }
        let mut starts = Vec::with_capacity(query.flows.len());
        for (i, &(comm, offset)) in query.flows.iter().enumerate() {
            let start = now + offset;
            net.try_add(SPEC_BASE | i as TransferKey, comm, start)?;
            starts.push(start);
        }
        // Settle event by event until every speculative flow has
        // completed; background flows that finish later stay in flight.
        let mut completions = vec![f64::NAN; query.flows.len()];
        let mut pending = query.flows.len();
        while pending > 0 {
            let t = net
                .next_event_time()
                .expect("speculative flows pending implies a next event");
            for done in net.advance_to(t) {
                if done.key & SPEC_BASE != 0 {
                    completions[(done.key & !SPEC_BASE) as usize] = done.completion;
                    pending -= 1;
                }
            }
        }
        let mut flows = Vec::with_capacity(query.flows.len());
        let mut makespan = 0.0f64;
        for ((&(comm, _), &start), &completion) in query.flows.iter().zip(&starts).zip(&completions)
        {
            let tref = worker.tref(self.config.fabric, comm.size);
            let elapsed = completion - start;
            flows.push(FlowAnswer {
                completion,
                elapsed,
                tref,
                slowdown: elapsed / tref,
            });
            makespan = makespan.max(completion - now);
        }
        Ok(WhatIfAnswer { flows, makespan })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbw_core::MyrinetModel;

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            params: NetworkParams::new(2.0, 0.25),
            fabric: FabricConfig::gige(),
            threads: 2,
        }
    }

    #[test]
    fn admission_and_advance_drive_the_authoritative_engine() {
        let service = WhatIfService::new(tiny_config());
        let a = service
            .admit(Communication::new(0u32, 1u32, 100), 0.0)
            .unwrap();
        let b = service
            .admit(Communication::new(2u32, 1u32, 100), 0.0)
            .unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(service.in_flight(), 2);
        let done = service.advance_to(1_000.0).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(service.in_flight(), 0);
        let stats = service.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn malformed_requests_come_back_as_typed_errors() {
        let service = WhatIfService::new(tiny_config());
        service
            .admit(Communication::new(0u32, 1u32, 100), 5.0)
            .unwrap();
        service.advance_to(5.0).unwrap();

        assert!(matches!(
            service.admit(Communication::new(2u32, 3u32, 100), 1.0),
            Err(ServeError::Rejected(AddError::StartInPast { start, now }))
                if start == 1.0 && now == 5.0
        ));
        assert!(matches!(
            service.admit(Communication::new(2u32, 3u32, 100), f64::NAN),
            Err(ServeError::Rejected(AddError::NonFiniteStart { .. }))
        ));
        assert!(matches!(
            service.advance_to(1.0),
            Err(ServeError::NonMonotonicClock { t, now }) if t == 1.0 && now == 5.0
        ));
        assert!(matches!(
            service.advance_to(f64::NAN),
            Err(ServeError::NonMonotonicClock { .. })
        ));
        assert_eq!(
            service.what_if(&WhatIfQuery::default()),
            Err(ServeError::EmptyQuery)
        );
        assert!(matches!(
            service.what_if(&WhatIfQuery::flow(
                Communication::new(2u32, 3u32, 100),
                -1.0
            )),
            Err(ServeError::Rejected(AddError::StartInPast { .. }))
        ));
        // a rejected admission leaves no trace
        assert_eq!(service.stats().admitted, 1);
    }

    #[test]
    fn oversized_what_if_flows_are_refused_before_any_tref() {
        let service = WhatIfService::new(tiny_config());
        service
            .admit(Communication::new(0u32, 1u32, 100), 0.0)
            .unwrap();
        for size in [u64::MAX, MAX_WHAT_IF_BYTES + 1] {
            let query = WhatIfQuery::flow(Communication::new(2u32, 1u32, size), 0.0);
            let refused = Err(ServeError::FlowTooLarge { size });
            assert_eq!(service.what_if(&query), refused);
            assert_eq!(
                service.what_if_batch_via_rebuild(std::slice::from_ref(&query)),
                vec![refused]
            );
        }
        assert_eq!(service.stats().sweep.tref_misses, 0, "no Tref was measured");
        let answer = service.what_if(&WhatIfQuery::flow(
            Communication::new(2u32, 1u32, 64 << 10),
            0.0,
        ));
        assert!(answer.is_ok(), "{answer:?}");
    }

    #[test]
    fn offsets_that_swallow_the_flow_are_refused_on_both_paths() {
        let service = WhatIfService::new(tiny_config());
        service
            .admit(Communication::new(0u32, 1u32, 100), 0.0)
            .unwrap();
        let comm = Communication::new(2u32, 1u32, 64 << 10);
        let above = MAX_WHAT_IF_OFFSET * (1.0 + f64::EPSILON);
        for offset in [1e300, above] {
            // the refused flow rides with a well-formed one
            let query = WhatIfQuery {
                flows: vec![(Communication::new(4u32, 5u32, 100), 0.0), (comm, offset)],
            };
            let refused = || vec![Err(ServeError::OffsetTooLarge { offset })];
            assert_eq!(
                service.what_if_batch(std::slice::from_ref(&query)),
                refused()
            );
            assert_eq!(
                service.what_if_batch_via_rebuild(std::slice::from_ref(&query)),
                refused()
            );
        }
        let below = WhatIfQuery::flow(comm, MAX_WHAT_IF_OFFSET * (1.0 - f64::EPSILON));
        for answer in [
            service.what_if_batch(std::slice::from_ref(&below)),
            service.what_if_batch_via_rebuild(std::slice::from_ref(&below)),
        ] {
            let flow = answer[0].as_ref().expect("below the cap is answered").flows[0];
            assert!(flow.elapsed > 0.0, "{flow:?}");
        }
        assert_eq!(service.in_flight(), 1, "refusals leave no trace");
    }

    #[test]
    fn what_if_matches_a_hand_built_scenario() {
        // Authoritative: one flow of 400 bytes at 2 B/s from t=0. A
        // speculative flow sharing its destination contends with it; one
        // on disjoint nodes does not.
        let service = WhatIfService::new(tiny_config());
        service
            .admit(Communication::new(0u32, 1u32, 400), 0.0)
            .unwrap();
        service.advance_to(10.0).unwrap();

        let free = service
            .what_if(&WhatIfQuery::flow(Communication::new(4u32, 5u32, 400), 0.0))
            .unwrap();
        let contended = service
            .what_if(&WhatIfQuery::flow(Communication::new(2u32, 1u32, 400), 0.0))
            .unwrap();
        // An uncontended flow: latency gate + size/bandwidth.
        assert_eq!(free.flows[0].elapsed, 0.25 + 400.0 / 2.0);
        assert!(contended.flows[0].elapsed > free.flows[0].elapsed);
        assert!(contended.makespan >= contended.flows[0].elapsed);
        assert!(contended.flows[0].slowdown > free.flows[0].slowdown);
        // Speculation must not have perturbed the authoritative engine.
        assert_eq!(service.in_flight(), 1);
        assert_eq!(service.now(), 10.0);
    }

    #[test]
    fn fork_path_is_bitwise_identical_to_rebuild_and_replay() {
        let model: ModelHandle = Arc::new(MyrinetModel::default());
        let service = WhatIfService::with_model(model, tiny_config());
        // Interleave admissions and advances so the rebuild really
        // replays a history, not a single batch.
        for i in 0..12u64 {
            let comm = Communication::new((i % 4) as u32, (4 + i % 3) as u32, 500 + 40 * i);
            service.admit(comm, i as f64 * 0.4).unwrap();
            if i % 3 == 2 {
                service.advance_to(i as f64 * 0.4 + 0.1).unwrap();
            }
        }
        service.advance_to(5.0).unwrap();

        let queries: Vec<WhatIfQuery> = (0..8u64)
            .map(|i| {
                let mut q = WhatIfQuery::flow(
                    Communication::new((i % 5) as u32, (5 + i % 2) as u32, 900 + 10 * i),
                    0.2 * i as f64,
                );
                q.flows.push((Communication::new(7u32, 8u32, 600), 0.0));
                q
            })
            .collect();
        let forked = service.what_if_batch(&queries);
        let rebuilt = service.what_if_batch_via_rebuild(&queries);
        for (f, r) in forked.iter().zip(&rebuilt) {
            let (f, r) = (f.as_ref().unwrap(), r.as_ref().unwrap());
            assert_eq!(f.makespan.to_bits(), r.makespan.to_bits());
            for (ff, rf) in f.flows.iter().zip(&r.flows) {
                assert_eq!(ff.completion.to_bits(), rf.completion.to_bits());
                assert_eq!(ff.slowdown.to_bits(), rf.slowdown.to_bits());
            }
        }
    }

    #[test]
    fn snapshots_are_rebased_not_rebuilt() {
        let service = WhatIfService::new(tiny_config());
        service
            .admit(Communication::new(0u32, 1u32, 1_000), 0.0)
            .unwrap();
        service.advance_to(1.0).unwrap();

        let queries: Vec<WhatIfQuery> = (0..6)
            .map(|i| WhatIfQuery::flow(Communication::new(2u32, 3u32, 100 + i), 0.0))
            .collect();
        service.what_if_batch(&queries);
        service.what_if_batch(&queries);
        let stats = service.stats();
        assert_eq!(stats.snapshot_builds, 1);
        assert_eq!(stats.snapshot_reuses, 11);
        assert_eq!(stats.snapshot_batch_reuses, 1);
        assert_eq!(stats.queries, 12);
        assert_eq!(stats.rebases, 0, "no churn yet, nothing to re-base");

        // Admission re-bases the snapshot in place: the next batch still
        // finds it warm, no new fork of the authoritative engine.
        service
            .admit(Communication::new(4u32, 5u32, 1_000), 2.0)
            .unwrap();
        service.what_if_batch(&queries);
        let stats = service.stats();
        assert_eq!(stats.snapshot_builds, 1);
        assert_eq!(stats.rebases, 1);
        assert_eq!(stats.rebase_fallbacks, 0, "nothing aliased the snapshot");

        // Clock movement re-bases too (offsets are relative to `now`).
        service.advance_to(2.5).unwrap();
        service.what_if_batch(&queries);
        let stats = service.stats();
        assert_eq!(stats.snapshot_builds, 1);
        assert_eq!(stats.rebases, 2);
        // A no-op advance (t == now) touches nothing.
        service.advance_to(2.5).unwrap();
        service.what_if_batch(&queries);
        let stats = service.stats();
        assert_eq!(stats.snapshot_builds, 1);
        assert_eq!(stats.rebases, 2);
        // Per-query reuse now counts every query after the very first
        // build; per-batch reuse counts every batch after the first.
        assert_eq!(stats.per_query_snapshot_reuse_rate(), 29.0 / 30.0);
        assert_eq!(stats.per_batch_snapshot_reuse_rate(), 4.0 / 5.0);
        // Steady-state forks recycle each worker's arena: only the first
        // query of each of the (at most) 2 workers built an engine.
        assert!(stats.fork_reuses >= stats.queries - 2);
    }

    #[test]
    fn rebased_snapshot_answers_like_a_fresh_fork() {
        // Drive churn through the re-base path on one service and compare
        // against a twin that replays the same history with its snapshot
        // cache never populated before the query — the rebased snapshot
        // must be observationally identical to a fresh fork.
        let run = |prewarm: bool| {
            let service = WhatIfService::new(tiny_config());
            for i in 0..10u64 {
                let comm = Communication::new((i % 3) as u32, (3 + i % 4) as u32, 700 + 31 * i);
                service.admit(comm, i as f64 * 0.3).unwrap();
                if prewarm && i == 0 {
                    // Populate the snapshot cache so every later admission
                    // and advance re-bases it.
                    service
                        .what_if(&WhatIfQuery::flow(Communication::new(8u32, 9u32, 100), 0.0))
                        .unwrap();
                }
                if i % 2 == 1 {
                    service.advance_to(i as f64 * 0.3 + 0.05).unwrap();
                }
            }
            service.advance_to(3.2).unwrap();
            let answer = service
                .what_if(&WhatIfQuery::flow(Communication::new(1u32, 3u32, 512), 0.1))
                .unwrap();
            (answer, service.stats())
        };
        let (rebased, warm_stats) = run(true);
        let (fresh, cold_stats) = run(false);
        assert!(warm_stats.rebases > 0, "prewarmed run must re-base");
        assert_eq!(cold_stats.rebases, 0, "cold run must fork fresh");
        assert_eq!(
            rebased.flows[0].completion.to_bits(),
            fresh.flows[0].completion.to_bits()
        );
        assert_eq!(
            rebased.flows[0].slowdown.to_bits(),
            fresh.flows[0].slowdown.to_bits()
        );
    }

    #[test]
    fn rebuild_ablation_takes_no_shortcuts() {
        let service = WhatIfService::new(tiny_config());
        for i in 0..8u64 {
            service
                .admit(
                    Communication::new((i % 4) as u32, (4 + i % 2) as u32, 400 + 10 * i),
                    i as f64 * 0.2,
                )
                .unwrap();
        }
        service.advance_to(2.0).unwrap();
        let queries: Vec<WhatIfQuery> = (0..5)
            .map(|i| WhatIfQuery::flow(Communication::new(6u32, 7u32, 300 + i), 0.0))
            .collect();
        service.what_if_batch_via_rebuild(&queries);
        service.what_if_batch_via_rebuild(&queries);
        let stats = service.stats();
        // An honest ablation: no snapshot, no re-base, no arena recycling
        // — every query paid the full rebuild-and-replay.
        assert_eq!(stats.snapshot_builds, 0);
        assert_eq!(stats.snapshot_reuses, 0);
        assert_eq!(stats.rebases, 0);
        assert_eq!(stats.rebase_fallbacks, 0);
        assert_eq!(stats.fork_reuses, 0);
        assert_eq!(stats.queries, 0, "ablation queries bypass the fork path");
    }

    #[test]
    fn tref_is_deduplicated_across_queries() {
        let service = WhatIfService::new(tiny_config());
        service
            .admit(Communication::new(0u32, 1u32, 1_000), 0.0)
            .unwrap();
        // 16 queries, all the same size: one reference measurement.
        let queries: Vec<WhatIfQuery> = (0..16)
            .map(|i| WhatIfQuery::flow(Communication::new((2 + i % 3) as u32, 6u32, 4_096), 0.0))
            .collect();
        service.what_if_batch(&queries);
        let sweep = service.stats().sweep;
        assert_eq!(sweep.tref_misses, 1);
        assert_eq!(sweep.tref_hits, 15);
    }

    /// GigE, except that a population holding a flow of [`POISON`] bytes
    /// panics.
    struct PanicsOnSize;

    const POISON: u64 = 4_321;

    impl PenaltyModel for PanicsOnSize {
        fn name(&self) -> &'static str {
            "panics-on-size"
        }
        fn penalties(&self, comms: &[Communication]) -> Vec<netbw_core::Penalty> {
            assert!(comms.iter().all(|c| c.size != POISON), "poisoned flow");
            GigabitEthernetModel::default().penalties(comms)
        }
    }

    #[test]
    fn a_panicking_query_answers_internal_and_the_service_keeps_serving() {
        let config = ServeConfig {
            threads: 1,
            ..tiny_config()
        };
        let svc = WhatIfService::with_model(Arc::new(PanicsOnSize), config);
        svc.admit(Communication::new(0u32, 1u32, 3_000), 0.0)
            .unwrap();
        svc.admit(Communication::new(2u32, 1u32, 2_000), 0.0)
            .unwrap();
        svc.advance_to(100.0).unwrap();
        let fine = WhatIfQuery::flow(Communication::new(3u32, 1u32, 1_000), 0.0);
        let poisoned = WhatIfQuery::flow(Communication::new(3u32, 1u32, POISON), 0.0);
        let before = svc.what_if(&fine).expect("a healthy query is answered");
        // the poisoned query panics in its fork's settle, on both paths
        assert_eq!(svc.what_if(&poisoned), Err(ServeError::Internal));
        assert_eq!(
            svc.what_if_batch_via_rebuild(std::slice::from_ref(&poisoned)),
            vec![Err(ServeError::Internal)]
        );
        // the next queries and the counters are still answered, bit for bit
        assert_eq!(svc.what_if(&fine), Ok(before.clone()));
        assert_eq!(
            svc.what_if_batch(&[poisoned.clone(), fine.clone()]),
            vec![Err(ServeError::Internal), Ok(before.clone())]
        );
        let stats = svc.stats();
        assert_eq!(stats.queries, 5, "{stats}");
        // one worker: the first query built its arena, the poisoned ones
        // dropped the arena they reused, and the query after each rebuilt
        // it, so only the poisoned queries reused one
        assert_eq!(stats.fork_reuses, 2, "{stats}");
        // a panic while advancing the engine of record poisons the
        // service, not its lock: every later call is refused, and the
        // counters stay readable
        svc.admit(Communication::new(4u32, 5u32, POISON), 100.0)
            .unwrap();
        assert_eq!(svc.advance_to(200.0).err(), Some(ServeError::Internal));
        assert_eq!(
            svc.admit(Communication::new(4u32, 5u32, 10), 200.0),
            Err(ServeError::Internal)
        );
        assert_eq!(svc.advance_to(300.0).err(), Some(ServeError::Internal));
        assert_eq!(svc.what_if(&fine), Err(ServeError::Internal));
        assert_eq!(svc.stats().admitted, 3);
    }
}
