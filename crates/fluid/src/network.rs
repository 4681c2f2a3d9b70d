//! Incremental fluid network: transfers arrive over time, completions are
//! consumed as events. This is the network backend of the `netbw-sim`
//! discrete-event engine.
//!
//! Penalties are obtained through a [`crate::PenaltyCache`]: the model is
//! only re-queried when the contending population actually changes
//! (arrival, latency-gate opening, completion), never on pure time
//! advances or [`FluidNetwork::next_event_time`] probes. Transfers live in
//! a stable-key [`crate::slab::Slab`] whose slot indices are the flows'
//! keyed ids, so the cache hands the model each change as a keyed
//! [`netbw_core::PopulationDelta`] — the ids that left, the flows that
//! joined — and the models patch only the endpoints or conflict components
//! the change reaches instead of recomputing the fabric.
//!
//! Finding the *next event* is event-driven too. Each contending flow
//! carries anchored kinetics — bytes remaining at
//! its last rate change and a cached absolute finish time — and the engine
//! re-anchors only the flows the model answers (the `(id, penalty)` pairs
//! of [`crate::PenaltyCache::answers`]), pushing the new finish times into
//! a lazy min-heap ([`crate::event_heap`]; epoch stamps in the slab
//! invalidate superseded entries on pop). Latency gates sit in a second
//! heap, populated at [`FluidNetwork::add`]. A settle therefore costs
//! O(changed + reach + log n) and an event probe is a heap peek — no
//! per-event scan over the population.
//!
//! Cache and heaps belong to a shard. The default engine keeps every
//! flow in one shard; [`FluidNetwork::with_sharded`] partitions the
//! population into conflict-component shards (see [`crate::shard`]) whose
//! settles are independent: a settle barrier with enough work to share
//! hands one stage/refresh/re-anchor job per dirty shard to a
//! [`crate::dispatch::SettleDispatch`] in a single round, so they can run
//! in parallel, and a smaller barrier settles inline. Both drivers
//! settle a shard through one body (`settle_shard`) and process an event
//! instant through one per-shard step (`step_shard`), and every
//! re-anchor goes through the same kinetics arithmetic, so their results
//! are bit-for-bit identical — and identical to
//! [`crate::ReferenceNetwork`], the standalone §IV.B engine the
//! equivalence batteries pin both against.

use crate::cache::CacheStats;
use crate::dispatch::{SerialDispatch, SettleDispatch, SettleJob};
use crate::event_heap::TimelineStats;
use crate::kinetics::Kinetics;
use crate::params::NetworkParams;
use crate::shard::{Shard, ShardSet, ShardStats, SlotView};
use crate::slab::{FlowKey, JobSlots, Slab, SlotAccess};
use crate::solver::Phase;
use netbw_core::PenaltyModel;
use netbw_graph::Communication;
use std::sync::Arc;

/// Caller-chosen identifier for a transfer (the simulator uses its event
/// ids; the batch solver uses input indices). Distinct from the internal
/// [`FlowKey`], which names the transfer's slab slot.
pub type TransferKey = u64;

/// Why [`FluidNetwork::try_add`] refused a transfer.
///
/// [`FluidNetwork::add`] turns these into panics (its historical
/// contract); long-running callers — the `netbw-serve` what-if service,
/// where a malformed user query must not abort the process — go through
/// [`FluidNetwork::try_add`] and handle the error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AddError {
    /// The start time was NaN or infinite.
    NonFiniteStart {
        /// The offending start time.
        start: f64,
    },
    /// The start time lies before the network's current time (the solver
    /// cannot rewrite history).
    StartInPast {
        /// The offending start time.
        start: f64,
        /// The network's current time.
        now: f64,
    },
}

impl std::fmt::Display for AddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AddError::NonFiniteStart { start } => {
                write!(f, "start time must be finite (got {start})")
            }
            AddError::StartInPast { start, now } => {
                write!(
                    f,
                    "transfer starts at {start} but network time is already {now}"
                )
            }
        }
    }
}

impl std::error::Error for AddError {}

/// Absolute slack when comparing times (gates, targets, completions).
pub(crate) const TIME_EPS: f64 = 1e-15;

/// A sharded settle barrier whose parallelisable work
/// ([`ShardSet::parallel_work`]: the dirty shards' summed member counts
/// minus the largest) stays below this many members settles inline on
/// the caller. A barrier with one dirty shard always does. Member counts
/// overstate a warm shard's settle, which patches only its changes, so
/// the cutoff sits far above a bare pool round's break-even: on two
/// cores, barriers of a few thousand members still settled faster inline
/// than on the pool, while barriers that dirty thousands of shards at
/// once gain from it.
const INLINE_BARRIER_MEMBERS: usize = 4096;

/// A transfer slot: identity, latency gate and anchored kinetics.
#[derive(Debug, Clone)]
struct Slot {
    key: TransferKey,
    comm: Communication,
    /// Time at which the flow starts contending (start + latency).
    gate: f64,
    /// Whether the gate has opened (the flow is in the contending
    /// population from the cache's point of view).
    contending: bool,
    kin: Kinetics,
}

impl SlotView for Slot {
    fn comm(&self) -> &Communication {
        &self.comm
    }
    fn contending(&self) -> bool {
        self.contending
    }
    fn finish(&self) -> f64 {
        self.kin.finish
    }
    fn gate(&self) -> f64 {
        self.gate
    }
}

/// A finished transfer, in completion order.
#[derive(Debug, Clone)]
pub struct CompletedTransfer {
    /// The key passed to [`FluidNetwork::add`].
    pub key: TransferKey,
    /// Completion time (absolute).
    pub completion: f64,
    /// Piecewise-constant penalty history (empty unless phase recording is
    /// enabled).
    pub phases: Vec<Phase>,
}

/// Where the flows' caches and heaps live.
enum Partition {
    /// The default engine: one shard holding every flow.
    Single(Box<Shard>),
    /// One shard per conflict component, with the component tracker and
    /// the cross-shard event heap ([`FluidNetwork::with_sharded`]).
    Sharded(Box<ShardSet>),
}

impl Clone for Partition {
    fn clone(&self) -> Self {
        match self {
            Partition::Single(sh) => Partition::Single(sh.clone()),
            Partition::Sharded(shards) => Partition::Sharded(shards.clone()),
        }
    }

    /// In place when both sides have the same kind; a target of the other
    /// kind is replaced by a fresh clone.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Partition::Single(tgt), Partition::Single(src)) => tgt.clone_from(src),
            (Partition::Sharded(tgt), Partition::Sharded(src)) => tgt.clone_from(src),
            (tgt, src) => *tgt = src.clone(),
        }
    }
}

/// Reusable buffers of the per-instant step, kept so the advance loop
/// stays allocation-free in steady state.
#[derive(Default)]
struct StepBuffers {
    /// Gate openings collected at the current instant.
    opened: Vec<FlowKey>,
    /// Completions due at the current instant.
    due: Vec<FlowKey>,
    /// Endpoint pairs of the completions at the current instant, fed to
    /// the shard table's departure refinement after the batch (sharded
    /// mode).
    departed: Vec<Communication>,
}

/// Everything that mutates during a settle or an event, kept apart from
/// the model, parameters and dispatch so a settle can borrow both halves.
struct EngineState {
    time: f64,
    slots: Slab<Slot>,
    partition: Partition,
    bufs: StepBuffers,
}

/// A shared network under a penalty model, integrating transfer progress
/// through piecewise-constant penalty phases.
///
/// Invariants: time never goes backwards; transfers must be added at or
/// after the current time; bytes are conserved (enforced in debug builds).
pub struct FluidNetwork<M> {
    model: M,
    params: NetworkParams,
    record_phases: bool,
    /// Executor for the per-shard refreshes of a sharded settle barrier
    /// (the jobs touch disjoint shards, so any order — or any parallel
    /// schedule — yields the same bits). [`SerialDispatch`] by default.
    dispatch: Arc<dyn SettleDispatch>,
    state: EngineState,
}

/// Settles one shard — the body both drivers share:
///
/// 1. **refreshes** its penalty cache, which hands the model the shard's
///    pending departures and arrivals;
/// 2. **re-anchors** the kinetics of the flows the model answered, pushing
///    their new finish times into the shard's heaps. Every other flow
///    keeps its penalty, so its cached finish time stands.
///
/// The single-shard engine and an inline barrier pass the [`Slab`]; a
/// dispatched barrier job passes a [`JobSlots`] view restricted to its own
/// shard's members.
fn settle_shard<M: PenaltyModel, S: SlotAccess<Slot>>(
    model: &M,
    params: &NetworkParams,
    record_phases: bool,
    now: f64,
    slots: &mut S,
    sh: &mut Shard,
) {
    let Shard { cache, events, .. } = sh;
    if cache.refresh(model).is_some_and(|outcome| !outcome.patched) {
        events.stats.rescans += 1;
    }
    for &(id, penalty) in cache.answers() {
        let key = slots.member(id, cache.owner());
        let slot = slots.get_mut(key).expect("answered flow lives in slab");
        if let Some(finish) = slot.kin.resync(params, record_phases, now, penalty) {
            let epoch = slots.bump_epoch(key).expect("answered flow lives in slab");
            events.push_completion(finish, key, epoch);
        }
    }
    sh.dirty = false;
}

/// The sharded settle barrier: each dirty shard's [`settle_shard`], run
/// inline on the [`Slab`] when the barrier's parallelisable work is below
/// [`INLINE_BARRIER_MEMBERS`], and otherwise as one dispatch round with
/// one job per dirty shard.
///
/// The dispatched jobs reach the slab through one raw view: the dirty
/// shards' live members are pairwise-disjoint slot sets (asserted in debug
/// builds before the dispatch) and the slab is structurally frozen for the
/// whole barrier, so no two jobs ever touch the same live entry: each job
/// reaches only the flows its own model answered. The next-event republish
/// stays serial: it feeds the shared cross-shard heap.
///
/// Clean shards are never touched, so a settle costs the dirty shards'
/// O(changed + reach) work — not O(components) — plus, for a dispatched
/// barrier, the dispatch overhead. No
/// model answer depends on a flow outside its own component, so the shards
/// never need to consult each other mid-barrier.
fn settle_sharded<M: PenaltyModel>(
    model: &M,
    params: &NetworkParams,
    record_phases: bool,
    dispatch: &dyn SettleDispatch,
    now: f64,
    slots: &mut Slab<Slot>,
    shards: &mut ShardSet,
) {
    if shards.dirty.is_empty() {
        if shards.live_count() > 0 {
            shards.note_reused_settle();
        }
        return;
    }
    let mut dirty = std::mem::take(&mut shards.dirty);
    dirty.sort_unstable();
    if shards.parallel_work(&dirty) < INLINE_BARRIER_MEMBERS {
        for &id in &dirty {
            settle_shard(
                model,
                params,
                record_phases,
                now,
                slots,
                shards.shard_mut(id),
            );
        }
    } else {
        shards.note_dispatched_barrier();
        #[cfg(debug_assertions)]
        {
            // The raw-view jobs below are sound only if the dirty shards'
            // live members name pairwise-disjoint slots.
            let mut seen = std::collections::HashSet::new();
            for &id in &dirty {
                for &k in &shards.shard_mut(id).members {
                    if slots.contains(k) {
                        assert!(seen.insert(k), "shard members overlap on a slot");
                    }
                }
            }
        }
        let raw = slots.raw();
        let mut jobs: Vec<SettleJob<'_>> = shards
            .disjoint_mut(&dirty)
            .into_iter()
            .map(|sh| {
                SettleJob::new(move || {
                    // SAFETY: the job passes only its own shard's member
                    // keys, disjoint from every other job's live keys; the
                    // slab is frozen for the whole barrier.
                    let mut view = unsafe { JobSlots::new(raw) };
                    settle_shard(model, params, record_phases, now, &mut view, sh)
                })
            })
            .collect();
        dispatch.run_settles(&mut jobs);
    }
    for &id in &dirty {
        shards.refresh_next(id, slots);
    }
    debug_assert!(shards.dirty.is_empty(), "no shard dirtied mid-settle");
    dirty.clear();
    shards.dirty = dirty;
}

/// One shard's share of the event instant `now` — the step both drivers
/// share: opens the gates due by `now`, takes the completions due at
/// `now` (closing their phases), notes both in the shard cache, and
/// appends the completions to `done` and their endpoints to
/// `bufs.departed`. Returns whether the shard's population changed.
fn step_shard(
    record_phases: bool,
    now: f64,
    slots: &mut Slab<Slot>,
    sh: &mut Shard,
    bufs: &mut StepBuffers,
    done: &mut Vec<CompletedTransfer>,
) -> bool {
    let StepBuffers {
        opened,
        due,
        departed,
    } = bufs;
    opened.clear();
    due.clear();
    // Latency gates crossing `now` open first: their flows join the
    // population in the same settle that sees any simultaneous
    // completions (one keyed delta).
    sh.events.pop_gates_through(now + TIME_EPS, slots, opened);
    // Completions due at `now`: every live heap entry (= every contending
    // flow) whose cached finish time has arrived. Keys are stable, so
    // removals leave the surviving flows (and the cache's view of them)
    // untouched.
    sh.events.pop_due_completions(now, slots, due);
    for &flow in opened.iter() {
        let slot = slots.get_mut(flow).expect("gated flow lives in slab");
        slot.contending = true;
        sh.cache.note_arrival(flow, slot.comm);
    }
    for &flow in due.iter() {
        let mut slot = slots.remove(flow).expect("due flow lives in slab");
        sh.cache.note_departure(flow);
        departed.push(slot.comm);
        done.push(CompletedTransfer {
            key: slot.key,
            completion: now,
            phases: slot.kin.complete(record_phases, now),
        });
    }
    sh.note_departures(due.len(), slots);
    !opened.is_empty() || !due.is_empty()
}

impl EngineState {
    /// Settles every changed shard and returns the next event time.
    fn settle_next<M: PenaltyModel>(
        &mut self,
        model: &M,
        params: &NetworkParams,
        record_phases: bool,
        dispatch: &dyn SettleDispatch,
    ) -> Option<f64> {
        let EngineState {
            time,
            slots,
            partition,
            ..
        } = self;
        match partition {
            Partition::Single(sh) => {
                if sh.cache.is_valid() {
                    sh.cache.note_reuse();
                } else {
                    settle_shard(model, params, record_phases, *time, slots, sh);
                }
                sh.next_event(slots)
            }
            Partition::Sharded(shards) => {
                settle_sharded(model, params, record_phases, dispatch, *time, slots, shards);
                shards.peek_next()
            }
        }
    }

    /// Processes the instant `self.time` in every shard whose next event
    /// it reaches, appending the completions to `done` sorted by key. In
    /// sharded mode the departures then refine the partition.
    fn step(&mut self, record_phases: bool, done: &mut Vec<CompletedTransfer>) {
        let EngineState {
            time,
            slots,
            partition,
            bufs,
        } = self;
        let now = *time;
        let batch_start = done.len();
        match partition {
            Partition::Single(sh) => {
                step_shard(record_phases, now, slots, sh, bufs, done);
                bufs.departed.clear();
            }
            Partition::Sharded(shards) => {
                // Every shard whose next event falls within the instant is
                // a candidate, processed in ascending shard order (which
                // the key sort below makes order-independent).
                let candidates = shards.take_candidates(now + TIME_EPS);
                for &id in &candidates {
                    if step_shard(record_phases, now, slots, shards.shard_mut(id), bufs, done) {
                        shards.mark_dirty(id);
                    }
                    shards.refresh_next(id, slots);
                }
                shards.recycle_candidates(candidates);
                if slots.is_empty() {
                    // Quiescent barrier: the population drained to empty,
                    // so every shard is memberless and the partition can
                    // be forgotten; the next churn phase re-partitions
                    // from scratch.
                    bufs.departed.clear();
                    shards.reset();
                } else {
                    // Departure refinement: drop each completed flow's
                    // edge from the component tracker and re-partition to
                    // match — retiring drained shards, splitting
                    // disconnected ones.
                    for comm in bufs.departed.drain(..) {
                        shards.depart(&comm, slots);
                    }
                }
            }
        }
        done[batch_start..].sort_by_key(|c| c.key);
    }
}

impl<M: PenaltyModel> FluidNetwork<M> {
    /// Creates an idle network at time 0 whose flows share one shard.
    pub fn new(model: M, params: NetworkParams) -> Self {
        FluidNetwork {
            model,
            params,
            record_phases: false,
            dispatch: Arc::new(SerialDispatch),
            state: EngineState {
                time: 0.0,
                slots: Slab::new(),
                partition: Partition::Single(Box::new(Shard::new())),
                bufs: StepBuffers::default(),
            },
        }
    }

    /// Enables per-transfer penalty-phase recording (costs memory).
    pub fn with_phase_recording(mut self) -> Self {
        self.record_phases = true;
        self
    }

    /// Shards the engine by conflict component: each connected component
    /// of the shared-endpoint graph gets its own penalty cache (with its
    /// own model scratch) and event heaps, and a settle refreshes only the
    /// components an event actually touched. The penalty models are
    /// component-local, so the results are bit-for-bit identical to the
    /// single-shard engine's; what changes is that the per-shard refreshes
    /// are independent — hand them to a parallel executor with
    /// [`Self::with_sharded_dispatch`].
    pub fn with_sharded(mut self) -> Self {
        self.state.partition = Partition::Sharded(Box::default());
        self
    }

    /// [`Self::with_sharded`] with the dirty shards of each settle barrier
    /// dispatched through `dispatch` instead of run serially — the
    /// work-stealing executor in `netbw-eval` implements
    /// [`SettleDispatch`] for exactly this.
    pub fn with_sharded_dispatch(mut self, dispatch: Arc<dyn SettleDispatch>) -> Self {
        self.dispatch = dispatch;
        self.with_sharded()
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.state.time
    }

    /// The network parameters in use.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// The model in use.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Number of transfers not yet completed (including latency-gated ones).
    pub fn in_flight(&self) -> usize {
        self.state.slots.len()
    }

    /// Penalty-cache counters: model queries, cache reuses, invalidations.
    /// In sharded mode this is the aggregate over every shard cache, past
    /// and present (merged-away shards included).
    pub fn cache_stats(&self) -> CacheStats {
        match &self.state.partition {
            Partition::Single(sh) => sh.cache.stats(),
            Partition::Sharded(shards) => shards.cache_stats(),
        }
    }

    /// Event-timeline counters: heap pushes, stale entries discarded,
    /// gate-heap traffic, full-population rescans. In sharded mode this is
    /// the aggregate over every shard timeline.
    pub fn timeline_stats(&self) -> TimelineStats {
        match &self.state.partition {
            Partition::Single(sh) => sh.events.stats,
            Partition::Sharded(shards) => shards.timeline_stats(),
        }
    }

    /// Number of live conflict-component shards (always 0 unless built
    /// with [`Self::with_sharded`]).
    pub fn shard_count(&self) -> usize {
        self.shard_stats().live_shards
    }

    /// Partition-shape counters: live shard count plus cumulative splits,
    /// merges and drains (all zero unless built with
    /// [`Self::with_sharded`]).
    pub fn shard_stats(&self) -> ShardStats {
        match &self.state.partition {
            Partition::Single(_) => ShardStats::default(),
            Partition::Sharded(shards) => shards.shard_stats(),
        }
    }

    /// Returns the network to an idle state at time 0 while keeping every
    /// allocation warm: the slab's slot storage, the event heaps, the
    /// penalty cache and the model scratch it owns. A reset network
    /// produces bit-for-bit the results a freshly built one would (the
    /// first settle after a reset is a full rebuild query and the cleared
    /// slab hands out the same key/epoch sequence a fresh one would). Used
    /// by [`crate::FluidSolver`] to amortize construction across a scheme
    /// battery; cache and timeline stats accumulate across resets.
    pub fn reset(&mut self) {
        let st = &mut self.state;
        st.time = 0.0;
        st.slots.clear();
        match &mut st.partition {
            Partition::Single(sh) => sh.reset(),
            Partition::Sharded(shards) => shards.reset(),
        }
    }

    /// Starts a transfer at `start`.
    ///
    /// # Panics
    /// If `start` is before the current time (the solver cannot rewrite
    /// history) or not finite. Callers that must survive malformed input
    /// use [`Self::try_add`] instead.
    pub fn add(&mut self, key: TransferKey, comm: Communication, start: f64) {
        if let Err(err) = self.try_add(key, comm, start) {
            match err {
                AddError::NonFiniteStart { .. } => panic!("start time must be finite"),
                AddError::StartInPast { start, now } => {
                    panic!("transfer starts at {start} but network time is already {now}")
                }
            }
        }
    }

    /// Fallible [`Self::add`]: refuses (instead of panicking on) a
    /// non-finite start time or one before the current network time,
    /// leaving the engine state untouched on `Err`. This is the entry
    /// point for long-running services validating untrusted queries.
    pub fn try_add(
        &mut self,
        key: TransferKey,
        comm: Communication,
        start: f64,
    ) -> Result<(), AddError> {
        let latency = self.params.latency;
        let st = &mut self.state;
        if !start.is_finite() {
            return Err(AddError::NonFiniteStart { start });
        }
        if start < st.time - 1e-12 {
            return Err(AddError::StartInPast {
                start,
                now: st.time,
            });
        }
        let gate = start.max(st.time) + latency;
        // Contending immediately, or gated until the clock crosses `gate`.
        let contending = gate <= st.time + TIME_EPS;
        let flow = st.slots.insert(Slot {
            key,
            comm,
            gate,
            contending,
            kin: Kinetics::new(gate, comm.size),
        });
        let epoch = st.slots.epoch(flow).expect("just-inserted flow is live");
        match &mut st.partition {
            Partition::Single(sh) => sh.admit(flow, comm, contending, gate, epoch),
            Partition::Sharded(shards) => {
                // Route the endpoints through the component tracker up
                // front (gated flows included, so every flow has a shard
                // home); a flow bridging two components merges their
                // shards here.
                let id = shards.assign(&comm, &mut st.slots);
                shards.admit(id, flow, comm, contending, gate, epoch, &mut st.slots);
            }
        }
        Ok(())
    }

    /// The next instant at which the network state changes (a gate opens or
    /// a transfer completes), or `None` when idle.
    pub fn next_event_time(&mut self) -> Option<f64> {
        if self.state.slots.is_empty() {
            return None;
        }
        self.state.settle_next(
            &self.model,
            &self.params,
            self.record_phases,
            &*self.dispatch,
        )
    }

    /// Advances the clock to `t`, returning every transfer that completed
    /// in `(current time, t]`, in completion order.
    ///
    /// # Panics
    /// If `t` is before the current time.
    pub fn advance_to(&mut self, t: f64) -> Vec<CompletedTransfer> {
        let st = &mut self.state;
        assert!(
            t >= st.time - 1e-12,
            "cannot advance backwards ({} -> {t})",
            st.time
        );
        let mut done = Vec::new();
        loop {
            let event = st
                .settle_next(
                    &self.model,
                    &self.params,
                    self.record_phases,
                    &*self.dispatch,
                )
                .filter(|&e| e <= t);
            // With nothing further before the target time the clock moves
            // to `t`, and a gate within epsilon of `t` still opens (it
            // will be settled on the next call).
            st.time = st.time.max(event.unwrap_or(t));
            st.step(self.record_phases, &mut done);
            if event.is_none() {
                return done;
            }
        }
    }

    /// Drains the network: advances until every transfer completes.
    pub fn run_to_completion(&mut self) -> Vec<CompletedTransfer> {
        let mut done = Vec::new();
        while let Some(t) = self.next_event_time() {
            done.extend(self.advance_to(t));
        }
        done
    }
}

/// A copy of a warm engine is independent and exact: clock, slab (keys,
/// generations and epochs verbatim), and every shard's penalty cache with
/// its model scratch and event heaps — in sharded mode the whole shard
/// table. The copy and the original evolve independently from here on,
/// and the copy produces bit-for-bit the results a rebuild-and-replay of
/// the same history would (pinned by the `fork_equivalence` proptests).
///
/// The model itself is cloned, so share an immutable model cheaply by
/// instantiating the network over `Arc<dyn PenaltyModel>` (models are
/// stateless — all mutable state lives in the copied scratch). This is
/// what lets the `netbw-serve` what-if service answer speculative queries
/// by copying a warm snapshot instead of replaying history.
impl<M: PenaltyModel + Clone> Clone for FluidNetwork<M> {
    fn clone(&self) -> Self {
        let mut net = FluidNetwork::new(self.model.clone(), self.params);
        net.clone_from(self);
        net
    }

    /// Copies into `self`'s allocations all the way down: slab, shard
    /// caches (model scratch included) and event heaps. A single-shard
    /// engine copied into a warm single-shard target allocates nothing —
    /// the serve hot path's per-worker arena; a sharded shard table is
    /// replaced by a fresh clone. `self`'s own history is discarded
    /// wholesale; its step buffers are cleared, not copied, since every
    /// step drains them before use.
    fn clone_from(&mut self, source: &Self) {
        let FluidNetwork {
            model,
            params,
            record_phases,
            dispatch,
            state:
                EngineState {
                    time,
                    slots,
                    partition,
                    bufs: _,
                },
        } = source;
        self.model.clone_from(model);
        self.params = *params;
        self.record_phases = *record_phases;
        self.dispatch.clone_from(dispatch);
        let st = &mut self.state;
        st.time = *time;
        st.slots.clone_from(slots);
        st.partition.clone_from(partition);
        st.bufs.opened.clear();
        st.bufs.due.clear();
        st.bufs.departed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceNetwork;
    use netbw_core::baseline::LinearModel;
    use netbw_core::{GigabitEthernetModel, MyrinetModel};

    fn comm(src: u32, dst: u32, size: u64) -> Communication {
        Communication::new(src, dst, size)
    }

    /// Runs a barrier's jobs on up to four scoped threads, each taking a
    /// contiguous run of them — the parallel dispatch `netbw-eval`'s
    /// executor provides, which this crate's unit tests cannot reach.
    struct ThreadDispatch;

    impl SettleDispatch for ThreadDispatch {
        fn run_settles(&self, jobs: &mut [SettleJob<'_>]) {
            let per_thread = jobs.len().div_ceil(4).max(1);
            std::thread::scope(|s| {
                for run in jobs.chunks_mut(per_thread) {
                    s.spawn(move || run.iter_mut().for_each(SettleJob::run));
                }
            });
        }
    }

    /// The engines every bitwise test here pins against the reference,
    /// all recording phases: one shard, shards on serial dispatch, and
    /// shards on [`ThreadDispatch`]. Most tests' barriers are narrow enough
    /// to settle inline; `wide_barriers_dispatch_and_agree_bitwise` sizes
    /// its workload past the inline cutoff.
    fn engines<M: PenaltyModel + Clone>(
        model: M,
        params: NetworkParams,
    ) -> [(&'static str, FluidNetwork<M>); 3] {
        let net = || FluidNetwork::new(model.clone(), params).with_phase_recording();
        [
            ("single shard", net()),
            ("sharded serial", net().with_sharded()),
            (
                "sharded threads",
                net().with_sharded_dispatch(Arc::new(ThreadDispatch)),
            ),
        ]
    }

    /// Drains `flows` through the reference with phase recording, sorted
    /// by key.
    fn reference_drain<M: PenaltyModel>(
        model: M,
        params: NetworkParams,
        flows: &[(u64, Communication, f64)],
    ) -> Vec<CompletedTransfer> {
        let mut oracle = ReferenceNetwork::new(model, params).with_phase_recording();
        for &(k, c, s) in flows {
            oracle.add(k, c, s);
        }
        let mut done = oracle.run_to_completion();
        done.sort_by_key(|c| c.key);
        done
    }

    /// Asserts key-sorted completions and phases are bitwise equal.
    fn assert_bitwise_with_phases(a: &[CompletedTransfer], b: &[CompletedTransfer], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.key, y.key, "{what}");
            assert_eq!(
                x.completion.to_bits(),
                y.completion.to_bits(),
                "{what}, key {}",
                x.key
            );
            assert_eq!(x.phases, y.phases, "{what}: phases of key {}", x.key);
        }
    }

    #[test]
    fn single_transfer_completes_at_reference_time() {
        let mut net = FluidNetwork::new(LinearModel, NetworkParams::new(100.0, 0.5));
        net.add(1, comm(0, 1, 1000), 0.0);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!((done[0].completion - 10.5).abs() < 1e-9);
    }

    #[test]
    fn zero_size_transfer_completes_at_gate() {
        let mut net = FluidNetwork::new(LinearModel, NetworkParams::new(100.0, 0.25));
        net.add(7, comm(0, 1, 0), 1.0);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!((done[0].completion - 1.25).abs() < 1e-12);
    }

    #[test]
    fn myrinet_two_senders_share_then_finish_together() {
        // two comms from one node, same size: penalty 2 each, finish at 2·tref
        let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::unit());
        net.add(0, comm(0, 1, 100), 0.0);
        net.add(1, comm(0, 2, 100), 0.0);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 2);
        for d in &done {
            assert!((d.completion - 200.0).abs() < 1e-9, "{d:?}");
        }
    }

    #[test]
    fn late_arrival_slows_the_first_flow_mid_transfer() {
        // flow A alone for 50 s (50 bytes done), then B arrives sharing the
        // source: both at penalty 2. A needs 100 more seconds → 150 total.
        let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::unit())
            .with_phase_recording();
        net.add(0, comm(0, 1, 100), 0.0);
        net.add(1, comm(0, 2, 100), 50.0);
        let done = net.run_to_completion();
        let a = done.iter().find(|d| d.key == 0).unwrap();
        let b = done.iter().find(|d| d.key == 1).unwrap();
        assert!((a.completion - 150.0).abs() < 1e-9, "a: {}", a.completion);
        // B: 50 bytes while sharing (100 s), then 50 bytes alone (50 s) → 200.
        assert!((b.completion - 200.0).abs() < 1e-9, "b: {}", b.completion);
        // phases of A: penalty 1 then 2
        assert_eq!(a.phases.len(), 2);
        assert_eq!(a.phases[0].penalty, 1.0);
        assert_eq!(a.phases[1].penalty, 2.0);
        // and B: 2 then 1
        assert_eq!(b.phases.len(), 2);
        assert_eq!(b.phases[0].penalty, 2.0);
        assert_eq!(b.phases[1].penalty, 1.0);
    }

    #[test]
    fn advance_to_reports_partial_progress_only_at_completions() {
        let mut net = FluidNetwork::new(LinearModel, NetworkParams::unit());
        net.add(0, comm(0, 1, 100), 0.0);
        assert!(net.advance_to(40.0).is_empty());
        assert_eq!(net.in_flight(), 1);
        let done = net.advance_to(100.0);
        assert_eq!(done.len(), 1);
        assert!((done[0].completion - 100.0).abs() < 1e-9);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn next_event_time_accounts_for_gates_and_completions() {
        let mut net = FluidNetwork::new(LinearModel, NetworkParams::new(1.0, 2.0));
        net.add(0, comm(0, 1, 10), 0.0); // gate 2, completes 12
        net.add(1, comm(2, 3, 1), 5.0); // gate 7, completes 8
        assert_eq!(net.next_event_time(), Some(2.0)); // before gate 0 opens: idle → gate
        net.advance_to(2.0);
        // now flow 0 active, next events: completion 12 vs gate 7
        assert_eq!(net.next_event_time(), Some(7.0));
        net.advance_to(7.0);
        let e = net.next_event_time().unwrap();
        assert!((e - 8.0).abs() < 1e-9);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot advance backwards")]
    fn advance_backwards_panics() {
        let mut net = FluidNetwork::new(LinearModel, NetworkParams::unit());
        net.add(0, comm(0, 1, 10), 0.0);
        net.advance_to(5.0);
        net.advance_to(1.0);
    }

    #[test]
    #[should_panic(expected = "network time is already")]
    fn add_in_the_past_panics() {
        let mut net = FluidNetwork::new(LinearModel, NetworkParams::unit());
        net.add(0, comm(0, 1, 10), 0.0);
        net.advance_to(5.0);
        net.add(1, comm(0, 2, 10), 1.0);
    }

    #[test]
    fn try_add_reports_typed_errors_and_leaves_state_untouched() {
        let mut net = FluidNetwork::new(LinearModel, NetworkParams::unit());
        net.add(0, comm(0, 1, 10), 0.0);
        net.advance_to(5.0);
        assert!(matches!(
            net.try_add(1, comm(0, 2, 10), f64::NAN),
            Err(AddError::NonFiniteStart { start }) if start.is_nan()
        ));
        assert!(matches!(
            net.try_add(1, comm(0, 2, 10), f64::INFINITY),
            Err(AddError::NonFiniteStart { .. })
        ));
        let err = net.try_add(1, comm(0, 2, 10), 1.0).unwrap_err();
        assert_eq!(
            err,
            AddError::StartInPast {
                start: 1.0,
                now: 5.0
            }
        );
        assert_eq!(
            err.to_string(),
            "transfer starts at 1 but network time is already 5"
        );
        // refused adds left the engine untouched: only flow 0 in flight
        assert_eq!(net.in_flight(), 1);
        // and a valid add still goes through
        assert_eq!(net.try_add(1, comm(0, 2, 10), 6.0), Ok(()));
        assert_eq!(net.in_flight(), 2);
        assert_eq!(net.run_to_completion().len(), 2);
    }

    #[test]
    fn simultaneous_completions_all_reported() {
        let mut net = FluidNetwork::new(LinearModel, NetworkParams::unit());
        for k in 0..4u64 {
            net.add(k, comm(k as u32 * 2, k as u32 * 2 + 1, 100), 0.0);
        }
        let done = net.advance_to(100.0);
        assert_eq!(done.len(), 4);
        let keys: Vec<_> = done.iter().map(|d| d.key).collect();
        assert_eq!(keys, vec![0, 1, 2, 3], "batch ordered by transfer key");
    }

    #[test]
    fn bytes_are_conserved_through_phase_changes() {
        // sum over phases of rate×duration must equal the transfer size
        let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::unit())
            .with_phase_recording();
        net.add(0, comm(0, 1, 100), 0.0);
        net.add(1, comm(0, 2, 57), 0.0);
        net.add(2, comm(3, 2, 41), 10.0);
        let done = net.run_to_completion();
        for d in &done {
            let moved: f64 = d.phases.iter().map(|ph| (ph.t1 - ph.t0) / ph.penalty).sum();
            let size = [100.0, 57.0, 41.0][d.key as usize];
            assert!(
                (moved - size).abs() < 1e-6,
                "key {}: moved {moved}, size {size}",
                d.key
            );
        }
    }

    #[test]
    fn cache_queries_only_on_population_changes() {
        // Three flows from one source, staggered starts: the population
        // changes at each arrival and each completion. Time advances and
        // next_event_time probes in between must be free.
        let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::unit());
        net.add(0, comm(0, 1, 100), 0.0);
        net.add(1, comm(0, 2, 100), 10.0);
        net.add(2, comm(0, 3, 100), 20.0);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 3);
        let stats = net.cache_stats();
        // 6 population changes (3 arrivals/gate openings + 3 departures);
        // allow a couple of boundary resettles but nowhere near the
        // pre-refactor 2-queries-per-solver-iteration behaviour.
        assert!(
            stats.model_queries <= 8,
            "expected ≤8 model queries, got {stats:?}"
        );
        assert!(stats.reuses > 0, "cache never reused: {stats:?}");
    }

    #[test]
    fn an_empty_population_costs_no_model_query() {
        // Two disjoint flows behind latency gates: the default engine's
        // first settle comes before either gate opens, when nobody
        // contends. Every engine queries the model once when the gates
        // open and once when the flows leave.
        let params = NetworkParams::new(1.0, 0.5);
        for (name, mut net) in engines(GigabitEthernetModel::default(), params) {
            net.add(0, comm(0, 1, 10), 0.0);
            net.add(1, comm(2, 3, 10), 0.0);
            assert_eq!(net.run_to_completion().len(), 2, "{name}");
            assert_eq!(net.cache_stats().model_queries, 2, "{name}");
        }
    }

    #[test]
    fn incremental_and_reference_agree() {
        // Identical staggered workloads through the default engine and the
        // §IV.B reference: completions must match exactly, while the
        // incremental engine queries the model strictly less often.
        let starts = [0.0, 3.0, 3.0, 7.0, 11.0, 30.0];
        let params = NetworkParams::new(2.0, 0.5);
        let mut fast = FluidNetwork::new(MyrinetModel::default(), params);
        let mut slow = ReferenceNetwork::new(MyrinetModel::default(), params);
        for (k, &s) in starts.iter().enumerate() {
            let c = comm(k as u32 % 3, 3 + k as u32 % 2, 50 + 13 * k as u64);
            fast.add(k as u64, c, s);
            slow.add(k as u64, c, s);
        }
        let mut a = fast.run_to_completion();
        let mut b = slow.run_to_completion();
        a.sort_by_key(|d| d.key);
        b.sort_by_key(|d| d.key);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(
                x.completion, y.completion,
                "key {}: the engine and the reference share their re-anchor \
                 arithmetic, so completions match bitwise",
                x.key
            );
        }
        assert!(
            fast.cache_stats().model_queries < slow.model_queries(),
            "incremental {:?} should query less than the reference's {}",
            fast.cache_stats(),
            slow.model_queries()
        );
    }

    #[test]
    fn all_three_timeline_modes_agree_bitwise() {
        // The three engine timelines — one shard, shards on serial
        // dispatch, shards with each barrier's jobs on their own threads —
        // against the reference, completions and phases alike.
        let starts = [0.0, 0.0, 2.5, 2.5, 6.0, 9.0, 9.0, 14.0];
        let params = NetworkParams::new(4.0, 0.25);
        let flows: Vec<(u64, Communication, f64)> = starts
            .iter()
            .enumerate()
            .map(|(k, &s)| {
                let c = comm(k as u32 % 4, 4 + k as u32 % 3, 30 + 11 * k as u64);
                (k as u64, c, s)
            })
            .collect();
        let reference = reference_drain(MyrinetModel::default(), params, &flows);
        assert_eq!(reference.len(), starts.len());
        for (name, mut net) in engines(MyrinetModel::default(), params) {
            for &(k, c, s) in &flows {
                net.add(k, c, s);
            }
            let mut done = net.run_to_completion();
            done.sort_by_key(|c| c.key);
            assert_bitwise_with_phases(&done, &reference, name);
        }
    }

    #[test]
    fn wide_barriers_dispatch_and_agree_bitwise() {
        // 1,400 node-offset copies of one three-flow component: their
        // events coincide, so each barrier dirties every copy's shard —
        // 4,197 members beyond the largest, past `INLINE_BARRIER_MEMBERS`
        // — and both sharded engines hand it to their dispatcher, the
        // threaded one included. Completions and phases still match the
        // reference bit for bit.
        let params = NetworkParams::new(4.0, 0.25);
        let flows: Vec<(u64, Communication, f64)> = (0..1_400u32)
            .flat_map(|c| {
                let (b, k) = (4 * c, 3 * u64::from(c));
                [
                    (k, comm(b, b + 1, 300), 0.0),
                    (k + 1, comm(b, b + 2, 201), 2.5),
                    (k + 2, comm(b + 3, b + 1, 157), 6.0),
                ]
            })
            .collect();
        let reference = reference_drain(MyrinetModel::default(), params, &flows);
        assert_eq!(reference.len(), flows.len());
        for (name, mut net) in engines(MyrinetModel::default(), params) {
            for &(k, c, s) in &flows {
                net.add(k, c, s);
            }
            let mut done = net.run_to_completion();
            done.sort_by_key(|c| c.key);
            assert_bitwise_with_phases(&done, &reference, name);
            let shape = net.shard_stats();
            assert_eq!(
                shape.dispatched_barriers > 0,
                name != "single shard",
                "{name}: {shape:?}"
            );
        }
    }

    #[test]
    fn sharded_mode_matches_heap_bitwise_and_tracks_components() {
        // Two independent components (node sets {0..3} and {10..13}) plus
        // a late bridge flow joining them: completions and phases must be
        // bitwise identical to the single-shard engine's and the
        // reference's throughout.
        let starts = [0.0, 0.0, 2.5, 2.5, 6.0, 9.0];
        let comms = [
            comm(0, 1, 30),
            comm(10, 11, 41),
            comm(0, 2, 52),
            comm(10, 12, 63),
            comm(3, 0, 74),
            comm(13, 10, 85),
        ];
        let params = NetworkParams::new(4.0, 0.25);
        let mut heap = FluidNetwork::new(MyrinetModel::default(), params).with_phase_recording();
        let mut sharded = FluidNetwork::new(MyrinetModel::default(), params)
            .with_phase_recording()
            .with_sharded();
        for net in [&mut heap, &mut sharded] {
            for ((k, &c), &s) in comms.iter().enumerate().zip(&starts) {
                net.add(k as u64, c, s);
            }
        }
        assert_eq!(sharded.shard_count(), 2);
        // run both halfway, then bridge the two components mid-flight
        let mid = 40.0;
        let mut a = heap.advance_to(mid);
        let mut b = sharded.advance_to(mid);
        heap.add(6, comm(2, 12, 55), mid);
        sharded.add(6, comm(2, 12, 55), mid);
        assert_eq!(sharded.shard_count(), 1, "bridge merges the shards");
        let (ra, rb) = (heap.run_to_completion(), sharded.run_to_completion());
        a.extend(ra);
        b.extend(rb);
        a.sort_by_key(|d| d.key);
        b.sort_by_key(|d| d.key);
        assert_eq!(a.len(), comms.len() + 1);
        assert_bitwise_with_phases(&b, &a, "heap vs sharded");
        let mut oracle =
            ReferenceNetwork::new(MyrinetModel::default(), params).with_phase_recording();
        for ((k, &c), &s) in comms.iter().enumerate().zip(&starts) {
            oracle.add(k as u64, c, s);
        }
        let mut c = oracle.advance_to(mid);
        oracle.add(6, comm(2, 12, 55), mid);
        c.extend(oracle.run_to_completion());
        c.sort_by_key(|d| d.key);
        assert_bitwise_with_phases(&a, &c, "heap vs reference");
        // aggregate stats stay observable across shards
        let stats = sharded.cache_stats();
        assert!(stats.model_queries > 0, "{stats:?}");
        let tstats = sharded.timeline_stats();
        assert!(tstats.heap_pushes > 0, "{tstats:?}");
    }

    #[test]
    fn bridge_departure_splits_the_partition_live() {
        // Two components bridged by one short flow: when the bridge
        // completes mid-run the component breaks back apart and the
        // sharded engine re-splits the shard — bitwise equal to the
        // single-shard engine and the reference throughout.
        let flows = [
            (0, comm(0, 1, 200), 0.0),
            (1, comm(0, 2, 200), 0.0),
            (2, comm(10, 11, 200), 0.0),
            (3, comm(10, 12, 200), 0.0),
            (4, comm(2, 10, 10), 0.0), // the bridge, finishes first
        ];
        let params = NetworkParams::unit();
        let mut heap = FluidNetwork::new(MyrinetModel::default(), params).with_phase_recording();
        let mut refine = FluidNetwork::new(MyrinetModel::default(), params)
            .with_phase_recording()
            .with_sharded();
        for &(k, c, s) in &flows {
            heap.add(k, c, s);
            refine.add(k, c, s);
        }
        assert_eq!(refine.shard_count(), 1, "the bridge fuses everything");
        let mut a = heap.advance_to(100.0);
        let mut b = refine.advance_to(100.0);
        assert_eq!(b.len(), 1, "only the bridge completed by t=100");
        assert_eq!(refine.shard_count(), 2, "bridge departure re-splits");
        assert_eq!(refine.shard_stats().splits, 1);
        a.extend(heap.run_to_completion());
        b.extend(refine.run_to_completion());
        a.sort_by_key(|d| d.key);
        b.sort_by_key(|d| d.key);
        assert_eq!(a.len(), 5);
        assert_bitwise_with_phases(&b, &a, "refine");
        assert_bitwise_with_phases(
            &a,
            &reference_drain(MyrinetModel::default(), params, &flows),
            "reference",
        );
        // The drained population quiesced the partition (both symmetric
        // components finish in one final batch, which resets the table
        // wholesale rather than retiring shards one by one); the shape
        // counters survive the quiesce.
        let stats = refine.shard_stats();
        assert_eq!(stats.live_shards, 0);
        assert_eq!((stats.splits, stats.merges), (1, 1), "{stats:?}");
    }

    #[test]
    fn a_recycled_shard_settles_like_a_fresh_one() {
        // Component {0, 1} drains at about t = 4 while {10, 11} runs on, so
        // its shard retires into the pool without a quiescent reset; the
        // component {20, 21, 22} arriving at t = 8 draws that shard. The
        // recycled shard's first settle is a full rebuild, and every
        // completion matches the single-shard engine and the reference bit
        // for bit.
        let flows = [
            (0, comm(0, 1, 3), 0.0),
            (1, comm(10, 11, 900), 0.0),
            (2, comm(10, 12, 700), 1.0),
            (3, comm(20, 21, 50), 8.0),
            (4, comm(22, 21, 60), 8.0),
            (5, comm(20, 22, 40), 9.5),
        ];
        let params = NetworkParams::new(1.0, 0.5);
        let reference = reference_drain(MyrinetModel::default(), params, &flows);
        for (name, mut net) in engines(MyrinetModel::default(), params) {
            let mut done = Vec::new();
            for &(k, c, s) in &flows {
                done.extend(net.advance_to(s));
                if s == 8.0 && k == 3 && name != "single shard" {
                    let Partition::Sharded(shards) = &net.state.partition else {
                        unreachable!("sharded engine");
                    };
                    assert_eq!(shards.pooled(), 1, "{name}: the drained shard is pooled");
                }
                net.add(k, c, s);
            }
            if let Partition::Sharded(shards) = &net.state.partition {
                assert_eq!(shards.pooled(), 0, "{name}: the new component drew it");
                let shape = net.shard_stats();
                assert_eq!((shape.drains, shape.merges), (1, 0), "{name}: {shape:?}");
                // one full rebuild per shard opened, the recycled one's too
                assert_eq!(net.cache_stats().scratch_rebuilds, 3, "{name}");
            }
            done.extend(net.run_to_completion());
            done.sort_by_key(|c| c.key);
            assert_bitwise_with_phases(&done, &reference, name);
        }
    }

    #[test]
    fn sharded_reset_restarts_components_and_keeps_stats() {
        let mut net =
            FluidNetwork::new(MyrinetModel::default(), NetworkParams::unit()).with_sharded();
        net.add(0, comm(0, 1, 100), 0.0);
        net.add(1, comm(2, 3, 100), 0.0);
        assert_eq!(net.shard_count(), 2);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 2);
        let queries_before = net.cache_stats().model_queries;
        assert!(queries_before > 0);
        net.reset();
        assert_eq!(net.shard_count(), 0);
        assert_eq!(net.time(), 0.0);
        // stats are cumulative across resets, and the reset network
        // produces fresh results bit-for-bit
        assert_eq!(net.cache_stats().model_queries, queries_before);
        net.add(0, comm(0, 1, 100), 0.0);
        let redo = net.run_to_completion();
        assert_eq!(redo.len(), 1);
        assert_eq!(redo[0].completion.to_bits(), done[0].completion.to_bits());
    }

    #[test]
    fn timeline_stats_count_heap_traffic() {
        let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(1.0, 1.0));
        net.add(0, comm(0, 1, 100), 0.0);
        net.add(1, comm(0, 2, 100), 10.0);
        net.add(2, comm(0, 3, 50), 20.0);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 3);
        let stats = net.timeline_stats();
        // every arrival anchors once and re-anchors on later changes
        assert!(stats.heap_pushes >= 3, "{stats:?}");
        assert!(
            stats.lazy_pops <= stats.heap_pushes,
            "lazy pops are bounded by pushes: {stats:?}"
        );
        // all three transfers start in the future (latency 1): each gate is
        // heap-managed and each opening is served from the heap
        assert_eq!(stats.gate_pushes, 3, "{stats:?}");
        assert_eq!(stats.gate_heap_hits, 3, "{stats:?}");
        // the only full resync is the first settle's rebuild
        assert_eq!(stats.rescans, 1, "{stats:?}");
    }

    #[test]
    fn gate_opening_at_a_completion_instant_is_one_event() {
        // Flow 0 completes at exactly t=10; flow 1's gate opens at t=10
        // (start 9 + latency 1). The engine must fold both into one settle:
        // flow 1 then runs alone at penalty 1.
        let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(1.0, 1.0))
            .with_phase_recording();
        net.add(0, comm(0, 1, 9), 0.0); // gate 1, alone → completes 10
        net.add(1, comm(0, 2, 5), 9.0); // gate 10 == completion instant
        let done = net.run_to_completion();
        assert_eq!(done.len(), 2);
        let a = done.iter().find(|d| d.key == 0).unwrap();
        let b = done.iter().find(|d| d.key == 1).unwrap();
        assert!((a.completion - 10.0).abs() < 1e-9, "a: {}", a.completion);
        assert!((b.completion - 15.0).abs() < 1e-9, "b: {}", b.completion);
        assert_eq!(a.phases.len(), 1, "{:?}", a.phases);
        assert_eq!(a.phases[0].penalty, 1.0);
        assert_eq!(b.phases.len(), 1, "never shared: {:?}", b.phases);
        assert_eq!(b.phases[0].penalty, 1.0);
    }

    #[test]
    fn clamped_finish_handles_degenerate_inputs() {
        use crate::kinetics::clamped_finish;
        // normal case: now + remaining/rate
        assert_eq!(clamped_finish(2.0, 10.0, 5.0, 1e-9), 4.0);
        // zero-size (remaining under eps): finishes now
        assert_eq!(clamped_finish(2.0, 0.0, 5.0, 1e-9), 2.0);
        assert_eq!(clamped_finish(2.0, 5e-10, 5.0, 1e-9), 2.0);
        // float drift drove remaining negative: clamps to now
        assert_eq!(clamped_finish(2.0, -1e-6, 5.0, 1e-9), 2.0);
        // NaN from a pathological division: clamps to now
        assert_eq!(clamped_finish(2.0, f64::NAN, 5.0, 1e-9), 2.0);
        assert_eq!(clamped_finish(2.0, 10.0, f64::NAN, 1e-9), 2.0);
        // infinite finish (rate 0) is preserved: the flow never finishes
        assert_eq!(clamped_finish(2.0, 10.0, 0.0, 1e-9), f64::INFINITY);
    }

    #[test]
    fn shard_member_lists_stay_bounded_under_churn() {
        // Eight flows out of node 0 (one conflict component), each
        // completion replaced at once: thousands of arrivals while the
        // population never drains, so neither a quiescent reset nor a
        // split ever clears the member list. Compaction must keep it
        // within twice the in-flight flows.
        for sharded in [false, true] {
            let mut net = FluidNetwork::new(GigabitEthernetModel::default(), NetworkParams::unit());
            if sharded {
                net = net.with_sharded();
            }
            let flow = |key: u64| comm(0, 1 + (key % 7) as u32, 100 + 37 * (key % 5));
            let mut key = 0u64;
            while key < 8 {
                net.add(key, flow(key), 0.0);
                key += 1;
            }
            for _ in 0..2_000 {
                let t = net.next_event_time().expect("flows stay in flight");
                for _ in 0..net.advance_to(t).len() {
                    net.add(key, flow(key), t);
                    key += 1;
                }
                let live = net.in_flight();
                let members = match &net.state.partition {
                    Partition::Single(sh) => sh.members.len(),
                    Partition::Sharded(shards) => shards.member_count(),
                };
                assert!(
                    members <= 2 * live + 2,
                    "sharded={sharded}: {members} member keys for {live} flows in flight \
                     after {key} arrivals"
                );
            }
            assert!(key > 1_000, "churn admitted only {key} flows");
        }
    }

    /// GigE, plus one extra `(extra, 1)` answer on every settle: a model
    /// that answers outside its own population.
    #[derive(Clone)]
    struct StrayAnswers {
        extra: netbw_core::FlowId,
    }

    impl PenaltyModel for StrayAnswers {
        fn name(&self) -> &'static str {
            "stray-answers"
        }
        fn penalties(&self, comms: &[Communication]) -> Vec<netbw_core::Penalty> {
            GigabitEthernetModel::default().penalties(comms)
        }
        fn new_scratch(&self) -> Box<dyn netbw_core::ModelScratch> {
            GigabitEthernetModel::default().new_scratch()
        }
        fn apply_delta(
            &self,
            delta: &netbw_core::PopulationDelta<'_>,
            scratch: &mut dyn netbw_core::ModelScratch,
            answers: &mut Vec<(netbw_core::FlowId, netbw_core::Penalty)>,
        ) -> netbw_core::QueryOutcome {
            let outcome = GigabitEthernetModel::default().apply_delta(delta, scratch, answers);
            answers.push((self.extra, netbw_core::Penalty::ONE));
            outcome
        }
    }

    #[test]
    fn answers_outside_the_settling_shard_panic_before_any_slot_is_touched() {
        // 4,200 one-flow components whose gates open at one instant: the
        // first barrier dirties every shard, past the inline cutoff, so
        // both sharded engines dispatch it. A model answering flow 0 —
        // another shard's member for all but one job — or an id past the
        // slab panics on the owner-stamp or range check, on every path.
        // The single shard owns flow 0, so its stray answer passes until
        // the drained population's last settle answers it departed.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let params = NetworkParams::new(4.0, 0.25);
        for extra in [0, u32::MAX] {
            for (name, mut net) in engines(StrayAnswers { extra }, params) {
                for c in 0..4_200u32 {
                    net.add(u64::from(c), comm(2 * c, 2 * c + 1, 100), 0.0);
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| net.run_to_completion()));
                let payload = outcome.expect_err(name);
                let want = match (name, extra) {
                    // scoped threads re-raise a message of their own
                    ("sharded threads", _) => "",
                    ("single shard", 0) => "answered flow lives in slab",
                    _ => "is not a member of the settling shard",
                };
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                assert!(msg.contains(want), "{name}, flow {extra}: {msg}");
                if name != "single shard" {
                    assert_eq!(net.shard_stats().dispatched_barriers, 1, "{name}");
                }
            }
        }
    }
}
