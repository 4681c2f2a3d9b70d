//! Incremental fluid network: transfers arrive over time, completions are
//! consumed as events. This is the network backend of the `netbw-sim`
//! discrete-event engine.
//!
//! Penalties are obtained through a [`PenaltyCache`]: the model is only
//! re-queried when the contending population actually changes (arrival,
//! latency-gate opening, completion), never on pure time advances or
//! [`FluidNetwork::next_event_time`] probes. Transfers live in a
//! stable-key [`crate::slab::Slab`], so a completion batch leaves the
//! surviving flows' identities (and relative order) untouched — the cache
//! reports each change as a positional
//! [`netbw_core::PopulationDelta`] and the models patch only the affected
//! endpoints or conflict components instead of recomputing the fabric.
//!
//! Finding the *next event* is event-driven too. Each contending flow
//! carries anchored kinetics — bytes remaining at its last rate change and
//! a cached absolute finish time — and the engine re-anchors only the
//! flows the model reports as affected ([`netbw_core::AffectedSet`]),
//! pushing the new finish times into a lazy min-heap
//! ([`crate::event_heap`]; epoch stamps in the slab invalidate superseded
//! entries on pop). Latency gates sit in a second heap, populated at
//! [`FluidNetwork::add`]. A settle therefore costs O(affected + log n)
//! and an event probe is a heap peek — no per-event scan over the
//! population.
//!
//! Two ablation modes preserve the older behaviours:
//! [`FluidNetwork::with_linear_timeline`] keeps the incremental cache but
//! scans the population for the next completion/gate (the pre-heap
//! engine), and [`FluidNetwork::with_full_recompute`] additionally
//! re-queries the model on every settle (the pre-refactor engine). A
//! fourth mode, [`FluidNetwork::with_sharded`], partitions the population
//! into conflict-component shards (see [`crate::shard`]) whose settles are
//! independent: each settle barrier hands one stage/refresh/re-anchor job
//! per dirty shard to a [`crate::dispatch::SettleDispatch`] in a single
//! round, so they can run in parallel. [`EngineMode`] names the modes for
//! callers that pick one at run time. All modes share the same
//! anchored-finish arithmetic, so their results are bit-for-bit identical
//! — the equivalence proptests pin the fast paths against the
//! full-recompute oracle exactly.

use crate::cache::{CacheStats, PenaltyCache};
use crate::dispatch::{SerialDispatch, SettleDispatch, SettleJob};
use crate::event_heap::{EventHeaps, TimelineStats};
use crate::params::NetworkParams;
use crate::shard::{Shard, ShardSet, ShardStats, SlotView};
use crate::slab::{FlowKey, RawSlots, Slab};
use crate::solver::Phase;
use netbw_core::{AffectedSet, Penalty, PenaltyModel};
use netbw_graph::Communication;
use std::sync::{Arc, Mutex};

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

/// Relative epsilon under which a transfer's remaining bytes count as zero.
const REL_EPS: f64 = 1e-9;

/// Absolute slack when comparing times (gates, targets, completions).
const TIME_EPS: f64 = 1e-15;

/// A transfer slot with anchored kinetics: between rate changes the flow
/// drains linearly, so `remaining` (bytes left *at* `anchor`) plus `rate`
/// determine its whole future — including the cached `finish` time the
/// event heap indexes. Progress is only materialized when the rate
/// actually changes (re-anchoring), never per time step, which is what
/// makes the arithmetic identical across the heap and scan engines.
#[derive(Debug, Clone)]
struct Slot {
    key: TransferKey,
    comm: Communication,
    /// Time at which the flow starts contending (start + latency).
    gate: f64,
    /// Whether the gate has opened (the flow is in the contending
    /// population from the cache's point of view).
    contending: bool,
    /// Time of the last rate change; `remaining` is measured here.
    anchor: f64,
    /// Bytes left at `anchor`.
    remaining: f64,
    /// Current drain rate (bandwidth × 1/penalty); 0 until the first
    /// settle after the gate opens.
    rate: f64,
    /// Current penalty value (recorded into phases on re-anchor).
    penalty: f64,
    /// Cached absolute finish time at the current rate; `INFINITY` until
    /// the flow is first anchored.
    finish: f64,
    eps: f64,
    phases: Vec<Phase>,
}

impl SlotView for Slot {
    fn comm(&self) -> &Communication {
        &self.comm
    }
    fn contending(&self) -> bool {
        self.contending
    }
    fn finish(&self) -> f64 {
        self.finish
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

/// Everything that mutates during a settle or an event, behind one lock:
/// clock, slots, penalty cache, event heaps, and the reusable buffers that
/// keep the advance loop allocation-free in steady state.
struct EngineState {
    time: f64,
    slots: Slab<Slot>,
    cache: PenaltyCache,
    events: EventHeaps,
    /// Conflict-component shards (sharded mode only; empty otherwise).
    /// The sharded engine ignores the global `cache`/`events` above — each
    /// shard carries its own.
    shards: ShardSet,
    /// Staged contending population for the next refresh (recycled with
    /// the cache's previous population vector).
    staged: Vec<FlowKey>,
    /// Communications aligned with `staged` (same recycling).
    comms_buf: Vec<Communication>,
    /// Gate openings collected at the current event.
    opened: Vec<FlowKey>,
    /// Completions due at the current event.
    due: Vec<FlowKey>,
    /// Endpoint pairs of the completions at the current event, fed to the
    /// shard table's departure refinement after the batch (sharded mode).
    departed: Vec<Communication>,
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
    full_recompute: bool,
    heap_timeline: bool,
    sharded: bool,
    /// Executor for the per-shard refreshes of a sharded settle barrier
    /// (the jobs touch disjoint shards, so any order — or any parallel
    /// schedule — yields the same bits). [`SerialDispatch`] by default.
    dispatch: Arc<dyn SettleDispatch>,
    // Mutex (uncontended in single-threaded use) because
    // `next_event_time` is `&self` (see `NetworkBackend`) but may need to
    // lazily settle after a population change — and the network must stay
    // `Sync` for thread-scoped sweeps.
    state: Mutex<EngineState>,
}

/// Which engine variant a [`FluidNetwork`] runs: one name per `with_*`
/// builder, for callers (benches, the what-if service, the equivalence
/// batteries) that pick the variant at run time. All five settle
/// bit-for-bit identically; they differ only in how much work a settle
/// costs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// Lazy event heaps over the incremental cache (the default engine).
    #[default]
    Event,
    /// Incremental cache, linear slab scans for the next event
    /// ([`FluidNetwork::with_linear_timeline`]).
    LinearTimeline,
    /// Full model requery every settle plus linear scans — the oracle
    /// ([`FluidNetwork::with_full_recompute`]).
    FullRecompute,
    /// Conflict-component shards over the event engine, serial dispatch
    /// ([`FluidNetwork::with_sharded`]).
    Sharded,
    /// Sharding with departure refinement disabled — the merge-only
    /// ablation ([`FluidNetwork::with_sharded_merge_only`]).
    ShardedMergeOnly,
}

impl EngineMode {
    /// Applies the mode to a freshly built network.
    pub fn apply<M: PenaltyModel>(self, net: FluidNetwork<M>) -> FluidNetwork<M> {
        match self {
            EngineMode::Event => net,
            EngineMode::LinearTimeline => net.with_linear_timeline(),
            EngineMode::FullRecompute => net.with_full_recompute(),
            EngineMode::Sharded => net.with_sharded(),
            EngineMode::ShardedMergeOnly => net.with_sharded_merge_only(),
        }
    }
}

/// A flow's cached absolute finish time, clamped so it can never point
/// into the past: degenerate inputs (zero-size transfers, float drift
/// driving `remaining` slightly negative, or a NaN escaping the division)
/// all collapse to "finishes now" — the heap-era analogue of the old
/// per-step `dt.is_nan() || dt < 0.0 → dt = 0` clamp.
fn clamped_finish(now: f64, remaining: f64, rate: f64, eps: f64) -> f64 {
    let finish = if remaining <= eps {
        now
    } else {
        now + remaining / rate
    };
    // `!(finish >= now)` also catches NaN.
    if finish >= now {
        finish
    } else {
        now
    }
}

/// Core of a re-anchor: if the flow's rate changed, materializes progress
/// since the previous anchor, records the closed phase, and refreshes the
/// cached finish time — returning it so the caller can republish the heap
/// entry. Flows whose penalty is bitwise-unchanged are left untouched
/// (`None`) — their live heap entry is still exact, which is why skipping
/// the unaffected majority is safe.
fn resync_slot(
    params: &NetworkParams,
    record_phases: bool,
    now: f64,
    slot: &mut Slot,
    penalty: Penalty,
) -> Option<f64> {
    let new_rate = params.bandwidth * penalty.rate();
    if slot.rate == new_rate {
        return None;
    }
    if record_phases && slot.rate > 0.0 && now > slot.anchor {
        push_phase(&mut slot.phases, slot.anchor, now, slot.penalty);
    }
    slot.remaining -= slot.rate * (now - slot.anchor);
    slot.anchor = now;
    slot.rate = new_rate;
    slot.penalty = penalty.value();
    slot.finish = clamped_finish(now, slot.remaining, new_rate, slot.eps);
    Some(slot.finish)
}

/// Re-anchors the flow at position `i` of the settled population via
/// [`resync_slot`], and (heap mode) bumps the slot epoch and pushes the
/// new finish entry.
#[allow(clippy::too_many_arguments)]
fn resync_position(
    params: &NetworkParams,
    record_phases: bool,
    heap_timeline: bool,
    now: f64,
    slots: &mut Slab<Slot>,
    events: &mut EventHeaps,
    key: FlowKey,
    penalty: Penalty,
) {
    let slot = slots.get_mut(key).expect("settled flow lives in slab");
    let Some(finish) = resync_slot(params, record_phases, now, slot, penalty) else {
        return;
    };
    if heap_timeline {
        let epoch = slots.bump_epoch(key).expect("settled flow lives in slab");
        events.push_completion(finish, key, epoch);
    }
}

/// The parallel-barrier counterpart of [`resync_position`], re-anchoring
/// through a [`RawSlots`] view so the settle jobs of disjoint shards can
/// run concurrently. Always heap-mode.
///
/// # Safety
/// `key` must be live, and no other concurrent user of the same raw view
/// may hold it (the dirty shards' settled populations partition the slab,
/// which the barrier asserts in debug builds). The slab must be
/// structurally frozen for the view's lifetime.
unsafe fn resync_raw(
    params: &NetworkParams,
    record_phases: bool,
    now: f64,
    slots: RawSlots<Slot>,
    events: &mut EventHeaps,
    key: FlowKey,
    penalty: Penalty,
) {
    // SAFETY: forwarded from the caller's contract; the `slot` borrow ends
    // before `bump_epoch` touches the entry again.
    let slot = unsafe { slots.get_mut(key) }.expect("settled flow lives in slab");
    let Some(finish) = resync_slot(params, record_phases, now, slot, penalty) else {
        return;
    };
    let epoch = unsafe { slots.bump_epoch(key) }.expect("settled flow lives in slab");
    events.push_completion(finish, key, epoch);
}

/// Settles the penalty cache for the current population and re-anchors
/// the affected flows' kinetics. Shared by event probing and time
/// advancement; serves from cache when nothing changed.
fn settle<M: PenaltyModel>(
    model: &M,
    params: &NetworkParams,
    record_phases: bool,
    full_recompute: bool,
    heap_timeline: bool,
    st: &mut EngineState,
) {
    if !full_recompute && st.cache.is_valid() {
        st.cache.note_reuse();
        return;
    }
    let EngineState {
        time,
        slots,
        cache,
        events,
        staged,
        comms_buf,
        ..
    } = st;
    let now = *time;
    // Heap mode derives the new population from the previous one plus the
    // pending change sets — O(contending), independent of how many gated
    // transfers sit in the slab. The scan modes (and the staging fallback)
    // gather from the slab directly.
    let staged_ok = !full_recompute && heap_timeline && cache.staged_active(staged);
    if !staged_ok {
        staged.clear();
        staged.extend(slots.iter().filter(|(_, s)| s.contending).map(|(k, _)| k));
    }
    comms_buf.clear();
    comms_buf.extend(
        staged
            .iter()
            .map(|&k| slots.get(k).expect("staged flow lives in slab").comm),
    );
    let active = std::mem::take(staged);
    let comms = std::mem::take(comms_buf);
    let (mut recycled_active, mut recycled_comms) = if full_recompute {
        // Oracle mode: the pre-refactor full query, bypassing the
        // delta/scratch machinery entirely.
        cache.invalidate_rebuild();
        cache.refresh_full(model, active, comms)
    } else {
        cache.refresh(model, active, comms)
    };
    recycled_active.clear();
    recycled_comms.clear();
    *staged = recycled_active;
    *comms_buf = recycled_comms;
    if heap_timeline {
        match cache.take_affected() {
            AffectedSet::Positions(positions) => {
                for &i in &positions {
                    resync_position(
                        params,
                        record_phases,
                        true,
                        now,
                        slots,
                        events,
                        cache.active()[i],
                        cache.penalties()[i],
                    );
                }
            }
            AffectedSet::All => {
                events.stats.rescans += 1;
                for i in 0..cache.active().len() {
                    resync_position(
                        params,
                        record_phases,
                        true,
                        now,
                        slots,
                        events,
                        cache.active()[i],
                        cache.penalties()[i],
                    );
                }
            }
        }
    } else {
        // Scan modes re-anchor over the whole population every settle;
        // the per-flow rate check keeps the arithmetic (and therefore the
        // results) bitwise identical to the heap path.
        events.stats.rescans += 1;
        for i in 0..cache.active().len() {
            resync_position(
                params,
                record_phases,
                false,
                now,
                slots,
                events,
                cache.active()[i],
                cache.penalties()[i],
            );
        }
    }
}

/// The sharded settle barrier: one dispatch round with one job per dirty
/// shard. Each job, on its own shard:
///
/// 1. **stages** the shard's post-change contending population — from the
///    shard cache's pending change sets when possible, falling back to a
///    slot-ordered gather over the shard's (lazily compacted) member list;
/// 2. **refreshes** its penalty cache with that population;
/// 3. **re-anchors** the kinetics of the flows the model reports as
///    affected, pushing their new finish times into the shard's heaps.
///
/// The jobs reach the slab through one [`RawSlots`] view: the dirty
/// shards' live members are pairwise-disjoint slot sets (asserted in debug
/// builds before the dispatch) and the slab is structurally frozen for
/// the whole barrier, so no two jobs ever touch the same live entry. A
/// stale member key whose slot another shard's flow now occupies is only
/// ever probed, by generation, while compacting. The next-event republish
/// stays serial: it feeds the shared cross-shard heap.
///
/// Clean shards are never touched, so a settle costs the dirty shards'
/// O(affected) work — not O(components) — plus the dispatch overhead. No
/// model answer depends on a flow outside its own component, so the shards
/// never need to consult each other mid-barrier.
fn settle_sharded<M: PenaltyModel>(
    model: &M,
    params: &NetworkParams,
    record_phases: bool,
    dispatch: &dyn SettleDispatch,
    st: &mut EngineState,
) {
    if st.shards.dirty.is_empty() {
        if st.shards.live_count() > 0 {
            st.shards.note_reused_settle();
        }
        return;
    }
    let EngineState {
        time,
        slots,
        shards,
        ..
    } = st;
    let now = *time;
    let mut dirty = std::mem::take(&mut shards.dirty);
    dirty.sort_unstable();
    #[cfg(debug_assertions)]
    {
        // The RawSlots jobs below are sound only if the dirty shards' live
        // members name pairwise-disjoint slots.
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
                // SAFETY: the job reads and writes only its own shard's
                // live members, disjoint from every other job's; the slab
                // is frozen for the whole barrier.
                unsafe { settle_shard(model, params, record_phases, now, raw, sh) }
            })
        })
        .collect();
    dispatch.run_settles(&mut jobs);
    drop(jobs);
    for &id in &dirty {
        shards.refresh_next(id, slots);
    }
    debug_assert!(shards.dirty.is_empty(), "no shard dirtied mid-settle");
    dirty.clear();
    shards.dirty = dirty;
}

/// One dirty shard's settle job: stage, refresh and re-anchor (see
/// [`settle_sharded`]).
///
/// # Safety
/// Every live key among `sh`'s members must be held by no other
/// concurrent user of `slots`, and the slab must be structurally frozen
/// for the view's lifetime.
unsafe fn settle_shard<M: PenaltyModel>(
    model: &M,
    params: &NetworkParams,
    record_phases: bool,
    now: f64,
    slots: RawSlots<Slot>,
    sh: &mut Shard,
) {
    // SAFETY: only ever called with live members of this shard (compacted
    // or staged keys), which no other job touches.
    let slot = |k: FlowKey| unsafe { slots.get_mut(k) }.expect("member lives in slab");
    if !sh.cache.staged_active(&mut sh.staged) {
        // Rebuild gather: compact the member list, then stage the shard's
        // contending flows in slot order — exactly the slab scan the
        // unsharded engine would do, restricted to this shard.
        // SAFETY: `contains` reads only the generation stamp, which no job
        // writes, so probing a stale key whose slot another job's flow now
        // occupies is sound.
        sh.members.retain(|&k| unsafe { slots.contains(k) });
        sh.staged.clear();
        sh.staged
            .extend(sh.members.iter().copied().filter(|&k| slot(k).contending));
        sh.staged.sort_unstable_by_key(|k| k.slot_index());
    }
    sh.comms_buf.clear();
    sh.comms_buf.extend(sh.staged.iter().map(|&k| slot(k).comm));
    let active = std::mem::take(&mut sh.staged);
    let comms = std::mem::take(&mut sh.comms_buf);
    let (mut recycled_active, mut recycled_comms) = sh.cache.refresh(model, active, comms);
    recycled_active.clear();
    recycled_comms.clear();
    sh.staged = recycled_active;
    sh.comms_buf = recycled_comms;
    let positions = match sh.cache.take_affected() {
        AffectedSet::Positions(positions) => positions,
        AffectedSet::All => {
            sh.events.stats.rescans += 1;
            (0..sh.cache.active().len()).collect()
        }
    };
    for i in positions {
        let (key, penalty) = (sh.cache.active()[i], sh.cache.penalties()[i]);
        // SAFETY: `key` sits in this shard's settled population.
        unsafe {
            resync_raw(
                params,
                record_phases,
                now,
                slots,
                &mut sh.events,
                key,
                penalty,
            )
        };
    }
    sh.dirty = false;
}

/// The earliest cached finish among contending flows, by scanning the
/// slab — the linear-timeline/oracle counterpart of the heap peek.
fn scan_next_finish(slots: &Slab<Slot>) -> Option<f64> {
    slots
        .iter()
        .filter(|(_, s)| s.contending)
        .map(|(_, s)| s.finish)
        .min_by(f64::total_cmp)
}

/// The earliest unopened gate, by scanning the slab.
fn scan_next_gate(slots: &Slab<Slot>, now: f64) -> Option<f64> {
    slots
        .iter()
        .filter(|(_, s)| !s.contending && s.gate > now + TIME_EPS)
        .map(|(_, s)| s.gate)
        .min_by(f64::total_cmp)
}

impl<M: PenaltyModel> FluidNetwork<M> {
    /// Creates an idle network at time 0, using the event-heap timeline.
    pub fn new(model: M, params: NetworkParams) -> Self {
        FluidNetwork {
            model,
            params,
            record_phases: false,
            full_recompute: false,
            heap_timeline: true,
            sharded: false,
            dispatch: Arc::new(SerialDispatch),
            state: Mutex::new(EngineState {
                time: 0.0,
                slots: Slab::new(),
                cache: PenaltyCache::new(),
                events: EventHeaps::default(),
                shards: ShardSet::default(),
                staged: Vec::new(),
                comms_buf: Vec::new(),
                opened: Vec::new(),
                due: Vec::new(),
                departed: Vec::new(),
            }),
        }
    }

    /// Enables per-transfer penalty-phase recording (costs memory).
    pub fn with_phase_recording(mut self) -> Self {
        self.record_phases = true;
        self
    }

    /// Keeps the incremental penalty cache but finds events by scanning
    /// the population instead of through the lazy heaps — the pre-heap
    /// engine. Kept as the honest baseline for benchmarking the timeline's
    /// contribution in isolation.
    pub fn with_linear_timeline(mut self) -> Self {
        self.heap_timeline = false;
        self
    }

    /// Disables the incremental penalty cache *and* the heap timeline:
    /// the model is re-queried and the population re-scanned on every
    /// solver iteration, as the pre-refactor engine did. Slowest; kept as
    /// the equivalence oracle the proptests pin the fast paths against.
    pub fn with_full_recompute(mut self) -> Self {
        self.full_recompute = true;
        self.heap_timeline = false;
        self
    }

    /// Shards the engine by conflict component: each connected component
    /// of the shared-endpoint graph gets its own penalty cache (with its
    /// own model scratch) and event heaps, and a settle refreshes only the
    /// components an event actually touched. The penalty models are
    /// component-local, so the results are bit-for-bit identical to the
    /// other modes'; what changes is that the per-shard refreshes are
    /// independent — hand them to a parallel executor with
    /// [`Self::with_sharded_dispatch`]. Overrides any earlier timeline
    /// mode choice.
    pub fn with_sharded(mut self) -> Self {
        self.sharded = true;
        self.heap_timeline = true;
        self.full_recompute = false;
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

    /// [`Self::with_sharded`] with departure-driven refinement disabled:
    /// the partition only ever coarsens, as it did before shard splitting
    /// landed. Kept as the ablation baseline the split benchmarks compare
    /// against — long-lived populations degrade toward one mega-shard in
    /// this mode.
    pub fn with_sharded_merge_only(mut self) -> Self {
        self.state
            .get_mut()
            .expect("engine state lock")
            .shards
            .merge_only = true;
        self.with_sharded()
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.state.lock().expect("engine state lock").time
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
        self.state.lock().expect("engine state lock").slots.len()
    }

    /// Penalty-cache counters: model queries, cache reuses, invalidations.
    /// In sharded mode this is the aggregate over every shard cache, past
    /// and present (merged-away shards included).
    pub fn cache_stats(&self) -> CacheStats {
        let st = self.state.lock().expect("engine state lock");
        if self.sharded {
            st.shards.cache_stats()
        } else {
            st.cache.stats()
        }
    }

    /// Event-timeline counters: heap pushes, stale entries discarded,
    /// gate-heap traffic, full-population rescans. In sharded mode this is
    /// the aggregate over every shard timeline.
    pub fn timeline_stats(&self) -> TimelineStats {
        let st = self.state.lock().expect("engine state lock");
        if self.sharded {
            st.shards.timeline_stats()
        } else {
            st.events.stats
        }
    }

    /// Number of live conflict-component shards (always 0 unless built
    /// with [`Self::with_sharded`]).
    pub fn shard_count(&self) -> usize {
        self.state
            .lock()
            .expect("engine state lock")
            .shards
            .live_count()
    }

    /// Partition-shape counters: live shard count plus cumulative splits,
    /// merges and drains (all zero unless built with
    /// [`Self::with_sharded`]).
    pub fn shard_stats(&self) -> ShardStats {
        self.state
            .lock()
            .expect("engine state lock")
            .shards
            .shard_stats()
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
        let st = self.state.get_mut().expect("engine state lock");
        st.time = 0.0;
        st.slots.clear();
        st.cache.reset();
        st.events.clear();
        st.shards.reset();
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
        let heap_timeline = self.heap_timeline;
        let latency = self.params.latency;
        let st = self.state.get_mut().expect("engine state lock");
        if !start.is_finite() {
            return Err(AddError::NonFiniteStart { start });
        }
        if start < st.time - 1e-12 {
            return Err(AddError::StartInPast {
                start,
                now: st.time,
            });
        }
        // Sharded mode routes the endpoints through the component tracker
        // up front (gated flows included, so every flow has a shard home);
        // a flow bridging two components merges their shards here.
        let shard_id = self.sharded.then(|| st.shards.assign(&comm));
        let size = comm.size as f64;
        let gate = start.max(st.time) + latency;
        let contending = gate <= st.time + TIME_EPS;
        let flow = st.slots.insert(Slot {
            key,
            comm,
            gate,
            contending,
            anchor: gate,
            remaining: size,
            rate: 0.0,
            penalty: 1.0,
            finish: f64::INFINITY,
            eps: (size * REL_EPS).max(1e-9),
            phases: Vec::new(),
        });
        let epoch = st.slots.epoch(flow).expect("just-inserted flow is live");
        if let Some(id) = shard_id {
            let sh = st.shards.shard_mut(id);
            sh.members.push(flow);
            if contending {
                sh.cache.note_arrival(flow);
                st.shards.mark_dirty(id);
            } else {
                sh.events.push_gate(gate, flow, epoch);
            }
            st.shards.refresh_next(id, &st.slots);
        } else if contending {
            // Contending immediately; gated slots enter the population
            // when the clock crosses their gate.
            st.cache.note_arrival(flow);
        } else if heap_timeline {
            st.events.push_gate(gate, flow, epoch);
        }
        Ok(())
    }

    /// The next instant at which the network state changes (a gate opens or
    /// a transfer completes), or `None` when idle.
    pub fn next_event_time(&self) -> Option<f64> {
        let mut st = self.state.lock().expect("engine state lock");
        if st.slots.is_empty() {
            return None;
        }
        if self.sharded {
            settle_sharded(
                &self.model,
                &self.params,
                self.record_phases,
                &*self.dispatch,
                &mut st,
            );
            return st.shards.peek_next();
        }
        settle(
            &self.model,
            &self.params,
            self.record_phases,
            self.full_recompute,
            self.heap_timeline,
            &mut st,
        );
        let EngineState {
            time,
            slots,
            events,
            ..
        } = &mut *st;
        let (completion, gate) = if self.heap_timeline {
            (events.peek_finish(slots), events.peek_gate(slots))
        } else {
            (scan_next_finish(slots), scan_next_gate(slots, *time))
        };
        match (completion, gate) {
            (None, None) => None,
            (Some(c), None) => Some(c),
            (None, Some(g)) => Some(g),
            (Some(c), Some(g)) => Some(c.min(g)),
        }
    }

    /// Advances the clock to `t`, returning every transfer that completed
    /// in `(current time, t]`, in completion order.
    ///
    /// # Panics
    /// If `t` is before the current time.
    pub fn advance_to(&mut self, t: f64) -> Vec<CompletedTransfer> {
        if self.sharded {
            return self.advance_to_sharded(t);
        }
        let Self {
            model,
            params,
            record_phases,
            full_recompute,
            heap_timeline,
            state,
            ..
        } = self;
        let (record_phases, full_recompute, heap_timeline) =
            (*record_phases, *full_recompute, *heap_timeline);
        let st = state.get_mut().expect("engine state lock");
        assert!(
            t >= st.time - 1e-12,
            "cannot advance backwards ({} -> {t})",
            st.time
        );
        let mut done = Vec::new();
        loop {
            settle(
                model,
                params,
                record_phases,
                full_recompute,
                heap_timeline,
                st,
            );
            let EngineState {
                time,
                slots,
                cache,
                events,
                opened,
                due,
                ..
            } = st;
            let (completion, gate) = if heap_timeline {
                (events.peek_finish(slots), events.peek_gate(slots))
            } else {
                (scan_next_finish(slots), scan_next_gate(slots, *time))
            };
            let event = match (completion, gate) {
                (None, None) => None,
                (Some(c), None) => Some(c),
                (None, Some(g)) => Some(g),
                (Some(c), Some(g)) => Some(c.min(g)),
            };
            let e = match event {
                Some(e) if e <= t => e,
                _ => {
                    // Nothing further happens before the target time; a
                    // gate within epsilon of `t` still opens (it will be
                    // settled on the next call).
                    *time = time.max(t);
                    let now = *time;
                    opened.clear();
                    if heap_timeline {
                        events.pop_gates_through(now + TIME_EPS, slots, opened);
                    } else {
                        opened.extend(
                            slots
                                .iter()
                                .filter(|(_, s)| !s.contending && s.gate <= now + TIME_EPS)
                                .map(|(k, _)| k),
                        );
                    }
                    for &flow in opened.iter() {
                        slots
                            .get_mut(flow)
                            .expect("gated flow lives in slab")
                            .contending = true;
                        cache.note_arrival(flow);
                    }
                    break;
                }
            };
            *time = time.max(e);
            let now = *time;

            // Latency gates crossing `e` open first: their flows join the
            // population in the same settle that sees any simultaneous
            // completions (one chained Mixed delta).
            opened.clear();
            if heap_timeline {
                events.pop_gates_through(now + TIME_EPS, slots, opened);
            } else {
                opened.extend(
                    slots
                        .iter()
                        .filter(|(_, s)| !s.contending && s.gate <= now + TIME_EPS)
                        .map(|(k, _)| k),
                );
            }
            for &flow in opened.iter() {
                slots
                    .get_mut(flow)
                    .expect("gated flow lives in slab")
                    .contending = true;
                cache.note_arrival(flow);
            }

            // Completions due at `e`: every live heap entry (= every
            // contending flow) whose cached finish time has arrived. Keys
            // are stable, so removals leave the surviving flows (and the
            // cache's view of them) untouched.
            due.clear();
            if heap_timeline {
                events.pop_due_completions(now, slots, due);
            } else {
                due.extend(
                    slots
                        .iter()
                        .filter(|(_, s)| s.contending && s.finish <= now)
                        .map(|(k, _)| k),
                );
            }
            let batch_start = done.len();
            for &flow in due.iter() {
                if record_phases {
                    let slot = slots.get_mut(flow).expect("due flow lives in slab");
                    if slot.rate > 0.0 && now > slot.anchor {
                        push_phase(&mut slot.phases, slot.anchor, now, slot.penalty);
                    }
                }
                let slot = slots.remove(flow).expect("due flow lives in slab");
                debug_assert!(
                    slot.remaining - slot.rate * (now - slot.anchor) <= slot.eps,
                    "flow {flow} completed with bytes left"
                );
                cache.note_departure(flow);
                done.push(CompletedTransfer {
                    key: slot.key,
                    completion: now,
                    phases: slot.phases,
                });
            }
            done[batch_start..].sort_by_key(|c| c.key);
        }
        done
    }

    /// The sharded advance loop. Mirrors [`Self::advance_to`]'s event
    /// structure exactly — same time bounds, same gates-before-completions
    /// folding at an instant, same per-batch key sort — but pops events
    /// from the candidate shards' heaps (via the cross-shard heap) instead
    /// of global ones, and dirties only those shards, so the following
    /// settle refreshes just the components the event touched.
    fn advance_to_sharded(&mut self, t: f64) -> Vec<CompletedTransfer> {
        let Self {
            model,
            params,
            record_phases,
            dispatch,
            state,
            ..
        } = self;
        let record_phases = *record_phases;
        let dispatch = &**dispatch;
        let st = state.get_mut().expect("engine state lock");
        assert!(
            t >= st.time - 1e-12,
            "cannot advance backwards ({} -> {t})",
            st.time
        );
        let mut done = Vec::new();
        loop {
            settle_sharded(model, params, record_phases, dispatch, st);
            let EngineState {
                time,
                slots,
                shards,
                opened,
                due,
                departed,
                ..
            } = st;
            let e = match shards.peek_next() {
                Some(e) if e <= t => e,
                _ => {
                    // Nothing further happens before the target time; a
                    // gate within epsilon of `t` still opens (it will be
                    // settled on the next call).
                    *time = time.max(t);
                    let now = *time;
                    let candidates = shards.take_candidates(now + TIME_EPS);
                    for &id in &candidates {
                        opened.clear();
                        let sh = shards.shard_mut(id);
                        sh.events.pop_gates_through(now + TIME_EPS, slots, opened);
                        for &flow in opened.iter() {
                            slots
                                .get_mut(flow)
                                .expect("gated flow lives in slab")
                                .contending = true;
                            sh.cache.note_arrival(flow);
                        }
                        if !opened.is_empty() {
                            shards.mark_dirty(id);
                        }
                        shards.refresh_next(id, slots);
                    }
                    shards.recycle_candidates(candidates);
                    break;
                }
            };
            *time = time.max(e);
            let now = *time;
            // Every shard whose next event falls within the instant is a
            // candidate: gates crossing `e` open first (joining the same
            // settle as any simultaneous completions), then due
            // completions are removed — per shard, in ascending shard
            // order, which the final key sort makes order-independent.
            let candidates = shards.take_candidates(now + TIME_EPS);
            let batch_start = done.len();
            for &id in &candidates {
                opened.clear();
                due.clear();
                let sh = shards.shard_mut(id);
                sh.events.pop_gates_through(now + TIME_EPS, slots, opened);
                sh.events.pop_due_completions(now, slots, due);
                for &flow in opened.iter() {
                    slots
                        .get_mut(flow)
                        .expect("gated flow lives in slab")
                        .contending = true;
                    sh.cache.note_arrival(flow);
                }
                for &flow in due.iter() {
                    if record_phases {
                        let slot = slots.get_mut(flow).expect("due flow lives in slab");
                        if slot.rate > 0.0 && now > slot.anchor {
                            push_phase(&mut slot.phases, slot.anchor, now, slot.penalty);
                        }
                    }
                    let slot = slots.remove(flow).expect("due flow lives in slab");
                    debug_assert!(
                        slot.remaining - slot.rate * (now - slot.anchor) <= slot.eps,
                        "flow {flow} completed with bytes left"
                    );
                    sh.cache.note_departure(flow);
                    departed.push(slot.comm);
                    done.push(CompletedTransfer {
                        key: slot.key,
                        completion: now,
                        phases: slot.phases,
                    });
                }
                if !opened.is_empty() || !due.is_empty() {
                    shards.mark_dirty(id);
                }
                shards.refresh_next(id, slots);
            }
            shards.recycle_candidates(candidates);
            done[batch_start..].sort_by_key(|c| c.key);
            if slots.is_empty() {
                // Quiescent barrier: the population drained to empty, so
                // every shard is memberless and the partition can be
                // forgotten. The next churn phase re-partitions from
                // scratch instead of inheriting a merge-only mega-shard
                // (or stale-member) structure forever.
                departed.clear();
                shards.reset();
            } else {
                // Departure refinement: drop each completed flow's edge
                // from the component tracker and re-partition to match —
                // re-seating roots, retiring drained shards, splitting
                // disconnected ones.
                for comm in departed.drain(..) {
                    shards.depart(&comm, slots);
                }
            }
        }
        done
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

impl<M: PenaltyModel + Clone> FluidNetwork<M> {
    /// An independent deep copy of the warm engine: clock, slab (keys,
    /// generations and epochs verbatim), penalty cache with its model
    /// scratch (via [`netbw_core::ModelScratch::fork`]), event heaps, and
    /// — in sharded mode — the whole shard table. The fork and the
    /// original evolve independently from here on and produce bit-for-bit
    /// the results a rebuild-and-replay of the same history would (pinned
    /// by the `fork_equivalence` proptests).
    ///
    /// The model itself is cloned, so share an immutable model cheaply by
    /// instantiating the network over `Arc<dyn PenaltyModel>` (models are
    /// stateless — all mutable state lives in the forked scratch). This is
    /// what lets the `netbw-serve` what-if service answer speculative
    /// queries by forking a warm snapshot instead of replaying history.
    ///
    /// `fork` takes `&self` (briefly locking the engine state), so many
    /// worker threads can fork the same shared snapshot concurrently.
    pub fn fork(&self) -> Self {
        let st = self.state.lock().expect("engine state lock");
        FluidNetwork {
            model: self.model.clone(),
            params: self.params,
            record_phases: self.record_phases,
            full_recompute: self.full_recompute,
            heap_timeline: self.heap_timeline,
            sharded: self.sharded,
            dispatch: Arc::clone(&self.dispatch),
            state: Mutex::new(EngineState {
                time: st.time,
                slots: st.slots.clone(),
                cache: st.cache.fork(),
                events: st.events.clone(),
                shards: st.shards.fork(),
                staged: Vec::new(),
                comms_buf: Vec::new(),
                opened: Vec::new(),
                due: Vec::new(),
                departed: Vec::new(),
            }),
        }
    }

    /// [`Self::fork`] into an existing engine, reusing `target`'s
    /// allocations all the way down: slab, penalty cache (model scratch
    /// included, via [`netbw_core::ModelScratch::fork_into`]), event
    /// heaps, and — in sharded mode — the whole shard table clone in
    /// place. The outcome is bitwise indistinguishable from
    /// `*target = self.fork()` (pinned by the `rebase_equivalence`
    /// proptests), but a steady-state re-fork into a warm target
    /// allocates nothing — this is the serve hot path's per-worker fork
    /// arena.
    ///
    /// `target`'s own history is discarded wholesale; its scratch
    /// buffers are cleared, not copied, exactly as `fork` starts them
    /// empty (they are always drained before use).
    pub fn fork_into(&self, target: &mut Self) {
        let st = self.state.lock().expect("engine state lock");
        target.model = self.model.clone();
        target.params = self.params;
        target.record_phases = self.record_phases;
        target.full_recompute = self.full_recompute;
        target.heap_timeline = self.heap_timeline;
        target.sharded = self.sharded;
        target.dispatch = Arc::clone(&self.dispatch);
        let tgt = target.state.get_mut().expect("target engine state lock");
        tgt.time = st.time;
        st.slots.fork_into(&mut tgt.slots);
        st.cache.fork_into(&mut tgt.cache);
        st.events.fork_into(&mut tgt.events);
        st.shards.fork_into(&mut tgt.shards);
        tgt.staged.clear();
        tgt.comms_buf.clear();
        tgt.opened.clear();
        tgt.due.clear();
        tgt.departed.clear();
    }
}

/// Appends a phase, merging with the previous one when the penalty is
/// unchanged (keeps histories compact across artificial event boundaries).
fn push_phase(phases: &mut Vec<Phase>, t0: f64, t1: f64, penalty: f64) {
    if let Some(last) = phases.last_mut() {
        if (last.penalty - penalty).abs() < 1e-12 && (last.t1 - t0).abs() < 1e-12 {
            last.t1 = t1;
            return;
        }
    }
    phases.push(Phase { t0, t1, penalty });
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbw_core::baseline::LinearModel;
    use netbw_core::MyrinetModel;

    fn comm(src: u32, dst: u32, size: u64) -> Communication {
        Communication::new(src, dst, size)
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
    fn incremental_and_full_recompute_agree() {
        // Identical staggered workloads through both engines: completions
        // must match exactly, while the incremental engine queries the
        // model strictly less often.
        let starts = [0.0, 3.0, 3.0, 7.0, 11.0, 30.0];
        let mut fast = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(2.0, 0.5));
        let mut slow = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(2.0, 0.5))
            .with_full_recompute();
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
                "key {}: heap and oracle engines share their arithmetic, so \
                 completions match bitwise",
                x.key
            );
        }
        assert!(
            fast.cache_stats().model_queries < slow.cache_stats().model_queries,
            "incremental {:?} should query less than baseline {:?}",
            fast.cache_stats(),
            slow.cache_stats()
        );
    }

    #[test]
    fn all_three_timeline_modes_agree_bitwise() {
        let starts = [0.0, 0.0, 2.5, 2.5, 6.0, 9.0, 9.0, 14.0];
        let mut nets = [
            FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(4.0, 0.25))
                .with_phase_recording(),
            FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(4.0, 0.25))
                .with_phase_recording()
                .with_linear_timeline(),
            FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(4.0, 0.25))
                .with_phase_recording()
                .with_full_recompute(),
        ];
        for net in nets.iter_mut() {
            for (k, &s) in starts.iter().enumerate() {
                net.add(
                    k as u64,
                    comm(k as u32 % 4, 4 + k as u32 % 3, 30 + 11 * k as u64),
                    s,
                );
            }
        }
        let [heap, linear, oracle] = nets;
        let run = |mut n: FluidNetwork<MyrinetModel>| {
            let mut d = n.run_to_completion();
            d.sort_by_key(|c| c.key);
            d
        };
        let (a, b, c) = (run(heap), run(linear), run(oracle));
        assert_eq!(a.len(), starts.len());
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.key, z.key);
            assert_eq!(x.completion, y.completion, "heap vs linear, key {}", x.key);
            assert_eq!(x.completion, z.completion, "heap vs oracle, key {}", x.key);
            assert_eq!(x.phases, y.phases, "phases heap vs linear, key {}", x.key);
            assert_eq!(x.phases, z.phases, "phases heap vs oracle, key {}", x.key);
        }
    }

    #[test]
    fn sharded_mode_matches_heap_bitwise_and_tracks_components() {
        // Two independent components (node sets {0..3} and {10..13}) plus
        // a late bridge flow joining them: completions and phases must be
        // bitwise identical to the heap engine throughout.
        let starts = [0.0, 0.0, 2.5, 2.5, 6.0, 9.0];
        let comms = [
            comm(0, 1, 30),
            comm(10, 11, 41),
            comm(0, 2, 52),
            comm(10, 12, 63),
            comm(3, 0, 74),
            comm(13, 10, 85),
        ];
        let mut heap = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(4.0, 0.25))
            .with_phase_recording();
        let mut sharded = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(4.0, 0.25))
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
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(
                x.completion.to_bits(),
                y.completion.to_bits(),
                "heap vs sharded, key {}",
                x.key
            );
            assert_eq!(x.phases, y.phases, "phases heap vs sharded, key {}", x.key);
        }
        // aggregate stats stay observable across shards
        let stats = sharded.cache_stats();
        assert!(stats.model_queries > 0, "{stats:?}");
        let tstats = sharded.timeline_stats();
        assert!(tstats.heap_pushes > 0, "{tstats:?}");
    }

    #[test]
    fn bridge_departure_splits_the_partition_live() {
        // Two components bridged by one short flow: when the bridge
        // completes mid-run the component breaks back apart, and the
        // refining engine re-splits the shard while the merge-only
        // ablation stays fused — both bitwise equal to the heap engine.
        let add_all = |net: &mut FluidNetwork<MyrinetModel>| {
            net.add(0, comm(0, 1, 200), 0.0);
            net.add(1, comm(0, 2, 200), 0.0);
            net.add(2, comm(10, 11, 200), 0.0);
            net.add(3, comm(10, 12, 200), 0.0);
            net.add(4, comm(2, 10, 10), 0.0); // the bridge, finishes first
        };
        let params = NetworkParams::unit();
        let mut heap = FluidNetwork::new(MyrinetModel::default(), params);
        let mut refine = FluidNetwork::new(MyrinetModel::default(), params).with_sharded();
        let mut fused =
            FluidNetwork::new(MyrinetModel::default(), params).with_sharded_merge_only();
        add_all(&mut heap);
        add_all(&mut refine);
        add_all(&mut fused);
        assert_eq!(refine.shard_count(), 1, "the bridge fuses everything");
        let mut a = heap.advance_to(100.0);
        let mut b = refine.advance_to(100.0);
        let mut c = fused.advance_to(100.0);
        assert_eq!(b.len(), 1, "only the bridge completed by t=100");
        assert_eq!(refine.shard_count(), 2, "bridge departure re-splits");
        assert_eq!(refine.shard_stats().splits, 1);
        assert_eq!(fused.shard_count(), 1, "merge-only never splits");
        a.extend(heap.run_to_completion());
        b.extend(refine.run_to_completion());
        c.extend(fused.run_to_completion());
        for done in [&mut a, &mut b, &mut c] {
            done.sort_by_key(|d| d.key);
        }
        assert_eq!(a.len(), 5);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.completion.to_bits(), y.completion.to_bits(), "refine");
            assert_eq!(x.completion.to_bits(), z.completion.to_bits(), "fused");
        }
        // The drained population quiesced the partition (both symmetric
        // components finish in one final batch, which resets the table
        // wholesale rather than retiring shards one by one); the shape
        // counters survive the quiesce.
        let stats = refine.shard_stats();
        assert_eq!(stats.live_shards, 0);
        assert_eq!((stats.splits, stats.merges), (1, 1), "{stats:?}");
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
        // the linear mode, by contrast, rescans on every settle and never
        // touches the heaps
        let mut linear = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(1.0, 1.0))
            .with_linear_timeline();
        linear.add(0, comm(0, 1, 100), 0.0);
        linear.add(1, comm(0, 2, 100), 10.0);
        linear.run_to_completion();
        let lstats = linear.timeline_stats();
        assert_eq!(lstats.heap_pushes, 0, "{lstats:?}");
        assert_eq!(lstats.gate_pushes, 0, "{lstats:?}");
        assert!(lstats.rescans >= 3, "{lstats:?}");
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
}
