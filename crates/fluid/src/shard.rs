//! Component shards: per-conflict-component timelines and penalty caches.
//! The default [`crate::FluidNetwork`] keeps its whole population in one
//! `Shard`; [`crate::FluidNetwork::with_sharded`] keeps one per conflict
//! component in a `ShardSet`.
//!
//! The penalty models are component-local (see
//! [`netbw_core::components`]): flows in disjoint connected components of
//! the shared-endpoint graph never influence each other's penalty — the
//! Myrinet state-set budget included, which is decided per conflict
//! component, so a blown component degrades only itself. The
//! sharded engine exploits that by partitioning the slab-backed flow
//! population into such components ("shards") and giving each its own
//! [`crate::event_heap`] timeline and [`PenaltyCache`] (with its own model
//! scratch). A settle then refreshes only the *dirty* shards — and those
//! refreshes are independent, so they can run in parallel through a
//! [`crate::dispatch::SettleDispatch`].
//!
//! A shard's index *is* its component's [`ComponentTracker`] label, so
//! routing a flow to its shard is a label read. The partition **refines in
//! both directions**, driven by the tracker, and every repartition costs
//! its *smaller side*. Arrivals coarsen it: a new flow joins an existing
//! shard, creates a fresh one, or *bridges* two — in which case the
//! absorbed label's shard retires, the larger side's cache survives
//! (swapped into the surviving label's shard when the absorbed side held
//! more members), the smaller side's contending flows are noted on it as
//! arrivals (so its next settle is a delta patch, not a rebuild), member
//! lists and event heaps are spliced together, and the dropped cache's
//! counters fold into the set-wide accumulator. Departures refine it back
//! apart: the tracker classifies each one as [`ComponentRemoval::Shrunk`]
//! (nothing moves: labels never re-seat), [`ComponentRemoval::Drained`]
//! (the shard's last flow left, so it retires), or
//! [`ComponentRemoval::Split`] — in which case `ShardSet::split` carves
//! the split-off component out of its shard: member keys are partitioned
//! by O(1) label lookups, the part with more members keeps the pre-split
//! cache and event heaps with the smaller part's contending flows noted on
//! it as departures, and the smaller part starts a fresh cache (its first
//! settle is a rebuild over its own members) and fresh heaps, rebuilt from
//! its members under freshly bumped slot epochs so its entries in the old
//! heaps go stale lazily. Penalties are component-local and a model's
//! patch equals its full query bit for bit, so both sides' next refreshes
//! reproduce the values the joint query would have and the engine's
//! resync skips every slot — merges and splits are bitwise invisible. A
//! union of true components is still a safe partition cell, so splitting
//! is purely a performance refinement — without it any long-lived
//! population degrades toward one mega-shard.
//!
//! Retired shards are **recycled**, not dropped: a drained shard, a
//! merge's absorbed shard and every live shard at a reset has its counters
//! folded into the set-wide accumulators, is reset in place (cache, heaps
//! and member list cleared, their allocations and the model scratch kept)
//! and waits in a pool that new labels draw from. A recycled cache's
//! first settle is still a full rebuild, over its warm scratch, so a
//! recycled shard answers bit for bit like a fresh one; its counters
//! restart at zero, so the aggregate counts every query once.
//!
//! Cross-shard event ordering goes through an indexed min-heap holding at
//! most one `(next event time, shard)` entry per shard: a shard's entry is
//! updated in place when its timeline moves and removed when the shard
//! goes quiet or retires, and ties break by shard index, so simultaneous
//! events run in ascending shard order. A dirty shard is not published —
//! its settle publishes it, and the engine settles before it reads the
//! index.

use crate::cache::{CacheStats, PenaltyCache};
use crate::event_heap::{EventHeaps, TimelineStats};
use crate::slab::{FlowKey, Slab};
use netbw_core::{ComponentChange, ComponentRemoval, ComponentRoot, ComponentTracker};
use netbw_graph::Communication;

/// The slot fields the shard table reads when re-partitioning live flows.
/// Implemented by the engine's (private) slot type so [`ShardSet`] can
/// move members between shards without knowing the slot layout.
pub(crate) trait SlotView {
    /// The flow's endpoints.
    fn comm(&self) -> &Communication;
    /// Whether the flow is past its gate and contending for bandwidth.
    fn contending(&self) -> bool;
    /// The cached completion time (meaningful while contending).
    fn finish(&self) -> f64;
    /// The gate time (meaningful while not contending).
    fn gate(&self) -> f64;
}

/// Partition-shape counters for the sharded engine: how many shards are
/// live right now, how often the partition has refined (split), coarsened
/// (merged) or drained since the engine was built, what those moves
/// re-homed, what the component tracker spent finding them, and how many
/// settle barriers went to the dispatcher. Cumulative across resets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Live shards in the current partition.
    pub live_shards: usize,
    /// Shards carved apart because a departure split their component.
    pub splits: u64,
    /// Shard pairs merged because an arrival bridged their components.
    pub merges: u64,
    /// Shards retired because their last member departed.
    pub drains: u64,
    /// Always 0: the partition never collapses, because every model —
    /// the Myrinet budget fallback included — is component-local. Kept
    /// only so existing readers of the counter still compile.
    pub budget_collapses: u64,
    /// Member flows moved to other cache and heap structures by splits
    /// and merges: the smaller side's live members, each time.
    pub rehomed_flows: u64,
    /// Settle barriers handed to the [`crate::dispatch::SettleDispatch`].
    /// Every other barrier with dirty shards settled inline on the caller.
    pub dispatched_barriers: u64,
    /// Component-tracker work: endpoints its departure searches expanded
    /// plus endpoints relabelled by bridges and splits
    /// ([`ComponentTracker::visits`]).
    pub tracker_visits: u64,
}

/// One conflict component's private engine state.
pub(crate) struct Shard {
    /// The shard's penalty cache (and model scratch).
    pub(crate) cache: PenaltyCache,
    /// The shard's completion/gate heaps.
    pub(crate) events: EventHeaps,
    /// Every flow assigned to this shard and not yet known-dead. Stale
    /// keys (completed flows) are compacted before a rebuild gather, in a
    /// split, and by [`Self::note_departures`] once they could make up
    /// half the list. Only gathers, splits and merges read its keys (and
    /// a settle barrier its length) — warm settles stage the population
    /// from the cache's pending change sets.
    pub(crate) members: Vec<FlowKey>,
    /// Members that departed since the list was last compacted — an upper
    /// bound on its stale keys.
    departures: usize,
    /// Staging buffer for the next refresh's population (recycled through
    /// [`PenaltyCache::refresh`]).
    pub(crate) staged: Vec<FlowKey>,
    /// Communications aligned with `staged` (same recycling).
    pub(crate) comms_buf: Vec<Communication>,
    /// Whether the shard sits in the dirty list awaiting a settle.
    pub(crate) dirty: bool,
}

impl Shard {
    pub(crate) fn new() -> Self {
        Shard {
            cache: PenaltyCache::new(),
            events: EventHeaps::default(),
            members: Vec::new(),
            departures: 0,
            staged: Vec::new(),
            comms_buf: Vec::new(),
            dirty: false,
        }
    }

    /// Returns the shard to its freshly built state while keeping its
    /// allocations warm and its stats cumulative (see
    /// [`PenaltyCache::reset`]).
    pub(crate) fn reset(&mut self) {
        self.cache.reset();
        self.events.clear();
        self.members.clear();
        self.departures = 0;
        self.dirty = false;
    }

    /// [`Self::reset`] with the counters zeroed too, for the shard pool:
    /// the caller folds them into its accumulators first.
    fn recycle(&mut self) {
        self.reset();
        self.cache.recycle();
        self.events.stats = TimelineStats::default();
    }

    /// Takes in a just-added flow: a member from now on, contending at
    /// once or waiting on its latency gate in the gate heap.
    pub(crate) fn admit(&mut self, flow: FlowKey, contending: bool, gate: f64, epoch: u64) {
        self.members.push(flow);
        if contending {
            self.cache.note_arrival(flow);
        } else {
            self.events.push_gate(gate, flow, epoch);
        }
    }

    /// The shard's next event: its earliest live completion or gate.
    pub(crate) fn next_event<T>(&mut self, slots: &Slab<T>) -> Option<f64> {
        match (self.events.peek_finish(slots), self.events.peek_gate(slots)) {
            (None, None) => None,
            (Some(c), None) => Some(c),
            (None, Some(g)) => Some(g),
            (Some(c), Some(g)) => Some(c.min(g)),
        }
    }

    /// Counts `departed` members that just left the slab, compacting the
    /// member list once they could make up half of it — amortized O(1)
    /// per departure, and the list never holds more than twice the
    /// shard's live flows.
    pub(crate) fn note_departures<T>(&mut self, departed: usize, slots: &Slab<T>) {
        self.departures += departed;
        if 2 * self.departures > self.members.len() {
            self.members.retain(|&k| slots.contains(k));
            self.departures = 0;
        }
    }
}

impl Clone for Shard {
    fn clone(&self) -> Self {
        let mut shard = Shard::new();
        shard.clone_from(self);
        shard
    }

    /// Field-wise into `self`'s allocations (cache and heaps included).
    /// The staging buffers are overwritten before every read, so they are
    /// cleared rather than copied.
    fn clone_from(&mut self, source: &Self) {
        let Shard {
            cache,
            events,
            members,
            departures,
            staged: _,
            comms_buf: _,
            dirty,
        } = source;
        self.cache.clone_from(cache);
        self.events.clone_from(events);
        self.members.clone_from(members);
        self.departures = *departures;
        self.staged.clear();
        self.comms_buf.clear();
        self.dirty = *dirty;
    }
}

/// Marks a shard without an entry in [`NextEvents`].
const ABSENT: usize = usize::MAX;

/// The cross-shard next-event index: a binary min-heap of
/// `(next event time, shard)` entries holding at most one entry per
/// shard, which a per-shard position table lets the index update or
/// remove in place. Ordered by time, ties broken by shard index.
#[derive(Clone, Debug, Default)]
struct NextEvents {
    heap: Vec<(f64, usize)>,
    /// Per shard: its entry's position in `heap`, or [`ABSENT`].
    at: Vec<usize>,
}

impl NextEvents {
    fn before(a: (f64, usize), b: (f64, usize)) -> bool {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
    }

    /// Sets shard `shard`'s entry to `time`, inserting or updating it.
    fn set(&mut self, shard: usize, time: f64) {
        if self.at.len() <= shard {
            self.at.resize(shard + 1, ABSENT);
        }
        let i = match self.at[shard] {
            ABSENT => {
                self.heap.push((time, shard));
                self.heap.len() - 1
            }
            i => {
                self.heap[i].0 = time;
                i
            }
        };
        self.at[shard] = i;
        let i = self.sift_up(i);
        self.sift_down(i);
    }

    /// Removes shard `shard`'s entry, if it has one.
    fn remove(&mut self, shard: usize) {
        let Some(&i) = self.at.get(shard).filter(|&&i| i != ABSENT) else {
            return;
        };
        self.at[shard] = ABSENT;
        let last = self.heap.pop().expect("a present entry is in the heap");
        if i < self.heap.len() {
            self.heap[i] = last;
            self.at[last.1] = i;
            let i = self.sift_up(i);
            self.sift_down(i);
        }
    }

    /// The earliest entry.
    fn peek(&self) -> Option<(f64, usize)> {
        self.heap.first().copied()
    }

    /// Removes and returns the earliest entry.
    fn pop(&mut self) -> Option<(f64, usize)> {
        let top = self.peek()?;
        self.remove(top.1);
        Some(top)
    }

    fn clear(&mut self) {
        for &(_, shard) in &self.heap {
            self.at[shard] = ABSENT;
        }
        self.heap.clear();
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.at[self.heap[i].1] = i;
        self.at[self.heap[j].1] = j;
    }

    /// Moves entry `i` up to its place; returns where it landed.
    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(self.heap[i], self.heap[parent]) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        i
    }

    /// Moves entry `i` down to its place.
    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                return;
            }
            let right = left + 1;
            let child =
                if right < self.heap.len() && Self::before(self.heap[right], self.heap[left]) {
                    right
                } else {
                    left
                };
            if !Self::before(self.heap[child], self.heap[i]) {
                return;
            }
            self.swap(i, child);
            i = child;
        }
    }
}

/// The engine's shard table: component tracker, live shards indexed by
/// tracker label, the pool of recycled shards, the dirty list and the
/// cross-shard next-event index, plus the counters of retired shards (so
/// aggregate stats survive drains, merges and resets).
#[derive(Default)]
pub(crate) struct ShardSet {
    tracker: ComponentTracker,
    /// Live shards, indexed by their component's tracker label; a free
    /// label's entry is `None`.
    shards: Vec<Option<Shard>>,
    /// Count of `Some` entries in `shards`.
    live: usize,
    /// Retired shards, reset in place with their counters folded away,
    /// for new labels to draw from.
    pool: Vec<Shard>,
    /// Indices of shards with pending population changes, in marking
    /// order (settles sort it).
    pub(crate) dirty: Vec<usize>,
    next_events: NextEvents,
    /// Cache counters of retired shards (merged away, drained, or cleared
    /// by a reset).
    retired_cache: CacheStats,
    /// Timeline counters of drained/reset shards (merges fold the loser's
    /// counters into the winner's heaps directly).
    retired_timeline: TimelineStats,
    /// Settles served entirely from valid shard caches — the sharded
    /// analogue of [`CacheStats::reuses`] on the single-shard engine.
    reused_settles: u64,
    /// Scratch buffer for the candidate shards of one event.
    candidates: Vec<usize>,
    splits: u64,
    merges: u64,
    drains: u64,
    rehomed: u64,
    dispatched: u64,
}

/// A copy is faithful — tracker, live shards, dirty list, next-event
/// index and counters — and starts with an empty pool: pooled shards
/// hold no state, only warm allocations.
impl Clone for ShardSet {
    fn clone(&self) -> Self {
        let ShardSet {
            tracker,
            shards,
            live,
            pool: _,
            dirty,
            next_events,
            retired_cache,
            retired_timeline,
            reused_settles,
            candidates: _,
            splits,
            merges,
            drains,
            rehomed,
            dispatched,
        } = self;
        ShardSet {
            tracker: tracker.clone(),
            shards: shards.clone(),
            live: *live,
            pool: Vec::new(),
            dirty: dirty.clone(),
            next_events: next_events.clone(),
            retired_cache: *retired_cache,
            retired_timeline: *retired_timeline,
            reused_settles: *reused_settles,
            candidates: Vec::new(),
            splits: *splits,
            merges: *merges,
            drains: *drains,
            rehomed: *rehomed,
            dispatched: *dispatched,
        }
    }
}

impl ShardSet {
    /// Number of live shards.
    pub(crate) fn live_count(&self) -> usize {
        self.live
    }

    /// Partition-shape counters (live count plus cumulative transitions).
    pub(crate) fn shard_stats(&self) -> ShardStats {
        ShardStats {
            live_shards: self.live,
            splits: self.splits,
            merges: self.merges,
            drains: self.drains,
            budget_collapses: 0,
            rehomed_flows: self.rehomed,
            dispatched_barriers: self.dispatched,
            tracker_visits: self.tracker.visits(),
        }
    }

    /// Routes a flow's endpoints through the component tracker, creating
    /// or merging shards as needed, and returns the index of the shard
    /// the flow belongs to. A merge reads which of the absorbed members
    /// contend from `slots`; the new flow itself must not be a member of
    /// any shard yet.
    pub(crate) fn assign<S: SlotView>(&mut self, comm: &Communication, slots: &Slab<S>) -> usize {
        match self.tracker.insert(comm.src, comm.dst) {
            ComponentChange::Created { root } => self.open(root),
            ComponentChange::Joined { root } => root as usize,
            ComponentChange::Bridged { root, absorbed } => {
                self.merge(root as usize, absorbed as usize, slots);
                root as usize
            }
        }
    }

    /// Takes a just-added flow into shard `id` (see [`Shard::admit`]). A
    /// contending flow dirties the shard, whose settle then publishes its
    /// next event; a gated one publishes it now.
    pub(crate) fn admit<T>(
        &mut self,
        id: usize,
        flow: FlowKey,
        contending: bool,
        gate: f64,
        epoch: u64,
        slots: &Slab<T>,
    ) {
        self.shard_mut(id).admit(flow, contending, gate, epoch);
        if contending {
            self.mark_dirty(id);
        } else {
            self.refresh_next(id, slots);
        }
    }

    /// Handles a completed flow's departure: removes its edge from the
    /// tracker and refines the partition to match — retiring a drained
    /// shard or splitting a disconnected one. Call after the flow's slot
    /// has left the slab.
    pub(crate) fn depart<S: SlotView>(&mut self, comm: &Communication, slots: &mut Slab<S>) {
        match self.tracker.remove(comm.src, comm.dst) {
            ComponentRemoval::Shrunk { .. } => {}
            ComponentRemoval::Drained { root } => {
                // Gated flows hold tracker edges until their own
                // completion, so a drained component has no live members
                // of any kind: the shard retires wholesale.
                self.retire(root as usize);
                self.drains += 1;
            }
            ComponentRemoval::Split { root, split_root } => {
                self.split(root as usize, split_root, slots);
            }
        }
    }

    /// Carves the `split_root` component out of shard `id` into a new
    /// shard, at the cost of the smaller part. Member keys are partitioned
    /// by label lookups (compacting stale keys on the way). The part
    /// with more members keeps the pre-split cache and event heaps, with
    /// the smaller part's contending members noted on the cache as
    /// departures; the smaller part takes the new shard's fresh cache and
    /// heaps (swapped into shard `id` when the split-off part is the
    /// larger — each part keeps its own label's shard either way). Its
    /// members get their slot epochs bumped and their due events re-pushed
    /// into the fresh heaps, lazily invalidating their old entries. The
    /// larger part's next refresh patches the departures and the smaller
    /// part's first one rebuilds over its own members; penalties are
    /// component-local, so both reproduce exactly the penalties the joint
    /// query would have and the engine's resync skips every slot — the
    /// split never perturbs the trajectory. Both shards are left dirty, so
    /// their settles publish their next events.
    fn split<S: SlotView>(&mut self, id: usize, split_root: ComponentRoot, slots: &mut Slab<S>) {
        self.splits += 1;
        let sid = self.open(split_root);
        let [kept, sp] = self
            .shards
            .get_disjoint_mut([id, sid])
            .expect("split shards are distinct");
        let (kept, sp) = (
            kept.as_mut().expect("split shard is live"),
            sp.as_mut().expect("split-off shard is live"),
        );
        let tracker = &self.tracker;
        kept.members.retain(|&k| match slots.get(k) {
            None => false,
            Some(slot) => {
                if tracker.find(slot.comm().src) == Some(split_root) {
                    sp.members.push(k);
                    false
                } else {
                    true
                }
            }
        });
        kept.departures = 0;
        let (small, large) = if sp.members.len() > kept.members.len() {
            std::mem::swap(&mut kept.cache, &mut sp.cache);
            std::mem::swap(&mut kept.events, &mut sp.events);
            (kept, sp)
        } else {
            (sp, kept)
        };
        self.rehomed += small.members.len() as u64;
        for &k in &small.members {
            let slot = slots.get(k).expect("member is live");
            let contending = slot.contending();
            let (finish, gate) = (slot.finish(), slot.gate());
            if contending {
                large.cache.note_departure(k);
            }
            let epoch = slots.bump_epoch(k).expect("member is live");
            if contending {
                small.events.push_completion(finish, k, epoch);
            } else {
                small.events.push_gate(gate, k, epoch);
            }
        }
        self.mark_dirty(id);
        self.mark_dirty(sid);
    }

    /// Opens the shard for a fresh tracker label, drawing a recycled
    /// shard from the pool when one waits there.
    fn open(&mut self, label: ComponentRoot) -> usize {
        let id = label as usize;
        if self.shards.len() <= id {
            self.shards.resize_with(id + 1, || None);
        }
        debug_assert!(self.shards[id].is_none(), "a fresh label has no shard");
        self.shards[id] = Some(self.pool.pop().unwrap_or_else(Shard::new));
        self.live += 1;
        id
    }

    /// Folds a retired shard's counters into the retired accumulators,
    /// resets it in place and pools it for a later label.
    fn recycle(&mut self, mut sh: Shard) {
        self.retired_cache.absorb(sh.cache.stats());
        self.retired_timeline.absorb(sh.events.stats);
        sh.recycle();
        self.pool.push(sh);
    }

    /// Takes shard `id` out of the table, the dirty list and the
    /// next-event index.
    fn take(&mut self, id: usize) -> Shard {
        let sh = self.shards[id].take().expect("retired shard is live");
        self.live -= 1;
        if sh.dirty {
            self.dirty.retain(|&d| d != id);
        }
        self.next_events.remove(id);
        sh
    }

    /// Retires shard `id` into the pool.
    fn retire(&mut self, id: usize) {
        let sh = self.take(id);
        self.recycle(sh);
    }

    /// Splices shard `loser` into shard `winner` at the cost of the
    /// smaller side. The side with more members keeps its cache and member
    /// list (swapped into the winner's slot when the loser is larger); the
    /// smaller side's contending members, read from `slots`, are noted on
    /// that cache as arrivals, so its next refresh is a delta patch — which
    /// the models answer bit for bit like the full query over the joint
    /// population. The smaller side's members and event heaps are spliced
    /// in verbatim (slab keys and epochs are global, so every entry stays
    /// valid), and the loser retires into the pool with its dropped
    /// cache's counters folded into the retired accumulator.
    fn merge<S: SlotView>(&mut self, winner: usize, loser: usize, slots: &Slab<S>) {
        debug_assert_ne!(winner, loser);
        self.merges += 1;
        let mut small = self.take(loser);
        let w = self.shards[winner].as_mut().expect("winning shard is live");
        if small.members.len() > w.members.len() {
            // The absorbed side is the larger: its cache and members stay.
            std::mem::swap(&mut w.cache, &mut small.cache);
            std::mem::swap(&mut w.members, &mut small.members);
        }
        for &k in &small.members {
            if let Some(slot) = slots.get(k) {
                self.rehomed += 1;
                if slot.contending() {
                    w.cache.note_arrival(k);
                }
            }
        }
        w.members.append(&mut small.members);
        w.departures += small.departures;
        w.events.append(&mut small.events);
        self.mark_dirty(winner);
        self.recycle(small);
    }

    /// Marks a shard's population as changed, queueing it for the next
    /// settle.
    pub(crate) fn mark_dirty(&mut self, id: usize) {
        let sh = self.shards[id].as_mut().expect("dirty shard is live");
        if !sh.dirty {
            sh.dirty = true;
            self.dirty.push(id);
        }
    }

    /// Mutable access to one live shard.
    pub(crate) fn shard_mut(&mut self, id: usize) -> &mut Shard {
        self.shards[id].as_mut().expect("shard is live")
    }

    /// Mutable access to each of the (sorted, distinct) shard indices at
    /// once — the borrow split that lets one settle barrier hand disjoint
    /// shards to parallel jobs.
    pub(crate) fn disjoint_mut(&mut self, ids: &[usize]) -> Vec<&mut Shard> {
        let mut out = Vec::with_capacity(ids.len());
        let mut rest: &mut [Option<Shard>] = &mut self.shards;
        let mut offset = 0;
        for &id in ids {
            debug_assert!(id >= offset, "ids must be sorted and distinct");
            let (_, tail) = rest.split_at_mut(id - offset);
            let (head, tail) = tail.split_at_mut(1);
            out.push(head[0].as_mut().expect("dirty shard is live"));
            rest = tail;
            offset = id + 1;
        }
        out
    }

    /// Records a settle that found every shard cache valid.
    pub(crate) fn note_reused_settle(&mut self) {
        self.reused_settles += 1;
    }

    /// The most a second thread could take off the critical path of a
    /// barrier settling the shards `ids`: their summed member counts minus
    /// the largest.
    pub(crate) fn parallel_work(&self, ids: &[usize]) -> usize {
        let (sum, max) = ids
            .iter()
            .map(|&id| {
                let sh = self.shards[id].as_ref().expect("dirty shard is live");
                sh.members.len()
            })
            .fold((0, 0), |(sum, max), n| (sum + n, max.max(n)));
        sum - max
    }

    /// Records a settle barrier handed to the dispatcher.
    pub(crate) fn note_dispatched_barrier(&mut self) {
        self.dispatched += 1;
    }

    /// Publishes shard `id`'s next event (earliest live completion or
    /// gate) to the next-event index, replacing its entry, or removes the
    /// entry when the shard has nothing pending. Call after anything that
    /// may move a clean shard's timeline; a dirty shard is skipped, since
    /// its settle publishes it.
    pub(crate) fn refresh_next<T>(&mut self, id: usize, slots: &Slab<T>) {
        let sh = self.shards[id].as_mut().expect("shard is live");
        if sh.dirty {
            return;
        }
        match sh.next_event(slots) {
            Some(next) => self.next_events.set(id, next),
            None => self.next_events.remove(id),
        }
    }

    /// The earliest next-event time across all shards. The engine settles
    /// first, so every shard is published.
    pub(crate) fn peek_next(&self) -> Option<f64> {
        debug_assert!(self.dirty.is_empty(), "read the next-event index unsettled");
        self.next_events.peek().map(|(time, _)| time)
    }

    /// Removes every entry with `time <= bound` and returns the (sorted,
    /// distinct) shards they name — the shards that may have a gate or
    /// completion due at the current event. The caller must republish
    /// each one ([`Self::refresh_next`], or a settle once it is dirty)
    /// after processing it.
    pub(crate) fn take_candidates(&mut self, bound: f64) -> Vec<usize> {
        debug_assert!(self.dirty.is_empty(), "read the next-event index unsettled");
        let mut out = std::mem::take(&mut self.candidates);
        out.clear();
        while let Some((time, shard)) = self.next_events.peek() {
            if time > bound {
                break;
            }
            self.next_events.pop();
            out.push(shard);
        }
        // One entry per shard, so the list is duplicate-free; entries
        // within the bound may differ in time, so sort them into shard
        // order for a deterministic step.
        out.sort_unstable();
        out
    }

    /// Returns a candidate list taken with [`Self::take_candidates`] for
    /// buffer reuse.
    pub(crate) fn recycle_candidates(&mut self, buf: Vec<usize>) {
        self.candidates = buf;
    }

    /// Aggregated cache counters: live shards plus everything retired,
    /// plus the served-from-cache settles the set itself noted.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        let mut stats = self.retired_cache;
        for sh in self.shards.iter().flatten() {
            stats.absorb(sh.cache.stats());
        }
        stats.reuses += self.reused_settles;
        stats
    }

    /// Member keys held across every live shard, stale ones included.
    #[cfg(test)]
    pub(crate) fn member_count(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .map(|sh| sh.members.len())
            .sum()
    }

    /// Recycled shards waiting in the pool.
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Aggregated timeline counters: live shards plus retired ones.
    pub(crate) fn timeline_stats(&self) -> TimelineStats {
        let mut stats = self.retired_timeline;
        for sh in self.shards.iter().flatten() {
            stats.absorb(sh.events.stats);
        }
        stats
    }

    /// Retires every shard into the pool and forgets the component
    /// structure. Counters fold into the retired accumulators, so stats
    /// (the partition-shape counters included) stay cumulative across
    /// resets, exactly like the single-shard engine's. The engine also
    /// calls this as the quiescent barrier when the flow population
    /// drains to empty.
    pub(crate) fn reset(&mut self) {
        let mut shards = std::mem::take(&mut self.shards);
        for sh in shards.drain(..).flatten() {
            self.recycle(sh);
        }
        self.shards = shards;
        self.tracker.clear();
        self.live = 0;
        self.dirty.clear();
        self.next_events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(src: u32, dst: u32) -> Communication {
        Communication::new(src, dst, 100)
    }

    /// A minimal slot for exercising the re-partitioning paths.
    struct TSlot {
        comm: Communication,
        contending: bool,
        finish: f64,
        gate: f64,
    }

    impl TSlot {
        fn running(src: u32, dst: u32, finish: f64) -> TSlot {
            TSlot {
                comm: comm(src, dst),
                contending: true,
                finish,
                gate: 0.0,
            }
        }
    }

    impl SlotView for TSlot {
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

    /// Admits `flows` (all contending at once) one by one, the way the
    /// engine does, and settles the single resulting shard once. Returns
    /// the set, the slab, the flows' keys and the shard.
    fn settled_component(flows: &[(u32, u32)]) -> (ShardSet, Slab<TSlot>, Vec<FlowKey>, usize) {
        let mut set = ShardSet::default();
        let mut slab = Slab::new();
        let mut keys = Vec::new();
        let mut id = usize::MAX;
        for &(s, d) in flows {
            let k = slab.insert(TSlot::running(s, d, 10.0));
            id = set.assign(&comm(s, d), &slab);
            set.admit(id, k, true, 0.0, 0, &slab);
            keys.push(k);
        }
        assert_eq!(set.live_count(), 1, "one component");
        settle(&mut set, id, &slab);
        (set, slab, keys, id)
    }

    /// Stages and refreshes shard `id` under GigE the way the engine's
    /// settle does, then publishes its next event; returns the shard's
    /// cache counters.
    fn settle(set: &mut ShardSet, id: usize, slab: &Slab<TSlot>) -> CacheStats {
        let sh = set.shard_mut(id);
        let mut staged = Vec::new();
        if !sh.cache.staged_active(&mut staged) {
            staged.extend(
                sh.members
                    .iter()
                    .copied()
                    .filter(|&k| slab.get(k).is_some_and(|s| s.contending)),
            );
            staged.sort_unstable_by_key(|k| k.slot_index());
        }
        let comms = staged.iter().map(|&k| slab.get(k).unwrap().comm).collect();
        let model = netbw_core::GigabitEthernetModel::default();
        sh.cache.refresh(&model, staged, comms);
        sh.dirty = false;
        let stats = sh.cache.stats();
        set.dirty.retain(|&d| d != id);
        set.refresh_next(id, slab);
        stats
    }

    /// Completes the flow `key` over the endpoints `flow` the way the
    /// engine does and returns the `(kept, split-off)` shards of the split
    /// it causes.
    fn split_off(
        set: &mut ShardSet,
        slab: &mut Slab<TSlot>,
        id: usize,
        flow: (u32, u32),
        key: FlowKey,
    ) -> (usize, usize) {
        slab.remove(key);
        set.shard_mut(id).cache.note_departure(key);
        set.depart(&comm(flow.0, flow.1), slab);
        assert_eq!(set.shard_stats().splits, 1);
        let splinter = *set.dirty.iter().find(|&&d| d != id).expect("splinter");
        (id, splinter)
    }

    #[test]
    fn assign_creates_joins_and_merges() {
        let mut set = ShardSet::default();
        let slab: Slab<TSlot> = Slab::new();
        let a = set.assign(&comm(0, 1), &slab);
        let b = set.assign(&comm(2, 3), &slab);
        assert_ne!(a, b);
        assert_eq!(set.live_count(), 2);
        assert_eq!(set.assign(&comm(0, 4), &slab), a, "shared endpoint joins");
        let bridged = set.assign(&comm(1, 2), &slab);
        assert_eq!(bridged, a, "the side with more endpoints keeps its label");
        assert_eq!(set.live_count(), 1, "bridge retires the loser");
        assert_eq!(set.shard_stats().merges, 1);
        assert_eq!(set.pooled(), 1, "the loser waits in the pool");
        // the whole union now routes to the surviving shard
        assert_eq!(set.assign(&comm(3, 4), &slab), bridged);
        // and the next component takes the absorbed label's recycled shard
        assert_eq!(set.assign(&comm(7, 8), &slab), b);
        assert_eq!(set.pooled(), 0);
    }

    #[test]
    fn merge_moves_members_and_invalidates_the_winner() {
        // Shard a: three settled parallel flows 0→1 (two endpoints).
        // Shard b: a settled flow and a gated one out of node 2 (three
        // endpoints). The bridge 1-2 keeps b's label, the side with more
        // endpoints, while a holds more members — so a's cache, the
        // larger side's, moves into b's shard.
        let mut set = ShardSet::default();
        let mut slab: Slab<TSlot> = Slab::new();
        let ka: Vec<FlowKey> = (0..3)
            .map(|_| slab.insert(TSlot::running(0, 1, 10.0)))
            .collect();
        let k1 = slab.insert(TSlot::running(2, 3, 10.0));
        let k2 = slab.insert(TSlot {
            contending: false,
            gate: 5.0,
            ..TSlot::running(2, 4, 0.0)
        });
        let mut a = usize::MAX;
        for &k in &ka {
            a = set.assign(&comm(0, 1), &slab);
            set.admit(a, k, true, 0.0, 0, &slab);
        }
        settle(&mut set, a, &slab);
        let b = set.assign(&comm(2, 3), &slab);
        set.admit(b, k1, true, 0.0, 0, &slab);
        settle(&mut set, b, &slab);
        assert_eq!(set.assign(&comm(2, 4), &slab), b);
        set.admit(b, k2, false, 5.0, 0, &slab);
        assert_eq!(set.peek_next(), Some(5.0));
        let survivor = set.assign(&comm(1, 2), &slab);
        assert_eq!(survivor, b);
        assert_eq!(set.shard_mut(survivor).members.len(), 5);
        assert!(set.shard_mut(survivor).dirty, "merge queues a settle");
        assert_eq!(set.dirty, vec![survivor]);
        // a's cache survives in b's shard with b's contending flow noted
        // as an arrival — the gated flow is none — so the next settle
        // patches instead of rebuilding.
        assert!(!set.shard_mut(survivor).cache.is_valid());
        assert_eq!(set.shard_stats().rehomed_flows, 2, "b's two members moved");
        let stats = settle(&mut set, survivor, &slab);
        assert_eq!(
            (
                stats.model_queries,
                stats.delta_queries,
                stats.patched_queries
            ),
            (2, 1, 1),
            "{stats:?}"
        );
        assert_eq!(set.cache_stats().model_queries, 3, "b's query is retired");
        // the merged gate survives in the winner's heaps, and the settle
        // published it; the absorbed shard has no entry left
        assert_eq!(set.shard_mut(survivor).events.peek_gate(&slab), Some(5.0));
        assert_eq!(set.next_events.heap.len(), 1);
        assert_eq!(set.take_candidates(5.0), vec![survivor]);
    }

    #[test]
    fn republishing_a_shard_replaces_its_entry() {
        let mut set = ShardSet::default();
        let mut slab: Slab<TSlot> = Slab::new();
        let (k0, k1, k2) = (
            slab.insert(TSlot::running(0, 1, 0.0)),
            slab.insert(TSlot::running(0, 1, 0.0)),
            slab.insert(TSlot::running(5, 6, 0.0)),
        );
        let a = set.assign(&comm(0, 1), &slab);
        let b = set.assign(&comm(5, 6), &slab);
        set.shard_mut(a).events.push_gate(3.0, k0, 0);
        set.refresh_next(a, &slab);
        set.shard_mut(b).events.push_gate(1.0, k2, 0);
        set.refresh_next(b, &slab);
        assert_eq!(set.peek_next(), Some(1.0));
        // a second publish of a moves its one entry in place
        set.shard_mut(a).events.push_gate(1.0, k1, 0);
        set.refresh_next(a, &slab);
        assert_eq!(set.next_events.heap.len(), 2, "one entry per shard");
        // ties take ascending shard order
        assert_eq!(set.take_candidates(1.0), vec![a, b]);
        // both entries are gone until republished
        assert_eq!(set.peek_next(), None);
        // a dirty shard is not published: its settle will be
        set.mark_dirty(a);
        set.refresh_next(a, &slab);
        assert!(set.next_events.heap.is_empty());
    }

    #[test]
    fn next_event_index_matches_a_sorted_vec() {
        // Interleaved sets (inserts and in-place updates) and removes over
        // 40 shards with times drawn from a handful of values, so ties are
        // everywhere: every pop must agree with a sorted reference.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut index = NextEvents::default();
        let mut reference: Vec<(f64, usize)> = Vec::new();
        for step in 0..5_000 {
            let shard = rng(40) as usize;
            match rng(10) {
                0..=5 => {
                    let time = rng(8) as f64 * 0.5;
                    index.set(shard, time);
                    reference.retain(|e| e.1 != shard);
                    reference.push((time, shard));
                }
                6 | 7 => {
                    index.remove(shard);
                    reference.retain(|e| e.1 != shard);
                }
                _ => {
                    reference.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                    let expected = (!reference.is_empty()).then(|| reference.remove(0));
                    assert_eq!(index.pop(), expected, "step {step}");
                }
            }
            assert_eq!(index.heap.len(), reference.len(), "step {step}");
            for (i, &(_, s)) in index.heap.iter().enumerate() {
                assert_eq!(index.at[s], i, "step {step}: position table");
            }
        }
        reference.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        let drained: Vec<_> = std::iter::from_fn(|| index.pop()).collect();
        assert_eq!(drained, reference);
        index.set(3, 1.0);
        index.clear();
        assert_eq!(index.peek(), None);
        index.set(3, 2.0);
        assert_eq!(index.pop(), Some((2.0, 3)), "clear forgets positions");
    }

    #[test]
    fn dirty_marking_is_idempotent() {
        let mut set = ShardSet::default();
        let a = set.assign(&comm(0, 1), &Slab::<TSlot>::new());
        set.mark_dirty(a);
        set.mark_dirty(a);
        assert_eq!(set.dirty, vec![a]);
    }

    #[test]
    fn disjoint_mut_hands_out_every_requested_shard() {
        let mut set = ShardSet::default();
        let slab: Slab<TSlot> = Slab::new();
        let ids = [
            set.assign(&comm(0, 1), &slab),
            set.assign(&comm(2, 3), &slab),
            set.assign(&comm(4, 5), &slab),
        ];
        let picked = [ids[0], ids[2]];
        let shards = set.disjoint_mut(&picked);
        assert_eq!(shards.len(), 2);
        for sh in shards {
            sh.dirty = true;
        }
        assert!(set.shard_mut(ids[2]).dirty && !set.shard_mut(ids[1]).dirty);
    }

    #[test]
    fn reset_folds_counters_and_forgets_structure() {
        let mut set = ShardSet::default();
        let mut slab: Slab<TSlot> = Slab::new();
        let k0 = slab.insert(TSlot::running(0, 1, 0.0));
        let a = set.assign(&comm(0, 1), &slab);
        set.shard_mut(a).events.push_gate(1.0, k0, 0);
        set.refresh_next(a, &slab);
        set.note_reused_settle();
        let before = set.timeline_stats();
        assert_eq!(before.gate_pushes, 1);
        set.reset();
        assert_eq!(set.live_count(), 0);
        assert_eq!(set.pooled(), 1, "the live shard is recycled");
        assert_eq!(set.peek_next(), None);
        assert_eq!(set.timeline_stats().gate_pushes, 1, "stats survive reset");
        assert_eq!(set.cache_stats().reuses, 1);
        // and the next assignment starts a fresh shard table, drawing the
        // recycled shard with its counters zeroed and its heaps empty
        let b = set.assign(&comm(0, 1), &slab);
        assert_eq!(set.live_count(), 1);
        assert_eq!(set.shard_mut(b).events.stats, TimelineStats::default());
        assert_eq!(set.shard_mut(b).next_event(&slab), None);
        assert_eq!(set.timeline_stats().gate_pushes, 1);
        // a copy keeps the table and starts with an empty pool
        set.retire(b);
        let copy = set.clone();
        assert_eq!((set.pooled(), copy.pooled()), (1, 0));
        assert_eq!(copy.timeline_stats(), set.timeline_stats());
    }

    #[test]
    fn recycled_shards_count_every_query_and_push_once() {
        // A component settles (one query, one completion push) and drains;
        // its shard retires into the pool. A new component reuses it and
        // settles again. The aggregate counts each query and push once, and
        // the recycled shard starts from zero.
        let mut set = ShardSet::default();
        let mut slab: Slab<TSlot> = Slab::new();
        let anchor = slab.insert(TSlot::running(8, 9, 50.0));
        let keep = set.assign(&comm(8, 9), &slab);
        set.admit(keep, anchor, true, 0.0, 0, &slab);
        settle(&mut set, keep, &slab);
        let k = slab.insert(TSlot::running(0, 1, 10.0));
        let a = set.assign(&comm(0, 1), &slab);
        set.admit(a, k, true, 0.0, 0, &slab);
        settle(&mut set, a, &slab);
        let epoch = slab.bump_epoch(k).unwrap();
        set.shard_mut(a).events.push_completion(10.0, k, epoch);
        let (queries, pushes) = (
            set.cache_stats().model_queries,
            set.timeline_stats().heap_pushes,
        );
        assert_eq!((queries, pushes), (2, 1));
        slab.remove(k);
        set.shard_mut(a).cache.note_departure(k);
        set.depart(&comm(0, 1), &mut slab);
        assert_eq!(set.pooled(), 1);
        assert_eq!(
            set.cache_stats().model_queries,
            queries,
            "retire folds once"
        );
        assert_eq!(set.timeline_stats().heap_pushes, pushes);
        let k2 = slab.insert(TSlot::running(4, 5, 20.0));
        let c = set.assign(&comm(4, 5), &slab);
        assert_eq!(c, a, "the drained label and its shard are reused");
        assert_eq!(set.shard_mut(c).cache.stats(), CacheStats::default());
        set.admit(c, k2, true, 0.0, 0, &slab);
        let fresh = settle(&mut set, c, &slab);
        assert_eq!(
            (
                fresh.model_queries,
                fresh.delta_queries,
                fresh.scratch_rebuilds
            ),
            (1, 0, 1),
            "a recycled cache's first settle is a full rebuild: {fresh:?}"
        );
        assert_eq!(set.cache_stats().model_queries, queries + 1);
        // a reset recycles every live shard without counting anything twice
        let (all, tl) = (set.cache_stats(), set.timeline_stats());
        set.reset();
        assert_eq!((set.cache_stats(), set.timeline_stats()), (all, tl));
        assert_eq!(set.pooled(), 2);
    }

    #[test]
    fn split_does_not_double_count_cache_stats() {
        let mut set = ShardSet::default();
        let mut slab: Slab<TSlot> = Slab::new();
        // One chain component 0-1-2-3 whose cache has answered a query.
        let a = set.assign(&comm(0, 1), &slab);
        set.assign(&comm(1, 2), &slab);
        set.assign(&comm(2, 3), &slab);
        let flows = [(0, 1), (1, 2), (2, 3)];
        let keys: Vec<FlowKey> = flows
            .iter()
            .map(|&(s, d)| slab.insert(TSlot::running(s, d, 10.0)))
            .collect();
        let comms = flows.iter().map(|&(s, d)| comm(s, d)).collect();
        let sh = set.shard_mut(a);
        sh.members.extend(&keys);
        sh.cache.refresh(
            &netbw_core::GigabitEthernetModel::default(),
            keys.clone(),
            comms,
        );
        // The middle flow completes and is noted as a departure.
        slab.remove(keys[1]);
        set.shard_mut(a).cache.note_departure(keys[1]);
        let before = set.cache_stats();
        assert_eq!(before.model_queries, 1);
        set.depart(&comm(1, 2), &mut slab);
        assert_eq!(set.shard_stats().splits, 1);
        // The split notes the smaller side's one flow as a departure on
        // the surviving cache, and the fresh cache starts at zero; no
        // other counter moves.
        let after = set.cache_stats();
        assert_eq!(
            after,
            CacheStats {
                invalidations: before.invalidations + 1,
                ..before
            }
        );
    }

    #[test]
    fn split_keeps_the_cache_with_the_larger_kept_part() {
        // A star out of node 0, bridged by 3-10 to the flow 10-11: the
        // bridge's departure splits {10, 11} off as the smaller part.
        let flows = [(0, 1), (0, 2), (0, 3), (3, 10), (10, 11)];
        let (mut set, mut slab, keys, id) = settled_component(&flows);
        let (kept, splinter) = split_off(&mut set, &mut slab, id, flows[3], keys[3]);
        assert_eq!(set.shard_mut(kept).members, keys[..3].to_vec());
        assert_eq!(set.shard_mut(splinter).members, vec![keys[4]]);
        assert_eq!(set.shard_stats().rehomed_flows, 1, "only the splinter");
        // The pre-split cache (the one that answered a query) stayed with
        // the kept part; the splinter's is fresh.
        assert_eq!(set.shard_mut(kept).cache.stats().model_queries, 1);
        assert_eq!(set.shard_mut(splinter).cache.stats(), CacheStats::default());
        // The larger part's next refresh patches a departure delta; the
        // smaller part's first one rebuilds over its own member.
        let large = settle(&mut set, kept, &slab);
        assert_eq!(
            (
                large.model_queries,
                large.delta_queries,
                large.patched_queries
            ),
            (2, 1, 1),
            "{large:?}"
        );
        let small = settle(&mut set, splinter, &slab);
        assert_eq!((small.model_queries, small.delta_queries), (1, 0));
        assert_eq!(small.scratch_rebuilds, 1, "{small:?}");
    }

    #[test]
    fn split_hands_the_cache_to_the_splinter_when_it_is_larger() {
        // A star {0, 1, 2, 3} bridged by 3-10 to five parallel flows
        // 10→11: the bridge's departure splits off {10, 11}, the part with
        // fewer endpoints, which takes the fresh label — but it holds more
        // members, so the pre-split cache goes with it.
        let flows = [
            (0, 1),
            (0, 2),
            (0, 3),
            (3, 10),
            (10, 11),
            (10, 11),
            (10, 11),
            (10, 11),
            (10, 11),
        ];
        let (mut set, mut slab, keys, id) = settled_component(&flows);
        let (kept, splinter) = split_off(&mut set, &mut slab, id, flows[3], keys[3]);
        assert_eq!(set.shard_mut(kept).members, keys[..3].to_vec());
        assert_eq!(set.shard_mut(splinter).members, keys[4..].to_vec());
        assert_eq!(set.shard_stats().rehomed_flows, 3, "the kept part moved");
        // The kept label's shard took the fresh structures; the
        // split-off shard carries on with the pre-split cache.
        assert_eq!(set.shard_mut(splinter).cache.stats().model_queries, 1);
        assert_eq!(set.shard_mut(kept).cache.stats(), CacheStats::default());
        let fresh = TimelineStats {
            heap_pushes: 3,
            ..TimelineStats::default()
        };
        assert_eq!(
            set.shard_mut(kept).events.stats,
            fresh,
            "its members re-pushed"
        );
        let large = settle(&mut set, splinter, &slab);
        assert_eq!(
            (
                large.model_queries,
                large.delta_queries,
                large.patched_queries
            ),
            (2, 1, 1),
            "{large:?}"
        );
        let small = settle(&mut set, kept, &slab);
        assert_eq!((small.model_queries, small.delta_queries), (1, 0));
        assert_eq!(small.scratch_rebuilds, 1, "{small:?}");
    }

    #[test]
    fn departures_split_shards_and_reuse_slots() {
        let mut set = ShardSet::default();
        let mut slab: Slab<TSlot> = Slab::new();
        // One chain component 0-1-2-3 out of three flows.
        let a = set.assign(&comm(0, 1), &slab);
        assert_eq!(set.assign(&comm(1, 2), &slab), a);
        assert_eq!(set.assign(&comm(2, 3), &slab), a);
        let k01 = slab.insert(TSlot::running(0, 1, 10.0));
        let k12 = slab.insert(TSlot::running(1, 2, 20.0));
        let k23 = slab.insert(TSlot::running(2, 3, 30.0));
        let sh = set.shard_mut(a);
        sh.members.extend([k01, k12, k23]);
        for (k, t) in [(k01, 10.0), (k12, 20.0), (k23, 30.0)] {
            sh.events.push_completion(t, k, 0);
        }
        set.refresh_next(a, &slab);
        assert_eq!(set.peek_next(), Some(10.0));
        // The middle flow completes: its slot leaves the slab, then the
        // departure splits {0,1,2,3} into {2,3}, which keeps the label,
        // and {0,1}, which the two-sided search exhausts first.
        slab.remove(k12);
        set.depart(&comm(1, 2), &mut slab);
        assert_eq!(set.live_count(), 2);
        let stats = set.shard_stats();
        assert_eq!((stats.splits, stats.drains), (1, 0));
        // The kept shard holds {k23}, the split-off one {k01}, both dirty
        // and so unpublished until they settle.
        assert_eq!(set.shard_mut(a).members, vec![k23]);
        let sid = *set.dirty.iter().find(|&&d| d != a).expect("splinter dirty");
        assert_eq!(set.shard_mut(sid).members, vec![k01]);
        // The split-off completion entry was re-pushed under the bumped
        // epoch; the kept shard's old k01 entry is stale and lazily
        // skipped, so both shards report their true next events.
        settle(&mut set, a, &slab);
        settle(&mut set, sid, &slab);
        assert_eq!(set.shard_mut(a).events.peek_finish(&slab), Some(30.0));
        assert_eq!(set.shard_mut(sid).events.peek_finish(&slab), Some(10.0));
        assert_eq!(set.peek_next(), Some(10.0));
        // Draining {0,1} retires the split-off shard into the pool...
        slab.remove(k01);
        set.depart(&comm(0, 1), &mut slab);
        assert_eq!(set.live_count(), 1);
        assert_eq!(set.shard_stats().drains, 1);
        assert_eq!(set.pooled(), 1);
        // ...and the next brand-new component reuses its id and its shard,
        // which carries no entry of its previous occupant.
        assert_eq!(set.assign(&comm(8, 9), &slab), sid, "retired id is reused");
        assert_eq!(set.pooled(), 0);
        assert_eq!(
            set.peek_next(),
            Some(30.0),
            "the kept part's completion leads"
        );
    }
}
