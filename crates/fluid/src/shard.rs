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
//! The partition **refines in both directions**, driven by the
//! [`ComponentTracker`], and every repartition costs its *smaller side*.
//! Arrivals coarsen it: a new flow joins an existing shard, creates a
//! fresh one, or *bridges* two — in which case the tracker's loser shard
//! slot retires, the larger side's cache survives (swapped into the
//! winner's slot when the loser held more members), the smaller side's
//! contending flows are noted on it as arrivals (so its next settle is a
//! delta patch, not a rebuild), member lists and event heaps are spliced
//! together, and the dropped cache's counters fold into the set-wide
//! accumulator. Departures refine it back apart: the tracker classifies
//! each one as [`ComponentRemoval::Shrunk`], [`ComponentRemoval::Drained`]
//! (the shard's last flow left, so its slot retires), or
//! [`ComponentRemoval::Split`] — in which case `ShardSet::split` carves
//! the splinter component out of its shard: member keys are partitioned
//! by a tracker lookup, the larger part keeps the pre-split cache and
//! event heaps with the smaller part's contending flows noted on it as
//! departures, and the smaller part starts a fresh cache (its first
//! settle is a rebuild over its own members) and fresh heaps, rebuilt
//! from its members under freshly bumped slot epochs so its entries in
//! the old heaps go stale lazily. Penalties are component-local and a
//! model's patch equals its full query bit for bit, so both sides' next
//! refreshes reproduce the values the joint query would have and the
//! engine's resync skips every slot — merges and splits are bitwise
//! invisible. A fresh cache starts its counters at zero and a surviving
//! one keeps its own, so the set-wide aggregate counts every query once.
//! A union of true components is still a safe partition cell, so
//! splitting is purely a performance refinement — without it any
//! long-lived population degrades toward one mega-shard.
//!
//! Cross-shard event ordering goes through one lazy min-heap of
//! `(next event time, shard, version)` entries: every change to a shard's
//! timeline bumps its version and pushes a fresh entry, and stale entries
//! are discarded on pop — the same lazy-invalidation idea the per-shard
//! completion heaps already use, one level up. Retired shard slots *are*
//! reused (drains and splits would otherwise leak slots forever on a
//! churning population), which is safe because a slot's version continues
//! from where the previous occupant left off: every stale entry carries a
//! version at most the retired shard's last, and the new occupant starts
//! strictly above it.

use crate::cache::{CacheStats, PenaltyCache};
use crate::event_heap::{EventHeaps, TimelineStats};
use crate::slab::{FlowKey, Slab};
use netbw_core::{ComponentChange, ComponentRemoval, ComponentRoot, ComponentTracker};
use netbw_graph::Communication;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// re-homed, and how many settle barriers went to the dispatcher.
/// Cumulative across resets.
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
    /// Bumped on every timeline change; the cross-shard event heap stamps
    /// its entries with this, so superseded entries go stale. Survives the
    /// shard's retirement: a reused slot continues from the last version.
    pub(crate) version: u64,
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
            version: 0,
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
            version,
            dirty,
        } = source;
        self.cache.clone_from(cache);
        self.events.clone_from(events);
        self.members.clone_from(members);
        self.departures = *departures;
        self.staged.clear();
        self.comms_buf.clear();
        self.version = *version;
        self.dirty = *dirty;
    }
}

/// A cross-shard event-heap entry: one shard's next completion-or-gate
/// time as of `version`. Min-ordered by time with a shard-id tiebreak so
/// simultaneous events pop deterministically.
#[derive(Clone, Copy, Debug)]
struct ShardNext {
    time: f64,
    shard: usize,
    version: u64,
}

impl PartialEq for ShardNext {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ShardNext {}
impl PartialOrd for ShardNext {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ShardNext {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.shard.cmp(&self.shard))
            .then_with(|| other.version.cmp(&self.version))
    }
}

/// The engine's shard table: component tracker, live shards, the dirty
/// list and the cross-shard event heap, plus the counters of retired
/// shards (so aggregate stats survive merges and resets).
#[derive(Default, Clone)]
pub(crate) struct ShardSet {
    tracker: ComponentTracker,
    /// Shard index per tracker root index. Entries go stale when a root
    /// is absorbed, re-seated or drained; only live roots are looked up.
    shard_of_root: Vec<usize>,
    /// Live shards; a retired slot goes to `None` and onto `free_slots`
    /// for reuse.
    shards: Vec<Option<Shard>>,
    /// Count of `Some` entries in `shards`.
    live: usize,
    /// Retired shard slots, each with the version its last occupant
    /// reached — a new occupant's version continues strictly above it so
    /// stale [`ShardNext`] entries can never alias across occupancies.
    free_slots: Vec<(usize, u64)>,
    /// Indices of shards with pending population changes, in marking
    /// order (settles sort it).
    pub(crate) dirty: Vec<usize>,
    next_events: BinaryHeap<ShardNext>,
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
        }
    }

    /// Routes a flow's endpoints through the component tracker, creating
    /// or merging shards as needed, and returns the index of the shard
    /// the flow belongs to. A merge reads which of the absorbed members
    /// contend from `slots`; the new flow itself must not be a member of
    /// any shard yet.
    pub(crate) fn assign<S: SlotView>(&mut self, comm: &Communication, slots: &Slab<S>) -> usize {
        match self.tracker.insert(comm.src, comm.dst) {
            ComponentChange::Created { root } => self.alloc(root),
            ComponentChange::Joined { root } => self.shard_of_root[root as usize],
            ComponentChange::Bridged { root, absorbed } => {
                let winner = self.shard_of_root[root as usize];
                let loser = self.shard_of_root[absorbed as usize];
                self.merge(winner, loser, slots);
                winner
            }
        }
    }

    /// Handles a completed flow's departure: removes its edge from the
    /// tracker and refines the partition to match — re-seating a root,
    /// retiring a drained shard, or splitting a disconnected one. Call
    /// after the flow's slot has left the slab.
    pub(crate) fn depart<S: SlotView>(&mut self, comm: &Communication, slots: &mut Slab<S>) {
        match self.tracker.remove(comm.src, comm.dst) {
            ComponentRemoval::Shrunk { old_root, root } => {
                if old_root != root {
                    let id = self.shard_of_root[old_root as usize];
                    self.map_root(root, id);
                }
            }
            ComponentRemoval::Drained { root } => {
                // Gated flows hold tracker edges until their own
                // completion, so a drained component has no live members
                // of any kind: the shard retires wholesale.
                let id = self.shard_of_root[root as usize];
                self.retire(id);
                self.drains += 1;
            }
            ComponentRemoval::Split { root, split_root } => {
                let id = self.shard_of_root[root as usize];
                self.split(id, split_root, slots);
            }
        }
    }

    /// Carves the `split_root` component out of shard `id` into a new
    /// shard, at the cost of the smaller part. Member keys are partitioned
    /// by a tracker lookup (compacting stale keys on the way). The part
    /// with more members keeps the pre-split cache and event heaps, with
    /// the smaller part's contending members noted on the cache as
    /// departures; the smaller part takes the new shard's fresh cache and
    /// heaps (swapped into shard `id` when the splinter is the larger
    /// part — each part keeps its own root's shard either way). Its
    /// members get their slot epochs bumped and their due events re-pushed
    /// into the fresh heaps, lazily invalidating their old entries. The
    /// larger part's next refresh patches the departures and the smaller
    /// part's first one rebuilds over its own members; penalties are
    /// component-local, so both reproduce exactly the penalties the joint
    /// query would have and the engine's resync skips every slot — the
    /// split never perturbs the trajectory.
    fn split<S: SlotView>(&mut self, id: usize, split_root: ComponentRoot, slots: &mut Slab<S>) {
        self.splits += 1;
        let mut moved: Vec<FlowKey> = Vec::new();
        {
            let tracker = &mut self.tracker;
            let kept = self.shards[id].as_mut().expect("split shard is live");
            kept.members.retain(|&k| match slots.get(k) {
                None => false,
                Some(slot) => {
                    if tracker.find(slot.comm().src) == Some(split_root) {
                        moved.push(k);
                        false
                    } else {
                        true
                    }
                }
            });
            kept.departures = 0;
        }
        let sid = self.alloc(split_root);
        let [kept, sp] = self
            .shards
            .get_disjoint_mut([id, sid])
            .expect("split shards are distinct");
        let (kept, sp) = (
            kept.as_mut().expect("split shard is live"),
            sp.as_mut().expect("splinter shard is live"),
        );
        sp.members = moved;
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
        self.refresh_next(id, slots);
        self.refresh_next(sid, slots);
    }

    /// Creates a live shard for `root`, reusing a retired slot when one
    /// is free (continuing its version) and mapping the root to it.
    fn alloc(&mut self, root: ComponentRoot) -> usize {
        let id = match self.free_slots.pop() {
            Some((slot, version)) => {
                debug_assert!(self.shards[slot].is_none(), "free slot is vacant");
                let mut sh = Shard::new();
                sh.version = version + 1;
                self.shards[slot] = Some(sh);
                slot
            }
            None => {
                self.shards.push(Some(Shard::new()));
                self.shards.len() - 1
            }
        };
        self.live += 1;
        self.map_root(root, id);
        id
    }

    /// Points `root` at shard `id`, growing the map as needed.
    fn map_root(&mut self, root: ComponentRoot, id: usize) {
        let root = root as usize;
        if self.shard_of_root.len() <= root {
            self.shard_of_root.resize(root + 1, usize::MAX);
        }
        self.shard_of_root[root] = id;
    }

    /// Retires shard `id`: folds its counters into the retired
    /// accumulators, drops it from the dirty list, and frees its slot for
    /// reuse (recording the version its successor must continue from).
    fn retire(&mut self, id: usize) {
        let sh = self.shards[id].take().expect("retired shard is live");
        self.live -= 1;
        self.retired_cache.absorb(sh.cache.stats());
        self.retired_timeline.absorb(sh.events.stats);
        if sh.dirty {
            self.dirty.retain(|&d| d != id);
        }
        self.free_slots.push((id, sh.version));
    }

    /// Splices shard `loser` into shard `winner` at the cost of the
    /// smaller side. The side with more members keeps its cache and member
    /// list (swapped into the winner's slot when the loser is larger); the
    /// smaller side's contending members, read from `slots`, are noted on
    /// that cache as arrivals, so its next refresh is a delta patch — which
    /// the models answer bit for bit like the full query over the joint
    /// population. The smaller side's members and event heaps are spliced
    /// in verbatim (slab keys and epochs are global, so every entry stays
    /// valid), and its dropped cache's counters fold into the retired
    /// accumulator.
    fn merge<S: SlotView>(&mut self, winner: usize, loser: usize, slots: &Slab<S>) {
        debug_assert_ne!(winner, loser);
        self.merges += 1;
        let mut small = self.shards[loser].take().expect("absorbed shard is live");
        self.live -= 1;
        let w = self.shards[winner].as_mut().expect("winning shard is live");
        if small.members.len() > w.members.len() {
            // The absorbed side is the larger: its cache and members stay.
            std::mem::swap(&mut w.cache, &mut small.cache);
            std::mem::swap(&mut w.members, &mut small.members);
        }
        self.retired_cache.absorb(small.cache.stats());
        for &k in &small.members {
            if let Some(slot) = slots.get(k) {
                self.rehomed += 1;
                if slot.contending() {
                    w.cache.note_arrival(k);
                }
            }
        }
        w.members.extend(small.members);
        w.departures += small.departures;
        w.events.append(small.events);
        // The loser's global entries go stale by its slot retiring; the
        // winner's by the version bump at its next refresh.
        if !w.dirty {
            w.dirty = true;
            self.dirty.push(winner);
        }
        if small.dirty {
            self.dirty.retain(|&d| d != loser);
        }
        self.free_slots.push((loser, small.version));
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

    /// Recomputes shard `id`'s next event (earliest live completion or
    /// gate) and publishes it to the cross-shard heap under a fresh
    /// version, invalidating every earlier entry for the shard. Call
    /// after anything that may move the shard's timeline.
    pub(crate) fn refresh_next<T>(&mut self, id: usize, slots: &Slab<T>) {
        let sh = self.shards[id].as_mut().expect("shard is live");
        sh.version += 1;
        let Some(next) = sh.next_event(slots) else {
            return;
        };
        self.next_events.push(ShardNext {
            time: next,
            shard: id,
            version: sh.version,
        });
    }

    /// The earliest next-event time across all shards, discarding stale
    /// entries from the top of the cross-shard heap.
    pub(crate) fn peek_next(&mut self) -> Option<f64> {
        while let Some(top) = self.next_events.peek() {
            if self.entry_is_live(top) {
                return Some(top.time);
            }
            self.next_events.pop();
        }
        None
    }

    /// Pops every live entry with `time <= bound` and returns the (sorted,
    /// distinct) shards they name — the shards that may have a gate or
    /// completion due at the current event. The caller must
    /// [`Self::refresh_next`] each one after processing it.
    pub(crate) fn take_candidates(&mut self, bound: f64) -> Vec<usize> {
        let mut out = std::mem::take(&mut self.candidates);
        out.clear();
        while let Some(top) = self.next_events.peek() {
            if top.time > bound {
                break;
            }
            let entry = self.next_events.pop().expect("peeked entry pops");
            if self.entry_is_live(&entry) {
                out.push(entry.shard);
            }
        }
        // At most one live entry exists per shard (each refresh bumps the
        // version), so the list is already duplicate-free; sort it so
        // simultaneous events process in deterministic shard order.
        out.sort_unstable();
        out
    }

    /// Returns a candidate list taken with [`Self::take_candidates`] for
    /// buffer reuse.
    pub(crate) fn recycle_candidates(&mut self, buf: Vec<usize>) {
        self.candidates = buf;
    }

    fn entry_is_live(&self, entry: &ShardNext) -> bool {
        self.shards[entry.shard]
            .as_ref()
            .is_some_and(|sh| sh.version == entry.version)
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

    /// Aggregated timeline counters: live shards plus retired ones.
    pub(crate) fn timeline_stats(&self) -> TimelineStats {
        let mut stats = self.retired_timeline;
        for sh in self.shards.iter().flatten() {
            stats.absorb(sh.events.stats);
        }
        stats
    }

    /// Drops every shard and the component structure while folding their
    /// counters into the retired accumulators — stats (including the
    /// partition-shape counters) stay cumulative across resets, exactly
    /// like the single-shard engine's. The engine also calls this as the
    /// quiescent barrier when the flow population drains to empty.
    pub(crate) fn reset(&mut self) {
        for sh in self.shards.iter().flatten() {
            self.retired_cache.absorb(sh.cache.stats());
            self.retired_timeline.absorb(sh.events.stats);
        }
        self.tracker.clear();
        self.shard_of_root.clear();
        self.shards.clear();
        self.live = 0;
        self.free_slots.clear();
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
            set.shard_mut(id).admit(k, true, 0.0, 0);
            keys.push(k);
        }
        assert_eq!(set.live_count(), 1, "one component");
        settle(&mut set, id, &slab);
        (set, slab, keys, id)
    }

    /// Stages and refreshes shard `id` under GigE the way the engine's
    /// settle does; returns the shard's cache counters.
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
        sh.cache.stats()
    }

    /// Completes the flow `key` over the endpoints `flow` the way the
    /// engine does and returns the `(kept, splinter)` shards of the split
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
        assert!(bridged == a || bridged == b);
        assert_eq!(set.live_count(), 1, "bridge retires the loser");
        assert_eq!(set.shard_stats().merges, 1);
        // the whole union now routes to the surviving shard
        assert_eq!(set.assign(&comm(3, 4), &slab), bridged);
    }

    #[test]
    fn merge_moves_members_and_invalidates_the_winner() {
        // Shard a: one settled flow out of node 0. Shard b: a settled flow
        // and a gated one out of node 2. The bridge 1-2 names a's root
        // first, so a wins the tracker tie while b holds more members.
        let mut set = ShardSet::default();
        let mut slab: Slab<TSlot> = Slab::new();
        let k0 = slab.insert(TSlot::running(0, 1, 10.0));
        let k1 = slab.insert(TSlot::running(2, 3, 10.0));
        let k2 = slab.insert(TSlot {
            contending: false,
            gate: 5.0,
            ..TSlot::running(2, 4, 0.0)
        });
        let a = set.assign(&comm(0, 1), &slab);
        set.shard_mut(a).admit(k0, true, 0.0, 0);
        settle(&mut set, a, &slab);
        let b = set.assign(&comm(2, 3), &slab);
        set.shard_mut(b).admit(k1, true, 0.0, 0);
        settle(&mut set, b, &slab);
        assert_eq!(set.assign(&comm(2, 4), &slab), b);
        set.shard_mut(b).admit(k2, false, 5.0, 0);
        set.refresh_next(b, &slab);
        assert_eq!(set.peek_next(), Some(5.0));
        let survivor = set.assign(&comm(1, 2), &slab);
        assert_eq!(survivor, a);
        assert_eq!(set.shard_mut(survivor).members.len(), 3);
        assert!(set.shard_mut(survivor).dirty, "merge queues a settle");
        assert_eq!(set.dirty, vec![survivor]);
        // b's cache (the larger side's) survives in a's slot with a's
        // contending flow noted as an arrival — the gated flow is none —
        // so the next settle patches instead of rebuilding.
        assert!(!set.shard_mut(survivor).cache.is_valid());
        assert_eq!(set.shard_stats().rehomed_flows, 1);
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
        assert_eq!(set.cache_stats().model_queries, 3, "a's query is retired");
        // the merged gate survives in the winner's heaps...
        assert_eq!(set.shard_mut(survivor).events.peek_gate(&slab), Some(5.0));
        // ...but the retired shard's cross-shard entry went stale, and the
        // winner republishes under a fresh version
        set.refresh_next(survivor, &slab);
        assert_eq!(set.peek_next(), Some(5.0));
        assert_eq!(set.take_candidates(5.0), vec![survivor]);
    }

    #[test]
    fn stale_versions_are_discarded_on_peek_and_pop() {
        let mut set = ShardSet::default();
        let mut slab: Slab<TSlot> = Slab::new();
        let (k0, k1) = (
            slab.insert(TSlot::running(0, 1, 0.0)),
            slab.insert(TSlot::running(0, 1, 0.0)),
        );
        let a = set.assign(&comm(0, 1), &slab);
        set.shard_mut(a).events.push_gate(3.0, k0, 0);
        set.refresh_next(a, &slab);
        // a second refresh supersedes the first entry
        set.shard_mut(a).events.push_gate(1.0, k1, 0);
        set.refresh_next(a, &slab);
        assert_eq!(set.peek_next(), Some(1.0));
        let c = set.take_candidates(1.0);
        assert_eq!(c, vec![a]);
        set.recycle_candidates(c);
        // both entries are gone (one live, one stale) until republished
        assert_eq!(set.peek_next(), None);
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
            sh.version += 1;
        }
    }

    #[test]
    fn reset_folds_counters_and_forgets_structure() {
        let mut set = ShardSet::default();
        let mut slab: Slab<TSlot> = Slab::new();
        let k0 = slab.insert(TSlot::running(0, 1, 0.0));
        let a = set.assign(&comm(0, 1), &slab);
        set.shard_mut(a).events.push_gate(1.0, k0, 0);
        set.note_reused_settle();
        let before = set.timeline_stats();
        assert_eq!(before.gate_pushes, 1);
        set.reset();
        assert_eq!(set.live_count(), 0);
        assert_eq!(set.peek_next(), None);
        assert_eq!(set.timeline_stats().gate_pushes, 1, "stats survive reset");
        assert_eq!(set.cache_stats().reuses, 1);
        // and the next assignment starts a fresh shard table
        let b = set.assign(&comm(0, 1), &slab);
        assert_eq!(set.live_count(), 1);
        let _ = b;
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
        // A star out of node 0, bridged by 3-10 to the flow 10-11: node 0
        // is the union-find root, so the bridge's departure splits {10, 11}
        // off as the splinter — the smaller part.
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
        // The flow 10-11 comes first and the bridge 10-3 names node 10's
        // root first, so node 10 roots the bridged component and the
        // bridge's departure splits the star {0, 1, 2, 3} off as the
        // splinter — the larger part.
        let flows = [(10, 11), (0, 1), (0, 2), (0, 3), (10, 3)];
        let (mut set, mut slab, keys, id) = settled_component(&flows);
        let (kept, splinter) = split_off(&mut set, &mut slab, id, flows[4], keys[4]);
        assert_eq!(set.shard_mut(kept).members, vec![keys[0]]);
        let mut moved = set.shard_mut(splinter).members.clone();
        moved.sort_unstable();
        assert_eq!(moved, keys[1..4].to_vec());
        assert_eq!(
            set.shard_stats().rehomed_flows,
            1 + 1,
            "the bridge merge, then the kept part"
        );
        // The kept root's shard took the fresh structures; the splinter's
        // shard carries on with the pre-split cache.
        assert_eq!(set.shard_mut(splinter).cache.stats().model_queries, 1);
        assert_eq!(set.shard_mut(kept).cache.stats(), CacheStats::default());
        let fresh = TimelineStats {
            heap_pushes: 1,
            ..TimelineStats::default()
        };
        assert_eq!(
            set.shard_mut(kept).events.stats,
            fresh,
            "its member re-pushed"
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
        // departure splits {0,1,2,3} into {0,1} and {2,3}.
        slab.remove(k12);
        set.depart(&comm(1, 2), &mut slab);
        assert_eq!(set.live_count(), 2);
        let stats = set.shard_stats();
        assert_eq!((stats.splits, stats.drains), (1, 0));
        // The kept shard holds {k01}, the splinter {k23}, both dirty.
        assert_eq!(set.shard_mut(a).members, vec![k01]);
        let sid = *set.dirty.iter().find(|&&d| d != a).expect("splinter dirty");
        assert_eq!(set.shard_mut(sid).members, vec![k23]);
        // The splinter's completion entry was re-pushed under the bumped
        // epoch; the kept shard's old k23 entry is stale and lazily
        // skipped, so both shards report their true next events.
        assert_eq!(set.shard_mut(a).events.peek_finish(&slab), Some(10.0));
        assert_eq!(set.shard_mut(sid).events.peek_finish(&slab), Some(30.0));
        assert_eq!(set.peek_next(), Some(10.0));
        // Draining {0,1} retires the kept shard and frees its slot...
        slab.remove(k01);
        set.depart(&comm(0, 1), &mut slab);
        assert_eq!(set.live_count(), 1);
        assert_eq!(set.shard_stats().drains, 1);
        // ...which the next brand-new component reuses.
        assert_eq!(set.assign(&comm(8, 9), &slab), a, "retired slot is reused");
        // A stale cross-shard entry for the old occupant can never fire
        // against the new one: versions continued past the retiree's.
        set.refresh_next(a, &slab);
        assert_eq!(set.peek_next(), Some(30.0), "splinter's completion leads");
    }
}
