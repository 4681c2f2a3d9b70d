//! Incremental penalty cache for the fluid engine.
//!
//! Penalties only change when the *contending population* changes — a
//! transfer arrives, a latency gate opens, or a transfer completes. Pure
//! time advances (including every [`crate::FluidNetwork::next_event_time`]
//! probe between events) leave them untouched. The cache makes that
//! query-on-change policy explicit and, since the slab refactor, also
//! tracks *which* flows changed: population members are identified by
//! stable [`FlowKey`]s, pending arrivals and departures are accumulated as
//! key sets, and [`PenaltyCache::refresh`] turns them into a positional
//! [`PopulationDelta`] — simultaneous arrival+departure batches become
//! chained [`PopulationDelta::Mixed`] deltas (departures first, then
//! arrivals) instead of degrading to a rebuild — that lets
//! [`PenaltyModel::penalties_with_scratch`] patch only the affected part
//! of the fabric instead of recomputing all of it.
//!
//! The cache also owns the model's opaque **scratch**
//! ([`netbw_core::ModelScratch`], created lazily via
//! [`PenaltyModel::new_scratch`]): the state the models keep *between*
//! settles — endpoint indices for GigE/InfiniBand, union–find conflict
//! components for Myrinet — lives here, not in the (thread-shared) model.
//! Every query reports a [`netbw_core::QueryOutcome`], so the stats
//! distinguish deltas *offered* from patches *performed* and count scratch
//! rebuilds and budget fallbacks.
//!
//! Two bookkeeping niceties fall out of stable keys:
//!
//! * a flow that arrives *and* departs between two settles (a zero-size
//!   transfer) cancels out — the population did not change, so the next
//!   settle revalidates without querying the model at all;
//! * completions no longer poison the cache: the surviving keys (and their
//!   relative order) are untouched, so a completion batch yields a clean
//!   `Departed` delta instead of a rebuild.

use crate::slab::FlowKey;
use netbw_core::{AffectedSet, ModelScratch, Penalty, PenaltyModel, PopulationDelta};
use netbw_graph::Communication;
use std::collections::HashSet;

/// Counters describing how well query-on-change is working.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Model evaluations performed (the expensive operation).
    pub model_queries: u64,
    /// Times a settled population was served from the cache.
    pub reuses: u64,
    /// Population changes observed (arrivals, gate openings, departures).
    pub invalidations: u64,
    /// Model queries that carried a positional delta (`Arrived`,
    /// `Departed` or chained `Mixed`), giving the model the chance to
    /// patch in O(affected). This counts deltas *offered*;
    /// [`CacheStats::patched_queries`] counts the patches the model
    /// actually *performed*.
    pub delta_queries: u64,
    /// Model queries the model answered with an O(affected) patch (the
    /// [`netbw_core::QueryOutcome::patched`] flag). Always ≤
    /// [`CacheStats::delta_queries`]: a delta-carrying query may still
    /// recompute in full when the model cannot honour the hint (a failed
    /// alignment).
    pub patched_queries: u64,
    /// Queries in which the model (re)built its per-cache scratch state
    /// with a full O(n) pass — a cache's first settle (a fresh shard's
    /// included) and any bookkeeping surprise.
    pub scratch_rebuilds: u64,
    /// Queries in which some Myrinet conflict component's state-set
    /// enumeration hit its budget and took the max-conflict approximation
    /// (always 0 for the closed-form models).
    pub budget_fallbacks: u64,
    /// Settles that found the population unchanged — pending changes
    /// cancelled out (arrive + depart between settles), or nothing
    /// contended before or after: revalidated without touching the model.
    pub cancelled_refreshes: u64,
}

impl CacheStats {
    /// Model queries that had to rebuild from scratch (a cache's first
    /// query, or a transition no positional delta could explain).
    pub fn rebuild_queries(&self) -> u64 {
        self.model_queries - self.delta_queries
    }

    /// Adds `other`'s counters into `self`. The sharded engine keeps one
    /// penalty cache per shard and reports their sum; retiring a cache (the
    /// smaller side's at a component merge, a drained shard's, or every
    /// shard's at a reset) folds its counters through this, so the
    /// aggregate stays cumulative.
    pub fn absorb(&mut self, other: CacheStats) {
        self.model_queries += other.model_queries;
        self.reuses += other.reuses;
        self.invalidations += other.invalidations;
        self.delta_queries += other.delta_queries;
        self.patched_queries += other.patched_queries;
        self.scratch_rebuilds += other.scratch_rebuilds;
        self.budget_fallbacks += other.budget_fallbacks;
        self.cancelled_refreshes += other.cancelled_refreshes;
    }
}

/// Cached penalties for the currently contending population.
///
/// Owned by [`crate::FluidNetwork`]; `active` holds the stable slab keys
/// of the contending flows, `penalties` is aligned with it. The cache also
/// owns the model's opaque scratch state (created lazily on the first
/// refresh), which is what makes warm settles O(affected) on the model
/// side.
#[derive(Default)]
pub struct PenaltyCache {
    active: Vec<FlowKey>,
    comms: Vec<Communication>,
    penalties: Vec<Penalty>,
    valid: bool,
    settled_once: bool,
    pending_arrivals: HashSet<FlowKey>,
    pending_departures: HashSet<FlowKey>,
    scratch: Option<Box<dyn ModelScratch>>,
    /// The model's answer to "whose penalty may have changed?" from the
    /// most recent refresh, consumed by the engine's kinetics resync via
    /// [`Self::take_affected`].
    affected: AffectedSet,
    /// Reusable buffer for [`Self::staged_active`]'s sorted arrivals.
    staged_arrivals: Vec<FlowKey>,
    stats: CacheStats,
}

impl std::fmt::Debug for PenaltyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PenaltyCache")
            .field("active", &self.active)
            .field("penalties", &self.penalties)
            .field("valid", &self.valid)
            .field("settled_once", &self.settled_once)
            .field("has_scratch", &self.scratch.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// A copy is faithful: settled population, pending change sets, model
/// scratch and stats all carry over, so it answers every later refresh
/// bit for bit like the original — without the two sharing mutable
/// state.
impl Clone for PenaltyCache {
    fn clone(&self) -> Self {
        let mut cache = PenaltyCache::default();
        cache.clone_from(self);
        cache
    }

    /// Field-wise into `self`'s allocations; the model scratch clones in
    /// place when the concrete scratch types line up, so a copy into a
    /// warm cache allocates nothing. `staged_arrivals` is a step buffer,
    /// cleared before every use, so it is cleared rather than copied.
    fn clone_from(&mut self, source: &Self) {
        let PenaltyCache {
            active,
            comms,
            penalties,
            valid,
            settled_once,
            pending_arrivals,
            pending_departures,
            scratch,
            affected,
            staged_arrivals: _,
            stats,
        } = source;
        self.active.clone_from(active);
        self.comms.clone_from(comms);
        self.penalties.clone_from(penalties);
        self.valid = *valid;
        self.settled_once = *settled_once;
        self.pending_arrivals.clone_from(pending_arrivals);
        self.pending_departures.clone_from(pending_departures);
        self.scratch.clone_from(scratch);
        self.affected.clone_from(affected);
        self.staged_arrivals.clear();
        self.stats = *stats;
    }
}

impl PenaltyCache {
    /// An empty, invalid cache (first use always queries the model).
    pub fn new() -> Self {
        PenaltyCache::default()
    }

    /// Whether the cached penalties still describe the population.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Stable keys of the contending population (valid caches only).
    pub fn active(&self) -> &[FlowKey] {
        debug_assert!(self.valid, "reading an invalidated penalty cache");
        &self.active
    }

    /// Penalties aligned with [`Self::active`] (valid caches only).
    pub fn penalties(&self) -> &[Penalty] {
        debug_assert!(self.valid, "reading an invalidated penalty cache");
        &self.penalties
    }

    /// Usage counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Returns the cache to its pre-first-settle state while keeping the
    /// model scratch allocation and the cumulative stats. The next refresh
    /// issues a full rebuild query (no positional delta can bridge a
    /// reset), and the models re-seed their scratch from that query — so a
    /// reset cache answers bit-for-bit like a fresh one while reusing the
    /// scratch's allocations. This is what makes
    /// [`crate::FluidSolver`]'s network reuse sound.
    pub fn reset(&mut self) {
        self.active.clear();
        self.comms.clear();
        self.penalties.clear();
        self.valid = false;
        self.settled_once = false;
        self.pending_arrivals.clear();
        self.pending_departures.clear();
        self.affected = AffectedSet::All;
    }

    /// [`Self::reset`] with the counters zeroed too: the cache then
    /// answers *and counts* like a freshly built one while keeping its
    /// model scratch and buffers warm. The sharded engine recycles retired
    /// shards' caches through this, after folding their counters into its
    /// aggregate.
    pub fn recycle(&mut self) {
        self.reset();
        self.stats = CacheStats::default();
    }

    /// The affected set reported by the most recent refresh, leaving the
    /// conservative [`AffectedSet::All`] behind. The engine uses it to
    /// re-anchor only the flows whose penalty may actually have changed;
    /// a cancelled refresh leaves an empty set (nobody moved).
    pub fn take_affected(&mut self) -> AffectedSet {
        std::mem::take(&mut self.affected)
    }

    /// Stages the post-change contending population into `out` without
    /// touching the slab: the previously settled population minus pending
    /// departures, merged (by slot index, i.e. slab iteration order) with
    /// pending arrivals. Returns `false` — caller must gather by scanning
    /// the slab instead — when no settled population exists yet.
    ///
    /// This is what keeps a settle O(changed + log n) end to end: with
    /// 100k queued transfers and a few hundred contending, re-deriving the
    /// population from the slab would cost O(total) per event even though
    /// the penalty query itself is O(affected).
    pub fn staged_active(&mut self, out: &mut Vec<FlowKey>) -> bool {
        if !self.settled_once {
            return false;
        }
        out.clear();
        self.staged_arrivals.clear();
        self.staged_arrivals.extend(self.pending_arrivals.iter());
        self.staged_arrivals
            .sort_unstable_by_key(|k| k.slot_index());
        let mut next_arrival = 0;
        for &k in &self.active {
            if self.pending_departures.contains(&k) {
                continue;
            }
            while let Some(&a) = self.staged_arrivals.get(next_arrival) {
                if a.slot_index() < k.slot_index() {
                    out.push(a);
                    next_arrival += 1;
                } else {
                    break;
                }
            }
            out.push(k);
        }
        out.extend_from_slice(&self.staged_arrivals[next_arrival..]);
        true
    }

    /// Records that the flow `key` joined the contending population (a new
    /// transfer, or a latency gate opening).
    pub fn note_arrival(&mut self, key: FlowKey) {
        self.stats.invalidations += 1;
        self.valid = false;
        self.pending_arrivals.insert(key);
    }

    /// Records that the flow `key` left the contending population. An
    /// arrival that never reached a settle cancels out instead.
    pub fn note_departure(&mut self, key: FlowKey) {
        self.stats.invalidations += 1;
        self.valid = false;
        if !self.pending_arrivals.remove(&key) {
            self.pending_departures.insert(key);
        }
    }

    /// Records a served-from-cache settle.
    pub fn note_reuse(&mut self) {
        debug_assert!(self.valid);
        self.stats.reuses += 1;
    }

    /// Derives the [`PopulationDelta`] for a refresh against `new_active`,
    /// consuming the pending change sets. A simultaneous arrival+departure
    /// batch becomes a chained [`PopulationDelta::Mixed`] (departures
    /// applied against the previous population first, then arrivals
    /// against the new one); the cache only falls back to
    /// [`PopulationDelta::Rebuilt`] on the first settle, or when a pending
    /// key fails to line up with either population. The sets are read in
    /// place and cleared, keeping their tables warm for the next settle's
    /// changes.
    fn take_delta(&mut self, new_active: &[FlowKey]) -> PopulationDelta {
        let delta = self.delta_from_pending(new_active);
        self.pending_arrivals.clear();
        self.pending_departures.clear();
        delta
    }

    /// The body of [`Self::take_delta`], over the pending sets as they
    /// stand.
    fn delta_from_pending(&self, new_active: &[FlowKey]) -> PopulationDelta {
        if !self.settled_once {
            return PopulationDelta::Rebuilt;
        }
        let (arrivals, departures) = (&self.pending_arrivals, &self.pending_departures);
        let arrived: Vec<usize> = new_active
            .iter()
            .enumerate()
            .filter(|(_, k)| arrivals.contains(k))
            .map(|(i, _)| i)
            .collect();
        let departed: Vec<usize> = self
            .active
            .iter()
            .enumerate()
            .filter(|(_, k)| departures.contains(k))
            .map(|(i, _)| i)
            .collect();
        let consistent = arrived.len() == arrivals.len()
            && departed.len() == departures.len()
            && new_active.len() + departed.len() == self.active.len() + arrived.len();
        if !consistent {
            return PopulationDelta::Rebuilt;
        }
        match (departed.is_empty(), arrived.is_empty()) {
            (true, _) => PopulationDelta::Arrived(arrived),
            (false, true) => PopulationDelta::Departed(departed),
            (false, false) => PopulationDelta::Mixed { departed, arrived },
        }
    }

    /// Re-queries `model` for the new population and revalidates. The
    /// pending change sets are distilled into a positional
    /// [`PopulationDelta`] (chained mixed deltas included), and the query
    /// goes to the model's stateful batch-delta entry point
    /// [`PenaltyModel::penalties_with_scratch`] over the scratch this
    /// cache owns — the previously settled population is still forwarded
    /// as a seeding hint; `comms` must be aligned with `active`. When the
    /// pending changes cancel out exactly, or the population is empty
    /// before and after, the model is not queried at all.
    ///
    /// Returns the *previous* population's vectors (or the passed-in ones,
    /// when the refresh cancelled) so a hot caller can recycle their
    /// allocations for the next settle instead of growing fresh ones.
    pub fn refresh<M: PenaltyModel>(
        &mut self,
        model: &M,
        active: Vec<FlowKey>,
        comms: Vec<Communication>,
    ) -> (Vec<FlowKey>, Vec<Communication>) {
        debug_assert_eq!(active.len(), comms.len());
        if active.is_empty() && self.active.is_empty() {
            // Nothing contends before or after: a fresh or reset cache
            // already describes the empty population, and stays unsettled,
            // so the first real settle is the rebuild.
            debug_assert!(
                self.pending_arrivals.is_empty() && self.pending_departures.is_empty(),
                "an empty population has no pending changes"
            );
            return self.revalidate(active, comms);
        }
        let delta = self.take_delta(&active);
        if delta.is_empty() && active == self.active {
            // Nothing actually changed (e.g. a zero-size transfer arrived
            // and completed between settles): revalidate for free.
            return self.revalidate(active, comms);
        }
        let incremental = !matches!(delta, PopulationDelta::Rebuilt);
        let previous = self
            .settled_once
            .then_some((self.comms.as_slice(), self.penalties.as_slice()));
        let scratch = self.scratch.get_or_insert_with(|| model.new_scratch());
        let (penalties, outcome) =
            model.penalties_with_scratch(&comms, &delta, previous, scratch.as_mut());
        self.penalties = penalties;
        self.affected = outcome.affected;
        debug_assert_eq!(self.penalties.len(), comms.len());
        let recycled_active = std::mem::replace(&mut self.active, active);
        let recycled_comms = std::mem::replace(&mut self.comms, comms);
        self.valid = true;
        self.settled_once = true;
        self.stats.model_queries += 1;
        if incremental {
            self.stats.delta_queries += 1;
        }
        if outcome.patched {
            self.stats.patched_queries += 1;
        }
        if outcome.scratch_rebuilt {
            self.stats.scratch_rebuilds += 1;
        }
        if outcome.budget_fallback {
            self.stats.budget_fallbacks += 1;
        }
        (recycled_active, recycled_comms)
    }

    /// Revalidates an unchanged population without querying the model;
    /// nobody's penalty moved.
    fn revalidate(
        &mut self,
        active: Vec<FlowKey>,
        comms: Vec<Communication>,
    ) -> (Vec<FlowKey>, Vec<Communication>) {
        self.stats.cancelled_refreshes += 1;
        self.affected = AffectedSet::Positions(Vec::new());
        self.valid = true;
        (active, comms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::Slab;
    use netbw_core::MyrinetModel;

    /// Puts `comms` into a slab, returning aligned keys.
    fn keyed(comms: &[Communication]) -> (Slab<Communication>, Vec<FlowKey>) {
        let mut slab = Slab::new();
        let keys = comms.iter().map(|&c| slab.insert(c)).collect();
        (slab, keys)
    }

    fn comms() -> Vec<Communication> {
        vec![
            Communication::new(0u32, 1u32, 100),
            Communication::new(0u32, 2u32, 100),
        ]
    }

    #[test]
    fn starts_invalid_and_validates_on_refresh() {
        let (_, keys) = keyed(&comms());
        let mut cache = PenaltyCache::new();
        assert!(!cache.is_valid());
        cache.refresh(&MyrinetModel::default(), keys.clone(), comms());
        assert!(cache.is_valid());
        assert_eq!(cache.active(), keys.as_slice());
        assert_eq!(cache.penalties().len(), 2);
        assert_eq!(cache.stats().model_queries, 1);
        // the first settle has no previous population to patch from: the
        // model recomputes and builds its scratch
        assert_eq!(cache.stats().delta_queries, 0);
        assert_eq!(cache.stats().patched_queries, 0);
        assert_eq!(cache.stats().scratch_rebuilds, 1);
    }

    #[test]
    fn arrival_refresh_is_incremental() {
        let model = MyrinetModel::default();
        let mut all = comms();
        all.push(Communication::new(3u32, 4u32, 50));
        let (_, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        cache.refresh(&model, keys[..2].to_vec(), all[..2].to_vec());
        cache.note_arrival(keys[2]);
        assert!(!cache.is_valid());
        cache.refresh(&model, keys.clone(), all.clone());
        assert_eq!(cache.stats().model_queries, 2);
        assert_eq!(cache.stats().delta_queries, 1);
        // the delta was not just offered, the patch actually happened —
        // over the scratch built at the first settle
        assert_eq!(cache.stats().patched_queries, 1);
        assert_eq!(cache.stats().scratch_rebuilds, 1);
        assert_eq!(cache.penalties(), model.penalties(&all).as_slice());
    }

    #[test]
    fn departure_refresh_is_incremental() {
        let model = MyrinetModel::default();
        let all = comms();
        let (_, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        cache.refresh(&model, keys.clone(), all.clone());
        cache.note_departure(keys[0]);
        cache.refresh(&model, keys[1..].to_vec(), all[1..].to_vec());
        assert_eq!(cache.stats().model_queries, 2);
        assert_eq!(cache.stats().delta_queries, 1);
        assert_eq!(cache.stats().patched_queries, 1);
        assert_eq!(cache.penalties(), model.penalties(&all[1..]).as_slice());
    }

    #[test]
    fn mixed_batches_patch_incrementally() {
        // A departure and an arrival in the same settle reach the model as
        // one chained Mixed delta — and the model patches it instead of
        // rebuilding, matching a full model query bit-for-bit.
        let model = MyrinetModel::default();
        let mut all = comms();
        all.push(Communication::new(3u32, 4u32, 50));
        let (_, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        cache.refresh(&model, keys[..2].to_vec(), all[..2].to_vec());
        cache.note_departure(keys[1]);
        cache.note_arrival(keys[2]);
        let new_active = vec![keys[0], keys[2]];
        let new_comms = vec![all[0], all[2]];
        cache.refresh(&model, new_active, new_comms.clone());
        assert_eq!(cache.stats().model_queries, 2);
        assert_eq!(
            cache.stats().delta_queries,
            1,
            "mixed settles now carry a chained positional delta"
        );
        assert_eq!(
            cache.stats().patched_queries,
            1,
            "and the model patches them instead of rebuilding"
        );
        assert_eq!(cache.stats().scratch_rebuilds, 1, "only the first settle");
        assert_eq!(cache.penalties(), model.penalties(&new_comms).as_slice());
    }

    #[test]
    fn cancelled_arrival_departure_skips_the_model() {
        let model = MyrinetModel::default();
        let all = comms();
        let (mut slab, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        cache.refresh(&model, keys.clone(), all.clone());
        // a zero-size flow flashes in and out between settles
        let ghost = slab.insert(Communication::new(7u32, 8u32, 0));
        cache.note_arrival(ghost);
        cache.note_departure(ghost);
        assert!(!cache.is_valid());
        cache.refresh(&model, keys.clone(), all);
        assert!(cache.is_valid());
        assert_eq!(cache.stats().model_queries, 1, "no new model query");
        assert_eq!(cache.stats().cancelled_refreshes, 1);
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn reuse_counter_tracks_cache_hits() {
        let (_, keys) = keyed(&comms());
        let mut cache = PenaltyCache::new();
        cache.refresh(&MyrinetModel::default(), keys, comms());
        cache.note_reuse();
        cache.note_reuse();
        assert_eq!(cache.stats().reuses, 2);
        assert_eq!(cache.stats().model_queries, 1);
    }

    #[test]
    fn refreshed_penalties_match_direct_queries() {
        let model = MyrinetModel::default();
        let (_, keys) = keyed(&comms());
        let mut cache = PenaltyCache::new();
        cache.refresh(&model, keys, comms());
        assert_eq!(cache.penalties(), model.penalties(&comms()).as_slice());
    }

    #[test]
    fn myrinet_budget_fallback_is_visible_and_exact() {
        // A conflict component with more state sets than the budget: every
        // query that re-enumerates it must show the blow-up in
        // `CacheStats::budget_fallbacks`, warm queries must still patch
        // (the fallback is decided per component), and the answers must
        // match a full model query exactly.
        let model = MyrinetModel::with_budget(2);
        // One 4-flow component out of node 0 (4 state sets > 2).
        let all: Vec<Communication> = (0..5)
            .map(|i| Communication::new(0u32, 1 + i as u32, 100))
            .collect();
        let (_, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        cache.refresh(&model, keys[..4].to_vec(), all[..4].to_vec());
        let first = cache.stats();
        assert_eq!(
            first.budget_fallbacks, 1,
            "the first settle's enumeration blows the budget: {first:?}"
        );
        assert_eq!(cache.penalties(), model.penalties(&all[..4]).as_slice());
        // An arrival joins the blown component: the patch re-enumerates
        // it, blows the budget again, and still answers as a patch.
        cache.note_arrival(keys[4]);
        cache.refresh(&model, keys.clone(), all.clone());
        let stats = cache.stats();
        assert_eq!(stats.delta_queries, 1, "delta offered: {stats:?}");
        assert_eq!(stats.patched_queries, 1, "and patched: {stats:?}");
        assert_eq!(stats.budget_fallbacks, 2, "blow-up counted: {stats:?}");
        assert_eq!(stats.scratch_rebuilds, 1, "only the first settle rebuilds");
        assert_eq!(cache.penalties(), model.penalties(&all).as_slice());
        // Within budget, nothing of the sort fires: a fresh cache over the
        // default budget patches the same workload.
        let exact = MyrinetModel::default();
        let mut cache = PenaltyCache::new();
        cache.refresh(&exact, keys[..4].to_vec(), all[..4].to_vec());
        cache.note_arrival(keys[4]);
        cache.refresh(&exact, keys.clone(), all.clone());
        let stats = cache.stats();
        assert_eq!(stats.budget_fallbacks, 0, "{stats:?}");
        assert_eq!(stats.patched_queries, 1, "{stats:?}");
        assert_eq!(cache.penalties(), exact.penalties(&all).as_slice());
    }

    #[test]
    fn staged_active_merges_pending_changes_in_slot_order() {
        let model = MyrinetModel::default();
        let all: Vec<Communication> = (0..4)
            .map(|i| Communication::new(i as u32, 4u32, 100))
            .collect();
        let (mut slab, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        let mut staged = Vec::new();
        assert!(
            !cache.staged_active(&mut staged),
            "no settled population yet"
        );
        cache.refresh(&model, keys.clone(), all.clone());
        // flow 1 departs and its slot is re-used by a new arrival: the
        // arrival must appear at the re-used slot's position, not at the
        // end
        cache.note_departure(keys[1]);
        slab.remove(keys[1]);
        let reused = slab.insert(Communication::new(7u32, 8u32, 50));
        assert_eq!(reused.slot_index(), keys[1].slot_index());
        cache.note_arrival(reused);
        assert!(cache.staged_active(&mut staged));
        assert_eq!(staged, vec![keys[0], reused, keys[2], keys[3]]);
        // a reset disables staging until the next settle
        cache.reset();
        assert!(!cache.staged_active(&mut staged));
    }

    #[test]
    fn take_affected_reports_patch_scope_and_resets_to_all() {
        let model = MyrinetModel::default();
        let mut all = comms();
        all.push(Communication::new(3u32, 4u32, 50));
        let (_, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        cache.refresh(&model, keys[..2].to_vec(), all[..2].to_vec());
        assert_eq!(cache.take_affected(), AffectedSet::All, "first settle");
        // the disjoint arrival only re-evaluates itself
        cache.note_arrival(keys[2]);
        cache.refresh(&model, keys.clone(), all.clone());
        assert_eq!(cache.take_affected(), AffectedSet::Positions(vec![2]));
        assert_eq!(cache.take_affected(), AffectedSet::All, "consumed");
        // a cancelled refresh means nobody moved
        let ghost_arrive_and_depart = keys[2];
        cache.note_arrival(ghost_arrive_and_depart);
        cache.note_departure(ghost_arrive_and_depart);
        cache.refresh(&model, keys.clone(), all.clone());
        assert_eq!(
            cache.take_affected(),
            AffectedSet::Positions(Vec::new()),
            "cancelled refresh affects nobody"
        );
    }

    #[test]
    fn stats_expose_rebuild_query_count() {
        let stats = CacheStats {
            model_queries: 7,
            delta_queries: 5,
            ..CacheStats::default()
        };
        assert_eq!(stats.rebuild_queries(), 2);
    }
}
