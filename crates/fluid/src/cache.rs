//! Incremental penalty cache for the fluid engine.
//!
//! Penalties only change when the *contending population* changes — a
//! transfer arrives, a latency gate opens, or a transfer completes. Pure
//! time advances (including every [`crate::FluidNetwork::next_event_time`]
//! probe between events) leave them untouched. The cache makes that
//! query-on-change policy explicit, and hands the model only what changed:
//! population members are identified by their slab slot index (the keyed
//! [`FlowId`]), pending departures are accumulated as ids and pending
//! arrivals as `(id, Communication)` pairs, and [`PenaltyCache::refresh`]
//! passes them to [`PenaltyModel::apply_delta`] as one keyed
//! [`PopulationDelta`]. The model answers `(id, penalty)` for exactly the
//! flows it re-evaluated ([`PenaltyCache::answers`]); every other member
//! keeps its previous penalty, which the engine already holds in the
//! flow's kinetics. A settle therefore costs O(changed + reach), with no
//! copy of the population on the cache's side.
//!
//! The cache also owns the model's opaque **scratch**
//! ([`netbw_core::ModelScratch`], created lazily via
//! [`PenaltyModel::new_scratch`]): the population itself and the state the
//! models patch from — endpoint indices for GigE/InfiniBand, conflict
//! components for Myrinet — live there, not in the (thread-shared) model.
//! A cache's first settle — new, reset or recycled — is *fresh*: the model
//! forgets whatever the scratch held and answers every member. Every query
//! reports a [`QueryOutcome`], so the stats distinguish warm deltas
//! *offered* from patches *performed* and count scratch rebuilds and
//! budget fallbacks.
//!
//! A flow that arrives *and* departs between two settles (a zero-size
//! transfer, or a flow re-homed twice by a merge and a split) cancels out:
//! if nothing else changed, the next settle revalidates without querying
//! the model at all.

use crate::slab::FlowKey;
use netbw_core::{FlowId, ModelScratch, Penalty, PenaltyModel, PopulationDelta, QueryOutcome};
use netbw_graph::Communication;

/// Counters describing how well query-on-change is working.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Model evaluations performed (the expensive operation).
    pub model_queries: u64,
    /// Times a settled population was served from the cache.
    pub reuses: u64,
    /// Population changes noted (arrivals, gate openings, departures, and
    /// the flows a merge or a split re-homes onto another cache).
    pub invalidations: u64,
    /// Model queries that carried a warm keyed delta — every query but a
    /// cache's fresh first one — giving the model the chance to patch in
    /// O(changed + reach). This counts deltas *offered*;
    /// [`CacheStats::patched_queries`] counts the patches the model
    /// actually *performed*.
    pub delta_queries: u64,
    /// Model queries the model answered with an O(changed + reach) patch
    /// (the [`QueryOutcome::patched`] flag). Always ≤
    /// [`CacheStats::delta_queries`]: a model without a patch (the
    /// baselines) answers every member of every query.
    pub patched_queries: u64,
    /// Queries in which the model (re)built its per-cache scratch state
    /// with a full O(n) pass — a cache's fresh first settle (a new, reset
    /// or recycled shard's).
    pub scratch_rebuilds: u64,
    /// Queries in which some Myrinet conflict component's state-set
    /// enumeration hit its budget and took the max-conflict approximation
    /// (always 0 for the closed-form models).
    pub budget_fallbacks: u64,
    /// Settles that found the population unchanged — pending changes
    /// cancelled out (arrive + depart between settles), or nothing
    /// contended before or after: revalidated without touching the model.
    pub cancelled_refreshes: u64,
    /// Flow ids handed to the model: each query's departures plus
    /// arrivals.
    pub ids_handed: u64,
    /// `(id, penalty)` answers the model returned.
    pub penalties_answered: u64,
}

impl CacheStats {
    /// Model queries that had to rebuild from scratch (a cache's fresh
    /// first query).
    pub fn rebuild_queries(&self) -> u64 {
        self.model_queries - self.delta_queries
    }

    /// Ids handed over plus penalties answered: the model-side work the
    /// keyed contract scales with.
    pub fn keyed_traffic(&self) -> u64 {
        self.ids_handed + self.penalties_answered
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
        self.ids_handed += other.ids_handed;
        self.penalties_answered += other.penalties_answered;
    }
}

/// Pending changes to one shard's contending population, the model scratch
/// that holds the settled population, and the last settle's answers.
///
/// Owned by a shard of [`crate::FluidNetwork`]. The scratch is created
/// lazily on the first refresh and kept across resets, which is what makes
/// warm settles O(changed + reach) on the model side.
#[derive(Default)]
pub struct PenaltyCache {
    /// Whether the last settle still describes the population.
    valid: bool,
    /// Whether the scratch holds a settled population; the next query of
    /// an unsettled cache is fresh.
    settled: bool,
    /// Flows that joined since the last settle, in noting order.
    arrivals: Vec<(FlowId, Communication)>,
    /// Settled members that left since the last settle.
    departures: Vec<FlowId>,
    scratch: Option<Box<dyn ModelScratch>>,
    /// The last refresh's `(id, penalty)` answers.
    answers: Vec<(FlowId, Penalty)>,
    /// The owner stamp the engine writes into the slab entries of the
    /// flows this cache answers for: a settle re-anchors an answered id
    /// only if its entry carries this stamp. Unique among one engine's
    /// live caches; 0 for the single-shard engine's.
    owner: u32,
    stats: CacheStats,
}

impl std::fmt::Debug for PenaltyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PenaltyCache")
            .field("valid", &self.valid)
            .field("settled", &self.settled)
            .field("arrivals", &self.arrivals)
            .field("departures", &self.departures)
            .field("has_scratch", &self.scratch.is_some())
            .field("owner", &self.owner)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// A copy is faithful: pending changes, model scratch and stats all carry
/// over, so it answers every later refresh bit for bit like the original
/// — without the two sharing mutable state.
impl Clone for PenaltyCache {
    fn clone(&self) -> Self {
        let mut cache = PenaltyCache::default();
        cache.clone_from(self);
        cache
    }

    /// Field-wise into `self`'s allocations; the model scratch clones in
    /// place when the concrete scratch types line up, so a copy into a
    /// warm cache allocates nothing. The answers are a step buffer, read
    /// only right after the refresh that wrote them, so they are cleared
    /// rather than copied.
    fn clone_from(&mut self, source: &Self) {
        let PenaltyCache {
            valid,
            settled,
            arrivals,
            departures,
            scratch,
            answers: _,
            owner,
            stats,
        } = source;
        self.valid = *valid;
        self.settled = *settled;
        self.arrivals.clone_from(arrivals);
        self.departures.clone_from(departures);
        self.scratch.clone_from(scratch);
        self.answers.clear();
        self.owner = *owner;
        self.stats = *stats;
    }
}

impl PenaltyCache {
    /// An empty, invalid cache (first use always queries the model).
    pub fn new() -> Self {
        PenaltyCache::default()
    }

    /// An empty cache whose flows carry the owner stamp `owner` (see
    /// [`crate::slab::Slab::set_owner`]).
    pub(crate) fn with_owner(owner: u32) -> Self {
        PenaltyCache {
            owner,
            ..PenaltyCache::default()
        }
    }

    /// The owner stamp this cache's flows carry in the slab.
    pub(crate) fn owner(&self) -> u32 {
        self.owner
    }

    /// Whether the settled penalties still describe the population.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Usage counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Returns the cache to its pre-first-settle state while keeping the
    /// model scratch allocation and the cumulative stats. The next refresh
    /// is fresh: the model forgets the scratch's population (at the cost
    /// of its live members) and answers every member anew — so a reset
    /// cache answers bit-for-bit like a fresh one while reusing the
    /// scratch's allocations. This is what makes [`crate::FluidSolver`]'s
    /// network reuse sound.
    pub fn reset(&mut self) {
        self.valid = false;
        self.settled = false;
        self.arrivals.clear();
        self.departures.clear();
        self.answers.clear();
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

    /// Records that the flow `key`, over `comm`, joined the contending
    /// population (a new transfer, a latency gate opening, or a flow
    /// re-homed onto this cache).
    pub fn note_arrival(&mut self, key: FlowKey, comm: Communication) {
        self.stats.invalidations += 1;
        self.valid = false;
        self.arrivals.push((key.id(), comm));
    }

    /// Records that the flow `key` left the contending population. An
    /// arrival that never reached a settle cancels out instead, and an
    /// unsettled cache has no settled member to lose.
    pub fn note_departure(&mut self, key: FlowKey) {
        self.stats.invalidations += 1;
        self.valid = false;
        let id = key.id();
        if let Some(pos) = self.arrivals.iter().rposition(|a| a.0 == id) {
            self.arrivals.remove(pos);
        } else if self.settled {
            self.departures.push(id);
        }
    }

    /// Records a served-from-cache settle.
    pub fn note_reuse(&mut self) {
        debug_assert!(self.valid);
        self.stats.reuses += 1;
    }

    /// Hands the pending changes to `model` as one keyed
    /// [`PopulationDelta`] over the scratch this cache owns, and
    /// revalidates. Returns how the model answered, or `None` when nothing
    /// was pending — the changes cancelled out, or the population is empty
    /// before and after — and the model was not queried at all.
    /// [`Self::answers`] then holds the model's answers (none after a
    /// skipped refresh).
    pub fn refresh<M: PenaltyModel>(&mut self, model: &M) -> Option<QueryOutcome> {
        self.answers.clear();
        self.valid = true;
        if self.arrivals.is_empty() && self.departures.is_empty() {
            self.stats.cancelled_refreshes += 1;
            return None;
        }
        let fresh = !self.settled;
        let delta = PopulationDelta {
            departed: &self.departures,
            arrived: &self.arrivals,
            fresh,
        };
        let scratch = self.scratch.get_or_insert_with(|| model.new_scratch());
        let outcome = model.apply_delta(&delta, scratch.as_mut(), &mut self.answers);
        let stats = &mut self.stats;
        stats.model_queries += 1;
        stats.delta_queries += u64::from(!fresh);
        stats.patched_queries += u64::from(outcome.patched);
        stats.scratch_rebuilds += u64::from(outcome.scratch_rebuilt);
        stats.budget_fallbacks += u64::from(outcome.budget_fallback);
        stats.ids_handed += (self.departures.len() + self.arrivals.len()) as u64;
        stats.penalties_answered += self.answers.len() as u64;
        self.arrivals.clear();
        self.departures.clear();
        self.settled = true;
        Some(outcome)
    }

    /// The `(id, penalty)` answers of the last refresh: exactly the
    /// members the model re-evaluated. Every member not listed keeps the
    /// penalty it was last answered.
    pub fn answers(&self) -> &[(FlowId, Penalty)] {
        &self.answers
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

    /// Notes every flow of `comms` (keyed by `keys`) as an arrival.
    fn arrive(cache: &mut PenaltyCache, keys: &[FlowKey], comms: &[Communication]) {
        for (&k, &c) in keys.iter().zip(comms) {
            cache.note_arrival(k, c);
        }
    }

    /// `(id, penalty)` answers, sorted by id.
    type Answers = Vec<(FlowId, Penalty)>;

    /// The last refresh's answers, sorted by id, against the full
    /// penalties of `population` (`(key, comm)` pairs) at the same ids.
    fn answered_vs_full(
        cache: &PenaltyCache,
        model: &impl PenaltyModel,
        population: &[(FlowKey, Communication)],
    ) -> (Answers, Answers) {
        let mut got = cache.answers().to_vec();
        got.sort_unstable_by_key(|a| a.0);
        let comms: Vec<Communication> = population.iter().map(|p| p.1).collect();
        let full = model.penalties(&comms);
        let want = got
            .iter()
            .map(|&(id, _)| {
                let i = population.iter().position(|p| p.0.id() == id).unwrap();
                (id, full[i])
            })
            .collect();
        (got, want)
    }

    #[test]
    fn starts_invalid_and_validates_on_refresh() {
        let (_, keys) = keyed(&comms());
        let mut cache = PenaltyCache::new();
        assert!(!cache.is_valid());
        arrive(&mut cache, &keys, &comms());
        let outcome = cache.refresh(&MyrinetModel::default());
        assert!(cache.is_valid());
        assert_eq!(cache.answers().len(), 2, "a fresh settle answers everyone");
        assert_eq!(outcome, Some(QueryOutcome::rebuild()));
        assert_eq!(cache.stats().model_queries, 1);
        // the first settle has no previous population to patch from: the
        // model evaluates in full and builds its scratch
        assert_eq!(cache.stats().delta_queries, 0);
        assert_eq!(cache.stats().patched_queries, 0);
        assert_eq!(cache.stats().scratch_rebuilds, 1);
        assert_eq!(cache.stats().ids_handed, 2);
        assert_eq!(cache.stats().penalties_answered, 2);
    }

    #[test]
    fn arrival_refresh_is_incremental() {
        let model = MyrinetModel::default();
        let mut all = comms();
        all.push(Communication::new(3u32, 4u32, 50));
        let (_, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        arrive(&mut cache, &keys[..2], &all[..2]);
        cache.refresh(&model);
        cache.note_arrival(keys[2], all[2]);
        assert!(!cache.is_valid());
        cache.refresh(&model);
        assert_eq!(cache.stats().model_queries, 2);
        assert_eq!(cache.stats().delta_queries, 1);
        // the delta was not just offered, the patch actually happened —
        // over the scratch built at the first settle — and answered only
        // the disjoint arrival
        assert_eq!(cache.stats().patched_queries, 1);
        assert_eq!(cache.stats().scratch_rebuilds, 1);
        let population: Vec<_> = keys.iter().copied().zip(all).collect();
        let (got, want) = answered_vs_full(&cache, &model, &population);
        assert_eq!(got, want);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn departure_refresh_is_incremental() {
        let model = MyrinetModel::default();
        let all = comms();
        let (_, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        arrive(&mut cache, &keys, &all);
        cache.refresh(&model);
        cache.note_departure(keys[0]);
        cache.refresh(&model);
        assert_eq!(cache.stats().model_queries, 2);
        assert_eq!(cache.stats().delta_queries, 1);
        assert_eq!(cache.stats().patched_queries, 1);
        let population = [(keys[1], all[1])];
        let (got, want) = answered_vs_full(&cache, &model, &population);
        assert_eq!(got, want);
        assert_eq!(got.len(), 1, "the survivor sharing the source moved");
    }

    #[test]
    fn mixed_batches_patch_incrementally() {
        // A departure and an arrival in the same settle reach the model as
        // one keyed delta — and the model patches it instead of
        // rebuilding, matching a full model query bit-for-bit.
        let model = MyrinetModel::default();
        let mut all = comms();
        all.push(Communication::new(3u32, 4u32, 50));
        let (_, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        arrive(&mut cache, &keys[..2], &all[..2]);
        cache.refresh(&model);
        cache.note_departure(keys[1]);
        cache.note_arrival(keys[2], all[2]);
        cache.refresh(&model);
        assert_eq!(cache.stats().model_queries, 2);
        assert_eq!(
            cache.stats().delta_queries,
            1,
            "mixed settles carry one delta"
        );
        assert_eq!(
            cache.stats().patched_queries,
            1,
            "and the model patches them instead of rebuilding"
        );
        assert_eq!(cache.stats().scratch_rebuilds, 1, "only the first settle");
        let population = [(keys[0], all[0]), (keys[2], all[2])];
        let (got, want) = answered_vs_full(&cache, &model, &population);
        assert_eq!(got, want);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn a_reused_slot_departs_and_arrives_in_one_delta() {
        // Flow 1 departs and its slab slot is re-used by a new arrival
        // before the next settle: the delta hands over the departure and
        // the arrival under the same id, departures first.
        let model = netbw_core::GigabitEthernetModel::default();
        let all: Vec<Communication> = (0..3)
            .map(|i| Communication::new(i as u32, 4u32, 100))
            .collect();
        let (mut slab, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        arrive(&mut cache, &keys, &all);
        cache.refresh(&model);
        cache.note_departure(keys[1]);
        slab.remove(keys[1]);
        let joined = Communication::new(7u32, 4u32, 50);
        let reused = slab.insert(joined);
        assert_eq!(reused.id(), keys[1].id());
        cache.note_arrival(reused, joined);
        cache.refresh(&model);
        let population = [(keys[0], all[0]), (reused, joined), (keys[2], all[2])];
        let (got, want) = answered_vs_full(&cache, &model, &population);
        assert_eq!(got, want);
        assert_eq!(got.len(), 3, "every flow into node 4 moved");
        assert_eq!(cache.stats().ids_handed, 3 + 2);
    }

    #[test]
    fn cancelled_arrival_departure_skips_the_model() {
        let model = MyrinetModel::default();
        let all = comms();
        let (mut slab, keys) = keyed(&all);
        let mut cache = PenaltyCache::new();
        arrive(&mut cache, &keys, &all);
        cache.refresh(&model);
        // a zero-size flow flashes in and out between settles
        let ghost_comm = Communication::new(7u32, 8u32, 0);
        let ghost = slab.insert(ghost_comm);
        cache.note_arrival(ghost, ghost_comm);
        cache.note_departure(ghost);
        assert!(!cache.is_valid());
        assert_eq!(cache.refresh(&model), None);
        assert!(cache.is_valid());
        assert!(cache.answers().is_empty(), "nobody moved");
        assert_eq!(cache.stats().model_queries, 1, "no new model query");
        assert_eq!(cache.stats().cancelled_refreshes, 1);
        assert_eq!(cache.stats().invalidations, 4);
    }

    #[test]
    fn reuse_counter_tracks_cache_hits() {
        let (_, keys) = keyed(&comms());
        let mut cache = PenaltyCache::new();
        arrive(&mut cache, &keys, &comms());
        cache.refresh(&MyrinetModel::default());
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
        arrive(&mut cache, &keys, &comms());
        cache.refresh(&model);
        let population: Vec<_> = keys.iter().copied().zip(comms()).collect();
        let (got, want) = answered_vs_full(&cache, &model, &population);
        assert_eq!(got, want);
        // a reset cache's next settle is fresh again, over its warm scratch
        cache.reset();
        arrive(&mut cache, &keys, &comms());
        assert_eq!(cache.refresh(&model), Some(QueryOutcome::rebuild()));
        assert_eq!(answered_vs_full(&cache, &model, &population).0, got);
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
        let population: Vec<_> = keys.iter().copied().zip(all.iter().copied()).collect();
        let mut cache = PenaltyCache::new();
        arrive(&mut cache, &keys[..4], &all[..4]);
        cache.refresh(&model);
        let first = cache.stats();
        assert_eq!(
            first.budget_fallbacks, 1,
            "the first settle's enumeration blows the budget: {first:?}"
        );
        let (got, want) = answered_vs_full(&cache, &model, &population[..4]);
        assert_eq!(got, want);
        // An arrival joins the blown component: the patch re-enumerates
        // it, blows the budget again, and still answers as a patch.
        cache.note_arrival(keys[4], all[4]);
        cache.refresh(&model);
        let stats = cache.stats();
        assert_eq!(stats.delta_queries, 1, "delta offered: {stats:?}");
        assert_eq!(stats.patched_queries, 1, "and patched: {stats:?}");
        assert_eq!(stats.budget_fallbacks, 2, "blow-up counted: {stats:?}");
        assert_eq!(stats.scratch_rebuilds, 1, "only the first settle rebuilds");
        let (got, want) = answered_vs_full(&cache, &model, &population);
        assert_eq!((got.len(), &got), (5, &want));
        // Within budget, nothing of the sort fires: a fresh cache over the
        // default budget patches the same workload.
        let exact = MyrinetModel::default();
        let mut cache = PenaltyCache::new();
        arrive(&mut cache, &keys[..4], &all[..4]);
        cache.refresh(&exact);
        cache.note_arrival(keys[4], all[4]);
        cache.refresh(&exact);
        let stats = cache.stats();
        assert_eq!(stats.budget_fallbacks, 0, "{stats:?}");
        assert_eq!(stats.patched_queries, 1, "{stats:?}");
        let (got, want) = answered_vs_full(&cache, &exact, &population);
        assert_eq!(got, want);
    }

    #[test]
    fn stats_expose_rebuild_query_count() {
        let stats = CacheStats {
            model_queries: 7,
            delta_queries: 5,
            ids_handed: 4,
            penalties_answered: 6,
            ..CacheStats::default()
        };
        assert_eq!(stats.rebuild_queries(), 2);
        assert_eq!(stats.keyed_traffic(), 10);
    }
}
