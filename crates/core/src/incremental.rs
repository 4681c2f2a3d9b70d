//! Shared machinery for O(affected) incremental penalty updates.
//!
//! [`PenaltyModel::penalties_with_scratch`](crate::PenaltyModel::penalties_with_scratch)
//! specializations all face the same sub-problems, solved here once:
//!
//! 1. **Alignment** — pair every surviving communication of the new
//!    population with its previous penalty, using the positional
//!    [`PopulationDelta`] invariants. [`align`] performs the merge scan and
//!    *verifies* the invariants (length accounting plus per-entry equality
//!    of paired communications); any inconsistency yields `None` and the
//!    caller recomputes from scratch — a wrong hint can cost time, never
//!    correctness. Mixed batches are handled as two chained positional
//!    deltas in one pass: departures against the previous population
//!    first, then arrivals against the new one.
//! 2. **Endpoint indexing** — models reason in per-node degree groups
//!    (all communications leaving / entering a node). [`EndpointIndex`]
//!    interns each node into a dense slot once per flow insert/remove and
//!    stores, per slot, the *counterpart multiset* of those groups (the
//!    destination slots of the communications leaving it, the source
//!    slots of those entering it), whose lengths are the degrees `Δo`,
//!    `Δi`. That representation is position-free, so the index survives
//!    population churn and a scratch keeps it alive *across* settles. Each
//!    group's `Cmo`/`Cmi` aggregate ([`GroupAggregate`]) is computed once
//!    per index generation, so a penalty evaluation is O(1), a full query
//!    O(n), and a patch O(Σ touched groups).
//! 3. **Affected-set computation** — given the changed communications,
//!    [`AffectedEndpoints::compute`] marks the source and destination
//!    slots whose groups can possibly produce a different penalty. For the
//!    closed-form models this is the two-hop neighbourhood of the changed
//!    endpoints: a flow arriving at (or leaving) `(s, d)` changes `Δo(s)`
//!    and `Δi(d)` directly, and thereby the `Cmo`/`Cmi` asymmetry sets of
//!    every group containing a communication into `d` or out of `s`.
//! 4. **Scratch lifecycle** — [`EndpointScratch`] packages the previous
//!    population, its penalties and slots, and the live index into the
//!    opaque per-cache state of the closed-form models (GigE and its
//!    InfiniBand extension), and `patch_endpoints` is the shared patch
//!    driver over it: seed (from the `previous` hint) if cold, align, apply
//!    the delta to the index, re-evaluate exactly the touched
//!    communications, commit. Its buffers are reused, so a warm settle
//!    allocates nothing but the two vectors it hands back.
//!
//! All helpers operate on the *network* (inter-node) subset of a
//! population; intra-node communications have penalty 1 by contract and
//! never contribute to degrees.

use crate::intern::SlotInterner;
use crate::model::PopulationDelta;
use crate::penalty::Penalty;
use crate::scratch::{AffectedSet, ModelScratch, QueryOutcome};
use netbw_graph::{Communication, NodeId};

/// The outcome of pairing a new population against the previously queried
/// one: which previous entry (if any) each current entry corresponds to,
/// and which communications changed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// For every position of the new population: the position the same
    /// communication held in the previous population, or `None` if it just
    /// arrived.
    pub prev_of: Vec<Option<usize>>,
    /// Arrived communications with their positions in the *new*
    /// population.
    pub arrived: Vec<(usize, Communication)>,
    /// Departed communications with their positions in the *previous*
    /// population.
    pub departed: Vec<(usize, Communication)>,
}

/// Pairs `comms` with `prev` according to `delta`, verifying the
/// [`PopulationDelta`] invariants along the way.
///
/// [`PopulationDelta::Mixed`] is treated as its chain semantics prescribe
/// — departures applied to `prev` first, arrivals applied to the result —
/// collapsed into a single merge scan over both slices.
///
/// Returns `None` — meaning "do a full recompute" — for
/// [`PopulationDelta::Rebuilt`], for out-of-range / non-increasing
/// positions, for length mismatches, and whenever a pair of supposedly
/// identical communications differs.
pub fn align(
    comms: &[Communication],
    delta: &PopulationDelta,
    prev: &[Communication],
) -> Option<Alignment> {
    let mut al = Alignment::default();
    align_into(comms, delta, prev, &mut al).then_some(al)
}

/// [`align`] into a caller-held [`Alignment`], reusing its buffers.
/// Returns `false` where [`align`] returns `None`; `al` is then left in an
/// unspecified state.
fn align_into(
    comms: &[Communication],
    delta: &PopulationDelta,
    prev: &[Communication],
    al: &mut Alignment,
) -> bool {
    const NO_POSITIONS: &[usize] = &[];
    let (departed_idx, arrived_idx): (&[usize], &[usize]) = match delta {
        PopulationDelta::Rebuilt => return false,
        PopulationDelta::Arrived(idx) => (NO_POSITIONS, idx),
        PopulationDelta::Departed(idx) => (idx, NO_POSITIONS),
        PopulationDelta::Mixed { departed, arrived } => (departed, arrived),
    };
    if !strictly_increasing_within(departed_idx, prev.len())
        || !strictly_increasing_within(arrived_idx, comms.len())
        || comms.len() + departed_idx.len() != prev.len() + arrived_idx.len()
    {
        return false;
    }
    al.prev_of.clear();
    al.arrived.clear();
    al.departed.clear();
    let mut next_arrival = arrived_idx.iter().copied().peekable();
    let mut next_departure = departed_idx.iter().copied().peekable();
    let mut p = 0usize;
    for (i, c) in comms.iter().enumerate() {
        if next_arrival.peek() == Some(&i) {
            next_arrival.next();
            al.arrived.push((i, *c));
            al.prev_of.push(None);
            continue;
        }
        // Skip over departures interleaved before the matching survivor.
        while next_departure.peek() == Some(&p) {
            next_departure.next();
            al.departed.push((p, prev[p]));
            p += 1;
        }
        if p >= prev.len() || prev[p] != *c {
            return false;
        }
        al.prev_of.push(Some(p));
        p += 1;
    }
    while next_departure.peek() == Some(&p) {
        next_departure.next();
        al.departed.push((p, prev[p]));
        p += 1;
    }
    p == prev.len()
}

fn strictly_increasing_within(idx: &[usize], len: usize) -> bool {
    idx.windows(2).all(|w| w[0] < w[1]) && idx.iter().all(|&i| i < len)
}

/// A network communication's endpoints as slots of an [`EndpointIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EndpointSlots {
    /// The source node's slot.
    pub src: u32,
    /// The destination node's slot.
    pub dst: u32,
}

/// The asymmetry aggregate of one degree group — `Cmo` for the
/// communications leaving a node, `Cmi` for those entering it: the largest
/// degree among the group's counterparts (`Δi` of the destinations, resp.
/// `Δo` of the sources) and how many of the group's communications reach
/// it (`|Cmo|`, resp. `|Cmi|`). Both are 0 for an empty group.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupAggregate {
    /// The largest counterpart degree in the group.
    pub max: usize,
    /// How many of the group's communications have a counterpart of that
    /// degree.
    pub count: usize,
}

impl GroupAggregate {
    fn over(degrees: impl Iterator<Item = usize>) -> Self {
        let mut agg = GroupAggregate::default();
        for degree in degrees {
            if degree > agg.max {
                agg = GroupAggregate {
                    max: degree,
                    count: 1,
                };
            } else if degree == agg.max {
                agg.count += 1;
            }
        }
        agg
    }
}

/// A [`GroupAggregate`] stamped with the index generation it was computed
/// at; any other stamp means stale.
#[derive(Clone, Copy, Debug, Default)]
struct Memo {
    generation: u64,
    aggregate: GroupAggregate,
}

/// Per-node occupancy groups over one communication population: each node
/// is interned into a dense slot, and each slot stores the *counterpart
/// multisets* of its groups — the destination slots of the communications
/// leaving it and the source slots of those entering it, whose lengths are
/// the node's `Δo` and `Δi`. This representation carries no population
/// positions, so it stays valid across population churn and supports
/// O(group) incremental updates.
///
/// Each group's [`GroupAggregate`] is memoised per *generation* (bumped by
/// every insert and remove): computed from the counterpart degrees on the
/// first request after a change, then answered in O(1). A full query thus
/// scans every group once — O(n) — and a patch only the groups it
/// touches.
///
/// Slots of nodes whose groups empty out are kept until the next
/// [`recycle`](Self::recycle), so within one batch of removes and inserts
/// a node never changes slot; recycled slots are reused by later nodes.
#[derive(Debug, Default)]
pub struct EndpointIndex {
    slots: SlotInterner,
    /// Per slot: destination slots of the communications leaving the node.
    out: Vec<Vec<u32>>,
    /// Per slot: source slots of the communications entering the node.
    inc: Vec<Vec<u32>>,
    out_memo: Vec<Memo>,
    in_memo: Vec<Memo>,
    generation: u64,
    /// Slots whose groups emptied since the last recycle.
    idle: Vec<u32>,
}

impl EndpointIndex {
    /// Indexes the network (inter-node) subset of `comms` by source and
    /// destination node; intra-node entries are skipped.
    pub fn build(comms: &[Communication]) -> Self {
        let mut index = EndpointIndex::default();
        for c in comms.iter().filter(|c| !c.is_intra_node()) {
            index.insert(c);
        }
        index
    }

    /// Clears the index in place and indexes `comms` anew, writing each
    /// entry's slots to `slots` (`None` for intra-node entries, which are
    /// skipped).
    fn reindex(&mut self, comms: &[Communication], slots: &mut Vec<Option<EndpointSlots>>) {
        self.clear();
        slots.clear();
        slots.extend(
            comms
                .iter()
                .map(|c| (!c.is_intra_node()).then(|| self.insert(c))),
        );
    }

    /// Forgets every communication while keeping allocations warm.
    fn clear(&mut self) {
        self.slots.clear();
        for group in self.out.iter_mut().chain(self.inc.iter_mut()) {
            group.clear();
        }
        self.idle.clear();
        self.generation += 1;
    }

    fn intern(&mut self, node: NodeId) -> u32 {
        let (slot, fresh) = self.slots.intern(node);
        let i = slot as usize;
        if fresh && i == self.out.len() {
            self.out.push(Vec::new());
            self.inc.push(Vec::new());
            self.out_memo.push(Memo::default());
            self.in_memo.push(Memo::default());
        }
        debug_assert!(!fresh || self.out[i].is_empty() && self.inc[i].is_empty());
        slot
    }

    /// Adds one network communication to the groups of its endpoints and
    /// returns their slots.
    pub fn insert(&mut self, c: &Communication) -> EndpointSlots {
        debug_assert!(!c.is_intra_node(), "index over network subset only");
        let src = self.intern(c.src);
        let dst = self.intern(c.dst);
        self.out[src as usize].push(dst);
        self.inc[dst as usize].push(src);
        self.generation += 1;
        EndpointSlots { src, dst }
    }

    /// Removes one occurrence of `c` from the groups of its endpoints.
    /// Returns `false` — signalling a corrupt index the caller must
    /// rebuild — if `c` is not present. Endpoints left without any
    /// communication keep their slot until the next
    /// [`recycle`](Self::recycle).
    pub fn remove(&mut self, c: &Communication) -> bool {
        fn take(group: &mut Vec<u32>, value: u32) -> bool {
            match group.iter().position(|&n| n == value) {
                Some(pos) => {
                    group.swap_remove(pos);
                    true
                }
                None => false,
            }
        }
        let (Some(src), Some(dst)) = (self.slots.get(c.src), self.slots.get(c.dst)) else {
            return false;
        };
        if !take(&mut self.out[src as usize], dst) || !take(&mut self.inc[dst as usize], src) {
            return false;
        }
        self.generation += 1;
        for slot in [src, dst] {
            if self.is_empty_slot(slot) {
                self.idle.push(slot);
            }
        }
        true
    }

    fn is_empty_slot(&self, slot: u32) -> bool {
        self.out[slot as usize].is_empty() && self.inc[slot as usize].is_empty()
    }

    /// Releases the slots of nodes that no longer carry any communication,
    /// making them available to later nodes.
    pub fn recycle(&mut self) {
        while let Some(slot) = self.idle.pop() {
            // A queued node may have been inserted again since, and a slot
            // drained twice in one batch is queued twice: release only
            // slots that are still empty and still interned.
            if self.is_empty_slot(slot) && self.slots.get(self.slots.node(slot)) == Some(slot) {
                self.slots.release(slot);
            }
        }
    }

    /// The slots of `c`'s endpoints, if `c` is a network communication
    /// whose endpoints are both indexed.
    pub fn slots_of(&self, c: &Communication) -> Option<EndpointSlots> {
        if c.is_intra_node() {
            return None;
        }
        Some(EndpointSlots {
            src: self.slots.get(c.src)?,
            dst: self.slots.get(c.dst)?,
        })
    }

    /// The slot of `node`, if it is indexed.
    pub fn slot(&self, node: NodeId) -> Option<u32> {
        self.slots.get(node)
    }

    /// The node interned in `slot`.
    pub fn node(&self, slot: u32) -> NodeId {
        self.slots.node(slot)
    }

    /// Number of slots handed out so far (live or recyclable); every slot
    /// is below this bound.
    fn slot_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Destination slots of the communications leaving `slot` (the `Cmo`
    /// candidate group).
    pub fn outgoing(&self, slot: u32) -> &[u32] {
        &self.out[slot as usize]
    }

    /// Source slots of the communications entering `slot` (the `Cmi`
    /// candidate group).
    pub fn incoming(&self, slot: u32) -> &[u32] {
        &self.inc[slot as usize]
    }

    /// `Δo` of `slot`'s node: how many indexed communications leave it.
    pub fn out_degree(&self, slot: u32) -> usize {
        self.out[slot as usize].len()
    }

    /// `Δi` of `slot`'s node: how many indexed communications enter it.
    pub fn in_degree(&self, slot: u32) -> usize {
        self.inc[slot as usize].len()
    }

    /// The `Cmo` aggregate of the communications leaving `slot`: the
    /// largest `Δi` among their destinations, and how many reach it.
    /// Computed once per index generation.
    pub fn out_aggregate(&mut self, slot: u32) -> GroupAggregate {
        let memo = &mut self.out_memo[slot as usize];
        if memo.generation != self.generation {
            let inc = &self.inc;
            *memo = Memo {
                generation: self.generation,
                aggregate: GroupAggregate::over(
                    self.out[slot as usize]
                        .iter()
                        .map(|&d| inc[d as usize].len()),
                ),
            };
        }
        memo.aggregate
    }

    /// The `Cmi` aggregate of the communications entering `slot`: the
    /// largest `Δo` among their sources, and how many reach it. Computed
    /// once per index generation.
    pub fn in_aggregate(&mut self, slot: u32) -> GroupAggregate {
        let memo = &mut self.in_memo[slot as usize];
        if memo.generation != self.generation {
            let out = &self.out;
            *memo = Memo {
                generation: self.generation,
                aggregate: GroupAggregate::over(
                    self.inc[slot as usize]
                        .iter()
                        .map(|&s| out[s as usize].len()),
                ),
            };
        }
        memo.aggregate
    }
}

impl Clone for EndpointIndex {
    fn clone(&self) -> Self {
        let mut index = EndpointIndex::default();
        index.clone_from(self);
        index
    }

    /// Field-wise, so a fork into a warm index reuses its group vectors.
    fn clone_from(&mut self, source: &Self) {
        let EndpointIndex {
            slots,
            out,
            inc,
            out_memo,
            in_memo,
            generation,
            idle,
        } = source;
        self.slots.clone_from(slots);
        self.out.clone_from(out);
        self.inc.clone_from(inc);
        self.out_memo.clone_from(out_memo);
        self.in_memo.clone_from(in_memo);
        self.generation = *generation;
        self.idle.clone_from(idle);
    }
}

/// The endpoint slots whose penalty groups a set of changed
/// communications can reach, under the closed-form (degree-driven)
/// models. Kept as generation-stamped per-slot role marks, so computing a
/// new set clears nothing.
#[derive(Debug, Default, Clone)]
pub struct AffectedEndpoints {
    marks: Vec<Mark>,
    generation: u32,
}

#[derive(Clone, Copy, Debug, Default)]
struct Mark {
    generation: u32,
    roles: u8,
}

/// Emission-side penalties (`po`) of the slot's outgoing group must be
/// recomputed.
const SOURCE: u8 = 1;
/// Reception-side penalties (`pi`) of the slot's incoming group must be
/// recomputed.
const DEST: u8 = 2;
/// The slot is the source of a changed communication.
const CHANGED_SOURCE: u8 = 4;
/// The slot is the destination of a changed communication.
const CHANGED_DEST: u8 = 8;

impl AffectedEndpoints {
    /// Replaces the set with the affected endpoints of `changed` (slots of
    /// network communications) within the population described by
    /// `index` (the *new* population's network subset).
    ///
    /// `po(c)` depends on the communications sharing `c`'s source *and* on
    /// the in-degrees of their destinations (through the `Cmo` maximum),
    /// so a changed flow `(s, d)` affects: every group leaving `s`, and
    /// every group leaving a node that currently sends into `d`.
    /// Symmetrically for `pi`.
    pub fn compute(&mut self, index: &EndpointIndex, changed: &[EndpointSlots]) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.marks.fill(Mark::default());
            self.generation = 1;
        }
        if self.marks.len() < index.slot_capacity() {
            self.marks.resize(index.slot_capacity(), Mark::default());
        }
        for e in changed {
            if self.mark(e.dst, CHANGED_DEST | DEST) {
                // Δi(d) changed: every group containing a comm into d sees
                // a different Cmo maximum — the index hands us those
                // groups' source slots directly.
                for &s in index.incoming(e.dst) {
                    self.mark(s, SOURCE);
                }
            }
            if self.mark(e.src, CHANGED_SOURCE | SOURCE) {
                for &d in index.outgoing(e.src) {
                    self.mark(d, DEST);
                }
            }
        }
    }

    /// Adds `roles` to `slot`'s marks; true when they were not all set.
    fn mark(&mut self, slot: u32, roles: u8) -> bool {
        let m = &mut self.marks[slot as usize];
        if m.generation != self.generation {
            *m = Mark {
                generation: self.generation,
                roles: 0,
            };
        }
        let added = roles & !m.roles != 0;
        m.roles |= roles;
        added
    }

    fn has(&self, slot: u32, role: u8) -> bool {
        self.marks
            .get(slot as usize)
            .is_some_and(|m| m.generation == self.generation && m.roles & role != 0)
    }

    /// True when a communication with endpoints `e` may have a different
    /// penalty under a model whose penalty is `max(po(src group), pi(dst
    /// group))`.
    pub fn touches(&self, e: EndpointSlots) -> bool {
        self.has(e.src, SOURCE) || self.has(e.dst, DEST)
    }

    /// True when `slot` is the source of a changed communication (useful
    /// for duplex-coupling terms keyed on the opposite role).
    pub fn is_changed_source(&self, slot: u32) -> bool {
        self.has(slot, CHANGED_SOURCE)
    }

    /// True when `slot` is the destination of a changed communication.
    pub fn is_changed_dest(&self, slot: u32) -> bool {
        self.has(slot, CHANGED_DEST)
    }
}

/// The per-cache scratch of the closed-form (endpoint-driven) models: the
/// previously settled population with its penalties and endpoint slots,
/// plus the live [`EndpointIndex`] over its network subset.
/// `patch_endpoints` keeps them in sync across settles, so a settle
/// never rebuilds the index from zero unless the hints were unusable. The
/// remaining fields are per-settle buffers, kept only for their
/// allocations.
#[derive(Debug, Default)]
pub struct EndpointScratch {
    settled: bool,
    prev: Vec<Communication>,
    prev_pens: Vec<Penalty>,
    prev_slots: Vec<Option<EndpointSlots>>,
    index: EndpointIndex,
    alignment: Alignment,
    changed: Vec<EndpointSlots>,
    affected: AffectedEndpoints,
    next_slots: Vec<Option<EndpointSlots>>,
}

impl EndpointScratch {
    /// Re-seeds the scratch from a full population/penalty pair (the
    /// caller-provided `previous` hint): one O(n) index build, in place.
    pub fn rebuild(&mut self, comms: &[Communication], pens: &[Penalty]) {
        debug_assert_eq!(comms.len(), pens.len());
        self.settled = true;
        self.prev.clear();
        self.prev.extend_from_slice(comms);
        self.prev_pens.clear();
        self.prev_pens.extend_from_slice(pens);
        self.index.reindex(comms, &mut self.prev_slots);
    }

    /// Answers `comms` with a full O(n) evaluation over the scratch's own
    /// index, re-seeding the scratch with the result.
    fn refill(
        &mut self,
        comms: &[Communication],
        penalty: impl Fn(EndpointSlots, &mut EndpointIndex) -> Penalty,
    ) -> Vec<Penalty> {
        self.settled = true;
        self.prev.clear();
        self.prev.extend_from_slice(comms);
        self.index.reindex(comms, &mut self.prev_slots);
        let pens = evaluate(&self.prev_slots, &mut self.index, penalty);
        self.prev_pens.clone_from(&pens);
        pens
    }
}

impl Clone for EndpointScratch {
    fn clone(&self) -> Self {
        let mut scratch = EndpointScratch::default();
        scratch.clone_from(self);
        scratch
    }

    /// Copies the settled state into `self`'s allocations; the per-settle
    /// buffers are left as they are (every settle overwrites them before
    /// reading), so a fork answers exactly like its source.
    fn clone_from(&mut self, source: &Self) {
        let EndpointScratch {
            settled,
            prev,
            prev_pens,
            prev_slots,
            index,
            alignment: _,
            changed: _,
            affected: _,
            next_slots: _,
        } = source;
        self.settled = *settled;
        self.prev.clone_from(prev);
        self.prev_pens.clone_from(prev_pens);
        self.prev_slots.clone_from(prev_slots);
        self.index.clone_from(index);
    }
}

/// Evaluates every entry of an indexed population (`slots` as written by
/// [`EndpointIndex::reindex`]): `penalty` for network entries, 1 for
/// intra-node ones.
fn evaluate(
    slots: &[Option<EndpointSlots>],
    index: &mut EndpointIndex,
    penalty: impl Fn(EndpointSlots, &mut EndpointIndex) -> Penalty,
) -> Vec<Penalty> {
    slots
        .iter()
        .map(|e| e.map_or(Penalty::ONE, |e| penalty(e, index)))
        .collect()
}

/// The full query of the closed-form models: indexes `comms` once and
/// evaluates each network communication with `penalty` — O(n), since the
/// group aggregates are computed once each — giving intra-node entries
/// penalty 1.
pub fn evaluate_full(
    comms: &[Communication],
    penalty: impl Fn(EndpointSlots, &mut EndpointIndex) -> Penalty,
) -> Vec<Penalty> {
    let mut index = EndpointIndex::default();
    let mut slots = Vec::with_capacity(comms.len());
    index.reindex(comms, &mut slots);
    evaluate(&slots, &mut index, penalty)
}

/// The shared patch driver of the closed-form models (GigE and its
/// InfiniBand extension): seed the scratch from `previous` if it is cold,
/// align the delta against the scratch's population, apply the change to
/// the endpoint index, then re-evaluate exactly the communications
/// `touches` selects — every other survivor keeps its previous penalty
/// verbatim. On success the scratch is committed to the new population.
///
/// Returns `(penalties, seeded, affected)` — `seeded` is true when the
/// scratch had to be (re)built from the `previous` hint, i.e. the query
/// still paid one O(n) index build; `affected` lists (strictly
/// increasing) exactly the positions re-evaluated this query — arrivals
/// and touched survivors — every other position's penalty being a
/// bitwise copy of its previous value. `None` means the hints and the
/// scratch were both unusable: the caller must recompute in full and
/// re-seed the scratch (the index may be left half-updated on this path).
///
/// `penalty` evaluates one network communication over the index; it must
/// be the same arithmetic the model's batch path uses, so patched and full
/// answers stay bit-for-bit identical.
fn patch_endpoints(
    comms: &[Communication],
    delta: &PopulationDelta,
    previous: Option<(&[Communication], &[Penalty])>,
    scratch: &mut EndpointScratch,
    touches: impl Fn(&AffectedEndpoints, EndpointSlots) -> bool,
    penalty: impl Fn(EndpointSlots, &mut EndpointIndex) -> Penalty,
) -> Option<(Vec<Penalty>, bool, Vec<usize>)> {
    let mut seeded = false;
    if !scratch.settled {
        let (prev_comms, prev_pens) = previous?;
        if prev_pens.len() != prev_comms.len() {
            return None;
        }
        scratch.rebuild(prev_comms, prev_pens);
        seeded = true;
    }
    let s = scratch;
    if !align_into(comms, delta, &s.prev, &mut s.alignment) {
        return None;
    }
    s.changed.clear();
    for &(p, c) in &s.alignment.departed {
        if let Some(e) = s.prev_slots[p] {
            if !s.index.remove(&c) {
                return None; // corrupt scratch: caller rebuilds
            }
            s.changed.push(e);
        }
    }
    s.next_slots.clear();
    for (c, prev) in comms.iter().zip(&s.alignment.prev_of) {
        let e = match *prev {
            Some(p) => s.prev_slots[p],
            None if c.is_intra_node() => None,
            None => {
                let e = s.index.insert(c);
                s.changed.push(e);
                Some(e)
            }
        };
        s.next_slots.push(e);
    }
    s.index.recycle();
    s.affected.compute(&s.index, &s.changed);
    let mut out = Vec::with_capacity(comms.len());
    let mut affected = Vec::new();
    for (i, (&e, &prev)) in s.next_slots.iter().zip(&s.alignment.prev_of).enumerate() {
        out.push(match (e, prev) {
            // Arrived intra-node comms count as affected (the caller has
            // no previous value for them); surviving ones stay ONE.
            (None, prev) => {
                if prev.is_none() {
                    affected.push(i);
                }
                Penalty::ONE
            }
            (Some(e), Some(p)) if !touches(&s.affected, e) => s.prev_pens[p],
            (Some(e), _) => {
                affected.push(i);
                penalty(e, &mut s.index)
            }
        });
    }
    s.prev.clear();
    s.prev.extend_from_slice(comms);
    s.prev_pens.clone_from(&out);
    std::mem::swap(&mut s.prev_slots, &mut s.next_slots);
    Some((out, seeded, affected))
}

/// The whole `penalties_with_scratch` implementation of the closed-form
/// models, shared verbatim by GigE and its InfiniBand extension: downcast
/// the opaque scratch (an unexpected type is treated as cold local state —
/// correctness never depends on the scratch), run `patch_endpoints`, and
/// answer with a full evaluation over the scratch's own index — re-seeding
/// the scratch with it — when the patch is impossible.
pub fn endpoint_scratch_query(
    comms: &[Communication],
    delta: &PopulationDelta,
    previous: Option<(&[Communication], &[Penalty])>,
    scratch: &mut dyn ModelScratch,
    touches: impl Fn(&AffectedEndpoints, EndpointSlots) -> bool,
    penalty: impl Fn(EndpointSlots, &mut EndpointIndex) -> Penalty,
) -> (Vec<Penalty>, QueryOutcome) {
    let mut local = EndpointScratch::default();
    let scratch = scratch
        .as_any_mut()
        .downcast_mut::<EndpointScratch>()
        .unwrap_or(&mut local);
    match patch_endpoints(comms, delta, previous, scratch, touches, &penalty) {
        Some((pens, seeded, affected)) => (
            pens,
            QueryOutcome {
                patched: true,
                scratch_rebuilt: seeded,
                budget_fallback: false,
                affected: AffectedSet::Positions(affected),
            },
        ),
        None => (scratch.refill(comms, penalty), QueryOutcome::rebuild()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: u32, d: u32) -> Communication {
        Communication::new(s, d, 100)
    }

    fn slot(idx: &EndpointIndex, n: u32) -> u32 {
        idx.slot(NodeId(n)).expect("node is indexed")
    }

    /// Counterpart nodes of a slot list, sorted.
    fn nodes(idx: &EndpointIndex, slots: &[u32]) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = slots.iter().map(|&s| idx.node(s)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn arrival_alignment_pairs_survivors_in_order() {
        let prev = [c(0, 1), c(2, 3)];
        let comms = [c(0, 1), c(4, 5), c(2, 3)];
        let al = align(&comms, &PopulationDelta::Arrived(vec![1]), &prev).unwrap();
        assert_eq!(al.prev_of, vec![Some(0), None, Some(1)]);
        assert_eq!(al.arrived, vec![(1, c(4, 5))]);
        assert!(al.departed.is_empty());
    }

    #[test]
    fn departure_alignment_recovers_departed_comms() {
        let prev = [c(0, 1), c(2, 3), c(4, 5)];
        let comms = [c(2, 3)];
        let al = align(&comms, &PopulationDelta::Departed(vec![0, 2]), &prev).unwrap();
        assert_eq!(al.prev_of, vec![Some(1)]);
        assert_eq!(al.departed, vec![(0, c(0, 1)), (2, c(4, 5))]);
        assert!(al.arrived.is_empty());
    }

    #[test]
    fn mixed_alignment_chains_departures_then_arrivals() {
        // prev: a b c; departed {a, c}; arrived {x at 0, y at 2}.
        let prev = [c(0, 1), c(2, 3), c(4, 5)];
        let comms = [c(6, 7), c(2, 3), c(8, 9)];
        let al = align(
            &comms,
            &PopulationDelta::Mixed {
                departed: vec![0, 2],
                arrived: vec![0, 2],
            },
            &prev,
        )
        .unwrap();
        assert_eq!(al.prev_of, vec![None, Some(1), None]);
        assert_eq!(al.arrived, vec![(0, c(6, 7)), (2, c(8, 9))]);
        assert_eq!(al.departed, vec![(0, c(0, 1)), (2, c(4, 5))]);
        assert_eq!(al.arrived.len() + al.departed.len(), 4);
    }

    #[test]
    fn mixed_alignment_handles_full_turnover() {
        // Every previous flow leaves, every new one arrives.
        let prev = [c(0, 1), c(2, 3)];
        let comms = [c(4, 5)];
        let al = align(
            &comms,
            &PopulationDelta::Mixed {
                departed: vec![0, 1],
                arrived: vec![0],
            },
            &prev,
        )
        .unwrap();
        assert_eq!(al.prev_of, vec![None]);
        assert_eq!(al.departed.len(), 2);
    }

    #[test]
    fn empty_delta_is_identity_alignment() {
        let prev = [c(0, 1), c(2, 3)];
        let al = align(&prev, &PopulationDelta::Arrived(vec![]), &prev).unwrap();
        assert_eq!(al.prev_of, vec![Some(0), Some(1)]);
        assert!(al.arrived.is_empty() && al.departed.is_empty());
        let al = align(&prev, &PopulationDelta::Departed(vec![]), &prev).unwrap();
        assert!(al.arrived.is_empty() && al.departed.is_empty());
    }

    #[test]
    fn align_into_reuses_a_dirty_alignment() {
        let prev = [c(0, 1), c(2, 3)];
        let comms = [c(0, 1), c(4, 5), c(2, 3)];
        let mut al = align(&prev, &PopulationDelta::Departed(vec![]), &prev).unwrap();
        al.departed.push((9, c(9, 9)));
        assert!(align_into(
            &comms,
            &PopulationDelta::Arrived(vec![1]),
            &prev,
            &mut al
        ));
        assert_eq!(
            Some(al),
            align(&comms, &PopulationDelta::Arrived(vec![1]), &prev)
        );
    }

    #[test]
    fn inconsistent_hints_are_rejected() {
        let prev = [c(0, 1), c(2, 3)];
        let comms = [c(0, 1), c(4, 5), c(2, 3)];
        // Rebuilt never aligns.
        assert!(align(&comms, &PopulationDelta::Rebuilt, &prev).is_none());
        // wrong arrival count for the length difference
        assert!(align(&comms, &PopulationDelta::Arrived(vec![0, 1]), &prev).is_none());
        // out-of-range and non-increasing positions
        assert!(align(&comms, &PopulationDelta::Arrived(vec![7]), &prev).is_none());
        assert!(align(
            &prev,
            &PopulationDelta::Departed(vec![1, 1, 1]),
            &[c(0, 1); 5]
        )
        .is_none());
        // survivor mismatch: claims position 0 arrived, pairing c(4,5)
        // against prev's c(0,1)
        assert!(align(&comms, &PopulationDelta::Arrived(vec![0]), &prev).is_none());
        // departure survivor mismatch
        assert!(align(&[c(9, 8)], &PopulationDelta::Departed(vec![0]), &prev).is_none());
        // mixed with inconsistent length accounting
        assert!(align(
            &comms,
            &PopulationDelta::Mixed {
                departed: vec![0],
                arrived: vec![1]
            },
            &prev
        )
        .is_none());
        // mixed pairing mismatch: claims prev[0] departed but comms[0]
        // still equals it while comms[2] pairs against nothing
        assert!(align(
            &comms,
            &PopulationDelta::Mixed {
                departed: vec![0],
                arrived: vec![1, 2]
            },
            &prev
        )
        .is_none());
    }

    #[test]
    fn endpoint_index_groups_by_counterpart() {
        let comms = [c(0, 1), c(0, 2), c(3, 1)];
        let idx = EndpointIndex::build(&comms);
        let (n0, n1, n3) = (slot(&idx, 0), slot(&idx, 1), slot(&idx, 3));
        assert_eq!(nodes(&idx, idx.outgoing(n0)), vec![NodeId(1), NodeId(2)]);
        assert_eq!(nodes(&idx, idx.incoming(n1)), vec![NodeId(0), NodeId(3)]);
        assert_eq!(idx.out_degree(n3), 1);
        assert_eq!(idx.in_degree(n3), 0);
        assert_eq!(idx.slot(NodeId(5)), None);
    }

    #[test]
    fn build_skips_intra_node_entries() {
        let idx = EndpointIndex::build(&[c(0, 1), c(2, 2), c(0, 2)]);
        let n2 = slot(&idx, 2);
        assert_eq!(idx.out_degree(n2), 0, "2→2 must not count as emission");
        assert_eq!(idx.in_degree(n2), 1);
    }

    #[test]
    fn endpoint_index_incremental_updates_match_rebuild() {
        let mut idx = EndpointIndex::build(&[c(0, 1), c(0, 2)]);
        idx.insert(&c(3, 1));
        assert!(idx.remove(&c(0, 2)));
        idx.recycle();
        // multiset now {0→1, 3→1}
        assert_eq!(idx.out_degree(slot(&idx, 0)), 1);
        assert_eq!(idx.in_degree(slot(&idx, 1)), 2);
        assert_eq!(idx.slot(NodeId(2)), None, "drained nodes are forgotten");
        // removing an absent comm reports corruption
        assert!(!idx.remove(&c(7, 8)));
        assert!(!idx.remove(&c(0, 2)));
    }

    #[test]
    fn duplicate_pairs_are_counted_as_multiset() {
        let mut idx = EndpointIndex::build(&[c(0, 1), c(0, 1)]);
        let n0 = slot(&idx, 0);
        assert_eq!(idx.out_degree(n0), 2);
        assert!(idx.remove(&c(0, 1)));
        assert_eq!(idx.out_degree(n0), 1);
        assert!(idx.remove(&c(0, 1)));
        assert_eq!(idx.out_degree(n0), 0);
        assert!(!idx.remove(&c(0, 1)));
    }

    #[test]
    fn drained_slots_stay_put_until_recycled_then_are_reused() {
        let mut idx = EndpointIndex::build(&[c(0, 1), c(2, 3)]);
        let n0 = slot(&idx, 0);
        assert!(idx.remove(&c(0, 1)));
        // Within the batch the drained node keeps its slot, so a
        // re-arrival lands on the same one.
        assert_eq!(idx.insert(&c(0, 3)).src, n0);
        idx.recycle();
        assert_eq!(idx.slot(NodeId(0)), Some(n0));
        assert_eq!(idx.slot(NodeId(1)), None);
        let capacity = idx.slot_capacity();
        idx.insert(&c(9, 3));
        assert_eq!(idx.slot_capacity(), capacity, "node 1's slot is reused");
    }

    #[test]
    fn aggregates_follow_every_change() {
        // 0 sends to 1 and 2; 1 also receives from 3 → Cmo(0) = {0→1}.
        let mut idx = EndpointIndex::build(&[c(0, 1), c(0, 2), c(3, 1)]);
        let (n0, n1) = (slot(&idx, 0), slot(&idx, 1));
        assert_eq!(idx.out_aggregate(n0), GroupAggregate { max: 2, count: 1 });
        assert_eq!(idx.in_aggregate(n1), GroupAggregate { max: 2, count: 1 });
        // a second sender into 2 ties the maximum: |Cmo(0)| = 2
        idx.insert(&c(4, 2));
        assert_eq!(idx.out_aggregate(n0), GroupAggregate { max: 2, count: 2 });
        assert!(idx.remove(&c(3, 1)));
        assert_eq!(idx.out_aggregate(n0), GroupAggregate { max: 2, count: 1 });
        assert_eq!(idx.in_aggregate(n1), GroupAggregate { max: 2, count: 1 });
    }

    /// Random insert/remove churn over a few node ids (some near
    /// `u32::MAX`, duplicates and drains included): degrees, counterpart
    /// multisets and aggregates must match a brute-force count after
    /// every batch, and recycled slots must keep the footprint bounded.
    #[test]
    fn index_churn_matches_brute_force() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let ids = [0u32, 1, 2, 3, 4, u32::MAX - 2, u32::MAX - 1, u32::MAX];
        let mut idx = EndpointIndex::default();
        let mut live: Vec<Communication> = Vec::new();
        for step in 0..800 {
            for _ in 0..=rng(3) {
                if live.is_empty() || rng(100) < 52 {
                    let s = ids[rng(ids.len() as u64) as usize];
                    let mut d = ids[rng(ids.len() as u64) as usize];
                    if d == s {
                        d = ids[(ids.iter().position(|&x| x == s).unwrap() + 1) % ids.len()];
                    }
                    let e = idx.insert(&c(s, d));
                    assert_eq!(idx.node(e.src), NodeId(s));
                    live.push(c(s, d));
                } else {
                    let gone = live.swap_remove(rng(live.len() as u64) as usize);
                    assert!(idx.remove(&gone), "step {step}");
                }
            }
            idx.recycle();
            assert!(idx.slot_capacity() <= ids.len(), "step {step}");
            for &n in &ids {
                let out: Vec<NodeId> = {
                    let mut v: Vec<NodeId> = live
                        .iter()
                        .filter(|x| x.src.0 == n)
                        .map(|x| x.dst)
                        .collect();
                    v.sort_unstable();
                    v
                };
                let inc: Vec<NodeId> = {
                    let mut v: Vec<NodeId> = live
                        .iter()
                        .filter(|x| x.dst.0 == n)
                        .map(|x| x.src)
                        .collect();
                    v.sort_unstable();
                    v
                };
                let Some(sl) = idx.slot(NodeId(n)) else {
                    assert!(out.is_empty() && inc.is_empty(), "step {step}: {n} lost");
                    continue;
                };
                assert_eq!(nodes(&idx, idx.outgoing(sl)), out, "step {step}");
                assert_eq!(nodes(&idx, idx.incoming(sl)), inc, "step {step}");
                let want = GroupAggregate::over(
                    out.iter()
                        .map(|d| live.iter().filter(|x| x.dst == *d).count()),
                );
                assert_eq!(idx.out_aggregate(sl), want, "step {step}");
                let want = GroupAggregate::over(
                    inc.iter()
                        .map(|s| live.iter().filter(|x| x.src == *s).count()),
                );
                assert_eq!(idx.in_aggregate(sl), want, "step {step}");
            }
        }
    }

    fn affected_of(idx: &EndpointIndex, changed: &[Communication]) -> AffectedEndpoints {
        let slots: Vec<EndpointSlots> = changed
            .iter()
            .map(|x| idx.slots_of(x).expect("changed comm is indexed"))
            .collect();
        let mut aff = AffectedEndpoints::default();
        aff.compute(idx, &slots);
        aff
    }

    #[test]
    fn affected_endpoints_cover_the_two_hop_neighbourhood() {
        // population: a(0→1), b(2→1), c(2→3), d(4→5) plus the change
        // e(6→1). Δi(1) changes → po of every group sending into 1
        // (sources 0, 2 and 6) is affected; Δo(6) changes → pi of every
        // destination node 6 sends to (only 1). Node 4's flows are
        // untouched.
        let comms = [c(0, 1), c(2, 1), c(2, 3), c(4, 5), c(6, 1)];
        let idx = EndpointIndex::build(&comms);
        let aff = affected_of(&idx, &[c(6, 1)]);
        let at = |x: &Communication| idx.slots_of(x).unwrap();
        assert!(!aff.touches(at(&c(4, 5))));
        assert!(aff.touches(at(&c(2, 3)))); // src 2's group changed via b(2→1)
        assert!(aff.touches(at(&c(0, 1))));
        assert!(aff.is_changed_source(slot(&idx, 6)));
        assert!(aff.is_changed_dest(slot(&idx, 1)));
        assert!(!aff.is_changed_source(slot(&idx, 2)));
        // a new computation forgets the old marks
        let mut aff = aff;
        aff.compute(&idx, &[at(&c(4, 5))]);
        assert!(!aff.touches(at(&c(0, 1))));
        assert!(aff.touches(at(&c(4, 5))));
    }

    #[test]
    fn intra_node_changes_affect_nothing() {
        // An intra-node arrival is reported (the caller has no previous
        // value for it) but reaches no network flow; its departure
        // reaches nothing at all.
        let prev = vec![c(0, 1), c(2, 3)];
        let pens = vec![Penalty::new(2.0), Penalty::new(3.0)];
        let mut scratch = EndpointScratch::default();
        scratch.rebuild(&prev, &pens);
        let mut run = |comms: &[Communication], delta: PopulationDelta| {
            patch_endpoints(
                comms,
                &delta,
                None,
                &mut scratch,
                |aff, e| aff.touches(e),
                |_, _| Penalty::new(9.0),
            )
            .expect("consistent delta")
        };
        let grown = [c(0, 1), c(1, 1), c(2, 3)];
        let (got, _, affected) = run(&grown, PopulationDelta::Arrived(vec![1]));
        assert_eq!(affected, vec![1]);
        assert_eq!(got, vec![pens[0], Penalty::ONE, pens[1]]);
        let (got, _, affected) = run(&prev, PopulationDelta::Departed(vec![1]));
        assert!(affected.is_empty());
        assert_eq!(got, pens);
    }

    #[test]
    fn scratch_seeds_then_patches_without_hints() {
        let prev = vec![c(0, 1), c(2, 3)];
        let prev_pens = vec![Penalty::new(2.0), Penalty::new(3.0)];
        let mut scratch = EndpointScratch::default();
        assert!(!scratch.settled);
        // cold + no hint: unusable
        assert!(patch_endpoints(
            &prev,
            &PopulationDelta::Arrived(vec![]),
            None,
            &mut scratch,
            |aff, e| aff.touches(e),
            |_, _| Penalty::ONE,
        )
        .is_none());
        // cold + hint: seeds, then reuses the untouched survivor verbatim
        let comms = vec![c(0, 1), c(2, 3), c(6, 7)];
        let (pens, seeded, affected) = patch_endpoints(
            &comms,
            &PopulationDelta::Arrived(vec![2]),
            Some((&prev, &prev_pens)),
            &mut scratch,
            |aff, e| aff.touches(e),
            |_, _| Penalty::new(9.0),
        )
        .unwrap();
        assert!(seeded);
        assert_eq!(pens[0], Penalty::new(2.0));
        assert_eq!(pens[1], Penalty::new(3.0));
        assert_eq!(pens[2], Penalty::new(9.0));
        // only the arrival was re-evaluated: the island comms are reported
        // untouched, so downstream finish-time caches can skip them
        assert_eq!(affected, vec![2]);
        // warm: the next settle patches with no hint at all
        let (pens, seeded, affected) = patch_endpoints(
            &comms[1..],
            &PopulationDelta::Departed(vec![0]),
            None,
            &mut scratch,
            |aff, e| aff.touches(e),
            |_, _| Penalty::new(4.0),
        )
        .unwrap();
        assert!(!seeded);
        assert_eq!(pens[0], Penalty::new(3.0)); // untouched island reused
        assert_eq!(pens[1], Penalty::new(9.0));
        assert_eq!(affected, Vec::<usize>::new());
    }
}
