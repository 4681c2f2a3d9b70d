//! Shared machinery for O(changed + reach) keyed penalty updates.
//!
//! [`PenaltyModel::apply_delta`](crate::PenaltyModel::apply_delta)
//! specializations all face the same sub-problems, solved here once:
//!
//! 1. **Endpoint indexing** — models reason in per-node degree groups
//!    (all communications leaving / entering a node). [`EndpointIndex`]
//!    interns each node into a dense slot once per flow insert/remove and
//!    stores, per slot, the group's members as `(counterpart slot, flow
//!    id)` pairs: the destination slots of the communications leaving it,
//!    the source slots of those entering it. The group lengths are the
//!    degrees `Δo`, `Δi`. That representation is position-free, so the
//!    index survives population churn and a scratch keeps it alive
//!    *across* settles. Each group's `Cmo`/`Cmi` aggregate
//!    ([`GroupAggregate`]) is computed once per index generation, so a
//!    penalty evaluation is O(1), a full query O(n), and a patch
//!    O(Σ touched groups).
//! 2. **Reach** — given the changed communications,
//!    [`AffectedEndpoints::compute`] marks the source and destination
//!    slots whose groups can possibly produce a different penalty. For the
//!    closed-form models this is the two-hop neighbourhood of the changed
//!    endpoints: a flow arriving at (or leaving) `(s, d)` changes `Δo(s)`
//!    and `Δi(d)` directly, and thereby the `Cmo`/`Cmi` asymmetry sets of
//!    every group containing a communication into `d` or out of `s`.
//!    [`AffectedEndpoints::reached`] then walks only the marked slots'
//!    groups, so finding the flows to re-evaluate costs their number, not
//!    the population's.
//! 3. **Keyed scratch** — [`EndpointScratch`] packages the keyed
//!    population (each flow id's endpoint slots) and the live index into
//!    the opaque per-cache state of the closed-form models (GigE and its
//!    InfiniBand extension), and [`apply_endpoints`] is the shared settle
//!    over it: apply the departures and arrivals to the index, mark the
//!    reach, and answer exactly the reached flows — every other member
//!    keeps its previous penalty. A fresh settle forgets the population at
//!    the cost of its live members and answers every flow. Buffers are
//!    reused, so a warm settle allocates nothing.
//!
//! All helpers operate on the *network* (inter-node) subset of a
//! population; intra-node communications have penalty 1 by contract and
//! never contribute to degrees.

use crate::intern::{KeyedMembers, SlotInterner};
use crate::model::{downcast_scratch, FlowId, PopulationDelta};
use crate::penalty::Penalty;
use crate::scratch::{ModelScratch, QueryOutcome};
use netbw_graph::{Communication, NodeId};

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
/// is interned into a dense slot, and each slot stores its groups'
/// members — `(destination slot, flow)` for the communications leaving
/// it and `(source slot, flow)` for those entering it, whose counts are
/// the node's `Δo` and `Δi`. This representation carries no population
/// positions, so it stays valid across population churn, supports
/// O(group) incremental updates, and lets a patch walk a group's flows
/// directly.
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
    /// Per slot: `(destination slot, flow)` of the communications leaving
    /// the node.
    out: Vec<Vec<(u32, FlowId)>>,
    /// Per slot: `(source slot, flow)` of the communications entering the
    /// node.
    inc: Vec<Vec<(u32, FlowId)>>,
    out_memo: Vec<Memo>,
    in_memo: Vec<Memo>,
    generation: u64,
    /// Slots whose groups emptied since the last recycle.
    idle: Vec<u32>,
}

impl EndpointIndex {
    /// Indexes the network (inter-node) subset of `comms` by source and
    /// destination node, each flow under its position as id; intra-node
    /// entries are skipped.
    pub fn build(comms: &[Communication]) -> Self {
        let mut index = EndpointIndex::default();
        for (c, id) in comms.iter().zip(0..) {
            if !c.is_intra_node() {
                index.insert(c, id);
            }
        }
        index
    }

    /// Forgets every communication while keeping allocations warm, at the
    /// cost of the live flows: `live` names the endpoints of every indexed
    /// flow, and only their groups are cleared (every non-empty group holds
    /// at least one of them). Returns how many groups it visited.
    fn clear(&mut self, live: impl IntoIterator<Item = EndpointSlots>) -> usize {
        let mut visited = 0;
        for e in live {
            self.out[e.src as usize].clear();
            self.inc[e.dst as usize].clear();
            visited += 2;
        }
        self.slots.clear();
        self.idle.clear();
        self.generation += 1;
        visited
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

    /// Adds network communication `c`, flow `flow`, to the groups of its
    /// endpoints and returns their slots.
    pub fn insert(&mut self, c: &Communication, flow: FlowId) -> EndpointSlots {
        debug_assert!(!c.is_intra_node(), "index over network subset only");
        let src = self.intern(c.src);
        let dst = self.intern(c.dst);
        self.out[src as usize].push((dst, flow));
        self.inc[dst as usize].push((src, flow));
        self.generation += 1;
        EndpointSlots { src, dst }
    }

    /// Removes flow `flow`, indexed at the endpoints `e`, from their
    /// groups. Returns `false` if it is not there. Endpoints left without
    /// any communication keep their slot until the next
    /// [`recycle`](Self::recycle).
    pub fn remove(&mut self, e: EndpointSlots, flow: FlowId) -> bool {
        fn take(group: &mut Vec<(u32, FlowId)>, flow: FlowId) -> bool {
            match group.iter().position(|&(_, f)| f == flow) {
                Some(pos) => {
                    group.swap_remove(pos);
                    true
                }
                None => false,
            }
        }
        let in_range = |slot: u32| (slot as usize) < self.out.len();
        if !in_range(e.src)
            || !in_range(e.dst)
            || !take(&mut self.out[e.src as usize], flow)
            || !take(&mut self.inc[e.dst as usize], flow)
        {
            return false;
        }
        self.generation += 1;
        for slot in [e.src, e.dst] {
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

    /// `(destination slot, flow)` of the communications leaving `slot`
    /// (the `Cmo` candidate group).
    pub fn outgoing(&self, slot: u32) -> &[(u32, FlowId)] {
        &self.out[slot as usize]
    }

    /// `(source slot, flow)` of the communications entering `slot` (the
    /// `Cmi` candidate group).
    pub fn incoming(&self, slot: u32) -> &[(u32, FlowId)] {
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
                        .map(|&(d, _)| inc[d as usize].len()),
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
                        .map(|&(s, _)| out[s as usize].len()),
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
/// models. Kept as generation-stamped per-slot role marks plus the list of
/// slots marked this generation, so computing a new set clears nothing and
/// walking it costs the marked slots only.
#[derive(Debug, Default, Clone)]
pub struct AffectedEndpoints {
    marks: Vec<Mark>,
    /// The slots marked this generation, in marking order.
    marked: Vec<u32>,
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

/// Which degree groups of the marked slots a model's penalty reads: a
/// flow is *reached* — its penalty may have changed — when its source
/// slot holds one of the `out` roles or its destination slot one of the
/// `inc` roles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reach {
    out: u8,
    inc: u8,
}

impl Reach {
    /// The closed-form `max(po, pi)` reach (GigE): the flow's source group
    /// `po` or its destination group `pi` may have moved.
    pub const CLOSED_FORM: Reach = Reach {
        out: SOURCE,
        inc: DEST,
    };

    /// [`Self::CLOSED_FORM`] plus the duplex-coupling terms (InfiniBand):
    /// `tx_dx` reads the in-degree of the flow's *source* and `rx_dx` the
    /// out-degree of its *destination*, so a changed flow also reaches
    /// every flow whose source it enters or whose destination it leaves.
    pub const DUPLEX: Reach = Reach {
        out: SOURCE | CHANGED_DEST,
        inc: DEST | CHANGED_SOURCE,
    };
}

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
        self.marked.clear();
        for e in changed {
            if self.mark(e.dst, CHANGED_DEST | DEST) {
                // Δi(d) changed: every group containing a comm into d sees
                // a different Cmo maximum — the index hands us those
                // groups' source slots directly.
                for &(s, _) in index.incoming(e.dst) {
                    self.mark(s, SOURCE);
                }
            }
            if self.mark(e.src, CHANGED_SOURCE | SOURCE) {
                for &(d, _) in index.outgoing(e.src) {
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
            self.marked.push(slot);
        }
        let added = roles & !m.roles != 0;
        m.roles |= roles;
        added
    }

    fn roles(&self, slot: u32) -> u8 {
        self.marks
            .get(slot as usize)
            .filter(|m| m.generation == self.generation)
            .map_or(0, |m| m.roles)
    }

    /// True when a communication with endpoints `e` is reached under
    /// `reach`: its penalty may differ from its previous value.
    pub fn reaches(&self, reach: Reach, e: EndpointSlots) -> bool {
        self.roles(e.src) & reach.out != 0 || self.roles(e.dst) & reach.inc != 0
    }

    /// True when `slot` is the source of a changed communication.
    pub fn is_changed_source(&self, slot: u32) -> bool {
        self.roles(slot) & CHANGED_SOURCE != 0
    }

    /// True when `slot` is the destination of a changed communication.
    pub fn is_changed_dest(&self, slot: u32) -> bool {
        self.roles(slot) & CHANGED_DEST != 0
    }

    /// Appends every flow of `index` that [`Self::reaches`] under `reach`
    /// to `out`, each once, with its endpoints — by walking only the
    /// marked slots' groups: the outgoing groups of slots holding an `out`
    /// role, then the incoming groups of slots holding an `inc` role,
    /// minus the flows the first walk already took.
    pub fn reached(
        &self,
        index: &EndpointIndex,
        reach: Reach,
        out: &mut Vec<(FlowId, EndpointSlots)>,
    ) {
        for &src in &self.marked {
            if self.roles(src) & reach.out != 0 {
                out.extend(
                    index
                        .outgoing(src)
                        .iter()
                        .map(|&(dst, flow)| (flow, EndpointSlots { src, dst })),
                );
            }
        }
        for &dst in &self.marked {
            if self.roles(dst) & reach.inc != 0 {
                out.extend(
                    index
                        .incoming(dst)
                        .iter()
                        .filter(|&&(src, _)| self.roles(src) & reach.out == 0)
                        .map(|&(src, flow)| (flow, EndpointSlots { src, dst })),
                );
            }
        }
    }
}

/// The per-cache scratch of the closed-form (endpoint-driven) models: the
/// keyed population — each member's endpoint slots, `None` for intra-node
/// flows — plus the live [`EndpointIndex`] over its network subset.
/// [`apply_endpoints`] keeps the two in sync across settles, so a settle
/// never rebuilds the index from zero unless it is fresh. The remaining
/// fields are per-settle buffers, kept only for their allocations.
#[derive(Debug, Default)]
pub struct EndpointScratch {
    members: KeyedMembers<Option<EndpointSlots>>,
    index: EndpointIndex,
    changed: Vec<EndpointSlots>,
    affected: AffectedEndpoints,
    reached: Vec<(FlowId, EndpointSlots)>,
}

impl EndpointScratch {
    /// Forgets the population at the cost of its live members, keeping
    /// every allocation; returns how many index groups it visited.
    fn reset(&mut self) -> usize {
        let visited = self
            .index
            .clear(self.members.items().iter().flatten().copied());
        self.members.clear();
        visited
    }
}

impl Clone for EndpointScratch {
    fn clone(&self) -> Self {
        let mut scratch = EndpointScratch::default();
        scratch.clone_from(self);
        scratch
    }

    /// Copies the population and index into `self`'s allocations; the
    /// per-settle buffers are left as they are (every settle overwrites
    /// them before reading), so a fork answers exactly like its source.
    fn clone_from(&mut self, source: &Self) {
        let EndpointScratch {
            members,
            index,
            changed: _,
            affected: _,
            reached: _,
        } = source;
        self.members.clone_from(members);
        self.index.clone_from(index);
    }
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
    let slots: Vec<Option<EndpointSlots>> = comms
        .iter()
        .zip(0..)
        .map(|(c, id)| (!c.is_intra_node()).then(|| index.insert(c, id)))
        .collect();
    slots
        .iter()
        .map(|e| e.map_or(Penalty::ONE, |e| penalty(e, &mut index)))
        .collect()
}

/// The whole [`apply_delta`](crate::PenaltyModel::apply_delta) of the
/// closed-form models, shared by GigE and its InfiniBand extension: apply
/// `delta` to the [`EndpointScratch`]'s population and index, then answer
/// exactly the flows `reach` selects — every arrival among them — while
/// every other member keeps its previous penalty. A fresh delta first
/// forgets the population and then answers every member. Intra-node
/// arrivals are answered penalty 1 and reach nothing.
///
/// `penalty` evaluates one network communication over the index; it must
/// be the same arithmetic the model's [`evaluate_full`] uses, so keyed and
/// full answers stay bit-for-bit identical.
///
/// # Panics
/// On an inconsistent delta or a scratch of another type (see
/// [`crate::PenaltyModel::apply_delta`]).
pub fn apply_endpoints(
    delta: &PopulationDelta<'_>,
    scratch: &mut dyn ModelScratch,
    answers: &mut Vec<(FlowId, Penalty)>,
    reach: Reach,
    penalty: impl Fn(EndpointSlots, &mut EndpointIndex) -> Penalty,
) -> QueryOutcome {
    let s = downcast_scratch::<EndpointScratch>(scratch);
    if delta.fresh {
        s.reset();
    }
    s.changed.clear();
    for &id in delta.departed {
        if let Some(e) = s.members.remove(id) {
            let indexed = s.index.remove(e, id);
            debug_assert!(indexed, "a network member is indexed");
            s.changed.push(e);
        }
    }
    for &(id, c) in delta.arrived {
        s.members.insert(id, None);
        if c.is_intra_node() {
            answers.push((id, Penalty::ONE));
        } else {
            let e = s.index.insert(&c, id);
            *s.members.get_mut(id).expect("just inserted") = Some(e);
            s.changed.push(e);
        }
    }
    s.index.recycle();
    if delta.fresh {
        for (&id, e) in s.members.ids().iter().zip(s.members.items()) {
            if let Some(e) = *e {
                answers.push((id, penalty(e, &mut s.index)));
            }
        }
        return QueryOutcome::rebuild();
    }
    s.affected.compute(&s.index, &s.changed);
    s.reached.clear();
    s.affected.reached(&s.index, reach, &mut s.reached);
    for &(id, e) in &s.reached {
        answers.push((id, penalty(e, &mut s.index)));
    }
    QueryOutcome::patch()
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

    /// Counterpart nodes of a group, sorted.
    fn nodes(idx: &EndpointIndex, group: &[(u32, FlowId)]) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = group.iter().map(|&(s, _)| idx.node(s)).collect();
        v.sort_unstable();
        v
    }

    /// Removes flow `flow` over `c`'s endpoints, if both are indexed.
    fn remove(idx: &mut EndpointIndex, x: Communication, flow: FlowId) -> bool {
        idx.slots_of(&x).is_some_and(|e| idx.remove(e, flow))
    }

    /// One keyed settle over an [`EndpointScratch`] under the closed-form
    /// reach, with every re-evaluated network flow answered 9: returns
    /// the answers, sorted by id.
    fn settle(
        scratch: &mut EndpointScratch,
        departed: &[FlowId],
        arrived: &[(FlowId, Communication)],
        fresh: bool,
    ) -> (Vec<(FlowId, Penalty)>, QueryOutcome) {
        let delta = PopulationDelta {
            departed,
            arrived,
            fresh,
        };
        let mut answers = Vec::new();
        let outcome = apply_endpoints(&delta, scratch, &mut answers, Reach::CLOSED_FORM, |_, _| {
            Penalty::new(9.0)
        });
        answers.sort_unstable_by_key(|a| a.0);
        (answers, outcome)
    }

    #[test]
    fn inconsistent_hints_are_rejected() {
        // A departure of an id that is not a member, or an arrival of one
        // that is, is an engine bug: the scratch panics instead of
        // answering over a population it no longer knows.
        let unknown_departure = std::panic::catch_unwind(|| {
            let mut scratch = EndpointScratch::default();
            settle(&mut scratch, &[], &[(0, c(0, 1))], true);
            settle(&mut scratch, &[3], &[], false);
        });
        assert!(unknown_departure.is_err());
        let duplicate_arrival = std::panic::catch_unwind(|| {
            let mut scratch = EndpointScratch::default();
            settle(&mut scratch, &[], &[(0, c(0, 1))], true);
            settle(&mut scratch, &[], &[(0, c(2, 3))], false);
        });
        assert!(duplicate_arrival.is_err());
        // ...while an id reused right after its departure is fine.
        let mut scratch = EndpointScratch::default();
        settle(&mut scratch, &[], &[(0, c(0, 1))], true);
        let (answers, _) = settle(&mut scratch, &[0], &[(0, c(2, 3))], false);
        assert_eq!(answers, vec![(0, Penalty::new(9.0))]);
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
        let flows: Vec<FlowId> = idx.incoming(n1).iter().map(|g| g.1).collect();
        assert_eq!(flows, vec![0, 2], "groups carry their flows' ids");
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
        idx.insert(&c(3, 1), 2);
        assert!(remove(&mut idx, c(0, 2), 1));
        idx.recycle();
        // multiset now {0→1, 3→1}
        assert_eq!(idx.out_degree(slot(&idx, 0)), 1);
        assert_eq!(idx.in_degree(slot(&idx, 1)), 2);
        assert_eq!(idx.slot(NodeId(2)), None, "drained nodes are forgotten");
        // removing an absent flow reports it
        assert!(!remove(&mut idx, c(7, 8), 5));
        assert!(!remove(&mut idx, c(0, 1), 1));
    }

    #[test]
    fn duplicate_pairs_are_counted_as_multiset() {
        let mut idx = EndpointIndex::build(&[c(0, 1), c(0, 1)]);
        let n0 = slot(&idx, 0);
        assert_eq!(idx.out_degree(n0), 2);
        assert!(remove(&mut idx, c(0, 1), 1));
        assert_eq!(idx.out_degree(n0), 1);
        assert!(remove(&mut idx, c(0, 1), 0));
        assert_eq!(idx.out_degree(n0), 0);
        assert!(!remove(&mut idx, c(0, 1), 0));
    }

    #[test]
    fn drained_slots_stay_put_until_recycled_then_are_reused() {
        let mut idx = EndpointIndex::build(&[c(0, 1), c(2, 3)]);
        let n0 = slot(&idx, 0);
        assert!(remove(&mut idx, c(0, 1), 0));
        // Within the batch the drained node keeps its slot, so a
        // re-arrival lands on the same one.
        assert_eq!(idx.insert(&c(0, 3), 2).src, n0);
        idx.recycle();
        assert_eq!(idx.slot(NodeId(0)), Some(n0));
        assert_eq!(idx.slot(NodeId(1)), None);
        let capacity = idx.slot_capacity();
        idx.insert(&c(9, 3), 3);
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
        idx.insert(&c(4, 2), 3);
        assert_eq!(idx.out_aggregate(n0), GroupAggregate { max: 2, count: 2 });
        assert!(remove(&mut idx, c(3, 1), 2));
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
        let mut live: Vec<(FlowId, Communication)> = Vec::new();
        let mut next_flow = 0;
        for step in 0..800 {
            for _ in 0..=rng(3) {
                if live.is_empty() || rng(100) < 52 {
                    let s = ids[rng(ids.len() as u64) as usize];
                    let mut d = ids[rng(ids.len() as u64) as usize];
                    if d == s {
                        d = ids[(ids.iter().position(|&x| x == s).unwrap() + 1) % ids.len()];
                    }
                    let e = idx.insert(&c(s, d), next_flow);
                    assert_eq!(idx.node(e.src), NodeId(s));
                    live.push((next_flow, c(s, d)));
                    next_flow += 1;
                } else {
                    let (flow, gone) = live.swap_remove(rng(live.len() as u64) as usize);
                    assert!(remove(&mut idx, gone, flow), "step {step}");
                }
            }
            idx.recycle();
            assert!(idx.slot_capacity() <= ids.len(), "step {step}");
            let live: Vec<Communication> = live.iter().map(|x| x.1).collect();
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

    /// The flows [`AffectedEndpoints::reached`] lists, sorted — each must
    /// be listed once.
    fn reached_ids(aff: &AffectedEndpoints, idx: &EndpointIndex, reach: Reach) -> Vec<FlowId> {
        let mut out = Vec::new();
        aff.reached(idx, reach, &mut out);
        let mut ids: Vec<FlowId> = out.iter().map(|r| r.0).collect();
        ids.sort_unstable();
        let len = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), len, "a reached flow is listed once");
        ids
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
        let closed = Reach::CLOSED_FORM;
        assert!(!aff.reaches(closed, at(&c(4, 5))));
        assert!(aff.reaches(closed, at(&c(2, 3)))); // src 2's group changed via b(2→1)
        assert!(aff.reaches(closed, at(&c(0, 1))));
        assert!(aff.is_changed_source(slot(&idx, 6)));
        assert!(aff.is_changed_dest(slot(&idx, 1)));
        assert!(!aff.is_changed_source(slot(&idx, 2)));
        // the walk lists exactly the reached flows, without a scan
        assert_eq!(reached_ids(&aff, &idx, closed), vec![0, 1, 2, 4]);
        // a new computation forgets the old marks
        let mut aff = aff;
        aff.compute(&idx, &[at(&c(4, 5))]);
        assert!(!aff.reaches(closed, at(&c(0, 1))));
        assert!(aff.reaches(closed, at(&c(4, 5))));
        assert_eq!(reached_ids(&aff, &idx, closed), vec![3]);
    }

    #[test]
    fn duplex_reach_adds_the_opposing_groups() {
        // a(0→1) and b(2→0); the change d(1→3) leaves node 1, a's
        // destination, so a's rx term moves under the duplex reach only;
        // b(2→0) enters a's source but nothing changed there.
        let comms = [c(0, 1), c(2, 0), c(1, 3)];
        let idx = EndpointIndex::build(&comms);
        let aff = affected_of(&idx, &[c(1, 3)]);
        assert_eq!(reached_ids(&aff, &idx, Reach::CLOSED_FORM), vec![2]);
        assert_eq!(reached_ids(&aff, &idx, Reach::DUPLEX), vec![0, 2]);
    }

    #[test]
    fn intra_node_changes_affect_nothing() {
        // An intra-node arrival is answered 1 (the caller has no previous
        // value for it) but reaches no network flow; its departure
        // reaches nothing at all.
        let mut scratch = EndpointScratch::default();
        settle(&mut scratch, &[], &[(0, c(0, 1)), (1, c(2, 3))], true);
        let (answers, _) = settle(&mut scratch, &[], &[(5, c(1, 1))], false);
        assert_eq!(answers, vec![(5, Penalty::ONE)]);
        let (answers, outcome) = settle(&mut scratch, &[5], &[], false);
        assert!(answers.is_empty());
        assert!(outcome.patched);
    }

    #[test]
    fn scratch_seeds_then_patches_without_hints() {
        let mut scratch = EndpointScratch::default();
        // a fresh settle seeds the scratch and answers every member
        let (answers, outcome) = settle(&mut scratch, &[], &[(0, c(0, 1)), (1, c(2, 3))], true);
        assert_eq!(answers.len(), 2);
        assert_eq!(outcome, QueryOutcome::rebuild());
        // warm: only the arrival is re-evaluated; the island comms are
        // left unanswered, so downstream finish-time caches skip them
        let (answers, outcome) = settle(&mut scratch, &[], &[(2, c(6, 7))], false);
        assert_eq!(answers, vec![(2, Penalty::new(9.0))]);
        assert_eq!(outcome, QueryOutcome::patch());
        // a departure on its own island answers nobody
        let (answers, _) = settle(&mut scratch, &[0], &[], false);
        assert!(answers.is_empty());
    }

    #[test]
    fn a_fresh_reset_clears_only_live_groups() {
        // A scratch that once held 200 flows over 400 nodes and drained to
        // one flow clears two groups when a fresh settle reuses it, not
        // the 800 groups it ever interned.
        let mut scratch = EndpointScratch::default();
        let wide: Vec<(FlowId, Communication)> =
            (0..200).map(|i| (i, c(2 * i, 2 * i + 1))).collect();
        settle(&mut scratch, &[], &wide, true);
        let departed: Vec<FlowId> = (1..200).collect();
        settle(&mut scratch, &departed, &[], false);
        assert!(scratch.index.slot_capacity() >= 400);
        assert_eq!(scratch.reset(), 2, "one live flow: its two groups");
        let (answers, _) = settle(&mut scratch, &[], &[(0, c(5, 6))], true);
        assert_eq!(answers, vec![(0, Penalty::new(9.0))]);
        assert_eq!(scratch.index.out_degree(slot(&scratch.index, 5)), 1);
    }
}
