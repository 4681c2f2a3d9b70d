//! The Myrinet 2000 congestion model (§V.B).
//!
//! Myrinet's NIC implements a Stop & Go flow-control protocol over
//! cut-through (wormhole) routing: a receiver injects *Stop*/*Go* control
//! messages to block or resume senders. The paper abstracts this as a
//! two-state protocol — each communication is either *send*ing or
//! *wait*ing — and derives penalties from exhaustive enumeration of the
//! possible state combinations:
//!
//! 1. Enumerate all **state sets** (maximal independent sets of the strict
//!    conflict graph — see [`crate::states`]).
//! 2. The **emission coefficient** σ(c) of a communication is the number of
//!    state sets in which it sends.
//! 3. Outgoing communications of one node share the NIC fairly, so each is
//!    as slow as the slowest: every outgoing communication of a node gets
//!    the **minimum** σ among that node's outgoing communications, κ(c).
//! 4. The **penalty** is `p(c) = S / κ(c)` with `S` the number of state
//!    sets (of c's conflict component).
//!
//! On the paper's Fig. 5 example this yields exactly the Fig. 6 table:
//! sums `1,2,2,2,2,3`, minima `1,1,1,2,2,2`, penalties `5,5,5,2.5,2.5,2.5`.
//!
//! Everything above is defined per conflict component, and so is the
//! state-set budget: a component with more than `budget` state sets gets
//! the max-conflict approximation `p = max(Δo, Δi)` for its own flows,
//! while every other component stays exact. Δo, Δi and κ count only
//! same-source and same-destination flows, which share a component under
//! both conflict rules, so no penalty ever depends on a flow outside its
//! own component — which is what lets the scratch-backed patch reuse an
//! untouched component's previous penalties verbatim.

use crate::intern::{KeyedMembers, NodeMap};
use crate::model::{
    downcast_scratch, scatter_penalties, split_intra_node, FlowId, PenaltyModel, PopulationDelta,
};
use crate::penalty::Penalty;
use crate::scratch::{ModelScratch, QueryOutcome};
use crate::states::{
    count_components, enumerate_component, StateSetCounts, StateSetEnumeration,
    DEFAULT_STATE_SET_BUDGET,
};
use netbw_graph::conflict::{ConflictGraph, ConflictRule};
use netbw_graph::{Communication, NodeId};
use std::collections::HashMap;

/// The paper's Myrinet 2000 model.
#[derive(Clone, Debug)]
pub struct MyrinetModel {
    /// Conflict rule used to build the state graph. The paper's rule is
    /// [`ConflictRule::Strict`]; [`ConflictRule::SharedNode`] is kept for
    /// the `ABL-1` ablation.
    pub rule: ConflictRule,
    /// Cap on enumerated state sets per component. A component beyond it
    /// falls back to the max-conflict approximation (`p = max(Δo, Δi)`)
    /// for its own flows, reported per query by
    /// [`QueryOutcome::budget_fallback`].
    pub budget: usize,
}

impl Default for MyrinetModel {
    fn default() -> Self {
        MyrinetModel {
            rule: ConflictRule::Strict,
            budget: DEFAULT_STATE_SET_BUDGET,
        }
    }
}

impl MyrinetModel {
    /// Model with a non-default conflict rule (ablation).
    pub fn with_rule(rule: ConflictRule) -> Self {
        MyrinetModel {
            rule,
            ..Self::default()
        }
    }

    /// Model with a non-default enumeration budget (tests and stress
    /// harnesses exercising the max-conflict fallback).
    pub fn with_budget(budget: usize) -> Self {
        MyrinetModel {
            budget,
            ..Self::default()
        }
    }

    /// Full analysis of a set of concurrent communications: state sets,
    /// emission coefficients, minima and penalties — everything needed to
    /// print the paper's Figs. 5 and 6.
    pub fn analyse(&self, comms: &[Communication]) -> MyrinetAnalysis {
        let (indices, network) = split_intra_node(comms);
        let graph = ConflictGraph::build(&network, self.rule);

        let mut state_count = vec![1u64; network.len()];
        let mut emission = vec![1u64; network.len()];
        let mut components = Vec::new();
        for vertices in graph.components() {
            match enumerate_component(&graph, &vertices, self.budget) {
                Ok(e) => {
                    for &v in &e.vertices {
                        state_count[v] = e.count() as u64;
                        emission[v] = e.emission(v) as u64;
                    }
                    components.push(e);
                }
                Err(_) => {
                    max_conflict_rows(&network, &vertices, &mut state_count, &mut emission);
                }
            }
        }

        // κ: minimum emission coefficient among each node's outgoing comms.
        let mut min_by_source: HashMap<netbw_graph::NodeId, u64> = HashMap::new();
        for (v, c) in network.iter().enumerate() {
            min_by_source
                .entry(c.src)
                .and_modify(|m| *m = (*m).min(emission[v]))
                .or_insert(emission[v]);
        }
        let coefficient: Vec<u64> = network.iter().map(|c| min_by_source[&c.src]).collect();

        let penalties =
            Self::penalties_from_tables(comms.len(), &indices, &network, &state_count, &emission);

        MyrinetAnalysis {
            network_indices: indices,
            state_count,
            emission,
            coefficient,
            components,
            penalties,
        }
    }
}

impl MyrinetModel {
    /// Penalty computation over (S, σ) tables shared by the counting and
    /// enumerating paths.
    fn penalties_from_tables(
        comms_len: usize,
        indices: &[usize],
        network: &[Communication],
        state_count: &[u64],
        emission: &[u64],
    ) -> Vec<Penalty> {
        let mut min_by_source: HashMap<netbw_graph::NodeId, u64> = HashMap::new();
        for (v, c) in network.iter().enumerate() {
            min_by_source
                .entry(c.src)
                .and_modify(|m| *m = (*m).min(emission[v]))
                .or_insert(emission[v]);
        }
        let net: Vec<Penalty> = network
            .iter()
            .enumerate()
            .map(|(v, c)| Penalty::new(state_count[v] as f64 / min_by_source[&c.src] as f64))
            .collect();
        scatter_penalties(comms_len, indices, &net)
    }
}

/// Writes one counted component's rows into the (S, σ) tables: its exact
/// counts, or the max-conflict rows when it blew the budget. Returns
/// whether it blew.
fn fill_component(
    comms: &[Communication],
    comp: &StateSetCounts,
    state_count: &mut [u64],
    emission: &mut [u64],
) -> bool {
    match &comp.counts {
        Ok((count, sigma)) => {
            for (&v, &e) in comp.vertices.iter().zip(sigma) {
                state_count[v] = *count;
                emission[v] = e;
            }
            false
        }
        Err(_) => {
            max_conflict_rows(comms, &comp.vertices, state_count, emission);
            true
        }
    }
}

/// The max-conflict approximation for one component that blew the
/// budget: `S/κ ≈ max(Δo, Δi)`, expressed as `S = max(Δo, Δi)` and
/// `σ = 1`. Δo and Δi count the flows sharing a member's source or
/// destination, all of which lie inside the component, so counting over
/// `members` alone is exact.
fn max_conflict_rows(
    comms: &[Communication],
    members: &[usize],
    state_count: &mut [u64],
    emission: &mut [u64],
) {
    let mut out_degree: HashMap<NodeId, u64> = HashMap::new();
    let mut in_degree: HashMap<NodeId, u64> = HashMap::new();
    for &v in members {
        *out_degree.entry(comms[v].src).or_insert(0) += 1;
        *in_degree.entry(comms[v].dst).or_insert(0) += 1;
    }
    for &v in members {
        state_count[v] = out_degree[&comms[v].src].max(in_degree[&comms[v].dst]);
        emission[v] = 1;
    }
}

/// The component of an intra-node member, which conflicts with nothing.
const NO_COMPONENT: u32 = u32::MAX;
/// The component of a network arrival this settle has not enumerated yet.
const PENDING: u32 = u32::MAX - 1;

/// The flows one node holds in one role (as source, or as destination):
/// their conflict component — a node's flows in one role always conflict
/// with each other, so they share one — and how many there are.
#[derive(Clone, Copy, Debug)]
struct NodeTally {
    component: u32,
    flows: u32,
}

/// The Myrinet model's per-cache scratch: the keyed population with each
/// member's conflict component, the member list of every component, and
/// per node the component of its outgoing and of its incoming flows — the
/// state a keyed settle needs to find the components a change reaches
/// without scanning the population.
///
/// A component id is recycled once its component dies (it is re-enumerated
/// or drains). Node tallies leave with their node's last flow, so no entry
/// ever names a dead component.
#[derive(Debug, Default, Clone)]
struct MyrinetScratch {
    /// Every member's communication and component ([`NO_COMPONENT`] for
    /// intra-node members).
    members: KeyedMembers<(Communication, u32)>,
    /// Member ids per component id; a free id's list is empty.
    components: Vec<Vec<FlowId>>,
    free: Vec<u32>,
    /// Every component id handed out since the last reset is below this.
    next: u32,
    sources: NodeMap<NodeTally>,
    destinations: NodeMap<NodeTally>,
    /// Per-settle buffers: the components departures reached, and the
    /// sub-population to re-enumerate with its ids.
    reached: Vec<u32>,
    sub: Vec<Communication>,
    sub_ids: Vec<FlowId>,
}

/// Counts one more flow at `node` in the role `tallies` tracks; a node new
/// to the role starts [`PENDING`].
fn tally(tallies: &mut NodeMap<NodeTally>, node: NodeId) {
    tallies
        .entry(node)
        .and_modify(|t| t.flows += 1)
        .or_insert(NodeTally {
            component: PENDING,
            flows: 1,
        });
}

/// Counts one flow fewer at `node`, dropping the entry with its last one.
fn untally(tallies: &mut NodeMap<NodeTally>, node: NodeId) {
    let t = tallies.get_mut(&node).expect("a member's node is tallied");
    t.flows -= 1;
    if t.flows == 0 {
        tallies.remove(&node);
    }
}

impl MyrinetScratch {
    /// Forgets the population at the cost of its live members, keeping the
    /// allocations.
    fn reset(&mut self) {
        for &(c, component) in self.members.items() {
            if component != NO_COMPONENT {
                self.components[component as usize].clear();
                self.sources.remove(&c.src);
                self.destinations.remove(&c.dst);
            }
        }
        self.members.clear();
        self.free.clear();
        self.next = 0;
    }

    /// Dissolves `component` into the sub-population: its surviving
    /// members (those still in it) join the re-enumeration, and its id is
    /// freed. A component already dissolved this settle — or a sentinel —
    /// is left alone.
    fn dissolve(&mut self, component: u32) {
        if component >= PENDING {
            return;
        }
        let list = &mut self.components[component as usize];
        if list.is_empty() {
            return;
        }
        for &id in list.iter() {
            if let Some(&(c, current)) = self.members.get(id) {
                if current == component {
                    self.sub.push(c);
                    self.sub_ids.push(id);
                }
            }
        }
        list.clear();
        self.free.push(component);
    }

    /// A fresh component id.
    fn open(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let id = self.next;
            self.next += 1;
            if self.components.len() <= id as usize {
                self.components.push(Vec::new());
            }
            id
        })
    }
}

impl PenaltyModel for MyrinetModel {
    fn name(&self) -> &'static str {
        "myrinet"
    }

    /// Uses the counting-only enumeration (no materialised state sets) —
    /// identical penalties to [`MyrinetModel::analyse`] at a fraction of
    /// the memory.
    fn penalties(&self, comms: &[Communication]) -> Vec<Penalty> {
        self.penalties_flagged(comms).0
    }

    fn new_scratch(&self) -> Box<dyn ModelScratch> {
        Box::new(MyrinetScratch::default())
    }

    /// Component-level patch over the per-cache `MyrinetScratch`: the
    /// conflict components survive between settles, only the components
    /// the change reaches are re-enumerated (each together with the
    /// arrivals that join it), and only their flows are answered — every
    /// other component keeps its previous penalties. A departure reaches
    /// its own component (any component split off by it still holds one
    /// of the departed flow's former conflict partners); an arrival
    /// reaches every component holding a flow it conflicts with, found
    /// through the per-node tallies instead of a scan.
    ///
    /// Reuse is exact in every regime because the budget fallback is
    /// decided per component: an untouched component's previous penalties
    /// — exact or max-conflict alike — are what a full query would return
    /// for it. A fresh delta enumerates every component: the scratch is
    /// rebuilt.
    fn apply_delta(
        &self,
        delta: &PopulationDelta<'_>,
        scratch: &mut dyn ModelScratch,
        answers: &mut Vec<(FlowId, Penalty)>,
    ) -> QueryOutcome {
        let s = downcast_scratch::<MyrinetScratch>(scratch);
        if delta.fresh {
            s.reset();
        }
        s.sub.clear();
        s.sub_ids.clear();
        s.reached.clear();
        // Every departure first, so no departing flow joins the sub as a
        // survivor of a component dissolved before it left.
        for &id in delta.departed {
            let (c, component) = s.members.remove(id);
            if component != NO_COMPONENT {
                s.reached.push(component);
                untally(&mut s.sources, c.src);
                untally(&mut s.destinations, c.dst);
            }
        }
        let mut reached = std::mem::take(&mut s.reached);
        for &component in &reached {
            s.dissolve(component);
        }
        for &(id, c) in delta.arrived {
            if c.is_intra_node() {
                s.members.insert(id, (c, NO_COMPONENT));
                answers.push((id, Penalty::ONE));
                continue;
            }
            s.members.insert(id, (c, PENDING));
            let touching = |tallies: &NodeMap<NodeTally>, node: NodeId| {
                tallies.get(&node).map_or(PENDING, |t| t.component)
            };
            reached.clear();
            // Strict: an arrival (s, d) conflicts with the flows sharing
            // its source (as source) or its destination (as destination);
            // SharedNode: with any flow touching either endpoint.
            reached.push(touching(&s.sources, c.src));
            reached.push(touching(&s.destinations, c.dst));
            if self.rule == ConflictRule::SharedNode {
                reached.push(touching(&s.destinations, c.src));
                reached.push(touching(&s.sources, c.dst));
            }
            for &component in &reached {
                s.dissolve(component);
            }
            tally(&mut s.sources, c.src);
            tally(&mut s.destinations, c.dst);
            s.sub.push(c);
            s.sub_ids.push(id);
        }
        s.reached = reached;
        let blown = self.enumerate_sub(s, answers);
        QueryOutcome {
            budget_fallback: blown,
            ..if delta.fresh {
                QueryOutcome::rebuild()
            } else {
                QueryOutcome::patch()
            }
        }
    }
}

impl MyrinetModel {
    /// The [`PenaltyModel::penalties`] evaluation, also reporting whether
    /// some component hit the enumeration budget and degraded to the
    /// max-conflict approximation.
    fn penalties_flagged(&self, comms: &[Communication]) -> (Vec<Penalty>, bool) {
        let (indices, network) = split_intra_node(comms);
        let graph = ConflictGraph::build(&network, self.rule);
        let mut state_count = vec![1u64; network.len()];
        let mut emission = vec![1u64; network.len()];
        let mut blown = false;
        for comp in count_components(&graph, self.budget) {
            blown |= fill_component(&network, &comp, &mut state_count, &mut emission);
        }
        let pens =
            Self::penalties_from_tables(comms.len(), &indices, &network, &state_count, &emission);
        (pens, blown)
    }

    /// Enumerates the scratch's sub-population — the survivors of the
    /// dissolved components plus the arrivals — into fresh components,
    /// files every sub member under its new component, and answers each
    /// one. Its conflict graph is exact: a sub member's conflict partners
    /// are all in the sub as well, and each sub component decides the
    /// budget on its own, exactly as in a full query. Returns whether some
    /// component blew the budget.
    fn enumerate_sub(&self, s: &mut MyrinetScratch, answers: &mut Vec<(FlowId, Penalty)>) -> bool {
        if s.sub.is_empty() {
            return false;
        }
        let graph = ConflictGraph::build(&s.sub, self.rule);
        let mut state_count = vec![1u64; s.sub.len()];
        let mut emission = vec![1u64; s.sub.len()];
        let mut blown = false;
        for comp in count_components(&graph, self.budget) {
            blown |= fill_component(&s.sub, &comp, &mut state_count, &mut emission);
            let component = s.open();
            for &v in &comp.vertices {
                let (id, c) = (s.sub_ids[v], s.sub[v]);
                s.members.get_mut(id).expect("sub members are members").1 = component;
                s.components[component as usize].push(id);
                let tallied = "sub nodes are tallied";
                s.sources.get_mut(&c.src).expect(tallied).component = component;
                s.destinations.get_mut(&c.dst).expect(tallied).component = component;
            }
        }
        // κ over the sub-population is exact: a source group always lives
        // inside a single conflict component, and dissolved components are
        // wholly contained in the sub.
        let mut min_by_source: HashMap<NodeId, u64> = HashMap::new();
        for (v, c) in s.sub.iter().enumerate() {
            min_by_source
                .entry(c.src)
                .and_modify(|m| *m = (*m).min(emission[v]))
                .or_insert(emission[v]);
        }
        answers.extend(
            s.sub
                .iter()
                .zip(&s.sub_ids)
                .enumerate()
                .map(|(v, (c, &id))| {
                    (
                        id,
                        Penalty::new(state_count[v] as f64 / min_by_source[&c.src] as f64),
                    )
                }),
        );
        blown
    }
}

/// Everything the Myrinet model derives from a communication population.
/// Indices in `state_count`/`emission`/`coefficient` refer to the network
/// (inter-node) subset; `network_indices` maps them back to the input.
#[derive(Debug, Clone)]
pub struct MyrinetAnalysis {
    /// Input indices of the network communications, in model order.
    pub network_indices: Vec<usize>,
    /// `S`: state-set count of each communication's conflict component.
    pub state_count: Vec<u64>,
    /// `σ`: number of state sets in which the communication sends
    /// (the Fig. 6 "Sum" row).
    pub emission: Vec<u64>,
    /// `κ`: minimum σ among the source node's outgoing communications
    /// (the Fig. 6 "Minimum" row).
    pub coefficient: Vec<u64>,
    /// Per-component enumerations (for printing Fig. 5's state diagrams);
    /// a component that blew the budget has none.
    pub components: Vec<StateSetEnumeration>,
    /// Final penalties, aligned with the *input* slice (intra-node slots
    /// hold penalty 1).
    pub penalties: Vec<Penalty>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbw_graph::schemes;

    /// `comms` keyed by position, offset by `base`.
    fn keyed(comms: &[Communication], base: FlowId) -> Vec<(FlowId, Communication)> {
        comms
            .iter()
            .copied()
            .zip(base..)
            .map(|(c, i)| (i, c))
            .collect()
    }

    /// One keyed settle; returns the answers sorted by id and the outcome.
    fn settle(
        model: &MyrinetModel,
        scratch: &mut dyn ModelScratch,
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
        let outcome = model.apply_delta(&delta, scratch, &mut answers);
        answers.sort_unstable_by_key(|a| a.0);
        (answers, outcome)
    }

    /// Whether a fresh settle over `comms` reports a budget fallback.
    fn falls_back(model: &MyrinetModel, comms: &[Communication]) -> bool {
        let mut scratch = model.new_scratch();
        settle(model, scratch.as_mut(), &[], &keyed(comms, 0), true)
            .1
            .budget_fallback
    }

    #[test]
    fn fig6_table_reproduced_exactly() {
        let model = MyrinetModel::default();
        let fig5 = schemes::fig5();
        let a = model.analyse(fig5.comms());
        assert_eq!(a.emission, vec![1, 2, 2, 2, 2, 3], "Sum row");
        assert_eq!(a.coefficient, vec![1, 1, 1, 2, 2, 2], "Minimum row");
        let p: Vec<f64> = a.penalties.iter().map(|p| p.value()).collect();
        assert_eq!(p, vec![5.0, 5.0, 5.0, 2.5, 2.5, 2.5], "penalty row");
        assert!(!falls_back(&model, fig5.comms()));
    }

    #[test]
    fn mk1_initial_penalties() {
        // Components: d–a–b–f path (3 sets), {c,g} (2 sets), {e} (1 set).
        // Penalties: a,b → 3; c,g → 2; d,f → 1.5; e → 1.
        let model = MyrinetModel::default();
        let mk1 = schemes::mk1();
        let p: Vec<f64> = model
            .penalties(mk1.comms())
            .iter()
            .map(|p| p.value())
            .collect();
        let by_label: std::collections::HashMap<&str, f64> = mk1
            .labels()
            .iter()
            .map(String::as_str)
            .zip(p.iter().copied())
            .collect();
        assert_eq!(by_label["a"], 3.0);
        assert_eq!(by_label["b"], 3.0);
        assert_eq!(by_label["c"], 2.0);
        assert_eq!(by_label["g"], 2.0);
        assert_eq!(by_label["d"], 1.5);
        assert_eq!(by_label["f"], 1.5);
        assert_eq!(by_label["e"], 1.0);
    }

    #[test]
    fn mk2_initial_penalties() {
        // Verified against the paper's fluid-predicted times (reading of Fig. 7):
        // a–d = 6, e = 1.5, f,g = 2.4, h,i = 3, j = 2.
        let model = MyrinetModel::default();
        let mk2 = schemes::mk2();
        let p: Vec<f64> = model
            .penalties(mk2.comms())
            .iter()
            .map(|p| p.value())
            .collect();
        assert_eq!(&p[0..4], &[6.0, 6.0, 6.0, 6.0]);
        assert_eq!(p[4], 1.5); // e
        assert!((p[5] - 2.4).abs() < 1e-12); // f
        assert!((p[6] - 2.4).abs() < 1e-12); // g
        assert_eq!(p[7], 3.0); // h
        assert_eq!(p[8], 3.0); // i
        assert_eq!(p[9], 2.0); // j
    }

    #[test]
    fn single_comm_penalty_one() {
        let model = MyrinetModel::default();
        let g = schemes::single();
        assert_eq!(model.penalties(g.comms())[0].value(), 1.0);
    }

    #[test]
    fn outgoing_ladder_penalty_equals_k() {
        // k comms from one node: k singleton state sets, κ = 1 → p = k.
        let model = MyrinetModel::default();
        for k in 1..=6 {
            let g = schemes::outgoing_ladder(k);
            for p in model.penalties(g.comms()) {
                assert_eq!(p.value(), k as f64, "ladder {k}");
            }
        }
    }

    #[test]
    fn intra_node_comms_are_transparent() {
        let model = MyrinetModel::default();
        let mut comms = schemes::fig5().comms().to_vec();
        comms.push(Communication::new(9u32, 9u32, 1)); // intra-node
        let p = model.penalties(&comms);
        assert_eq!(p[6].value(), 1.0);
        // and it must not perturb the network penalties
        assert_eq!(p[0].value(), 5.0);
        assert_eq!(p[5].value(), 2.5);
    }

    #[test]
    fn fallback_on_budget_blowup() {
        // 2^20 global sets but per-component is cheap; force fallback with
        // a tiny budget instead.
        let model = MyrinetModel {
            budget: 2,
            ..MyrinetModel::default()
        };
        let g = schemes::fig5();
        let p = model.penalties(g.comms());
        assert!(falls_back(&model, g.comms()));
        // approximation: p = max(Δo, Δi) — a: max(3, 3) = 3
        assert_eq!(p[0].value(), 3.0);
    }

    #[test]
    fn shared_node_rule_changes_result() {
        // ABL-1: the loose rule gives 6 sets on Fig. 5 and different sums.
        let strict = MyrinetModel::default();
        let loose = MyrinetModel::with_rule(ConflictRule::SharedNode);
        let g = schemes::fig5();
        let ps = strict.analyse(g.comms());
        let pl = loose.analyse(g.comms());
        assert_ne!(ps.emission, pl.emission);
    }

    #[test]
    fn counting_path_matches_enumerating_path() {
        let model = MyrinetModel::default();
        for seed in 0..10 {
            let g = schemes::random(7, 9, 100, seed);
            let fast: Vec<f64> = model
                .penalties(g.comms())
                .iter()
                .map(|p| p.value())
                .collect();
            let full: Vec<f64> = model
                .analyse(g.comms())
                .penalties
                .iter()
                .map(|p| p.value())
                .collect();
            assert_eq!(fast, full, "seed {seed}");
        }
    }

    #[test]
    fn patch_reenumerates_only_touched_components() {
        // Components: A = {(0→1), (0→2)}, B = {(5→6), (5→7)}. A departure
        // from A must leave B unanswered — its previous penalties stand.
        let model = MyrinetModel::default();
        let prev = [
            Communication::new(0u32, 1u32, 10),
            Communication::new(0u32, 2u32, 10),
            Communication::new(5u32, 6u32, 10),
            Communication::new(5u32, 7u32, 10),
        ];
        let mut scratch = model.new_scratch();
        settle(&model, scratch.as_mut(), &[], &keyed(&prev, 0), true);
        let (answers, outcome) = settle(&model, scratch.as_mut(), &[0], &[], false);
        // component A is re-enumerated exactly: (0→2) alone has penalty 1
        assert_eq!(
            answers,
            vec![(1, Penalty::ONE)],
            "component B must be reused"
        );
        assert!(outcome.patched && !outcome.scratch_rebuilt);
    }

    #[test]
    fn patch_reuses_an_untouched_blown_component() {
        // Fig. 5 (one component, 5 state sets) blows a budget of 2 and gets
        // the max-conflict rows; an arrival on disjoint nodes leaves it
        // unanswered, and its rows stand for the joint population.
        let model = MyrinetModel::with_budget(2);
        let prev: Vec<Communication> = schemes::fig5().comms().to_vec();
        let mut scratch = model.new_scratch();
        let (first, outcome) = settle(&model, scratch.as_mut(), &[], &keyed(&prev, 0), true);
        assert_eq!(first[0].1.value(), 3.0, "max(Δo, Δi) row");
        assert!(outcome.budget_fallback);
        let extra = Communication::new(20u32, 21u32, 10);
        let (answers, outcome) = settle(
            &model,
            scratch.as_mut(),
            &[],
            &keyed(&[extra], prev.len() as FlowId),
            false,
        );
        assert_eq!(answers, vec![(prev.len() as FlowId, Penalty::ONE)]);
        assert!(
            !outcome.budget_fallback,
            "the blown component was not re-enumerated"
        );
        let mut joint = prev.clone();
        joint.push(extra);
        let full = model.penalties(&joint);
        let firsts: Vec<Penalty> = first.iter().map(|a| a.1).collect();
        assert_eq!(&full[..prev.len()], firsts.as_slice());
    }

    #[test]
    fn a_blown_component_degrades_only_itself() {
        // Fig. 5 (5 state sets) blows a budget of 4 and takes the
        // max-conflict rows; MK1 on disjoint nodes (components of 3, 2 and
        // 1 sets) keeps its exact penalties next to it — d and f at 1.5,
        // where max(Δo, Δi) would give 2.
        let model = MyrinetModel::with_budget(4);
        let fig5 = schemes::fig5().comms().to_vec();
        let mk1: Vec<Communication> = schemes::mk1()
            .comms()
            .iter()
            .map(|c| Communication::new(c.src.0 + 100, c.dst.0 + 100, c.size))
            .collect();
        let both: Vec<Communication> = fig5.iter().chain(&mk1).copied().collect();
        let p = model.penalties(&both);
        assert_eq!(&p[..6], model.penalties(&fig5).as_slice());
        assert_eq!(p[0].value(), 3.0, "fig. 5 takes the max-conflict rows");
        assert_eq!(&p[6..], MyrinetModel::default().penalties(&mk1).as_slice());
        let a = model.analyse(&both);
        assert_eq!(a.penalties, p);
        assert_eq!(a.components.len(), 3, "only MK1's components enumerate");
        assert!(falls_back(&model, &both));
        assert!(!falls_back(&model, &mk1), "MK1 alone stays exact");
    }

    #[test]
    fn analysis_exposes_components_for_fig5_printing() {
        let model = MyrinetModel::default();
        let a = model.analyse(schemes::fig5().comms());
        assert_eq!(a.components.len(), 1);
        assert_eq!(a.components[0].count(), 5);
    }
}
