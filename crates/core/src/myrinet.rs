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

use crate::incremental::align;
use crate::model::{scatter_penalties, split_intra_node, PenaltyModel, PopulationDelta};
use crate::penalty::Penalty;
use crate::scratch::{ModelScratch, QueryOutcome};
use crate::states::{
    count_components, enumerate_component, StateSetCounts, StateSetEnumeration,
    DEFAULT_STATE_SET_BUDGET,
};
use netbw_graph::conflict::{ConflictGraph, ConflictRule};
use netbw_graph::{Communication, NodeId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

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

/// The Myrinet model's per-cache scratch: the previously settled
/// population, its penalties, and the union–find conflict-component
/// structure kept alive across settles.
///
/// Component ids are never reused (`next_comp` is monotonic), so a stale
/// `src_comp`/`dst_comp` entry — left behind when a node's last flow
/// departs — can only name a dead component, which marks nothing.
#[derive(Debug, Default, Clone)]
struct MyrinetScratch {
    settled: bool,
    /// The previously settled population (full, intra-node included).
    prev: Vec<Communication>,
    prev_pens: Vec<Penalty>,
    /// Network position per full position (`usize::MAX` for intra-node).
    net_pos: Vec<usize>,
    /// Conflict-component id per previous network position.
    comp_of: Vec<usize>,
    /// Component containing the flows leaving / entering each node.
    src_comp: HashMap<NodeId, usize>,
    dst_comp: HashMap<NodeId, usize>,
    next_comp: usize,
}

impl MyrinetScratch {
    /// Rebuilds every piece of scratch state from a full
    /// population/penalty pair: one O(n·α) union–find pass.
    fn rebuild(&mut self, comms: &[Communication], pens: &[Penalty], rule: ConflictRule) {
        debug_assert_eq!(comms.len(), pens.len());
        self.settled = true;
        self.prev = comms.to_vec();
        self.prev_pens = pens.to_vec();
        self.net_pos = vec![usize::MAX; comms.len()];
        let mut network = Vec::with_capacity(comms.len());
        for (i, c) in comms.iter().enumerate() {
            if !c.is_intra_node() {
                self.net_pos[i] = network.len();
                network.push(*c);
            }
        }
        let (comp_of, comp_count) = conflict_component_ids(&network, rule);
        self.src_comp.clear();
        self.dst_comp.clear();
        for (k, c) in network.iter().enumerate() {
            self.src_comp.insert(c.src, comp_of[k]);
            self.dst_comp.insert(c.dst, comp_of[k]);
        }
        self.comp_of = comp_of;
        self.next_comp = comp_count;
    }
}

/// Connected components of the conflict relation over `network`, computed
/// with a union–find over per-node groups in O(n·α) — no O(n²) pairwise
/// scan, no materialised [`ConflictGraph`]. Returns a component id per
/// communication and the component count.
fn conflict_component_ids(network: &[Communication], rule: ConflictRule) -> (Vec<usize>, usize) {
    let n = network.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let ra = find(parent, a);
        let rb = find(parent, b);
        if ra != rb {
            parent[ra] = rb;
        }
    }
    // Communications sharing a node (in the roles the rule cares about)
    // pairwise conflict, so uniting each with the first member of its
    // group reproduces the component structure.
    match rule {
        ConflictRule::Strict => {
            let mut first_src: HashMap<NodeId, usize> = HashMap::new();
            let mut first_dst: HashMap<NodeId, usize> = HashMap::new();
            for (k, c) in network.iter().enumerate() {
                match first_src.entry(c.src) {
                    Entry::Occupied(e) => union(&mut parent, k, *e.get()),
                    Entry::Vacant(e) => {
                        e.insert(k);
                    }
                }
                match first_dst.entry(c.dst) {
                    Entry::Occupied(e) => union(&mut parent, k, *e.get()),
                    Entry::Vacant(e) => {
                        e.insert(k);
                    }
                }
            }
        }
        ConflictRule::SharedNode => {
            let mut first_node: HashMap<NodeId, usize> = HashMap::new();
            for (k, c) in network.iter().enumerate() {
                for node in [c.src, c.dst] {
                    match first_node.entry(node) {
                        Entry::Occupied(e) => union(&mut parent, k, *e.get()),
                        Entry::Vacant(e) => {
                            e.insert(k);
                        }
                    }
                }
            }
        }
    }
    let mut ids: HashMap<usize, usize> = HashMap::new();
    let comp_of = (0..n)
        .map(|k| {
            let root = find(&mut parent, k);
            let next = ids.len();
            *ids.entry(root).or_insert(next)
        })
        .collect();
    (comp_of, ids.len())
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
    /// union–find component structure survives between settles, only the
    /// conflict components reached by the changed flows are re-enumerated,
    /// and every other component keeps its previous penalties bit-for-bit.
    ///
    /// Reuse is exact in every regime because the budget fallback is
    /// decided per component: an untouched component's previous penalties
    /// — exact or max-conflict alike — are what a full query would return
    /// for it. When the hints are unusable (no scratch and no `previous`,
    /// or a delta that does not align), the model falls back to the full
    /// evaluation and rebuilds the scratch from it.
    fn penalties_with_scratch(
        &self,
        comms: &[Communication],
        delta: &PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
        scratch: &mut dyn ModelScratch,
    ) -> (Vec<Penalty>, QueryOutcome) {
        let mut local = MyrinetScratch::default();
        let scratch = scratch
            .as_any_mut()
            .downcast_mut::<MyrinetScratch>()
            .unwrap_or(&mut local);
        if let Some(answer) = self.patch_scratch(comms, delta, previous, scratch) {
            return answer;
        }
        let (pens, blown) = self.penalties_flagged(comms);
        scratch.rebuild(comms, &pens, self.rule);
        (
            pens,
            QueryOutcome {
                budget_fallback: blown,
                ..QueryOutcome::rebuild()
            },
        )
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

    /// The component patch proper: `Some((penalties, outcome))` on
    /// success (`outcome.scratch_rebuilt` when the scratch had to be
    /// seeded from the `previous` hint first, `outcome.affected` the
    /// strictly increasing input positions re-enumerated this settle);
    /// `None` when the hints are unusable and the caller must recompute in
    /// full and rebuild the scratch.
    fn patch_scratch(
        &self,
        comms: &[Communication],
        delta: &PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
        s: &mut MyrinetScratch,
    ) -> Option<(Vec<Penalty>, QueryOutcome)> {
        let mut seeded = false;
        if !s.settled {
            let (prev_comms, prev_pens) = previous?;
            if prev_pens.len() != prev_comms.len() {
                return None;
            }
            s.rebuild(prev_comms, prev_pens, self.rule);
            seeded = true;
        }
        let al = align(comms, delta, &s.prev)?;

        // Mark the components the change reaches. Departures mark their
        // own component (any component split off by a departure still
        // contains one of the departed flow's former conflict partners);
        // arrivals mark every component holding a flow they conflict with,
        // found through the per-node component maps instead of a scan.
        let mut marked: HashSet<usize> = HashSet::new();
        for (p, _) in al.departed.iter().filter(|(_, c)| !c.is_intra_node()) {
            marked.insert(s.comp_of[s.net_pos[*p]]);
        }
        for (_, c) in al.arrived.iter().filter(|(_, c)| !c.is_intra_node()) {
            let roles: &[(&HashMap<NodeId, usize>, NodeId)] = match self.rule {
                // Strict: an arrival (s, d) conflicts with flows sharing
                // its source (as source) or its destination (as
                // destination).
                ConflictRule::Strict => &[(&s.src_comp, c.src), (&s.dst_comp, c.dst)],
                // SharedNode: any flow touching either endpoint, in any
                // role.
                ConflictRule::SharedNode => &[
                    (&s.src_comp, c.src),
                    (&s.dst_comp, c.src),
                    (&s.src_comp, c.dst),
                    (&s.dst_comp, c.dst),
                ],
            };
            for (map, node) in roles {
                if let Some(&id) = map.get(node) {
                    marked.insert(id);
                }
            }
        }

        // The re-enumeration sub-population: survivors of marked
        // components plus every arrival. Its conflict graph is exact — a
        // sub member's conflict partners are all in the sub as well.
        let mut sub: Vec<Communication> = Vec::new();
        let mut sub_full_pos: Vec<usize> = Vec::new();
        let mut in_sub = vec![false; comms.len()];
        for (i, c) in comms.iter().enumerate() {
            if c.is_intra_node() {
                continue;
            }
            let member = match al.prev_of[i] {
                None => true,
                Some(p) => marked.contains(&s.comp_of[s.net_pos[p]]),
            };
            if member {
                in_sub[i] = true;
                sub_full_pos.push(i);
                sub.push(*c);
            }
        }

        // Each sub component decides the budget on its own, exactly as in
        // a full query.
        let mut sub_state = vec![1u64; sub.len()];
        let mut sub_emission = vec![1u64; sub.len()];
        let mut sub_comp_of = vec![0usize; sub.len()];
        let mut sub_comps = 0usize;
        let mut blown = false;
        if !sub.is_empty() {
            let graph = ConflictGraph::build(&sub, self.rule);
            for comp in count_components(&graph, self.budget) {
                blown |= fill_component(&sub, &comp, &mut sub_state, &mut sub_emission);
                for &v in &comp.vertices {
                    sub_comp_of[v] = sub_comps;
                }
                sub_comps += 1;
            }
        }

        // κ over the sub-population is exact: a source group always lives
        // inside a single conflict component, and marked components are
        // wholly contained in the sub.
        let mut min_by_source: HashMap<NodeId, u64> = HashMap::new();
        for (v, c) in sub.iter().enumerate() {
            min_by_source
                .entry(c.src)
                .and_modify(|m| *m = (*m).min(sub_emission[v]))
                .or_insert(sub_emission[v]);
        }

        let mut out = vec![Penalty::ONE; comms.len()];
        for (i, c) in comms.iter().enumerate() {
            if c.is_intra_node() || in_sub[i] {
                continue;
            }
            let p = al.prev_of[i].expect("non-sub network entries are survivors");
            out[i] = s.prev_pens[p];
        }
        for (v, &i) in sub_full_pos.iter().enumerate() {
            out[i] = Penalty::new(sub_state[v] as f64 / min_by_source[&sub[v].src] as f64);
        }

        // Commit the new population to the scratch: marked components die,
        // the sub enumeration's components join under fresh (never reused)
        // ids, untouched components carry their ids over.
        let base = s.next_comp;
        s.next_comp += sub_comps;
        let mut net_pos = vec![usize::MAX; comms.len()];
        let mut comp_of = Vec::with_capacity(comms.len());
        let mut sub_v = 0usize;
        for (i, c) in comms.iter().enumerate() {
            if c.is_intra_node() {
                continue;
            }
            net_pos[i] = comp_of.len();
            if in_sub[i] {
                comp_of.push(base + sub_comp_of[sub_v]);
                sub_v += 1;
            } else {
                let p = al.prev_of[i].expect("non-sub network entries are survivors");
                comp_of.push(s.comp_of[s.net_pos[p]]);
            }
        }
        for (v, c) in sub.iter().enumerate() {
            s.src_comp.insert(c.src, base + sub_comp_of[v]);
            s.dst_comp.insert(c.dst, base + sub_comp_of[v]);
        }
        s.prev = comms.to_vec();
        s.prev_pens = out.clone();
        s.net_pos = net_pos;
        s.comp_of = comp_of;
        // Positions re-evaluated this settle: the sub-population plus any
        // intra-node arrival (whose ONE is new to the caller). Everything
        // else was copied verbatim from `prev_pens`.
        let affected: Vec<usize> = (0..comms.len())
            .filter(|&i| in_sub[i] || al.prev_of[i].is_none())
            .collect();
        let outcome = QueryOutcome {
            scratch_rebuilt: seeded,
            budget_fallback: blown,
            ..QueryOutcome::patch(affected)
        };
        Some((out, outcome))
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

    /// Whether a full query over `comms` reports a budget fallback.
    fn falls_back(model: &MyrinetModel, comms: &[Communication]) -> bool {
        let mut scratch = model.new_scratch();
        let (_, outcome) =
            model.penalties_with_scratch(comms, &PopulationDelta::Rebuilt, None, scratch.as_mut());
        outcome.budget_fallback
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
        // from A must reuse B's previous penalties verbatim — poison them
        // to prove the reuse happens.
        let model = MyrinetModel::default();
        let prev = vec![
            Communication::new(0u32, 1u32, 10),
            Communication::new(0u32, 2u32, 10),
            Communication::new(5u32, 6u32, 10),
            Communication::new(5u32, 7u32, 10),
        ];
        let mut prev_pens = model.penalties(&prev);
        prev_pens[2] = Penalty::new(9.0);
        prev_pens[3] = Penalty::new(9.5);
        let comms = vec![prev[1], prev[2], prev[3]];
        let patched = model.penalties_after_change(
            &comms,
            crate::model::PopulationDelta::Departed(vec![0]),
            Some((&prev, &prev_pens)),
        );
        assert_eq!(patched[1].value(), 9.0, "component B must be reused");
        assert_eq!(patched[2].value(), 9.5);
        // component A is re-enumerated exactly: (0→2) alone has penalty 1
        assert_eq!(patched[0].value(), 1.0);
    }

    #[test]
    fn patch_reuses_an_untouched_blown_component() {
        // Fig. 5 (one component, 5 state sets) blows a budget of 2 and gets
        // the max-conflict rows; an arrival on disjoint nodes must leave it
        // untouched. Unpoisoned, the patch equals the full evaluation...
        let model = MyrinetModel::with_budget(2);
        let prev: Vec<Communication> = schemes::fig5().comms().to_vec();
        let prev_pens = model.penalties(&prev);
        assert_eq!(prev_pens[0].value(), 3.0, "max(Δo, Δi) row");
        let mut comms = prev.clone();
        comms.push(Communication::new(20u32, 21u32, 10));
        let delta = crate::model::PopulationDelta::Arrived(vec![prev.len()]);
        let patched =
            model.penalties_after_change(&comms, delta.clone(), Some((&prev, &prev_pens)));
        assert_eq!(patched, model.penalties(&comms));
        // ...and poisoning proves the blown component's previous rows are
        // reused verbatim rather than recomputed.
        let mut poisoned = prev_pens.clone();
        poisoned[0] = Penalty::new(99.0);
        let patched = model.penalties_after_change(&comms, delta, Some((&prev, &poisoned)));
        assert_eq!(patched[0].value(), 99.0, "the blown component is reused");
        assert_eq!(&patched[1..], &model.penalties(&comms)[1..]);
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
