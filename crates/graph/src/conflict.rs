//! Conflict taxonomy (§IV.A) and the conflict graph over communications.
//!
//! A *conflict* arises when two concurrent communications contend for a
//! shared network resource. The paper distinguishes, for a communication at
//! a node `X`:
//!
//! * **Outgoing conflict** `C←X→` — it leaves `X` together with other
//!   outgoing communications (NIC emission sharing),
//! * **Income conflict** `C→X←` — it arrives at `X` together with other
//!   incoming communications (NIC reception sharing),
//! * **Income/Outgo conflict** `C→X→` / `C←X←` — it leaves (resp. arrives
//!   at) `X` while other communications arrive (resp. leave) — the duplex
//!   coupling case.
//!
//! The Myrinet state-set model uses the **strict** conflict rule: two
//! communications conflict iff they have the *same source* or the *same
//! destination*. Income/outgo pairs do **not** conflict under this rule
//! (full-duplex links); this reading is the only one that reproduces the
//! paper's Fig. 6 table — see `ARCHITECTURE.md`.

use crate::bitset::BitSet;
use crate::comm::Communication;
use crate::graph::CommGraph;
use crate::ids::NodeId;

/// Which pairs of communications are considered to conflict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConflictRule {
    /// Same source node **or** same destination node (the paper's rule).
    Strict,
    /// Any shared endpoint node, including a source of one being the
    /// destination of the other. Kept for the ablation `ABL-1`; it does
    /// *not* reproduce the paper's tables.
    SharedNode,
}

impl ConflictRule {
    /// Applies the rule to a pair of communications.
    #[inline]
    pub fn conflicts(self, a: &Communication, b: &Communication) -> bool {
        match self {
            ConflictRule::Strict => a.shares_source(b) || a.shares_destination(b),
            ConflictRule::SharedNode => a.shares_node(b),
        }
    }
}

/// The three elementary conflict kinds of §IV.A, seen from one
/// communication at one of its endpoint nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// `C←X→`: sharing the emission side of node X's NIC.
    Outgoing,
    /// `C→X←`: sharing the reception side of node X's NIC.
    Income,
    /// `C→X→` or `C←X←`: opposite directions through node X.
    IncomeOutgo,
}

impl std::fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ConflictKind::Outgoing => "outgoing (C<-X->)",
            ConflictKind::Income => "income (C->X<-)",
            ConflictKind::IncomeOutgo => "income/outgo (C->X->)",
        };
        f.write_str(s)
    }
}

/// Per-communication census of elementary conflicts in a scheme.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommConflicts {
    /// Other communications sharing this one's source as their source.
    pub outgoing_peers: usize,
    /// Other communications sharing this one's destination as their destination.
    pub income_peers: usize,
    /// Communications entering this one's source node, plus communications
    /// leaving this one's destination node (duplex coupling partners).
    pub income_outgo_peers: usize,
}

impl CommConflicts {
    /// The dominant conflict kind, if any (priority: outgoing, income,
    /// income/outgo — mirroring the severity order observed in Fig. 2).
    pub fn dominant(&self) -> Option<ConflictKind> {
        if self.outgoing_peers > 0 {
            Some(ConflictKind::Outgoing)
        } else if self.income_peers > 0 {
            Some(ConflictKind::Income)
        } else if self.income_outgo_peers > 0 {
            Some(ConflictKind::IncomeOutgo)
        } else {
            None
        }
    }
}

/// Classifies every communication of a graph (the simulator's "kind of
/// conflicts" report, §VI.A).
pub fn census(graph: &CommGraph) -> Vec<CommConflicts> {
    let comms = graph.comms();
    comms
        .iter()
        .map(|c| {
            let mut out = CommConflicts::default();
            for o in comms {
                if std::ptr::eq(c, o) {
                    continue;
                }
                if c.shares_source(o) {
                    out.outgoing_peers += 1;
                }
                if c.shares_destination(o) {
                    out.income_peers += 1;
                }
                // duplex partners at either endpoint
                if o.dst == c.src || o.src == c.dst {
                    out.income_outgo_peers += 1;
                }
            }
            out
        })
        .collect()
}

/// An undirected graph whose vertices are communications and whose edges are
/// conflicts under a [`ConflictRule`]. This is the object the Myrinet model
/// enumerates maximal independent sets of.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    n: usize,
    adj: Vec<BitSet>,
    rule: ConflictRule,
}

impl ConflictGraph {
    /// Builds the conflict graph of a communication slice.
    pub fn build(comms: &[Communication], rule: ConflictRule) -> Self {
        let n = comms.len();
        let mut adj = vec![BitSet::with_capacity(n); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if rule.conflicts(&comms[i], &comms[j]) {
                    adj[i].insert(j);
                    adj[j].insert(i);
                }
            }
        }
        ConflictGraph { n, adj, rule }
    }

    /// Number of vertices (communications).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there is no communication.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The rule used to build this graph.
    pub fn rule(&self) -> ConflictRule {
        self.rule
    }

    /// Neighbour set of vertex `i`.
    pub fn neighbours(&self, i: usize) -> &BitSet {
        &self.adj[i]
    }

    /// Degree of vertex `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// Number of conflict edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(BitSet::len).sum::<usize>() / 2
    }

    /// True if communications `i` and `j` conflict.
    pub fn conflicts(&self, i: usize, j: usize) -> bool {
        self.adj[i].contains(j)
    }

    /// Connected components, each a sorted list of vertex indices.
    ///
    /// The Myrinet model enumerates state sets per component: counts multiply
    /// across components, so penalties are unchanged while the enumeration
    /// stays polynomial in the number of components.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n];
        let mut comps = Vec::new();
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            let mut comp = vec![start];
            seen[start] = true;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for w in self.adj[v].iter() {
                    if !seen[w] {
                        seen[w] = true;
                        comp.push(w);
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// A whole-graph independence test: no two members conflict.
    pub fn is_independent(&self, members: &BitSet) -> bool {
        members.iter().all(|v| self.adj[v].is_disjoint(members))
    }

    /// A maximality test: every non-member conflicts with some member.
    pub fn is_maximal_independent(&self, members: &BitSet) -> bool {
        self.is_independent(members)
            && (0..self.n)
                .filter(|v| !members.contains(*v))
                .all(|v| !self.adj[v].is_disjoint(members))
    }
}

/// Degrees used throughout the models: Δo of the source, Δi of the
/// destination, restricted to the given communication population.
pub fn degrees(comms: &[Communication], of: &Communication) -> (usize, usize) {
    let dout = comms.iter().filter(|c| c.src == of.src).count();
    let din = comms.iter().filter(|c| c.dst == of.dst).count();
    (dout, din)
}

/// Δo restricted to a node.
pub fn out_degree(comms: &[Communication], node: NodeId) -> usize {
    comms.iter().filter(|c| c.src == node).count()
}

/// Δi restricted to a node.
pub fn in_degree(comms: &[Communication], node: NodeId) -> usize {
    comms.iter().filter(|c| c.dst == node).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CommId;
    use crate::schemes;

    fn fig5_comms() -> Vec<Communication> {
        schemes::fig5().comms().to_vec()
    }

    #[test]
    fn strict_rule_matches_paper_reading() {
        let a = Communication::new(0u32, 1u32, 1);
        let b = Communication::new(0u32, 2u32, 1); // same source
        let c = Communication::new(3u32, 1u32, 1); // same destination as a
        let d = Communication::new(1u32, 4u32, 1); // a.dst == d.src (duplex)
        assert!(ConflictRule::Strict.conflicts(&a, &b));
        assert!(ConflictRule::Strict.conflicts(&a, &c));
        assert!(!ConflictRule::Strict.conflicts(&a, &d));
        assert!(ConflictRule::SharedNode.conflicts(&a, &d));
    }

    #[test]
    fn fig5_conflict_graph_structure() {
        // a(0,3) b(0,2) c(0,1) d(4,3) e(2,3) f(2,5):
        // edges ab ac bc (src 0), ad ae de (dst 3), ef (src 2) = 7 edges.
        let cg = ConflictGraph::build(&fig5_comms(), ConflictRule::Strict);
        assert_eq!(cg.len(), 6);
        assert_eq!(cg.edge_count(), 7);
        assert!(cg.conflicts(0, 3)); // a-d share dst 3
        assert!(cg.conflicts(4, 5)); // e-f share src 2
        assert!(!cg.conflicts(1, 4)); // b(0,2) vs e(2,3): duplex only
        assert_eq!(cg.components().len(), 1);
    }

    #[test]
    fn shared_node_rule_adds_duplex_edges() {
        let strict = ConflictGraph::build(&fig5_comms(), ConflictRule::Strict);
        let shared = ConflictGraph::build(&fig5_comms(), ConflictRule::SharedNode);
        assert!(shared.edge_count() > strict.edge_count());
    }

    #[test]
    fn components_split_independent_subgraphs() {
        // MK1: {a,b,d,f} path, {c,g} pair, {e} isolated.
        let mk1 = schemes::mk1();
        let cg = ConflictGraph::build(mk1.comms(), ConflictRule::Strict);
        let comps = cg.components();
        let mut sizes: Vec<usize> = comps.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 4]);
    }

    #[test]
    fn census_classifies_fig1_cases() {
        // Fig. 1: node0 outgoing-only, node1 income-only, node2 mixed.
        let mut g = CommGraph::new();
        g.add("a", 0u32, 5u32, 1); // outgoes node 0
        g.add("b", 0u32, 6u32, 1); // outgoes node 0
        g.add("c", 7u32, 1u32, 1); // incomes node 1
        g.add("d", 8u32, 1u32, 1); // incomes node 1
        g.add("e", 2u32, 9u32, 1); // outgoes node 2
        g.add("f", 10u32, 2u32, 1); // incomes node 2
        let cen = census(&g);
        let a = &cen[0];
        assert_eq!(a.outgoing_peers, 1);
        assert_eq!(a.income_peers, 0);
        assert_eq!(a.dominant(), Some(ConflictKind::Outgoing));
        let c = &cen[2];
        assert_eq!(c.income_peers, 1);
        assert_eq!(c.dominant(), Some(ConflictKind::Income));
        let e = &cen[4];
        assert_eq!(e.outgoing_peers, 0);
        assert_eq!(e.income_outgo_peers, 1);
        assert_eq!(e.dominant(), Some(ConflictKind::IncomeOutgo));
    }

    #[test]
    fn isolated_comm_census() {
        let mut g = CommGraph::new();
        g.add("a", 0u32, 1u32, 1);
        let cen = census(&g);
        assert_eq!(cen[0], CommConflicts::default(), "shares nothing");
        assert_eq!(cen[0].dominant(), None);
    }

    #[test]
    fn independence_and_maximality() {
        let cg = ConflictGraph::build(&fig5_comms(), ConflictRule::Strict);
        // {a, f} = indices {0, 5} is one of the five maximal state sets.
        let af: BitSet = [0usize, 5].into_iter().collect();
        assert!(cg.is_independent(&af));
        assert!(cg.is_maximal_independent(&af));
        // {a} alone is independent but not maximal (f is compatible).
        let a: BitSet = [0usize].into_iter().collect();
        assert!(cg.is_independent(&a));
        assert!(!cg.is_maximal_independent(&a));
        // {a, d} conflicts (share dst 3).
        let ad: BitSet = [0usize, 3].into_iter().collect();
        assert!(!cg.is_independent(&ad));
    }

    #[test]
    fn degree_helpers() {
        let comms = fig5_comms();
        let a = comms[0];
        let (dout, din) = degrees(&comms, &a);
        assert_eq!(dout, 3); // a,b,c leave node 0
        assert_eq!(din, 3); // a,d,e enter node 3
        assert_eq!(out_degree(&comms, NodeId(2)), 2);
        assert_eq!(in_degree(&comms, NodeId(5)), 1);
    }

    #[test]
    fn conflicting_comms_lists_partners() {
        let g = schemes::fig5();
        let cg = ConflictGraph::build(g.comms(), ConflictRule::Strict);
        let a = g.by_label("a").unwrap();
        let labels: Vec<&str> = cg
            .neighbours(a.idx())
            .iter()
            .map(|v| g.label(CommId(v as u32)))
            .collect();
        assert_eq!(labels, vec!["b", "c", "d", "e"]);
    }
}
