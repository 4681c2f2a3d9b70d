//! Communication state-set enumeration (§V.B).
//!
//! The Myrinet model considers each communication to be either in state
//! *send* or *wait*, under one rule: **when a communication is in state
//! "send", every communication with the same source node or the same
//! destination node is in state "wait"**. A *state set* is a consistent,
//! complete assignment — i.e. a set of simultaneously sending
//! communications to which no further communication can be added: a
//! **maximal independent set** of the strict conflict graph.
//!
//! Enumeration is Bron–Kerbosch with pivoting over the *compatibility*
//! graph (the complement of the conflict graph), run per connected
//! component of the conflict graph. Counts multiply across components, and
//! the model's penalty `S/κ` is invariant under that factorisation, so
//! per-component enumeration gives identical penalties while avoiding the
//! cross-product blow-up.

use netbw_graph::conflict::ConflictGraph;
use netbw_graph::BitSet;

/// Cap on enumerated state sets; enumeration is exponential in the worst
/// case and the model is meant for scheme-sized graphs.
pub const DEFAULT_STATE_SET_BUDGET: usize = 200_000;

/// Error: the enumeration exceeded its state-set budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The budget that was exceeded.
    pub budget: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "state-set enumeration exceeded budget of {} sets",
            self.budget
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// The result of enumerating the state sets of one conflict-graph
/// component (or of a whole graph).
#[derive(Debug, Clone)]
pub struct StateSetEnumeration {
    /// The member vertices, in the indexing of the conflict graph.
    pub vertices: Vec<usize>,
    /// Each state set, as a bitset over conflict-graph indices.
    pub sets: Vec<BitSet>,
}

impl StateSetEnumeration {
    /// Number of state sets `S`.
    pub fn count(&self) -> usize {
        self.sets.len()
    }

    /// Emission coefficient σ(v): number of sets in which `v` sends.
    pub fn emission(&self, v: usize) -> usize {
        self.sets.iter().filter(|s| s.contains(v)).count()
    }
}

/// Enumerates the maximal independent sets of an entire conflict graph,
/// *globally* (cross product over components). Exponential in the number
/// of components; prefer [`enumerate_components`] for model evaluation.
/// Kept for the `ABL-2` ablation and for printing Fig. 5.
pub fn enumerate_global(
    graph: &ConflictGraph,
    budget: usize,
) -> Result<StateSetEnumeration, BudgetExceeded> {
    let vertices: Vec<usize> = (0..graph.len()).collect();
    let sets = bron_kerbosch(graph, &vertices, budget, true)?;
    Ok(StateSetEnumeration { vertices, sets })
}

/// Enumerates state sets per connected component of the conflict graph.
/// Fails as a whole when any component exceeds `budget`; the Myrinet model
/// decides per component through [`enumerate_component`] instead.
pub fn enumerate_components(
    graph: &ConflictGraph,
    budget: usize,
) -> Result<Vec<StateSetEnumeration>, BudgetExceeded> {
    graph
        .components()
        .into_iter()
        .map(|vertices| enumerate_component(graph, &vertices, budget))
        .collect()
}

/// Enumerates the state sets of one connected component (`vertices`, as
/// returned by [`ConflictGraph::components`]), with the sets in
/// conflict-graph indexing.
pub fn enumerate_component(
    graph: &ConflictGraph,
    vertices: &[usize],
    budget: usize,
) -> Result<StateSetEnumeration, BudgetExceeded> {
    let sets = bron_kerbosch(graph, vertices, budget, true)?;
    Ok(StateSetEnumeration {
        vertices: vertices.to_vec(),
        sets,
    })
}

/// Counting-only enumeration result for one component: its members, and
/// either the state-set count and per-member emission coefficients or the
/// budget error when this component alone has more than `budget` sets.
#[derive(Debug, Clone)]
pub struct StateSetCounts {
    /// The member vertices, in conflict-graph indexing.
    pub vertices: Vec<usize>,
    /// `Ok((S, σ))`: the number of state sets `S` in this component and
    /// the emission coefficient σ per member, aligned with `vertices`.
    pub counts: Result<(u64, Vec<u64>), BudgetExceeded>,
}

/// Counts state sets and emission coefficients per component without
/// storing the sets — the memory-lean path used by the Myrinet model when
/// only penalties are needed (set *contents* are only required to print
/// Fig. 5). Each component gets its own outcome, so one component blowing
/// the budget leaves every other component's counts intact.
///
/// The Bron–Kerbosch bitsets of a component are indexed over its own `k`
/// members (O(k²) bits), never over the whole graph.
pub fn count_components(graph: &ConflictGraph, budget: usize) -> Vec<StateSetCounts> {
    // Position of each vertex inside its own component. A vertex's
    // conflict neighbours all share its component, so one table serves
    // every component without resetting.
    let mut local = vec![0usize; graph.len()];
    graph
        .components()
        .into_iter()
        .map(|vertices| {
            let k = vertices.len();
            for (j, &v) in vertices.iter().enumerate() {
                local[v] = j;
            }
            let compat: Vec<BitSet> = vertices
                .iter()
                .enumerate()
                .map(|(j, &v)| {
                    let mut c = BitSet::full(k);
                    c.remove(j);
                    for u in graph.neighbours(v).iter() {
                        c.remove(local[u]);
                    }
                    c
                })
                .collect();
            let mut count = 0u64;
            let mut emission = vec![0u64; k];
            let r = BitSet::with_capacity(k);
            let p = BitSet::full(k);
            let x = BitSet::with_capacity(k);
            let counts = bk_count(&compat, r, p, x, &mut count, &mut emission, budget)
                .map(|()| (count, emission));
            StateSetCounts { vertices, counts }
        })
        .collect()
}

fn bk_count(
    compat: &[BitSet],
    r: BitSet,
    mut p: BitSet,
    mut x: BitSet,
    count: &mut u64,
    emission: &mut [u64],
    budget: usize,
) -> Result<(), BudgetExceeded> {
    if p.is_empty() && x.is_empty() {
        if *count >= budget as u64 {
            return Err(BudgetExceeded { budget });
        }
        *count += 1;
        for v in r.iter() {
            emission[v] += 1;
        }
        return Ok(());
    }
    let pivot_vertex = p
        .iter()
        .chain(x.iter())
        .max_by_key(|&u| compat[u].intersection_len(&p));
    let candidates: Vec<usize> = match pivot_vertex {
        Some(u) => {
            let mut c = p.clone();
            c.difference_with(&compat[u]);
            c.iter().collect()
        }
        None => p.iter().collect(),
    };
    for v in candidates {
        let mut r2 = r.clone();
        r2.insert(v);
        let mut p2 = p.clone();
        p2.intersect_with(&compat[v]);
        let mut x2 = x.clone();
        x2.intersect_with(&compat[v]);
        bk_count(compat, r2, p2, x2, count, emission, budget)?;
        p.remove(v);
        x.insert(v);
    }
    Ok(())
}

/// Naive enumeration without pivoting — reference implementation for tests
/// and the `ABL-2` benchmark.
pub fn enumerate_components_naive(
    graph: &ConflictGraph,
    budget: usize,
) -> Result<Vec<StateSetEnumeration>, BudgetExceeded> {
    graph
        .components()
        .into_iter()
        .map(|vertices| {
            let sets = bron_kerbosch(graph, &vertices, budget, false)?;
            Ok(StateSetEnumeration { vertices, sets })
        })
        .collect()
}

/// Bron–Kerbosch over the complement ("compatibility") graph restricted to
/// `vertices`: maximal independent sets of the conflict graph are maximal
/// cliques of its complement.
fn bron_kerbosch(
    graph: &ConflictGraph,
    vertices: &[usize],
    budget: usize,
    pivot: bool,
) -> Result<Vec<BitSet>, BudgetExceeded> {
    let cap = graph.len();
    // Compatibility adjacency restricted to this component.
    let member: BitSet = vertices.iter().copied().collect();
    let compat: Vec<BitSet> = (0..cap)
        .map(|v| {
            if !member.contains(v) {
                return BitSet::with_capacity(cap);
            }
            let mut c = member.clone();
            c.remove(v);
            c.difference_with(graph.neighbours(v));
            c
        })
        .collect();

    let mut out = Vec::new();
    let r = BitSet::with_capacity(cap);
    let p = member.clone();
    let x = BitSet::with_capacity(cap);
    if pivot {
        bk_rec(&compat, r, p, x, &mut out, budget)?;
    } else {
        bk_rec_naive(&compat, r, p, x, &mut out, budget)?;
    }
    Ok(out)
}

fn bk_rec(
    compat: &[BitSet],
    r: BitSet,
    mut p: BitSet,
    mut x: BitSet,
    out: &mut Vec<BitSet>,
    budget: usize,
) -> Result<(), BudgetExceeded> {
    if p.is_empty() && x.is_empty() {
        if out.len() >= budget {
            return Err(BudgetExceeded { budget });
        }
        out.push(r);
        return Ok(());
    }
    // Pivot: vertex of P ∪ X with most compatibility neighbours in P.
    let candidates: Vec<usize> = {
        let pivot_vertex = p
            .iter()
            .chain(x.iter())
            .max_by_key(|&u| compat[u].intersection_len(&p));
        match pivot_vertex {
            Some(u) => {
                let mut c = p.clone();
                c.difference_with(&compat[u]);
                c.iter().collect()
            }
            None => p.iter().collect(),
        }
    };
    for v in candidates {
        let mut r2 = r.clone();
        r2.insert(v);
        let mut p2 = p.clone();
        p2.intersect_with(&compat[v]);
        let mut x2 = x.clone();
        x2.intersect_with(&compat[v]);
        bk_rec(compat, r2, p2, x2, out, budget)?;
        p.remove(v);
        x.insert(v);
    }
    Ok(())
}

// The non-pivoting variant is selected by calling bron_kerbosch with
// pivot=false; route through a tiny wrapper to keep one recursion body.
#[allow(clippy::too_many_arguments)]
fn bk_rec_naive(
    compat: &[BitSet],
    r: BitSet,
    mut p: BitSet,
    mut x: BitSet,
    out: &mut Vec<BitSet>,
    budget: usize,
) -> Result<(), BudgetExceeded> {
    if p.is_empty() && x.is_empty() {
        if out.len() >= budget {
            return Err(BudgetExceeded { budget });
        }
        out.push(r);
        return Ok(());
    }
    let candidates: Vec<usize> = p.iter().collect();
    for v in candidates {
        let mut r2 = r.clone();
        r2.insert(v);
        let mut p2 = p.clone();
        p2.intersect_with(&compat[v]);
        let mut x2 = x.clone();
        x2.intersect_with(&compat[v]);
        bk_rec_naive(compat, r2, p2, x2, out, budget)?;
        p.remove(v);
        x.insert(v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbw_graph::conflict::ConflictRule;
    use netbw_graph::{schemes, Communication};

    fn enumerate(comms: &[Communication]) -> StateSetEnumeration {
        let cg = ConflictGraph::build(comms, ConflictRule::Strict);
        enumerate_global(&cg, DEFAULT_STATE_SET_BUDGET).unwrap()
    }

    #[test]
    fn fig5_has_exactly_five_state_sets() {
        let g = schemes::fig5();
        let e = enumerate(g.comms());
        assert_eq!(e.count(), 5);
        // emission sums from the Fig. 6 table
        let sums: Vec<usize> = (0..6).map(|v| e.emission(v)).collect();
        assert_eq!(sums, vec![1, 2, 2, 2, 2, 3]);
    }

    #[test]
    fn fig5_sets_are_maximal_independent() {
        let g = schemes::fig5();
        let cg = ConflictGraph::build(g.comms(), ConflictRule::Strict);
        let e = enumerate_global(&cg, DEFAULT_STATE_SET_BUDGET).unwrap();
        for s in &e.sets {
            assert!(cg.is_maximal_independent(s));
        }
    }

    #[test]
    fn fig5_sets_match_hand_enumeration() {
        // {a,f} {b,e} {c,e} {b,d,f} {c,d,f} with a..f = 0..5
        let g = schemes::fig5();
        let e = enumerate(g.comms());
        let mut got: Vec<Vec<usize>> = e.sets.iter().map(|s| s.iter().collect()).collect();
        got.sort();
        let mut want = vec![
            vec![0, 5],
            vec![1, 4],
            vec![2, 4],
            vec![1, 3, 5],
            vec![2, 3, 5],
        ];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn per_component_counts_multiply_to_global() {
        let g = schemes::mk1();
        let cg = ConflictGraph::build(g.comms(), ConflictRule::Strict);
        let global = enumerate_global(&cg, DEFAULT_STATE_SET_BUDGET).unwrap();
        let comps = enumerate_components(&cg, DEFAULT_STATE_SET_BUDGET).unwrap();
        let product: usize = comps.iter().map(StateSetEnumeration::count).product();
        assert_eq!(global.count(), product);
        // MK1 components: path(4) → 3 sets, pair → 2, isolated → 1.
        let mut counts: Vec<usize> = comps.iter().map(StateSetEnumeration::count).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2, 3]);
    }

    #[test]
    fn naive_and_pivoting_agree() {
        for seed in 0..8 {
            let g = schemes::random(6, 8, 100, seed);
            let cg = ConflictGraph::build(g.comms(), ConflictRule::Strict);
            let a = enumerate_components(&cg, DEFAULT_STATE_SET_BUDGET).unwrap();
            let b = enumerate_components_naive(&cg, DEFAULT_STATE_SET_BUDGET).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.count(), y.count(), "seed {seed}");
                let mut sx: Vec<Vec<usize>> = x.sets.iter().map(|s| s.iter().collect()).collect();
                let mut sy: Vec<Vec<usize>> = y.sets.iter().map(|s| s.iter().collect()).collect();
                sx.sort();
                sy.sort();
                assert_eq!(sx, sy, "seed {seed}");
            }
        }
    }

    #[test]
    fn single_comm_has_one_singleton_set() {
        let comms = vec![Communication::new(0u32, 1u32, 1)];
        let e = enumerate(&comms);
        assert_eq!(e.count(), 1);
        assert_eq!(e.emission(0), 1);
    }

    #[test]
    fn empty_graph_has_one_empty_enumeration() {
        let cg = ConflictGraph::build(&[], ConflictRule::Strict);
        let e = enumerate_global(&cg, 10).unwrap();
        // no vertices: BK immediately emits the empty set
        assert_eq!(e.count(), 1);
        assert!(e.sets[0].is_empty());
        assert!(enumerate_components(&cg, 10).unwrap().is_empty());
    }

    #[test]
    fn budget_is_enforced() {
        // outgoing star from many sources to many sinks: K(m) conflict-free
        // pairs explode; use an independent collection (no conflicts):
        // n isolated comms → exactly 1 maximal set globally, so use
        // a matching of conflicting pairs instead: n/2 components of 2
        // comms each (2 sets each) → 2^(n/2) global sets.
        let mut comms = Vec::new();
        for k in 0..16u32 {
            // pair k: two comms sharing a source
            comms.push(Communication::new(100 + k, 2 * k, 1));
            comms.push(Communication::new(100 + k, 2 * k + 1, 1));
        }
        let cg = ConflictGraph::build(&comms, ConflictRule::Strict);
        let err = enumerate_global(&cg, 1000).unwrap_err();
        assert_eq!(err.budget, 1000);
        // per-component stays trivially cheap
        let comps = enumerate_components(&cg, 1000).unwrap();
        assert_eq!(comps.len(), 16);
        assert!(comps.iter().all(|c| c.count() == 2));
    }

    #[test]
    fn counting_agrees_with_enumeration() {
        for seed in 0..10 {
            let g = schemes::random(6, 8, 100, seed);
            let cg = ConflictGraph::build(g.comms(), ConflictRule::Strict);
            let full = enumerate_components(&cg, DEFAULT_STATE_SET_BUDGET).unwrap();
            let counted = count_components(&cg, DEFAULT_STATE_SET_BUDGET);
            assert_eq!(full.len(), counted.len());
            for (e, c) in full.iter().zip(&counted) {
                assert_eq!(e.vertices, c.vertices, "seed {seed}");
                let (count, emission) = c.counts.as_ref().expect("within budget");
                assert_eq!(e.count() as u64, *count, "seed {seed}");
                for (i, &v) in c.vertices.iter().enumerate() {
                    assert_eq!(e.emission(v) as u64, emission[i], "seed {seed} v{v}");
                }
            }
        }
    }

    #[test]
    fn counting_respects_budget() {
        let g = schemes::fig5();
        let cg = ConflictGraph::build(g.comms(), ConflictRule::Strict);
        assert!(count_components(&cg, 3)[0].counts.is_err());
        assert!(count_components(&cg, 5)[0].counts.is_ok());
    }

    #[test]
    fn counting_decides_the_budget_per_component() {
        // Fig. 5 (one 5-set component) next to a disjoint 2-flow fan-out
        // (2 sets): a budget of 3 blows only the Fig. 5 component.
        let mut comms = schemes::fig5().comms().to_vec();
        comms.push(Communication::new(40u32, 41u32, 1));
        comms.push(Communication::new(40u32, 42u32, 1));
        let cg = ConflictGraph::build(&comms, ConflictRule::Strict);
        let counted = count_components(&cg, 3);
        assert_eq!(counted.len(), 2);
        for c in &counted {
            if c.vertices.len() == 6 {
                assert_eq!(c.counts, Err(BudgetExceeded { budget: 3 }));
            } else {
                assert_eq!(c.vertices, vec![6, 7]);
                assert_eq!(c.counts, Ok((2, vec![1, 1])));
            }
        }
    }

    #[test]
    fn sets_cover_every_vertex_at_least_once() {
        // every comm must send in at least one state set (σ ≥ 1): otherwise
        // the penalty would be infinite.
        for seed in 0..6 {
            let g = schemes::random(5, 7, 100, seed);
            let cg = ConflictGraph::build(g.comms(), ConflictRule::Strict);
            for e in enumerate_components(&cg, DEFAULT_STATE_SET_BUDGET).unwrap() {
                for &v in &e.vertices {
                    assert!(e.emission(v) >= 1, "seed {seed} vertex {v}");
                }
            }
        }
    }
}
