//! Every communication scheme of the paper, plus synthetic generators.
//!
//! Topologies were reconstructed from the mangled xymatrix figures and
//! verified numerically against every number the paper prints (see
//! `ARCHITECTURE.md` for the forensics). All constructors default to the
//! paper's 20 MB payload unless noted; use
//! [`CommGraph::with_uniform_size`] to rescale.

use crate::graph::CommGraph;
use crate::units::MB;
use rand::prelude::IndexedRandom;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Default payload used by the paper's penalty measurements (§IV.B).
pub const DEFAULT_SIZE: u64 = 20 * MB;

/// Fig. 2 scheme 1: a single communication `a(0→1)` (penalty 1 by
/// definition of the reference time).
pub fn single() -> CommGraph {
    let mut g = CommGraph::named("fig2-1");
    g.add("a", 0u32, 1u32, DEFAULT_SIZE);
    g
}

/// `k` communications all leaving node 0 towards distinct nodes — the pure
/// outgoing-conflict ladder used to estimate β (§V.A). `k = 1, 2, 3` are
/// Fig. 2 schemes 1–3.
pub fn outgoing_ladder(k: usize) -> CommGraph {
    assert!(k >= 1, "ladder needs at least one communication");
    let mut g = CommGraph::named(format!("out-ladder-{k}"));
    for i in 0..k {
        g.add_auto(0u32, (i + 1) as u32, DEFAULT_SIZE);
    }
    g
}

/// The mirror ladder: `k` communications from distinct nodes all entering
/// node 0 — pure income conflict.
pub fn incoming_ladder(k: usize) -> CommGraph {
    assert!(k >= 1, "ladder needs at least one communication");
    let mut g = CommGraph::named(format!("in-ladder-{k}"));
    for i in 0..k {
        g.add_auto((i + 1) as u32, 0u32, DEFAULT_SIZE);
    }
    g
}

/// Fig. 2 scheme `n` (1-based, `n ∈ 1..=6`).
///
/// Schemes 1–3 are the outgoing ladder from node 0; schemes 4–6 add
/// communications *into* node 0 from fresh nodes (`d(4→0)`, `e(5→0)`,
/// `f(6→0)`), creating income/outgo conflicts at node 0's NIC.
pub fn fig2_scheme(n: usize) -> CommGraph {
    assert!((1..=6).contains(&n), "Fig. 2 has schemes 1..=6, got {n}");
    let mut g = CommGraph::named(format!("fig2-{n}"));
    for i in 0..n.min(3) {
        g.add_auto(0u32, (i + 1) as u32, DEFAULT_SIZE);
    }
    for i in 0..n.saturating_sub(3) {
        g.add_auto((4 + i) as u32, 0u32, DEFAULT_SIZE);
    }
    g
}

/// Fig. 1's three-node concurrent scheme: node 0 pure outgoing, node 1 pure
/// income, node 2 mixed income/outgo. Illustrates the taxonomy of §IV.A.
pub fn fig1() -> CommGraph {
    let mut g = CommGraph::named("fig1");
    g.add("a", 0u32, 3u32, DEFAULT_SIZE); // outgoes node 0
    g.add("b", 0u32, 4u32, DEFAULT_SIZE); // outgoes node 0
    g.add("c", 5u32, 1u32, DEFAULT_SIZE); // incomes node 1
    g.add("d", 6u32, 1u32, DEFAULT_SIZE); // incomes node 1
    g.add("e", 2u32, 7u32, DEFAULT_SIZE); // outgoes node 2 …
    g.add("f", 8u32, 2u32, DEFAULT_SIZE); // … while f incomes node 2
    g
}

/// Fig. 4's γ-calibration graph (message size 4 MB in the paper):
/// `a(0→1) b(0→2) c(0→3) d(1→2) e(1→3) f(2→3)`.
///
/// γo is observed on `a` (node 0 emission side), γi on `f` (node 3
/// reception side). Reproduces the paper's predicted times with
/// β=0.75, γo=0.115, γi=0.036.
pub fn fig4(size: u64) -> CommGraph {
    let mut g = CommGraph::named("fig4");
    g.add("a", 0u32, 1u32, size);
    g.add("b", 0u32, 2u32, size);
    g.add("c", 0u32, 3u32, size);
    g.add("d", 1u32, 2u32, size);
    g.add("e", 1u32, 3u32, size);
    g.add("f", 2u32, 3u32, size);
    g
}

/// Fig. 5's Myrinet example graph:
/// `a(0→3) b(0→2) c(0→1) d(4→3) e(2→3) f(2→5)`.
///
/// Under the strict conflict rule this has exactly 5 maximal state sets
/// with emission sums `a=1 b=2 c=2 d=2 e=2 f=3`, reproducing the Fig. 6
/// table verbatim (penalties `5, 5, 5, 2.5, 2.5, 2.5`).
pub fn fig5() -> CommGraph {
    let mut g = CommGraph::named("fig5");
    g.add("a", 0u32, 3u32, DEFAULT_SIZE);
    g.add("b", 0u32, 2u32, DEFAULT_SIZE);
    g.add("c", 0u32, 1u32, DEFAULT_SIZE);
    g.add("d", 4u32, 3u32, DEFAULT_SIZE);
    g.add("e", 2u32, 3u32, DEFAULT_SIZE);
    g.add("f", 2u32, 5u32, DEFAULT_SIZE);
    g
}

/// Fig. 7 MK1 — the synthetic *tree*:
/// `a(0→1) b(0→2) c(3→6) g(3→7) d(4→1) f(6→2) e(1→5)`.
///
/// Conflict components under the strict rule: the path `d–a–b–f`, the pair
/// `{c,g}` and the isolated `{e}`. With `tref = 0.0354 s` the fluid solver
/// reproduces the paper's predicted column
/// (`a,b → 0.089  c,g → 0.071  d,f → 0.053  e → 0.035`).
pub fn mk1() -> CommGraph {
    let mut g = CommGraph::named("mk1");
    g.add("a", 0u32, 1u32, DEFAULT_SIZE);
    g.add("b", 0u32, 2u32, DEFAULT_SIZE);
    g.add("c", 3u32, 6u32, DEFAULT_SIZE);
    g.add("d", 4u32, 1u32, DEFAULT_SIZE);
    g.add("e", 1u32, 5u32, DEFAULT_SIZE);
    g.add("f", 6u32, 2u32, DEFAULT_SIZE);
    g.add("g", 3u32, 7u32, DEFAULT_SIZE);
    g
}

/// Fig. 7 MK2 — the *complete graph* on 5 nodes, one communication per
/// unordered node pair:
/// `a(0→1) b(0→2) c(0→3) d(0→4) e(2→1) f(1→4) g(1→3) h(4→3) i(4→2) j(3→2)`.
///
/// Fluid-solver predictions reproduce the paper's column
/// (`a–d → 0.177  e → 0.053  f,g → 0.085  h,i → 0.101  j → 0.073`).
pub fn mk2() -> CommGraph {
    let mut g = CommGraph::named("mk2");
    g.add("a", 0u32, 1u32, DEFAULT_SIZE);
    g.add("b", 0u32, 2u32, DEFAULT_SIZE);
    g.add("c", 0u32, 3u32, DEFAULT_SIZE);
    g.add("d", 0u32, 4u32, DEFAULT_SIZE);
    g.add("e", 2u32, 1u32, DEFAULT_SIZE);
    g.add("f", 1u32, 4u32, DEFAULT_SIZE);
    g.add("g", 1u32, 3u32, DEFAULT_SIZE);
    g.add("h", 4u32, 3u32, DEFAULT_SIZE);
    g.add("i", 4u32, 2u32, DEFAULT_SIZE);
    g.add("j", 3u32, 2u32, DEFAULT_SIZE);
    g
}

/// A directed ring `0→1→…→(n−1)→0` — HPL's panel-pipeline pattern
/// ("each task n sends to task n+1", §VI.D).
pub fn ring(n: usize, size: u64) -> CommGraph {
    assert!(n >= 2, "ring needs at least two nodes");
    let mut g = CommGraph::named(format!("ring-{n}"));
    for i in 0..n {
        g.add_auto(i as u32, ((i + 1) % n) as u32, size);
    }
    g
}

/// Oriented complete graph K_n: one communication per unordered pair, the
/// direction chosen from the lower-indexed node when `low_to_high`, else
/// alternating by parity for a mixed pattern.
pub fn complete(n: usize, size: u64, low_to_high: bool) -> CommGraph {
    assert!(n >= 2, "complete graph needs at least two nodes");
    let mut g = CommGraph::named(format!("k{n}"));
    for i in 0..n {
        for j in (i + 1)..n {
            let (s, d) = if low_to_high || (i + j) % 2 == 0 {
                (i, j)
            } else {
                (j, i)
            };
            g.add_auto(s as u32, d as u32, size);
        }
    }
    g
}

/// All-to-one incast: `k` senders to node 0 (same as [`incoming_ladder`]
/// with explicit size).
pub fn incast(k: usize, size: u64) -> CommGraph {
    incoming_ladder(k).with_uniform_size(size)
}

/// A uniformly random scheme: `comms` communications over `nodes` nodes,
/// no self-loops, duplicate (src,dst) pairs allowed (multigraph), seeded
/// for reproducibility.
pub fn random(nodes: usize, comms: usize, size: u64, seed: u64) -> CommGraph {
    assert!(nodes >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = CommGraph::named(format!("rand-{nodes}n-{comms}c-{seed}"));
    for _ in 0..comms {
        let s = rng.random_range(0..nodes) as u32;
        let mut d = rng.random_range(0..nodes - 1) as u32;
        if d >= s {
            d += 1;
        }
        g.add_auto(s, d, size);
    }
    g
}

/// A random scheme with bounded degrees, useful for stressing the state-set
/// enumeration without exponential blow-up: each node emits at most
/// `max_out` and receives at most `max_in` communications.
pub fn random_bounded(
    nodes: usize,
    comms: usize,
    max_out: usize,
    max_in: usize,
    size: u64,
    seed: u64,
) -> CommGraph {
    assert!(nodes >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0usize; nodes];
    let mut inn = vec![0usize; nodes];
    let mut g = CommGraph::named(format!("randb-{nodes}n-{comms}c-{seed}"));
    let mut attempts = 0;
    while g.len() < comms && attempts < comms * 50 {
        attempts += 1;
        let candidates_s: Vec<usize> = (0..nodes).filter(|&v| out[v] < max_out).collect();
        let candidates_d: Vec<usize> = (0..nodes).filter(|&v| inn[v] < max_in).collect();
        let (Some(&s), Some(&d)) = (
            candidates_s.as_slice().choose(&mut rng),
            candidates_d.as_slice().choose(&mut rng),
        ) else {
            break;
        };
        if s == d {
            continue;
        }
        out[s] += 1;
        inn[d] += 1;
        g.add_auto(s as u32, d as u32, size);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn fig2_schemes_have_expected_shapes() {
        for n in 1..=6 {
            let g = fig2_scheme(n);
            assert_eq!(g.len(), n, "scheme {n}");
        }
        let g4 = fig2_scheme(4);
        assert_eq!(g4.out_degree(NodeId(0)), 3);
        assert_eq!(g4.in_degree(NodeId(0)), 1);
        let g6 = fig2_scheme(6);
        assert_eq!(g6.in_degree(NodeId(0)), 3);
    }

    #[test]
    #[should_panic(expected = "schemes 1..=6")]
    fn fig2_range_checked() {
        fig2_scheme(7);
    }

    #[test]
    fn ladders() {
        let g = outgoing_ladder(3);
        assert_eq!(g.out_degree(NodeId(0)), 3);
        assert!(g.comms().iter().all(|c| c.size == DEFAULT_SIZE));
        let g = incoming_ladder(4);
        assert_eq!(g.in_degree(NodeId(0)), 4);
    }

    #[test]
    fn fig5_shape() {
        let g = fig5();
        assert_eq!(g.len(), 6);
        assert_eq!(g.out_degree(NodeId(0)), 3);
        assert_eq!(g.in_degree(NodeId(3)), 3);
        assert_eq!(g.out_degree(NodeId(2)), 2);
    }

    #[test]
    fn mk1_is_a_tree_on_nodes() {
        let g = mk1();
        assert_eq!(g.len(), 7);
        assert_eq!(g.nodes().len(), 8); // 8 nodes, 7 edges, connected ⇒ tree
    }

    #[test]
    fn mk2_is_oriented_k5() {
        let g = mk2();
        assert_eq!(g.len(), 10);
        assert_eq!(g.nodes().len(), 5);
        // each unordered pair exactly once
        let mut pairs: Vec<(u32, u32)> = g
            .comms()
            .iter()
            .map(|c| {
                let (a, b) = (c.src.0, c.dst.0);
                (a.min(b), a.max(b))
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 10);
    }

    #[test]
    fn ring_and_complete_generators() {
        let r = ring(5, 100);
        assert_eq!(r.len(), 5);
        assert!(r.comms().iter().all(|c| !c.is_intra_node()));
        let k = complete(5, 100, true);
        assert_eq!(k.len(), 10);
        let k_mixed = complete(4, 100, false);
        assert_eq!(k_mixed.len(), 6);
    }

    #[test]
    fn random_is_reproducible_and_loop_free() {
        let a = random(8, 20, 100, 42);
        let b = random(8, 20, 100, 42);
        assert_eq!(a, b);
        assert!(a.comms().iter().all(|c| !c.is_intra_node()));
        let c = random(8, 20, 100, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn bounded_random_respects_degrees() {
        let g = random_bounded(10, 24, 2, 3, 100, 7);
        for v in g.nodes() {
            assert!(g.out_degree(v) <= 2);
            assert!(g.in_degree(v) <= 3);
        }
    }
}
