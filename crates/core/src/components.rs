//! Conflict-component tracking over communication endpoints.
//!
//! Every penalty model in this crate is *component-local*: a flow's
//! penalty depends only on the flows it transitively shares an endpoint
//! with (GigE and InfiniBand read per-endpoint degree multisets, Myrinet
//! enumerates state sets per union–find conflict component, and the
//! baselines count direct conflicts). Two flows in disjoint connected
//! components of the shared-endpoint graph therefore never influence each
//! other's penalty — which is the partitioning invariant the sharded fluid
//! engine (`netbw-fluid`'s `with_sharded` mode) builds on: it simulates
//! each component on its own timeline and penalty cache.
//!
//! [`ComponentTracker`] maintains those connected components incrementally
//! in both directions. Arrivals union endpoints as a classic union–find
//! ([`ComponentTracker::insert`], reporting [`ComponentChange`]); departures
//! refine the partition back apart ([`ComponentTracker::remove`], reporting
//! [`ComponentRemoval`]). Refinement is exact but *bounded*: the tracker
//! keeps per-edge flow refcounts and per-node incident-flow counts, so most
//! departures resolve in O(1) (the edge still carries flows, or a leaf
//! endpoint drained out), and only a departure that actually disconnects its
//! endpoints pays a sweep over the departed flow's component — never the
//! whole graph. A union of true components is still a safe partition cell
//! (penalties computed over a union match the per-component answers
//! bit-for-bit, by the same locality), so a caller may *defer* acting on
//! splits — splitting is a performance refinement, never a correctness
//! requirement — but the tracker itself always reports the true partition.

use crate::intern::SlotInterner;
use netbw_graph::NodeId;

/// Dense index of an interned endpoint inside a [`ComponentTracker`].
///
/// Component roots are identified by the index of their representative
/// node; a root index stays the canonical name of its component until the
/// component is absorbed into another (reported by
/// [`ComponentChange::Bridged`]), its root node departs (reported by the
/// `root` field of [`ComponentRemoval::Shrunk`]), or the component splits
/// (the splinter gets a fresh root, [`ComponentRemoval::Split`]).
pub type ComponentRoot = u32;

/// What one [`ComponentTracker::insert`] did to the component structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComponentChange {
    /// Both endpoints were new: a fresh component was created.
    Created {
        /// The new component's root.
        root: ComponentRoot,
    },
    /// The flow landed inside one existing component (possibly growing it
    /// by a new endpoint). The component's root is unchanged.
    Joined {
        /// The (pre-existing) root of the component joined.
        root: ComponentRoot,
    },
    /// The flow's endpoints lay in two distinct components, which are now
    /// one: `absorbed` is no longer a root, `root` names the union.
    Bridged {
        /// The surviving component's root.
        root: ComponentRoot,
        /// The root that was absorbed — not a root again until the
        /// partition refines back apart and re-seats it.
        absorbed: ComponentRoot,
    },
}

impl ComponentChange {
    /// The root of the component the inserted flow ended up in.
    pub fn root(&self) -> ComponentRoot {
        match *self {
            ComponentChange::Created { root }
            | ComponentChange::Joined { root }
            | ComponentChange::Bridged { root, .. } => root,
        }
    }
}

/// What one [`ComponentTracker::remove`] did to the component structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComponentRemoval {
    /// The component stays connected. `root` is its (possibly re-seated)
    /// root after the removal: it differs from `old_root` only when the
    /// old root node itself drained out of the population.
    Shrunk {
        /// The component's root before the removal.
        old_root: ComponentRoot,
        /// The component's root after the removal.
        root: ComponentRoot,
    },
    /// The departed flow was the component's last: both endpoints drained
    /// out and the component is gone.
    Drained {
        /// The root the now-empty component had.
        root: ComponentRoot,
    },
    /// The departure disconnected the component into exactly two parts
    /// (removing one flow can never make more). The part containing the
    /// old root keeps it as `root`; the splinter is re-rooted at
    /// `split_root`, a fresh root callers have never seen for a live
    /// component.
    Split {
        /// The kept part's root (same root the component had before).
        root: ComponentRoot,
        /// The splinter's new root.
        split_root: ComponentRoot,
    },
}

impl ComponentRemoval {
    /// The root of the component the departed flow was in, as named
    /// *before* the removal.
    pub fn old_root(&self) -> ComponentRoot {
        match *self {
            ComponentRemoval::Shrunk { old_root, .. } => old_root,
            ComponentRemoval::Drained { root } | ComponentRemoval::Split { root, .. } => root,
        }
    }
}

/// Incremental connected components of the shared-endpoint graph: a
/// union–find over node ids that also refines back apart on departures.
///
/// Inserting a flow unions its two endpoints and reports what changed
/// ([`ComponentChange`]); removing a previously inserted flow reports
/// whether its component shrank, drained, or split ([`ComponentRemoval`]).
/// An existing component's root is stable until the component is absorbed,
/// its root node departs, or it splits — each transition is reported, which
/// is what lets callers key side tables (the sharded engine's shard map)
/// by root. Node slots freed by departures are recycled for later
/// endpoints, so a long-lived churning population keeps the tracker's
/// footprint proportional to the *live* graph.
#[derive(Debug, Default, Clone)]
pub struct ComponentTracker {
    /// Node id → slot; released slots are recycled for later endpoints.
    slots: SlotInterner,
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Per node: `(neighbor, live-flow count)` for every edge with at
    /// least one live flow. Self-loops appear once, on their own node.
    adj: Vec<Vec<(u32, u32)>>,
    /// Per node: how many live flows touch it (a self-loop counts once).
    incident: Vec<u32>,
    components: usize,
    // Sweep scratch: generation marks avoid clearing a visited bitmap.
    mark: Vec<u32>,
    mark_gen: u32,
    stack: Vec<u32>,
    visited: Vec<u32>,
}

impl ComponentTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        ComponentTracker::default()
    }

    /// Number of distinct components.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Forgets everything while keeping allocations warm.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.parent.clear();
        self.rank.clear();
        self.adj.clear();
        self.incident.clear();
        self.components = 0;
        self.mark.clear();
        self.mark_gen = 0;
    }

    /// The root of the component containing `node`, or `None` if the node
    /// is not in the live population.
    pub fn find(&mut self, node: NodeId) -> Option<ComponentRoot> {
        let idx = self.slots.get(node)?;
        Some(self.find_idx(idx))
    }

    /// Unions the components of `a` and `b` (interning either endpoint as
    /// needed) and reports what changed. Inserting an intra-node flow
    /// (`a == b`) is fine: the node forms (or keeps) its own component.
    pub fn insert(&mut self, a: NodeId, b: NodeId) -> ComponentChange {
        let (ia, a_new) = self.intern(a);
        if a == b {
            self.add_edge(ia, ia);
            self.incident[ia as usize] += 1;
            return if a_new {
                self.components += 1;
                ComponentChange::Created { root: ia }
            } else {
                ComponentChange::Joined {
                    root: self.find_idx(ia),
                }
            };
        }
        let (ib, b_new) = self.intern(b);
        self.add_edge(ia, ib);
        self.incident[ia as usize] += 1;
        self.incident[ib as usize] += 1;
        match (a_new, b_new) {
            (true, true) => {
                self.components += 1;
                let (root, _) = self.union(ia, ib);
                ComponentChange::Created { root }
            }
            (false, true) => {
                let root = self.find_idx(ia);
                // The fresh singleton attaches under the existing root
                // (union prefers its first argument on rank ties), so the
                // component's canonical root never moves on a join.
                let (root, _) = self.union(root, ib);
                ComponentChange::Joined { root }
            }
            (true, false) => {
                let root = self.find_idx(ib);
                let (root, _) = self.union(root, ia);
                ComponentChange::Joined { root }
            }
            (false, false) => {
                let ra = self.find_idx(ia);
                let rb = self.find_idx(ib);
                if ra == rb {
                    return ComponentChange::Joined { root: ra };
                }
                self.components -= 1;
                let (root, absorbed) = self.union(ra, rb);
                ComponentChange::Bridged { root, absorbed }
            }
        }
    }

    /// Removes one previously [`insert`](Self::insert)ed flow between `a`
    /// and `b` and reports what happened to its component. The work is
    /// bounded by the departed flow's component: O(1) while the edge still
    /// carries other flows or a drained endpoint was a leaf of the
    /// union–find root, and one sweep of the component's live edges when
    /// connectivity actually has to be re-derived.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, may corrupt counts in release) if no
    /// matching flow is live — every `remove` must pair with an earlier
    /// `insert`.
    pub fn remove(&mut self, a: NodeId, b: NodeId) -> ComponentRemoval {
        let ia = self
            .slots
            .get(a)
            .expect("removing a flow whose endpoint was never inserted");
        let ib = self
            .slots
            .get(b)
            .expect("removing a flow whose endpoint was never inserted");
        let old_root = self.find_idx(ia);
        debug_assert_eq!(
            old_root,
            self.find_idx(ib),
            "a flow's endpoints must share a component"
        );
        let edge_gone = self.drop_edge(ia, ib);
        self.incident[ia as usize] -= 1;
        if ia != ib {
            self.incident[ib as usize] -= 1;
        }
        if !edge_gone {
            // Other live flows still run over this exact edge: nothing can
            // have disconnected, no endpoint can have drained.
            return ComponentRemoval::Shrunk {
                old_root,
                root: old_root,
            };
        }
        let a_iso = self.incident[ia as usize] == 0;
        let b_iso = self.incident[ib as usize] == 0;
        if ia == ib {
            // Self-loop: one endpoint, no connectivity to lose.
            return if a_iso {
                self.retire(ia);
                self.components -= 1;
                ComponentRemoval::Drained { root: old_root }
            } else {
                ComponentRemoval::Shrunk {
                    old_root,
                    root: old_root,
                }
            };
        }
        match (a_iso, b_iso) {
            (true, true) => {
                // Both endpoints only carried this flow, so the component
                // was exactly {a, b} and is now gone.
                self.retire(ia);
                self.retire(ib);
                self.components -= 1;
                ComponentRemoval::Drained { root: old_root }
            }
            drained @ (true, false) | drained @ (false, true) => {
                // One endpoint drained out. It was a leaf (its only edge
                // was the departed one), so no path ran *through* it and
                // the survivors are still connected — but its slot dies,
                // and arbitrary union–find parent chains may pass through
                // dead slots, so re-root the survivors explicitly.
                let (dead, seed) = if drained.0 { (ia, ib) } else { (ib, ia) };
                self.retire(dead);
                let root = self.reroot(seed, old_root);
                ComponentRemoval::Shrunk { old_root, root }
            }
            (false, false) => {
                // The edge is gone but both endpoints still carry flows:
                // the only way to know whether the component held together
                // is to look — one sweep, bounded by the component.
                if self.sweep(ia, Some(ib)) {
                    return ComponentRemoval::Shrunk {
                        old_root,
                        root: old_root,
                    };
                }
                // Split. The sweep left `a`'s part in the visited set;
                // re-root it, then sweep and re-root `b`'s part. Exactly
                // one of the two parts contains the old root node and
                // keeps its name.
                let a_root = self.reroot_visited(old_root, ia);
                self.sweep(ib, None);
                let b_root = self.reroot_visited(old_root, ib);
                self.components += 1;
                if a_root == old_root {
                    ComponentRemoval::Split {
                        root: old_root,
                        split_root: b_root,
                    }
                } else {
                    debug_assert_eq!(b_root, old_root);
                    ComponentRemoval::Split {
                        root: old_root,
                        split_root: a_root,
                    }
                }
            }
        }
    }

    fn intern(&mut self, node: NodeId) -> (u32, bool) {
        let (idx, fresh) = self.slots.intern(node);
        let i = idx as usize;
        if fresh && i == self.parent.len() {
            self.parent.push(idx);
            self.rank.push(0);
            self.adj.push(Vec::new());
            self.incident.push(0);
            self.mark.push(0);
        } else if fresh {
            self.parent[i] = idx;
            self.rank[i] = 0;
            debug_assert!(self.adj[i].is_empty());
            debug_assert_eq!(self.incident[i], 0);
        }
        (idx, fresh)
    }

    /// Retires a drained node's slot for re-interning. Callers must have
    /// re-rooted (or drained) its component: live parent chains never pass
    /// through retired slots.
    fn retire(&mut self, idx: u32) {
        let i = idx as usize;
        debug_assert_eq!(self.incident[i], 0);
        self.slots.release(idx);
        self.adj[i].clear();
        self.parent[i] = idx;
        self.rank[i] = 0;
    }

    fn add_edge(&mut self, ia: u32, ib: u32) {
        fn bump(list: &mut Vec<(u32, u32)>, to: u32) {
            if let Some(e) = list.iter_mut().find(|e| e.0 == to) {
                e.1 += 1;
            } else {
                list.push((to, 1));
            }
        }
        bump(&mut self.adj[ia as usize], ib);
        if ia != ib {
            bump(&mut self.adj[ib as usize], ia);
        }
    }

    /// Drops one flow from the `(ia, ib)` edge, returning whether the edge
    /// carried its last flow and is gone from the adjacency.
    fn drop_edge(&mut self, ia: u32, ib: u32) -> bool {
        fn decr(list: &mut Vec<(u32, u32)>, to: u32) -> bool {
            let pos = list
                .iter()
                .position(|e| e.0 == to)
                .expect("removing a flow over an edge that carries none");
            list[pos].1 -= 1;
            if list[pos].1 == 0 {
                list.swap_remove(pos);
                true
            } else {
                false
            }
        }
        let gone = decr(&mut self.adj[ia as usize], ib);
        if ia != ib {
            let gone_b = decr(&mut self.adj[ib as usize], ia);
            debug_assert_eq!(gone, gone_b, "adjacency refcounts out of sync");
        }
        gone
    }

    /// Sweeps (BFS) the live-edge graph from `seed`. Returns `true` as
    /// soon as `target` is reached; otherwise visits the whole component,
    /// leaving it in `self.visited`, and returns `false`.
    fn sweep(&mut self, seed: u32, target: Option<u32>) -> bool {
        self.mark_gen = self.mark_gen.wrapping_add(1);
        if self.mark_gen == 0 {
            self.mark.fill(0);
            self.mark_gen = 1;
        }
        let gen = self.mark_gen;
        let mut stack = std::mem::take(&mut self.stack);
        let mut visited = std::mem::take(&mut self.visited);
        stack.clear();
        visited.clear();
        self.mark[seed as usize] = gen;
        stack.push(seed);
        let mut hit = false;
        'bfs: while let Some(n) = stack.pop() {
            visited.push(n);
            for &(m, _) in &self.adj[n as usize] {
                if self.mark[m as usize] != gen {
                    self.mark[m as usize] = gen;
                    if Some(m) == target {
                        hit = true;
                        break 'bfs;
                    }
                    stack.push(m);
                }
            }
        }
        self.stack = stack;
        self.visited = visited;
        hit
    }

    /// Re-roots the nodes in `self.visited` (one whole component part):
    /// the root is `preferred` if it is among them, else `seed`. Writing
    /// every parent directly keeps chains one hop long and — crucially —
    /// off any slot outside the part (dead or split away).
    fn reroot_visited(&mut self, preferred: u32, seed: u32) -> u32 {
        let root = if self.visited.contains(&preferred) {
            preferred
        } else {
            seed
        };
        for &n in &self.visited {
            self.parent[n as usize] = root;
            self.rank[n as usize] = 0;
        }
        self.rank[root as usize] = 1;
        root
    }

    /// Sweeps the component containing `seed` and re-roots it at
    /// `preferred` (if live and in it) or `seed`.
    fn reroot(&mut self, seed: u32, preferred: u32) -> u32 {
        self.sweep(seed, None);
        self.reroot_visited(preferred, seed)
    }

    fn find_idx(&mut self, mut idx: u32) -> u32 {
        // Path halving keeps finds amortized near-constant without a
        // second pass.
        while self.parent[idx as usize] != idx {
            let grandparent = self.parent[self.parent[idx as usize] as usize];
            self.parent[idx as usize] = grandparent;
            idx = grandparent;
        }
        idx
    }

    /// Unions two roots, returning `(winner, loser)`. Rank ties go to the
    /// first argument — the invariant joins rely on to keep existing roots
    /// canonical.
    fn union(&mut self, ra: u32, rb: u32) -> (u32, u32) {
        debug_assert_ne!(ra, rb);
        let (winner, loser) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[loser as usize] = winner;
        if self.rank[winner as usize] == self.rank[loser as usize] {
            self.rank[winner as usize] += 1;
        }
        (winner, loser)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn disjoint_flows_create_distinct_components() {
        let mut t = ComponentTracker::new();
        let a = t.insert(n(0), n(1));
        let b = t.insert(n(2), n(3));
        assert!(matches!(a, ComponentChange::Created { .. }));
        assert!(matches!(b, ComponentChange::Created { .. }));
        assert_ne!(a.root(), b.root());
        assert_eq!(t.component_count(), 2);
        assert_eq!(t.slots.live(), 4);
    }

    #[test]
    fn shared_endpoint_joins_without_moving_the_root() {
        let mut t = ComponentTracker::new();
        let created = t.insert(n(0), n(1));
        // new endpoint 2 attaches to the existing component
        let joined = t.insert(n(0), n(2));
        assert_eq!(
            joined,
            ComponentChange::Joined {
                root: created.root()
            }
        );
        // flow entirely inside the component
        let internal = t.insert(n(1), n(2));
        assert_eq!(
            internal,
            ComponentChange::Joined {
                root: created.root()
            }
        );
        // new source, existing destination: still a join, same root
        let reversed = t.insert(n(3), n(1));
        assert_eq!(
            reversed,
            ComponentChange::Joined {
                root: created.root()
            }
        );
        assert_eq!(t.component_count(), 1);
    }

    #[test]
    fn bridging_reports_winner_and_absorbed() {
        let mut t = ComponentTracker::new();
        let a = t.insert(n(0), n(1)).root();
        let b = t.insert(n(2), n(3)).root();
        let bridged = t.insert(n(1), n(2));
        let ComponentChange::Bridged { root, absorbed } = bridged else {
            panic!("expected a bridge, got {bridged:?}");
        };
        assert!(root == a && absorbed == b || root == b && absorbed == a);
        assert_eq!(t.component_count(), 1);
        // every endpoint now resolves to the surviving root
        for i in 0..4 {
            assert_eq!(t.find(n(i)), Some(root));
        }
        // further flows inside the union are joins on the surviving root
        assert_eq!(t.insert(n(0), n(3)), ComponentChange::Joined { root });
    }

    #[test]
    fn intra_node_flows_form_singleton_components() {
        let mut t = ComponentTracker::new();
        let c = t.insert(n(5), n(5));
        assert!(matches!(c, ComponentChange::Created { .. }));
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.slots.live(), 1);
        assert_eq!(
            t.insert(n(5), n(5)),
            ComponentChange::Joined { root: c.root() }
        );
        // the singleton bridges like any other component
        let other = t.insert(n(6), n(7)).root();
        let bridged = t.insert(n(5), n(6));
        assert!(matches!(bridged, ComponentChange::Bridged { .. }));
        assert_eq!(t.find(n(5)), t.find(n(7)));
        let _ = other;
    }

    #[test]
    fn find_misses_unknown_nodes_and_clear_forgets() {
        let mut t = ComponentTracker::new();
        assert_eq!(t.find(n(0)), None);
        t.insert(n(0), n(1));
        assert!(t.find(n(0)).is_some());
        t.clear();
        assert_eq!(t.find(n(0)), None);
        assert_eq!(t.component_count(), 0);
        assert_eq!(t.slots.live(), 0);
    }

    #[test]
    fn chains_of_bridges_keep_one_component() {
        let mut t = ComponentTracker::new();
        for i in 0..10u32 {
            t.insert(n(2 * i), n(2 * i + 1));
        }
        assert_eq!(t.component_count(), 10);
        for i in 0..9u32 {
            let c = t.insert(n(2 * i + 1), n(2 * i + 2));
            assert!(matches!(c, ComponentChange::Bridged { .. }), "{i}: {c:?}");
        }
        assert_eq!(t.component_count(), 1);
        let root = t.find(n(0)).unwrap();
        for i in 0..20u32 {
            assert_eq!(t.find(n(i)), Some(root));
        }
    }

    #[test]
    fn duplicate_flows_keep_the_edge_alive() {
        let mut t = ComponentTracker::new();
        let root = t.insert(n(0), n(1)).root();
        t.insert(n(0), n(1));
        t.insert(n(1), n(0)); // direction does not matter: same edge
                              // two removals leave one live flow on the edge
        for _ in 0..2 {
            assert_eq!(
                t.remove(n(0), n(1)),
                ComponentRemoval::Shrunk {
                    old_root: root,
                    root
                }
            );
            assert_eq!(t.component_count(), 1);
        }
        assert_eq!(t.remove(n(0), n(1)), ComponentRemoval::Drained { root });
        assert_eq!(t.component_count(), 0);
        assert_eq!(t.slots.live(), 0);
    }

    #[test]
    fn leaf_departure_shrinks_without_moving_the_root() {
        let mut t = ComponentTracker::new();
        let root = t.insert(n(0), n(1)).root();
        t.insert(n(1), n(2)); // 2 is a leaf
        let r = t.remove(n(1), n(2));
        assert_eq!(
            r,
            ComponentRemoval::Shrunk {
                old_root: root,
                root
            }
        );
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.slots.live(), 2);
        assert_eq!(t.find(n(2)), None, "drained endpoints are forgotten");
        assert_eq!(t.find(n(0)), Some(root));
    }

    #[test]
    fn root_departure_reseats_the_root() {
        let mut t = ComponentTracker::new();
        let old = t.insert(n(0), n(1)).root();
        t.insert(n(1), n(2));
        // drain every flow touching the root node
        let root_node = if old == 0 { n(0) } else { n(1) };
        let other = if old == 0 { n(1) } else { n(0) };
        let r = t.remove(root_node, other);
        let ComponentRemoval::Shrunk { old_root, root } = r else {
            panic!("expected shrink, got {r:?}");
        };
        assert_eq!(old_root, old);
        if root_node == n(0) {
            // node 0 only carried the removed flow: it drained, and if it
            // was the root the root must have moved to a survivor.
            assert_ne!(root, old);
            assert_eq!(t.find(n(1)), Some(root));
            assert_eq!(t.find(n(2)), Some(root));
        }
        assert_eq!(t.component_count(), 1);
    }

    #[test]
    fn cutting_a_chain_splits_into_two_components() {
        let mut t = ComponentTracker::new();
        // path 0-1-2-3
        let root = t.insert(n(0), n(1)).root();
        t.insert(n(1), n(2));
        t.insert(n(2), n(3));
        assert_eq!(t.component_count(), 1);
        let r = t.remove(n(1), n(2));
        let ComponentRemoval::Split {
            root: kept,
            split_root,
        } = r
        else {
            panic!("expected a split, got {r:?}");
        };
        assert_eq!(kept, root);
        assert_ne!(split_root, kept);
        assert_eq!(t.component_count(), 2);
        // endpoints resolve into the two parts, flow-mates together
        assert_eq!(t.find(n(0)), t.find(n(1)));
        assert_eq!(t.find(n(2)), t.find(n(3)));
        assert_ne!(t.find(n(0)), t.find(n(2)));
        let roots = [t.find(n(0)).unwrap(), t.find(n(2)).unwrap()];
        assert!(roots.contains(&kept) && roots.contains(&split_root));
    }

    #[test]
    fn split_after_bridge_round_trips() {
        let mut t = ComponentTracker::new();
        let a = t.insert(n(0), n(1)).root();
        let b = t.insert(n(2), n(3)).root();
        let bridged = t.insert(n(1), n(2));
        assert!(matches!(bridged, ComponentChange::Bridged { .. }));
        let r = t.remove(n(1), n(2));
        let ComponentRemoval::Split { root, split_root } = r else {
            panic!("expected a split, got {r:?}");
        };
        assert_eq!(root, bridged.root());
        assert_eq!(t.component_count(), 2);
        // The two parts are exactly the pre-bridge components again. Their
        // roots are the surviving bridge root plus a fresh (or re-seated)
        // one — re-bridging must still work.
        assert_eq!(t.find(n(0)), t.find(n(1)));
        assert_eq!(t.find(n(2)), t.find(n(3)));
        assert_ne!(t.find(n(0)), t.find(n(2)));
        let rebridged = t.insert(n(0), n(3));
        assert!(matches!(rebridged, ComponentChange::Bridged { .. }));
        assert_eq!(t.component_count(), 1);
        let _ = (a, b, split_root);
    }

    #[test]
    fn self_loops_refine_like_any_flow() {
        let mut t = ComponentTracker::new();
        let root = t.insert(n(4), n(4)).root();
        t.insert(n(4), n(5));
        assert_eq!(
            t.remove(n(4), n(4)),
            ComponentRemoval::Shrunk {
                old_root: root,
                root
            }
        );
        assert_eq!(t.component_count(), 1);
        let r = t.remove(n(4), n(5));
        assert_eq!(r, ComponentRemoval::Drained { root });
        assert_eq!(t.component_count(), 0);
        // lone self-loop drains its singleton
        let root = t.insert(n(9), n(9)).root();
        assert_eq!(t.remove(n(9), n(9)), ComponentRemoval::Drained { root });
        assert_eq!(t.slots.live(), 0);
    }

    #[test]
    fn retired_slots_are_reused() {
        let mut t = ComponentTracker::new();
        t.insert(n(0), n(1));
        t.remove(n(0), n(1));
        assert_eq!(t.slots.live(), 0);
        let before = t.parent.len();
        t.insert(n(7), n(8));
        assert_eq!(
            t.parent.len(),
            before,
            "drained slots must be recycled, not appended past"
        );
        assert_eq!(t.slots.live(), 2);
        assert_eq!(t.find(n(7)), t.find(n(8)));
        assert_eq!(t.find(n(0)), None);
    }

    /// Ground-truth check: random interleaved inserts/removes, with
    /// co-membership verified against a from-scratch sweep over the live
    /// edge multiset after every operation.
    #[test]
    fn random_churn_matches_fresh_connectivity() {
        // Tiny deterministic LCG so the core crate needs no rand dep here.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut t = ComponentTracker::new();
        let mut live: Vec<(u32, u32)> = Vec::new();
        let nodes = 12u64;
        for step in 0..600 {
            let insert = live.is_empty() || rng(100) < 55;
            if insert {
                let a = rng(nodes) as u32;
                let b = rng(nodes) as u32;
                t.insert(n(a), n(b));
                live.push((a, b));
            } else {
                let i = rng(live.len() as u64) as usize;
                let (a, b) = live.swap_remove(i);
                t.remove(n(a), n(b));
            }
            // Reference: union-find rebuilt from the live edges.
            let mut reference = ComponentTracker::new();
            for &(a, b) in &live {
                reference.insert(n(a), n(b));
            }
            assert_eq!(
                t.component_count(),
                reference.component_count(),
                "step {step}: component counts diverged over {live:?}"
            );
            assert_eq!(t.slots.live(), reference.slots.live(), "step {step}");
            for x in 0..nodes as u32 {
                assert_eq!(
                    t.find(n(x)).is_some(),
                    reference.find(n(x)).is_some(),
                    "step {step}: liveness of node {x} diverged"
                );
                for y in (x + 1)..nodes as u32 {
                    let (fx, fy) = (t.find(n(x)), t.find(n(y)));
                    let (gx, gy) = (reference.find(n(x)), reference.find(n(y)));
                    if fx.is_some() && fy.is_some() {
                        assert_eq!(
                            fx == fy,
                            gx == gy,
                            "step {step}: co-membership of {x},{y} diverged over {live:?}"
                        );
                    }
                }
            }
        }
    }
}
