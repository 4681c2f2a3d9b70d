//! Conflict-component tracking over communication endpoints.
//!
//! Every penalty model in this crate is *component-local*: a flow's
//! penalty depends only on the flows it transitively shares an endpoint
//! with (GigE and InfiniBand read per-endpoint degree multisets, Myrinet
//! enumerates state sets per conflict component, and the baselines count
//! direct conflicts). Two flows in disjoint connected components of the
//! shared-endpoint graph therefore never influence each other's penalty —
//! which is the partitioning invariant the sharded fluid engine
//! (`netbw-fluid`'s `with_sharded` mode) builds on: it simulates each
//! component on its own timeline and penalty cache.
//!
//! [`ComponentTracker`] maintains those connected components incrementally
//! in both directions, by **label**: every live endpoint stores the label
//! of its component, and every label keeps the list of its endpoints (each
//! endpoint knows its position in that list, so it joins or leaves a label
//! in O(1)). A lookup ([`ComponentTracker::find`]) is one read. Arrivals
//! ([`ComponentTracker::insert`], reporting [`ComponentChange`]) either
//! take a fresh label, join an existing one, or *bridge* two components,
//! which relabels the side with fewer endpoints into the other.
//! Departures ([`ComponentTracker::remove`], reporting
//! [`ComponentRemoval`]) refine the partition back apart. The tracker
//! keeps per-edge flow refcounts and per-node incident-flow counts, so a
//! departure resolves in O(1) while its edge still carries flows or when
//! an endpoint drains out (a drained endpoint was a leaf: it leaves its
//! label's list and nothing else moves). Only when the edge disappears
//! between two still-busy endpoints does the tracker search, breadth-first
//! from both endpoints at once, one node per side in turn: if the searches
//! meet, the component held together; if one side runs out first, it has
//! enumerated a complete part no larger than the other side's, and exactly
//! that part takes a fresh label. A split therefore costs O(smaller part)
//! and a non-split stops where the searches meet — never the whole
//! component, let alone the whole graph. Labels never re-seat: a
//! component keeps its label until it is absorbed or drains, and the
//! larger part of a split keeps it. [`ComponentTracker::visits`] counts
//! the search and relabelling work.
//!
//! A union of true components is still a safe partition cell (penalties
//! computed over a union match the per-component answers bit-for-bit, by
//! the same locality), so a caller may *defer* acting on splits —
//! splitting is a performance refinement, never a correctness requirement
//! — but the tracker itself always reports the true partition.

use crate::intern::SlotInterner;
use netbw_graph::NodeId;

/// A component's label inside a [`ComponentTracker`].
///
/// Labels are dense small integers. A label names its component from the
/// moment the component is created (or split off) until it is absorbed
/// into another (reported by [`ComponentChange::Bridged`]) or drains
/// ([`ComponentRemoval::Drained`]); a departure never renames the
/// component it leaves behind, and the larger part of a split keeps the
/// label ([`ComponentRemoval::Split`]). Retired labels are handed to later
/// components, so a long-lived churning population keeps the label space
/// proportional to its peak component count.
pub type ComponentRoot = u32;

/// What one [`ComponentTracker::insert`] did to the component structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComponentChange {
    /// Both endpoints were new: a fresh component was created.
    Created {
        /// The new component's label.
        root: ComponentRoot,
    },
    /// The flow landed inside one existing component (possibly growing it
    /// by a new endpoint). The component's label is unchanged.
    Joined {
        /// The (pre-existing) label of the component joined.
        root: ComponentRoot,
    },
    /// The flow's endpoints lay in two distinct components, which are now
    /// one: the side with fewer endpoints was relabelled into the other,
    /// `absorbed` is retired and `root` names the union.
    Bridged {
        /// The surviving label: the side with more endpoints (the first
        /// endpoint's side on a tie).
        root: ComponentRoot,
        /// The retired label — free for a later component.
        absorbed: ComponentRoot,
    },
}

impl ComponentChange {
    /// The label of the component the inserted flow ended up in.
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
    /// The component stays connected, under its unchanged label.
    Shrunk {
        /// The component's label.
        root: ComponentRoot,
    },
    /// The departed flow was the component's last: both endpoints drained
    /// out, the component is gone and its label is retired.
    Drained {
        /// The label the now-empty component had.
        root: ComponentRoot,
    },
    /// The departure disconnected the component into exactly two parts
    /// (removing one flow can never make more). The larger part keeps the
    /// label `root`; the smaller one (at most the larger's size) moved to
    /// `split_root`, a label no live component carried before.
    Split {
        /// The kept part's label (the label the component had before).
        root: ComponentRoot,
        /// The split-off part's fresh label.
        split_root: ComponentRoot,
    },
}

/// Incremental connected components of the shared-endpoint graph, kept as
/// per-endpoint labels that also refine back apart on departures.
///
/// Inserting a flow joins its two endpoints' components and reports what
/// changed ([`ComponentChange`]); removing a previously inserted flow
/// reports whether its component shrank, drained, or split
/// ([`ComponentRemoval`]). A component's label is stable until the
/// component is absorbed or drains, and a split keeps it on the larger
/// part — each transition is reported, which is what lets callers key side
/// tables (the sharded engine's shard table) by label. Node slots freed by
/// departures are recycled for later endpoints, and retired labels for
/// later components, so a long-lived churning population keeps the
/// tracker's footprint proportional to the *live* graph.
#[derive(Debug, Default, Clone)]
pub struct ComponentTracker {
    /// Node id → slot; released slots are recycled for later endpoints.
    slots: SlotInterner,
    /// Per node: its component's label.
    label: Vec<ComponentRoot>,
    /// Per node: its index in its label's entry of `nodes`.
    pos: Vec<u32>,
    /// Per node: `(neighbor, live-flow count)` for every edge with at
    /// least one live flow. Self-loops appear once, on their own node.
    adj: Vec<Vec<(u32, u32)>>,
    /// Per node: how many live flows touch it (a self-loop counts once).
    incident: Vec<u32>,
    /// Per label: the nodes carrying it (empty while the label is free).
    nodes: Vec<Vec<u32>>,
    /// Retired labels, reused last in, first out.
    free_labels: Vec<ComponentRoot>,
    components: usize,
    // Search scratch: generation stamps (two per search, one per side)
    // avoid clearing a visited bitmap; each side's queue keeps every node
    // it reached, so an exhausted side's queue is its whole part.
    mark: Vec<u32>,
    mark_gen: u32,
    queues: [Vec<u32>; 2],
    visits: u64,
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

    /// Nodes the departure searches expanded plus nodes relabelled (by
    /// bridges and splits), since construction — the tracker's whole
    /// non-O(1) work. Survives [`Self::clear`].
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Forgets every node and label while keeping allocations warm.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.label.clear();
        self.pos.clear();
        self.adj.clear();
        self.incident.clear();
        self.nodes.clear();
        self.free_labels.clear();
        self.components = 0;
        self.mark.clear();
        self.mark_gen = 0;
    }

    /// The label of the component containing `node`, or `None` if the
    /// node is not in the live population.
    pub fn find(&self, node: NodeId) -> Option<ComponentRoot> {
        let idx = self.slots.get(node)?;
        Some(self.label[idx as usize])
    }

    /// Adds a flow between `a` and `b` (interning either endpoint as
    /// needed), joining their components, and reports what changed.
    /// Inserting an intra-node flow (`a == b`) is fine: the node forms (or
    /// keeps) its own component. O(1), except a bridge, which relabels the
    /// side with fewer endpoints.
    pub fn insert(&mut self, a: NodeId, b: NodeId) -> ComponentChange {
        let (ia, a_new) = self.intern(a);
        if a == b {
            self.add_edge(ia, ia);
            self.incident[ia as usize] += 1;
            return if a_new {
                let root = self.fresh_label();
                self.join(ia, root);
                ComponentChange::Created { root }
            } else {
                ComponentChange::Joined {
                    root: self.label[ia as usize],
                }
            };
        }
        let (ib, b_new) = self.intern(b);
        self.add_edge(ia, ib);
        self.incident[ia as usize] += 1;
        self.incident[ib as usize] += 1;
        match (a_new, b_new) {
            (true, true) => {
                let root = self.fresh_label();
                self.join(ia, root);
                self.join(ib, root);
                ComponentChange::Created { root }
            }
            (false, true) => {
                let root = self.label[ia as usize];
                self.join(ib, root);
                ComponentChange::Joined { root }
            }
            (true, false) => {
                let root = self.label[ib as usize];
                self.join(ia, root);
                ComponentChange::Joined { root }
            }
            (false, false) => {
                let (la, lb) = (self.label[ia as usize], self.label[ib as usize]);
                if la == lb {
                    return ComponentChange::Joined { root: la };
                }
                let (root, absorbed) =
                    if self.nodes[lb as usize].len() > self.nodes[la as usize].len() {
                        (lb, la)
                    } else {
                        (la, lb)
                    };
                let mut moved = std::mem::take(&mut self.nodes[absorbed as usize]);
                for &n in &moved {
                    self.join(n, root);
                }
                self.visits += moved.len() as u64;
                moved.clear();
                self.nodes[absorbed as usize] = moved;
                self.retire_label(absorbed);
                ComponentChange::Bridged { root, absorbed }
            }
        }
    }

    /// Removes one previously [`insert`](Self::insert)ed flow between `a`
    /// and `b` and reports what happened to its component. O(1) while the
    /// edge still carries other flows or when an endpoint drains out; when
    /// the edge disappears between two busy endpoints, a two-sided search
    /// that stops where the sides meet, or after O(smaller part) when they
    /// do not.
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
        let root = self.label[ia as usize];
        debug_assert_eq!(
            root, self.label[ib as usize],
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
            return ComponentRemoval::Shrunk { root };
        }
        let a_iso = self.incident[ia as usize] == 0;
        let b_iso = self.incident[ib as usize] == 0;
        if ia == ib {
            // Self-loop: one endpoint, no connectivity to lose.
            return if a_iso {
                self.retire_node(ia);
                self.retire_label(root);
                ComponentRemoval::Drained { root }
            } else {
                ComponentRemoval::Shrunk { root }
            };
        }
        match (a_iso, b_iso) {
            (true, true) => {
                // Both endpoints only carried this flow, so the component
                // was exactly {a, b} and is now gone.
                self.retire_node(ia);
                self.retire_node(ib);
                self.retire_label(root);
                ComponentRemoval::Drained { root }
            }
            (true, false) | (false, true) => {
                // One endpoint drained out. It was a leaf (its only edge
                // was the departed one), so no path ran *through* it: the
                // survivors are still connected and keep their label.
                self.retire_node(if a_iso { ia } else { ib });
                ComponentRemoval::Shrunk { root }
            }
            (false, false) => match self.search(ia, ib) {
                None => ComponentRemoval::Shrunk { root },
                Some((side, other_expanded)) => {
                    let split_root = self.split_off(side, other_expanded);
                    ComponentRemoval::Split { root, split_root }
                }
            },
        }
    }

    fn intern(&mut self, node: NodeId) -> (u32, bool) {
        let (idx, fresh) = self.slots.intern(node);
        let i = idx as usize;
        if fresh && i == self.label.len() {
            self.label.push(ComponentRoot::MAX);
            self.pos.push(0);
            self.adj.push(Vec::new());
            self.incident.push(0);
            self.mark.push(0);
        } else if fresh {
            debug_assert!(self.adj[i].is_empty());
            debug_assert_eq!(self.incident[i], 0);
        }
        (idx, fresh)
    }

    /// A label for a new component: the last retired one, or a new one.
    fn fresh_label(&mut self) -> ComponentRoot {
        self.components += 1;
        self.free_labels.pop().unwrap_or_else(|| {
            self.nodes.push(Vec::new());
            ComponentRoot::try_from(self.nodes.len() - 1).expect("label space exceeds u32")
        })
    }

    /// Frees an emptied label for a later component.
    fn retire_label(&mut self, label: ComponentRoot) {
        debug_assert!(self.nodes[label as usize].is_empty());
        self.components -= 1;
        self.free_labels.push(label);
    }

    /// Appends `node` to `label`'s node list.
    fn join(&mut self, node: u32, label: ComponentRoot) {
        let list = &mut self.nodes[label as usize];
        self.label[node as usize] = label;
        self.pos[node as usize] = list.len() as u32;
        list.push(node);
    }

    /// Takes `node` out of its label's node list.
    fn leave(&mut self, node: u32) {
        let list = &mut self.nodes[self.label[node as usize] as usize];
        let at = self.pos[node as usize] as usize;
        debug_assert_eq!(list[at], node, "node list positions out of sync");
        list.swap_remove(at);
        if let Some(&moved) = list.get(at) {
            self.pos[moved as usize] = at as u32;
        }
    }

    /// Retires a drained node's slot for re-interning.
    fn retire_node(&mut self, idx: u32) {
        let i = idx as usize;
        debug_assert_eq!(self.incident[i], 0);
        self.leave(idx);
        self.slots.release(idx);
        self.adj[i].clear();
        self.label[i] = ComponentRoot::MAX;
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

    /// Searches the live-edge graph breadth-first from `a` and from `b`
    /// at once, expanding one node per side in turn. Returns `None` as
    /// soon as one side reaches a node the other has marked (the two are
    /// still connected). Otherwise the side that runs out of nodes first
    /// has enumerated its whole part, which is left in `self.queues[side]`;
    /// returns that side and how many nodes the other side expanded — all
    /// distinct members of the other part, and at least as many as the
    /// exhausted part holds.
    fn search(&mut self, a: u32, b: u32) -> Option<(usize, usize)> {
        if self.mark_gen > u32::MAX - 3 {
            self.mark.fill(0);
            self.mark_gen = 0;
        }
        self.mark_gen += 2;
        let stamps = [self.mark_gen, self.mark_gen + 1];
        let mut queues = std::mem::take(&mut self.queues);
        let mut heads = [0usize; 2];
        for (side, seed) in [a, b].into_iter().enumerate() {
            queues[side].clear();
            queues[side].push(seed);
            self.mark[seed as usize] = stamps[side];
        }
        let outcome = 'search: loop {
            for side in 0..2 {
                let Some(&n) = queues[side].get(heads[side]) else {
                    break 'search Some((side, heads[1 - side]));
                };
                heads[side] += 1;
                self.visits += 1;
                for &(m, _) in &self.adj[n as usize] {
                    let mark = self.mark[m as usize];
                    if mark == stamps[1 - side] {
                        break 'search None;
                    }
                    if mark != stamps[side] {
                        self.mark[m as usize] = stamps[side];
                        queues[side].push(m);
                    }
                }
            }
        };
        self.queues = queues;
        outcome
    }

    /// Moves the part a [`Self::search`] left in `self.queues[side]` to a
    /// fresh label and returns it.
    fn split_off(&mut self, side: usize, other_expanded: usize) -> ComponentRoot {
        let part = std::mem::take(&mut self.queues[side]);
        debug_assert!(
            part.len() <= other_expanded,
            "the split-off part ({}) must be the smaller one (other side ≥ {other_expanded})",
            part.len()
        );
        let split_root = self.fresh_label();
        for &n in &part {
            self.leave(n);
            self.join(n, split_root);
        }
        self.visits += part.len() as u64;
        self.queues[side] = part;
        split_root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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
        // new source, existing destination: still a join, same label
        let reversed = t.insert(n(3), n(1));
        assert_eq!(
            reversed,
            ComponentChange::Joined {
                root: created.root()
            }
        );
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.visits(), 0, "joins relabel nothing");
    }

    #[test]
    fn bridging_reports_winner_and_absorbed() {
        let mut t = ComponentTracker::new();
        let a = t.insert(n(0), n(1)).root();
        let b = t.insert(n(2), n(3)).root();
        t.insert(n(3), n(4)); // b's side is now the larger
        let bridged = t.insert(n(1), n(2));
        assert_eq!(
            bridged,
            ComponentChange::Bridged {
                root: b,
                absorbed: a
            },
            "the side with more endpoints keeps its label"
        );
        assert_eq!(t.visits(), 2, "only the smaller side is relabelled");
        assert_eq!(t.component_count(), 1);
        // every endpoint now resolves to the surviving label
        for i in 0..5 {
            assert_eq!(t.find(n(i)), Some(b));
        }
        // further flows inside the union are joins on the surviving label
        assert_eq!(t.insert(n(0), n(3)), ComponentChange::Joined { root: b });
        // the absorbed label is free again: the next component takes it
        assert_eq!(t.insert(n(8), n(9)), ComponentChange::Created { root: a });
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
        assert_eq!(
            bridged,
            ComponentChange::Bridged {
                root: other,
                absorbed: c.root()
            }
        );
        assert_eq!(t.find(n(5)), t.find(n(7)));
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
        assert_eq!(t.insert(n(4), n(5)), ComponentChange::Created { root: 0 });
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
        // The growing chain always absorbs the next two-node pair: two
        // relabels per bridge, never the chain itself.
        assert_eq!(t.visits(), 2 * 9);
    }

    #[test]
    fn duplicate_flows_keep_the_edge_alive() {
        let mut t = ComponentTracker::new();
        let root = t.insert(n(0), n(1)).root();
        t.insert(n(0), n(1));
        t.insert(n(1), n(0)); // direction does not matter: same edge
                              // two removals leave one live flow on the edge
        for _ in 0..2 {
            assert_eq!(t.remove(n(0), n(1)), ComponentRemoval::Shrunk { root });
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
        assert_eq!(r, ComponentRemoval::Shrunk { root });
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.slots.live(), 2);
        assert_eq!(t.find(n(2)), None, "drained endpoints are forgotten");
        assert_eq!(t.find(n(0)), Some(root));
        assert_eq!(t.visits(), 0, "a leaf departure searches nothing");
    }

    /// The endpoint that created a label draining out leaves the label
    /// with the survivors: no re-seat, no search.
    #[test]
    fn root_departure_reseats_the_root() {
        let mut t = ComponentTracker::new();
        let root = t.insert(n(0), n(1)).root();
        t.insert(n(1), n(2));
        // node 0, the label's first endpoint, only carried this flow
        assert_eq!(t.remove(n(0), n(1)), ComponentRemoval::Shrunk { root });
        assert_eq!(t.find(n(0)), None);
        assert_eq!(t.find(n(1)), Some(root));
        assert_eq!(t.find(n(2)), Some(root));
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.visits(), 0);
        // and the survivors keep splitting and draining under that label
        assert_eq!(t.remove(n(1), n(2)), ComponentRemoval::Drained { root });
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
        // The two parts are exactly the pre-bridge components again,
        // under the surviving label and a fresh one (the absorbed label,
        // reused) — re-bridging must still work.
        assert_eq!([root, split_root], [a, b]);
        assert_eq!(t.find(n(0)), t.find(n(1)));
        assert_eq!(t.find(n(2)), t.find(n(3)));
        assert_ne!(t.find(n(0)), t.find(n(2)));
        let rebridged = t.insert(n(0), n(3));
        assert!(matches!(rebridged, ComponentChange::Bridged { .. }));
        assert_eq!(t.component_count(), 1);
    }

    #[test]
    fn self_loops_refine_like_any_flow() {
        let mut t = ComponentTracker::new();
        let root = t.insert(n(4), n(4)).root();
        t.insert(n(4), n(5));
        assert_eq!(t.remove(n(4), n(4)), ComponentRemoval::Shrunk { root });
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
        let root = t.insert(n(0), n(1)).root();
        t.remove(n(0), n(1));
        assert_eq!(t.slots.live(), 0);
        let (slots, labels) = (t.label.len(), t.nodes.len());
        assert_eq!(t.insert(n(7), n(8)), ComponentChange::Created { root });
        assert_eq!(
            (t.label.len(), t.nodes.len()),
            (slots, labels),
            "drained slots and labels must be recycled, not appended past"
        );
        assert_eq!(t.slots.live(), 2);
        assert_eq!(t.find(n(7)), t.find(n(8)));
        assert_eq!(t.find(n(0)), None);
    }

    #[test]
    fn splits_cost_the_smaller_part_and_non_splits_stop_where_the_searches_meet() {
        // A 1,000-node path; cutting its second edge splits off {0, 1}.
        let mut t = ComponentTracker::new();
        for i in 0..999u32 {
            t.insert(n(i), n(i + 1));
        }
        let before = t.visits();
        let r = t.remove(n(1), n(2));
        assert!(matches!(r, ComponentRemoval::Split { .. }), "{r:?}");
        // Two expansions per side, then the two-node part is relabelled.
        assert_eq!(t.visits() - before, 2 + 2 + 2);
        assert_eq!(t.find(n(2)), t.find(n(998)), "the long part kept its label");
        // Close the long part into a cycle and cut it: the searches run
        // round the cycle from both ends and meet on its far side.
        t.insert(n(2), n(999));
        let before = t.visits();
        assert!(matches!(
            t.remove(n(500), n(501)),
            ComponentRemoval::Shrunk { .. }
        ));
        assert!(t.visits() - before > 900, "the cycle is long");
        // A triangle 2-3-4 on the remaining path: cutting 2-3 is bridged by
        // the chord, and the searches meet at once.
        t.insert(n(2), n(4));
        let before = t.visits();
        assert!(matches!(
            t.remove(n(2), n(3)),
            ComponentRemoval::Shrunk { .. }
        ));
        assert_eq!(t.visits() - before, 2, "one expansion per side meets");
    }

    /// Ground-truth check: random interleaved inserts/removes over 12, 64
    /// and 512 nodes, with the partition verified against a tracker
    /// rebuilt from the live edge multiset after every operation, and the
    /// labelling contract checked on every transition: a shrink relabels
    /// nobody, a split relabels exactly the split-off part (no larger than
    /// the part that kept the label), and a bridge keeps the label of the
    /// side with more endpoints.
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
        for (nodes, steps) in [(12u32, 600), (64, 1_500), (512, 3_000)] {
            let mut t = ComponentTracker::new();
            let mut live: Vec<(u32, u32)> = Vec::new();
            let mut splits = 0;
            for step in 0..steps {
                let labels: Vec<Option<ComponentRoot>> = (0..nodes).map(|x| t.find(n(x))).collect();
                let size = |l: ComponentRoot| labels.iter().filter(|&&x| x == Some(l)).count();
                let insert = live.is_empty() || rng(100) < 55;
                if insert {
                    let a = rng(u64::from(nodes)) as u32;
                    let b = rng(u64::from(nodes)) as u32;
                    if let ComponentChange::Bridged { root, absorbed } = t.insert(n(a), n(b)) {
                        assert!(
                            size(root) >= size(absorbed),
                            "{nodes}/{step}: bridge kept the smaller side's label"
                        );
                    }
                    live.push((a, b));
                } else {
                    let i = rng(live.len() as u64) as usize;
                    let (a, b) = live.swap_remove(i);
                    let r = t.remove(n(a), n(b));
                    for x in 0..nodes {
                        let (was, now) = (labels[x as usize], t.find(n(x)));
                        if now.is_none() {
                            continue;
                        }
                        match r {
                            ComponentRemoval::Split { root, split_root }
                                if now == Some(split_root) =>
                            {
                                assert_eq!(was, Some(root), "{nodes}/{step}: node {x}");
                            }
                            _ => {
                                assert_eq!(now, was, "{nodes}/{step}: node {x} relabelled by {r:?}")
                            }
                        }
                    }
                    if let ComponentRemoval::Split { root, split_root } = r {
                        splits += 1;
                        let count = |l| (0..nodes).filter(|&x| t.find(n(x)) == Some(l)).count();
                        assert!(
                            count(split_root) <= count(root) + 1,
                            "{nodes}/{step}: split off the larger part"
                        );
                    }
                }
                // Reference: a tracker rebuilt from the live edges.
                let mut reference = ComponentTracker::new();
                for &(a, b) in &live {
                    reference.insert(n(a), n(b));
                }
                assert_eq!(
                    t.component_count(),
                    reference.component_count(),
                    "{nodes}/{step}: component counts diverged over {live:?}"
                );
                assert_eq!(t.slots.live(), reference.slots.live(), "{nodes}/{step}");
                // Same partition: the label maps are a bijection.
                let (mut fwd, mut back) = (HashMap::new(), HashMap::new());
                for x in 0..nodes {
                    let (f, g) = (t.find(n(x)), reference.find(n(x)));
                    assert_eq!(f.is_some(), g.is_some(), "{nodes}/{step}: liveness of {x}");
                    if let (Some(f), Some(g)) = (f, g) {
                        assert_eq!(*fwd.entry(f).or_insert(g), g, "{nodes}/{step}: {x}");
                        assert_eq!(*back.entry(g).or_insert(f), f, "{nodes}/{step}: {x}");
                    }
                }
            }
            assert!(splits > 10, "{nodes} nodes: only {splits} splits exercised");
        }
    }
}
