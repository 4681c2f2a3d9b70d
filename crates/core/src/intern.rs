//! Dense interning of node ids and flow ids.
//!
//! The per-node structures of this crate ([`ComponentTracker`]'s
//! component labels and adjacency, and the closed-form models'
//! [`EndpointIndex`]) live in slot-indexed `Vec`s: each [`NodeId`] is
//! looked up once per flow insert or remove and turned into a dense `u32`
//! slot, and everything else reads the `Vec`s. [`SlotInterner`] owns that
//! mapping and recycles the slots of nodes that drained out, so a
//! churning population keeps the footprint proportional to the *live*
//! node set. [`KeyedMembers`] is the same idiom for the models' keyed
//! populations: each [`FlowId`] maps to a dense member position, so a
//! model scratch costs O(members), not O(ids ever issued).
//!
//! The maps behind both are keyed by [`NodeHasher`], a multiply-rotate
//! hasher in the style of FxHash: ids are not attacker-controlled, and
//! the maps are only ever looked up, never iterated, so neither SipHash's
//! flooding resistance nor its iteration-order randomisation buys
//! anything — and no result can depend on the hasher.
//!
//! [`ComponentTracker`]: crate::ComponentTracker
//! [`EndpointIndex`]: crate::incremental::EndpointIndex

use crate::model::FlowId;
use netbw_graph::NodeId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate [`Hasher`] for small integer keys: each word is added
/// to the state and multiplied by an odd constant, and `finish` rotates
/// the well-mixed high product bits down to where the table takes its
/// bucket index.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NodeHasher(u64);

impl NodeHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for NodeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A lookup-only map keyed by node id, hashed with [`NodeHasher`].
pub(crate) type NodeMap<V> = HashMap<NodeId, V, BuildHasherDefault<NodeHasher>>;

/// Interns node ids into dense `u32` slots. A released slot goes on a
/// free list and is handed to the next fresh node (last released, first
/// reused); with no free slot, a fresh node gets the next unused index.
#[derive(Debug, Default)]
pub(crate) struct SlotInterner {
    index: NodeMap<u32>,
    nodes: Vec<NodeId>,
    free: Vec<u32>,
}

impl SlotInterner {
    /// The slot of `node`, if it is interned.
    pub(crate) fn get(&self, node: NodeId) -> Option<u32> {
        self.index.get(&node).copied()
    }

    /// The slot of `node`, interning it if needed. The flag is `true` when
    /// the node was fresh: its slot is either the next unused index (equal
    /// to the previous [`capacity`](Self::capacity)) or a recycled one.
    pub(crate) fn intern(&mut self, node: NodeId) -> (u32, bool) {
        if let Some(&slot) = self.index.get(&node) {
            return (slot, false);
        }
        let slot = if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            let slot = u32::try_from(self.nodes.len()).expect("interner capacity exceeds u32");
            self.nodes.push(node);
            slot
        };
        self.index.insert(node, slot);
        (slot, true)
    }

    /// Forgets the node in `slot` and queues the slot for reuse.
    pub(crate) fn release(&mut self, slot: u32) {
        self.index.remove(&self.nodes[slot as usize]);
        self.free.push(slot);
    }

    /// The node interned in `slot` (or last interned there, if released).
    pub(crate) fn node(&self, slot: u32) -> NodeId {
        self.nodes[slot as usize]
    }

    /// Number of interned nodes.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Number of slots handed out so far, live or free: every slot is
    /// below this bound.
    pub(crate) fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Forgets every node while keeping allocations warm; slots restart
    /// at 0.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.free.clear();
    }
}

impl Clone for SlotInterner {
    fn clone(&self) -> Self {
        SlotInterner {
            index: self.index.clone(),
            nodes: self.nodes.clone(),
            free: self.free.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let SlotInterner { index, nodes, free } = source;
        self.index.clone_from(index);
        self.nodes.clone_from(nodes);
        self.free.clone_from(free);
    }
}

/// A keyed population: members stored densely, with a [`FlowId`] →
/// position map in front. Removal swaps the last member into the hole, so
/// positions stay dense and every walk over the members — a fresh settle's
/// full answer, a reset — costs the live members only.
///
/// The ids a caller hands in must be consistent: an arrival whose id is
/// already a member, or a departure of an id that is not, is a bug in the
/// caller's bookkeeping and panics rather than being silently repaired.
#[derive(Debug)]
pub(crate) struct KeyedMembers<T> {
    index: HashMap<FlowId, u32, BuildHasherDefault<NodeHasher>>,
    ids: Vec<FlowId>,
    items: Vec<T>,
}

impl<T> Default for KeyedMembers<T> {
    fn default() -> Self {
        KeyedMembers {
            index: HashMap::default(),
            ids: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<T> KeyedMembers<T> {
    /// Adds member `id`.
    ///
    /// # Panics
    /// If `id` is already a member.
    pub(crate) fn insert(&mut self, id: FlowId, item: T) {
        match self.index.entry(id) {
            Entry::Occupied(_) => panic!("flow {id} arrived twice without departing"),
            Entry::Vacant(e) => {
                e.insert(u32::try_from(self.ids.len()).expect("member count exceeds u32"));
            }
        }
        self.ids.push(id);
        self.items.push(item);
    }

    /// Removes member `id` and returns its item.
    ///
    /// # Panics
    /// If `id` is not a member.
    pub(crate) fn remove(&mut self, id: FlowId) -> T {
        let Some(pos) = self.index.remove(&id) else {
            panic!("flow {id} departed without being a member");
        };
        let pos = pos as usize;
        self.ids.swap_remove(pos);
        let item = self.items.swap_remove(pos);
        if let Some(&moved) = self.ids.get(pos) {
            self.index.insert(moved, pos as u32);
        }
        item
    }

    /// Member `id`'s item, if it is a member.
    pub(crate) fn get(&self, id: FlowId) -> Option<&T> {
        let pos = *self.index.get(&id)?;
        Some(&self.items[pos as usize])
    }

    /// Mutable access to member `id`'s item, if it is a member.
    pub(crate) fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        let pos = *self.index.get(&id)?;
        Some(&mut self.items[pos as usize])
    }

    /// The members' ids, in position order.
    pub(crate) fn ids(&self) -> &[FlowId] {
        &self.ids
    }

    /// The members' items, aligned with [`Self::ids`].
    pub(crate) fn items(&self) -> &[T] {
        &self.items
    }

    /// Forgets every member at the cost of the live ones, keeping the
    /// allocations.
    pub(crate) fn clear(&mut self) {
        for id in self.ids.drain(..) {
            self.index.remove(&id);
        }
        self.items.clear();
    }
}

impl<T: Clone> Clone for KeyedMembers<T> {
    fn clone(&self) -> Self {
        let mut members = KeyedMembers::default();
        members.clone_from(self);
        members
    }

    /// Re-inserts the source's ids into `self`'s table instead of copying
    /// the source's table, so a warm target that grew past the source's
    /// bucket count keeps its allocation.
    fn clone_from(&mut self, source: &Self) {
        self.index.clear();
        self.index.reserve(source.ids.len());
        self.index.extend(source.ids.iter().copied().zip(0u32..));
        self.ids.clone_from(&source.ids);
        self.items.clone_from(&source.items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn slots_are_dense_and_recycled_last_in_first_out() {
        let mut s = SlotInterner::default();
        assert_eq!(s.intern(NodeId(7)), (0, true));
        assert_eq!(s.intern(NodeId(u32::MAX)), (1, true));
        assert_eq!(s.intern(NodeId(7)), (0, false));
        assert_eq!(s.intern(NodeId(3)), (2, true));
        s.release(0);
        s.release(2);
        assert_eq!(s.get(NodeId(7)), None);
        assert_eq!(s.live(), 1);
        assert_eq!(s.intern(NodeId(9)), (2, true));
        assert_eq!(s.intern(NodeId(7)), (0, true));
        assert_eq!(s.capacity(), 3, "released slots are reused first");
        assert_eq!(s.node(1), NodeId(u32::MAX));
        s.clear();
        assert_eq!(s.live(), 0);
        assert_eq!(s.intern(NodeId(9)), (0, true));
    }

    #[test]
    fn hasher_separates_ids_that_share_low_bits() {
        // Ids that differ only above bit 10 must not pile into one bucket
        // of a 1024-bucket table.
        let build = BuildHasherDefault::<NodeHasher>::default();
        let mut buckets: Vec<u64> = (0..64u32)
            .map(|i| build.hash_one(NodeId(i << 10)) & 1023)
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() > 48, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn keyed_members_stay_dense_and_refuse_inconsistent_ids() {
        let mut m = KeyedMembers::default();
        for id in [7, 3, 9] {
            m.insert(id, id * 10);
        }
        assert_eq!(m.remove(7), 70);
        assert_eq!(m.ids(), &[9, 3], "the last member fills the hole");
        assert_eq!(m.get(9), Some(&90));
        *m.get_mut(3).unwrap() += 1;
        assert_eq!(m.items(), &[90, 31]);
        m.insert(7, 71);
        let copy = m.clone();
        assert_eq!((copy.ids(), copy.get(7)), (m.ids(), Some(&71)));
        m.clear();
        assert_eq!(m.get(9), None);
        assert!(std::panic::catch_unwind(move || {
            let mut m = KeyedMembers::default();
            m.insert(1, ());
            m.insert(1, ());
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| KeyedMembers::<()>::default().remove(4)).is_err());
    }
}
