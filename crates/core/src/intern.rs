//! Dense interning of node ids.
//!
//! The per-node structures of this crate ([`ComponentTracker`]'s
//! component labels and adjacency, and the closed-form models'
//! [`EndpointIndex`]) live in slot-indexed `Vec`s: each [`NodeId`] is
//! looked up once per flow insert or remove and turned into a dense `u32`
//! slot, and everything else reads the `Vec`s. [`SlotInterner`] owns that
//! mapping and recycles the slots of nodes that drained out, so a
//! churning population keeps the footprint proportional to the *live*
//! node set.
//!
//! The map behind it is keyed by [`NodeHasher`], a multiply-rotate hasher
//! in the style of FxHash: node ids are not attacker-controlled, and the
//! maps are only ever looked up, never iterated, so neither SipHash's
//! flooding resistance nor its iteration-order randomisation buys
//! anything — and no result can depend on the hasher.
//!
//! [`ComponentTracker`]: crate::ComponentTracker
//! [`EndpointIndex`]: crate::incremental::EndpointIndex

use netbw_graph::NodeId;
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
type NodeMap<V> = HashMap<NodeId, V, BuildHasherDefault<NodeHasher>>;

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
}
