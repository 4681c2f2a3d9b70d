//! Lazy event heaps for the fluid engine's timeline: completion times and
//! latency gates as min-heaps instead of per-settle population scans.
//!
//! Between penalty changes every flow's rate is constant, so its absolute
//! finish time is a *cached value*, not something to re-derive by scanning
//! the population (the dslab fair-sharing "fast algorithm" shape, adapted
//! to unequal per-flow rates). The engine keeps one heap entry per
//! *anchoring* of a flow:
//!
//! * when a flow's rate changes, the engine re-anchors it, bumps the
//!   slab's per-occupancy epoch stamp ([`crate::Slab::bump_epoch`]) and
//!   pushes a fresh `(finish, key, epoch)` entry — the old entries stay in
//!   the heap;
//! * on peek/pop, entries whose `(key, epoch)` no longer matches the slab
//!   are **stale** — the flow completed, or was re-anchored since — and
//!   are discarded ([`TimelineStats::lazy_pops`]).
//!
//! The invariant this buys: every contending flow has exactly one *live*
//! entry, carrying exactly its current cached finish time, so the earliest
//! completion is a heap peek (amortized O(log n)) rather than an O(n)
//! scan. Latency gates get the same treatment with a simpler lifecycle:
//! gates are immutable once a transfer is added and gated flows never
//! complete, so in a single-timeline engine gate entries are never stale.
//! Gate entries still carry the slab epoch, because the *sharded* engine
//! migrates gated flows between per-shard heaps when a shard splits: the
//! migration bumps the flow's epoch and re-pushes its gate into the
//! smaller part's fresh heap, leaving the old entry to be lazily discarded
//! ([`TimelineStats::gate_lazy_pops`]) exactly like a re-anchored
//! completion entry.
//!
//! The standalone [`crate::ReferenceNetwork`] keeps linear scans instead
//! (see `ARCHITECTURE.md`, "Event timeline"), which is what lets the
//! equivalence proptests pin the heap path bit-for-bit.

use crate::slab::{FlowKey, Slab};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Counters describing how the event timeline is doing — the heap-era
/// sibling of [`crate::CacheStats`]. Cumulative across resets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineStats {
    /// Completion-heap entries pushed (one per flow anchoring: arrival
    /// into contention, or re-anchor after a penalty change).
    pub heap_pushes: u64,
    /// Stale completion entries discarded on peek/pop (their flow
    /// completed or re-anchored since the push). The lazy-invalidation
    /// cost: bounded by `heap_pushes`.
    pub lazy_pops: u64,
    /// Latency-gate entries pushed at [`crate::FluidNetwork::add`] time.
    pub gate_pushes: u64,
    /// Gate openings served from the gate heap (each live pop is one
    /// opening).
    pub gate_heap_hits: u64,
    /// Stale gate entries discarded on peek/pop — only shard splits make
    /// gate entries stale (migrating a gated flow re-pushes its gate under
    /// a fresh epoch), so this stays 0 in the single-shard engine.
    pub gate_lazy_pops: u64,
    /// Settles whose model answered every member, so the whole active
    /// population was re-synced (an unpatched answer: a cache's fresh
    /// first settle, or a model without a patch).
    pub rescans: u64,
}

impl TimelineStats {
    /// Adds `other`'s counters into `self`. The sharded engine keeps one
    /// timeline per shard and reports their sum; shard merges and resets
    /// fold counters through this, so aggregate stats stay cumulative no
    /// matter how components coalesce.
    pub fn absorb(&mut self, other: TimelineStats) {
        self.heap_pushes += other.heap_pushes;
        self.lazy_pops += other.lazy_pops;
        self.gate_pushes += other.gate_pushes;
        self.gate_heap_hits += other.gate_heap_hits;
        self.gate_lazy_pops += other.gate_lazy_pops;
        self.rescans += other.rescans;
    }
}

/// A completion-heap entry: the cached absolute finish time of one
/// anchoring of one flow. Compares by finish time (total order over f64;
/// the engine clamps NaN before pushing), with key/epoch tiebreaks only
/// so the order is well-defined.
#[derive(Clone, Copy, Debug)]
struct FinishEntry {
    finish: f64,
    key: FlowKey,
    epoch: u64,
}

impl PartialEq for FinishEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for FinishEntry {}
impl PartialOrd for FinishEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FinishEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want the earliest finish
        // on top
        other
            .finish
            .total_cmp(&self.finish)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.epoch.cmp(&self.epoch))
    }
}

/// A gate-heap entry: the instant a transfer starts contending, stamped
/// with the slab epoch at push time so shard splits can invalidate it
/// lazily.
#[derive(Clone, Copy, Debug)]
struct GateEntry {
    gate: f64,
    key: FlowKey,
    epoch: u64,
}

impl PartialEq for GateEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for GateEntry {}
impl PartialOrd for GateEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GateEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .gate
            .total_cmp(&self.gate)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.epoch.cmp(&self.epoch))
    }
}

/// The engine's two lazy min-heaps plus their counters. Cloning copies
/// both heaps entry-for-entry (entries are `Copy`), which is what lets a
/// copied network resume its timeline without a rescan.
#[derive(Debug, Default)]
pub(crate) struct EventHeaps {
    completions: BinaryHeap<FinishEntry>,
    gates: BinaryHeap<GateEntry>,
    pub(crate) stats: TimelineStats,
}

impl Clone for EventHeaps {
    fn clone(&self) -> Self {
        let mut heaps = EventHeaps::default();
        heaps.clone_from(self);
        heaps
    }

    /// Field-wise: `BinaryHeap::clone_from` delegates to the backing
    /// `Vec`'s, so a copy into warm heaps reuses their allocations.
    fn clone_from(&mut self, source: &Self) {
        let EventHeaps {
            completions,
            gates,
            stats,
        } = source;
        self.completions.clone_from(completions);
        self.gates.clone_from(gates);
        self.stats = *stats;
    }
}

impl EventHeaps {
    /// Drops every entry while keeping the allocations warm (stats are
    /// cumulative, like [`crate::CacheStats`]).
    pub(crate) fn clear(&mut self) {
        self.completions.clear();
        self.gates.clear();
    }

    /// Records a (re-)anchored flow's cached finish time. `epoch` must be
    /// the slab's *current* stamp for `key` (i.e. the caller bumped it
    /// just before), so exactly one entry per flow is live.
    pub(crate) fn push_completion(&mut self, finish: f64, key: FlowKey, epoch: u64) {
        debug_assert!(!finish.is_nan(), "finish times are clamped before push");
        self.stats.heap_pushes += 1;
        self.completions.push(FinishEntry { finish, key, epoch });
    }

    /// The earliest live cached finish time, discarding stale entries
    /// (completed or re-anchored flows) from the top.
    pub(crate) fn peek_finish<T>(&mut self, slots: &Slab<T>) -> Option<f64> {
        while let Some(top) = self.completions.peek() {
            if slots.epoch(top.key) == Some(top.epoch) {
                return Some(top.finish);
            }
            self.completions.pop();
            self.stats.lazy_pops += 1;
        }
        None
    }

    /// Pops every live entry with `finish <= t` into `out` (stale entries
    /// under the bound are discarded as a side effect). With the
    /// one-live-entry invariant this is exactly the set of flows whose
    /// cached finish time is due — the completion batch the oracle finds
    /// by scanning. Keys land in `out` in heap (finish) order; the caller
    /// re-sorts the batch by its own key anyway.
    pub(crate) fn pop_due_completions<T>(
        &mut self,
        t: f64,
        slots: &Slab<T>,
        out: &mut Vec<FlowKey>,
    ) {
        while let Some(top) = self.completions.peek() {
            if top.finish > t {
                break;
            }
            let entry = self.completions.pop().expect("peeked entry pops");
            if slots.epoch(entry.key) == Some(entry.epoch) {
                out.push(entry.key);
            } else {
                self.stats.lazy_pops += 1;
            }
        }
    }

    /// Records a transfer's latency gate, stamped with the slab's current
    /// epoch for `key`. Only future gates belong in the heap —
    /// immediately-contending transfers are noted as arrivals directly.
    pub(crate) fn push_gate(&mut self, gate: f64, key: FlowKey, epoch: u64) {
        debug_assert!(!gate.is_nan());
        self.stats.gate_pushes += 1;
        self.gates.push(GateEntry { gate, key, epoch });
    }

    /// The earliest unopened live gate, discarding stale entries (flows a
    /// shard split migrated away under a fresh epoch) from the top.
    pub(crate) fn peek_gate<T>(&mut self, slots: &Slab<T>) -> Option<f64> {
        while let Some(top) = self.gates.peek() {
            if slots.epoch(top.key) == Some(top.epoch) {
                return Some(top.gate);
            }
            self.gates.pop();
            self.stats.gate_lazy_pops += 1;
        }
        None
    }

    /// Moves `other`'s entries (and counters) into `self`, leaving it
    /// empty with zeroed counters — the heap half of a shard merge.
    /// Entries stay valid verbatim: completion entries carry slab epochs
    /// (the slab is shared across shards) and gate entries are immutable,
    /// so a merged timeline answers exactly as the two separate ones would
    /// have.
    pub(crate) fn append(&mut self, other: &mut EventHeaps) {
        self.completions.append(&mut other.completions);
        self.gates.append(&mut other.gates);
        self.stats.absorb(std::mem::take(&mut other.stats));
    }

    /// Pops every live gate with `gate <= t` into `out` — these flows
    /// start contending now and must be noted as arrivals by the caller.
    /// Stale entries under the bound are discarded as a side effect.
    pub(crate) fn pop_gates_through<T>(&mut self, t: f64, slots: &Slab<T>, out: &mut Vec<FlowKey>) {
        while let Some(top) = self.gates.peek() {
            if top.gate > t {
                break;
            }
            let entry = self.gates.pop().expect("peeked entry pops");
            if slots.epoch(entry.key) == Some(entry.epoch) {
                self.stats.gate_heap_hits += 1;
                out.push(entry.key);
            } else {
                self.stats.gate_lazy_pops += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab_with(n: usize) -> (Slab<u32>, Vec<FlowKey>) {
        let mut slab = Slab::new();
        let keys = (0..n as u32).map(|i| slab.insert(i)).collect();
        (slab, keys)
    }

    #[test]
    fn peek_discards_stale_epochs_and_counts_them() {
        let (mut slab, keys) = slab_with(2);
        let mut heaps = EventHeaps::default();
        heaps.push_completion(5.0, keys[0], 0);
        // re-anchor flow 0: epoch bumps, new entry at an earlier finish
        let e = slab.bump_epoch(keys[0]).unwrap();
        heaps.push_completion(3.0, keys[0], e);
        heaps.push_completion(4.0, keys[1], 0);
        assert_eq!(heaps.peek_finish(&slab), Some(3.0));
        let mut due = Vec::new();
        heaps.pop_due_completions(4.5, &slab, &mut due);
        assert_eq!(due, vec![keys[0], keys[1]]);
        // the stale epoch-0 entry for flow 0 sits at 5.0, beyond the bound
        assert_eq!(heaps.peek_finish(&slab), None);
        assert_eq!(heaps.stats.lazy_pops, 1);
        assert_eq!(heaps.stats.heap_pushes, 3);
    }

    #[test]
    fn completed_flows_entries_go_stale() {
        let (mut slab, keys) = slab_with(1);
        let mut heaps = EventHeaps::default();
        heaps.push_completion(2.0, keys[0], 0);
        slab.remove(keys[0]);
        assert_eq!(heaps.peek_finish(&slab), None);
        assert_eq!(heaps.stats.lazy_pops, 1);
    }

    #[test]
    fn gates_pop_in_time_order() {
        let (slab, keys) = slab_with(3);
        let mut heaps = EventHeaps::default();
        heaps.push_gate(3.0, keys[0], 0);
        heaps.push_gate(1.0, keys[1], 0);
        heaps.push_gate(2.0, keys[2], 0);
        assert_eq!(heaps.peek_gate(&slab), Some(1.0));
        let mut opened = Vec::new();
        heaps.pop_gates_through(2.5, &slab, &mut opened);
        assert_eq!(opened, vec![keys[1], keys[2]]);
        assert_eq!(heaps.peek_gate(&slab), Some(3.0));
        assert_eq!(heaps.stats.gate_heap_hits, 2);
        assert_eq!(heaps.stats.gate_pushes, 3);
        assert_eq!(heaps.stats.gate_lazy_pops, 0);
    }

    #[test]
    fn migrated_gate_entries_go_stale() {
        // a shard split re-pushes a gated flow's entry under a bumped
        // epoch; the old entry must be skipped on peek and pop
        let (mut slab, keys) = slab_with(2);
        let mut heaps = EventHeaps::default();
        heaps.push_gate(1.0, keys[0], 0);
        heaps.push_gate(2.0, keys[1], 0);
        let e = slab.bump_epoch(keys[0]).unwrap();
        let mut splinter = EventHeaps::default();
        splinter.push_gate(1.0, keys[0], e);
        assert_eq!(heaps.peek_gate(&slab), Some(2.0));
        assert_eq!(heaps.stats.gate_lazy_pops, 1);
        assert_eq!(splinter.peek_gate(&slab), Some(1.0));
        let mut opened = Vec::new();
        heaps.push_gate(1.5, keys[0], 99); // another stale anchoring
        heaps.pop_gates_through(3.0, &slab, &mut opened);
        assert_eq!(opened, vec![keys[1]]);
        assert_eq!(heaps.stats.gate_lazy_pops, 2);
        assert_eq!(heaps.stats.gate_heap_hits, 1);
    }

    #[test]
    fn equal_finish_ties_pop_deterministically() {
        // simultaneous completions: all entries at the same instant come
        // out, ordered by key (the tiebreak), under a single bound
        let (slab, keys) = slab_with(4);
        let mut heaps = EventHeaps::default();
        for &k in keys.iter().rev() {
            heaps.push_completion(7.0, k, 0);
        }
        let mut due = Vec::new();
        heaps.pop_due_completions(7.0, &slab, &mut due);
        assert_eq!(due, keys);
    }
}
