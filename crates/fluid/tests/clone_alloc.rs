//! The what-if service's per-query copy allocates nothing: `clone_from`
//! of a warm single-shard GigE snapshot into a worker's arena engine,
//! which the previous query left diverged, reuses the arena's slab,
//! cache, model scratch and heap storage.
//!
//! The counting global allocator sees every thread of this binary, so it
//! holds this one test only.

use netbw_core::{GigabitEthernetModel, PenaltyModel};
use netbw_fluid::{FluidNetwork, NetworkParams, TransferKey};
use netbw_graph::Communication;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Superimposes one 64 KiB flow at the engine's clock and settles until
/// it completes, as the service answers a what-if query.
fn answer_query(net: &mut FluidNetwork<Arc<dyn PenaltyModel>>) {
    const SPECULATIVE: TransferKey = 1 << 63;
    net.add(
        SPECULATIVE,
        Communication::new(3u32, 27u32, 65_536),
        net.time(),
    );
    loop {
        let t = net
            .next_event_time()
            .expect("the speculative flow is pending");
        if net.advance_to(t).iter().any(|c| c.key == SPECULATIVE) {
            return;
        }
    }
}

#[test]
fn clone_from_into_a_diverged_arena_allocates_nothing() {
    // The served shape: 300 transfers from 24 senders into 8 receivers,
    // started 2 ms apart, with the clock advanced into the load.
    let model: Arc<dyn PenaltyModel> = Arc::new(GigabitEthernetModel::default());
    let mut snapshot = FluidNetwork::new(model, NetworkParams::gige());
    let sizes = [262_144, 1_048_576, 4_194_304];
    for i in 0..300u64 {
        let comm = Communication::new(
            (i % 24) as u32,
            (24 + i % 8) as u32,
            sizes[i as usize / 8 % 3],
        );
        snapshot.add(i, comm, i as f64 * 0.002);
    }
    snapshot.advance_to(0.45);
    assert!(snapshot.in_flight() > 50, "the snapshot carries a load");

    let mut arena = snapshot.clone();
    answer_query(&mut arena);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    arena.clone_from(&snapshot);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocations, 0, "clone_from into a warm arena allocated");
}
