//! Property tests for the sweep executor and the session path.
//!
//! The contract the sweep engine lives by: whatever the worker count and
//! whatever the steal schedule, results are **bit-for-bit identical to
//! the sequential path and keep input order** — parallelism and state
//! reuse may never change an answer.

use netbw_core::{GigabitEthernetModel, MyrinetModel, Penalty, PenaltyModel};
use netbw_eval::{compare_scheme, parallel_map, EvalSession, SweepExecutor};
use netbw_fluid::{FluidNetwork, NetworkParams};
use netbw_graph::schemes;
use netbw_graph::units::KB;
use netbw_graph::{Communication, NodeId};
use netbw_packet::FabricConfig;
use proptest::prelude::*;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// A deterministic, float-heavy per-item function: any index mix-up or
/// double-processing shows up as a bit-level mismatch.
fn knead(x: u64, i: usize) -> f64 {
    let a = (x as f64).sqrt() + (i as f64 + 1.0).ln();
    (a * 1e9).sin() / (x as f64 + 1.5)
}

proptest! {
    /// Sequential (1 worker) vs every parallel worker count: identical
    /// output bits, input order preserved.
    #[test]
    fn executor_matches_sequential_bit_for_bit(
        items in proptest::collection::vec(0u64..1_000_000, 0..200),
        threads in 2usize..9,
    ) {
        let seq: Vec<f64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| knead(x, i))
            .collect();
        let par = parallel_map(&items, threads, |&x| x);
        prop_assert_eq!(&par, &items, "parallel_map must keep input order");
        let exec = SweepExecutor::new(threads);
        let (stateful, stats) =
            exec.map_init(&items, |_| (), |(), &x, i| knead(x, i));
        prop_assert_eq!(seq, stateful);
        prop_assert_eq!(
            stats.per_worker_items.iter().sum::<u64>(),
            items.len() as u64
        );
    }

    /// Per-worker state is per-worker: summing worker-local counters over
    /// any schedule accounts for every item exactly once.
    #[test]
    fn every_item_processed_exactly_once(
        n in 0usize..300,
        threads in 1usize..9,
    ) {
        let items: Vec<usize> = (0..n).collect();
        let exec = SweepExecutor::new(threads);
        let (out, stats) = exec.map_init(
            &items,
            |_| 0u64,
            |count, &x, i| {
                *count += 1;
                assert_eq!(x, i);
                x
            },
        );
        prop_assert_eq!(out, items);
        prop_assert_eq!(stats.per_worker_items.iter().sum::<u64>(), n as u64);
        prop_assert!(stats.workers <= threads.max(1));
    }
}

/// The session path (arenas + shared memo + reusable solvers, arbitrary
/// worker counts) answers bit-for-bit like the per-call free function.
#[test]
fn session_equals_per_call_for_any_worker_count() {
    let model = GigabitEthernetModel::default();
    let fabric = FabricConfig::gige();
    let battery: Vec<netbw_graph::CommGraph> = (1..=6)
        .map(|s| schemes::fig2_scheme(s).with_uniform_size(256 * KB))
        .chain([schemes::outgoing_ladder(3).with_uniform_size(512 * KB)])
        .collect();
    let want: Vec<_> = battery
        .iter()
        .map(|g| compare_scheme(&model, fabric, g))
        .collect();
    for threads in [1, 2, 5] {
        let session = EvalSession::with_threads(threads);
        let got = session.compare_schemes(&model, fabric, &battery);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.scheme, w.scheme, "threads={threads}");
            assert_eq!(g.measured, w.measured, "threads={threads} {}", w.scheme);
            assert_eq!(g.predicted, w.predicted, "threads={threads} {}", w.scheme);
            assert_eq!(g.erel, w.erel, "threads={threads} {}", w.scheme);
            assert_eq!(g.eabs, w.eabs, "threads={threads} {}", w.scheme);
        }
        let stats = session.stats();
        assert_eq!(stats.items, battery.len() as u64);
    }
}

/// A panic in one item propagates to the caller even when other workers
/// are mid-steal, and the executor does not deadlock on the way out. (The
/// pool catches the panic on whichever thread ran the item, lets the
/// round finish, and re-raises the original payload on the caller;
/// `tests/pool.rs` checks the payload and that the pool survives.)
#[test]
#[should_panic]
fn panic_propagates_under_stealing() {
    let items: Vec<u64> = (0..120).collect();
    let exec = SweepExecutor::new(4);
    let _ = exec.map_init(
        &items,
        |_| (),
        |(), &x, _| {
            if x == 0 {
                // park worker 0 so its block gets stolen while the panic fires
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            if x == 37 {
                panic!("sweep item 37 exploded");
            }
            x
        },
    );
}

/// A staggered multi-component workload: `comps` disjoint conflict
/// components (nodes `base..base+4` each), every one alive across the
/// whole run so settle barriers regularly carry several dirty shards.
fn multi_component_workload(comps: u32) -> Vec<(u64, Communication, f64)> {
    let mut adds: Vec<(u64, Communication, f64)> = Vec::new();
    let mut key = 0u64;
    for c in 0..comps {
        let base = c * 4;
        for (i, (src, dst, size, start)) in [
            (base, base + 1, 300u64, 0.0f64),
            (base, base + 2, 201, 5.0),
            (base + 3, base + 1, 157, 12.5),
        ]
        .into_iter()
        .enumerate()
        {
            adds.push((key + i as u64, Communication::new(src, dst, size), start));
        }
        key += 3;
    }
    adds.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    adds
}

/// The sharded engine dispatched through the work-stealing executor must
/// answer bit-for-bit like the serial dispatcher and the unsharded heap
/// engine, for every worker count — parallel settle barriers may never
/// change an answer. 1,400 components make each barrier dirty 4,197
/// members beyond the largest shard, past the engine's inline cutoff of
/// 4,096, so the barriers reach the executor.
#[test]
fn executor_dispatched_shard_settles_match_serial_bit_for_bit() {
    let adds = multi_component_workload(1_400);
    let run = |net: &mut FluidNetwork<MyrinetModel>| {
        for &(k, c, s) in &adds {
            net.add(k, c, s);
        }
        let mut done = net.run_to_completion();
        done.sort_by_key(|d| d.key);
        done
    };
    let params = NetworkParams::new(2.0, 0.5);
    let heap = run(&mut FluidNetwork::new(MyrinetModel::default(), params));
    let serial = run(&mut FluidNetwork::new(MyrinetModel::default(), params).with_sharded());
    assert_eq!(heap.len(), adds.len());
    for threads in [1, 2, 4, 8] {
        let exec = Arc::new(SweepExecutor::new(threads));
        let mut net =
            FluidNetwork::new(MyrinetModel::default(), params).with_sharded_dispatch(exec);
        let par = run(&mut net);
        let shape = net.shard_stats();
        assert!(
            shape.dispatched_barriers > 0,
            "threads={threads}: {shape:?}"
        );
        assert_eq!(par.len(), heap.len());
        for ((h, s), p) in heap.iter().zip(&serial).zip(&par) {
            assert_eq!(h.key, p.key, "threads={threads}");
            assert_eq!(
                h.completion.to_bits(),
                s.completion.to_bits(),
                "serial sharded vs heap, key {}",
                h.key
            );
            assert_eq!(
                h.completion.to_bits(),
                p.completion.to_bits(),
                "threads={threads}, key {}",
                h.key
            );
        }
    }
}

/// A penalty model that panics whenever node 13 sends: one poisoned shard
/// among healthy ones.
struct PoisonModel;

impl PenaltyModel for PoisonModel {
    fn name(&self) -> &'static str {
        "poison"
    }
    fn penalties(&self, comms: &[Communication]) -> Vec<Penalty> {
        assert!(
            !comms.iter().any(|c| c.src == NodeId(13)),
            "poisoned shard: node 13 is sending"
        );
        vec![Penalty::ONE; comms.len()]
    }
}

/// A model panic inside one shard's settle job must propagate out of the
/// settle barrier (the pool re-raises it on the caller once the barrier's
/// other jobs have run) instead of deadlocking the other workers — the
/// shard-worker sibling of [`panic_propagates_under_stealing`]. The test
/// *finishing* (with the expected panic) is the non-deadlock proof; the
/// panic is re-raised only once the barrier is known to have reached the
/// pool.
#[test]
#[should_panic(expected = "poisoned shard: node 13 is sending")]
fn poisoned_shard_panic_propagates_through_settle_barrier() {
    let mut net = FluidNetwork::new(PoisonModel, NetworkParams::new(1.0, 0.0))
        .with_sharded_dispatch(Arc::new(SweepExecutor::new(4)));
    // 4,200 disjoint one-flow components, all dirty at the first settle
    // barrier — past the engine's inline cutoff of 4,096 members, so the
    // barrier goes to the pool; the one where node 13 sends poisons its
    // worker
    for k in 0..4_200u32 {
        let (src, dst) = if 2 * k + 1 == 13 {
            (13, 12)
        } else {
            (2 * k, 2 * k + 1)
        };
        net.add(u64::from(k), Communication::new(src, dst, 100), 0.0);
    }
    let boom = panic::catch_unwind(AssertUnwindSafe(|| net.run_to_completion()))
        .expect_err("the poisoned shard's panic must reach the caller");
    let shape = net.shard_stats();
    assert!(
        shape.dispatched_barriers > 0,
        "the barrier never reached the pool: {shape:?}"
    );
    panic::resume_unwind(boom);
}

/// Myrinet through the session: the state-heavy model (union-find
/// component scratch) also survives solver reuse bit-for-bit.
#[test]
fn myrinet_session_equals_per_call() {
    let model = MyrinetModel::default();
    let fabric = FabricConfig::myrinet2000();
    let battery = [
        schemes::mk1().with_uniform_size(256 * KB),
        schemes::fig5().with_uniform_size(256 * KB),
        schemes::mk2().with_uniform_size(128 * KB),
    ];
    let session = EvalSession::with_threads(2);
    let got = session.compare_schemes(&model, fabric, &battery);
    for (g, scheme) in got.iter().zip(&battery) {
        let w = compare_scheme(&model, fabric, scheme);
        assert_eq!(g.measured, w.measured, "{}", w.scheme);
        assert_eq!(g.predicted, w.predicted, "{}", w.scheme);
    }
}
