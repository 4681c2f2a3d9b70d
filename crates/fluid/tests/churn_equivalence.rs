//! End-to-end equivalence of the incremental fluid engine against the
//! full-recompute oracle, plus the `PopulationDelta` edge cases the slab
//! refactor must not regress: empty (cancelled) deltas, simultaneous
//! arrival+departure of the same endpoint pair (now served as a chained
//! mixed delta), and completion-batch ordering. Schedules come from the
//! shared churn generator in `netbw-bench` — the same source the churn
//! bench and the `churn_smoke` CI guard draw from.

use netbw_bench::{bridge_wave_churn, churn_transfers_seeded, multi_component_churn};
use netbw_core::{GigabitEthernetModel, InfinibandModel, MyrinetModel, PenaltyModel};
use netbw_eval::SweepExecutor;
use netbw_fluid::{EngineMode, FluidNetwork, NetworkParams, TimelineStats};
use netbw_graph::Communication;
use proptest::prelude::*;
use std::sync::Arc;

/// Every engine configuration under test: the event-heap timeline
/// (default), the pre-heap linear scans over the incremental cache, the
/// pre-refactor full-recompute oracle, the component-sharded engine (one
/// cache + scratch + timeline per conflict component), and the sharded
/// engine with departure-driven splitting disabled — the refinement
/// ablation, equally bound by bitwise equality.
const MODES: [EngineMode; 5] = [
    EngineMode::Event,
    EngineMode::LinearTimeline,
    EngineMode::FullRecompute,
    EngineMode::Sharded,
    EngineMode::ShardedMergeOnly,
];

fn build<M: PenaltyModel>(model: M, mode: EngineMode) -> FluidNetwork<M> {
    mode.apply(FluidNetwork::new(model, NetworkParams::new(2.0, 0.25)))
}

/// Adds `transfers` (sorted by start) and drains the network, returning
/// `(key, completion)` sorted by key.
fn drain_into<M: PenaltyModel>(
    net: &mut FluidNetwork<M>,
    transfers: &[(u64, Communication, f64)],
) -> Vec<(u64, f64)> {
    let mut sorted = transfers.to_vec();
    sorted.sort_by(|a, b| a.2.total_cmp(&b.2));
    for &(key, comm, start) in &sorted {
        net.add(key, comm, start);
    }
    let mut done: Vec<(u64, f64)> = net
        .run_to_completion()
        .into_iter()
        .map(|c| (c.key, c.completion))
        .collect();
    done.sort_by_key(|&(k, _)| k);
    done
}

/// Drains `transfers` through a fresh network in the given mode, returning
/// `(key, completion)` sorted by key, plus the cache and timeline stats.
fn drain<M: PenaltyModel>(
    model: M,
    transfers: &[(u64, Communication, f64)],
    mode: EngineMode,
) -> (Vec<(u64, f64)>, netbw_fluid::CacheStats, TimelineStats) {
    let mut net = build(model, mode);
    let done = drain_into(&mut net, transfers);
    let stats = net.cache_stats();
    let timeline = net.timeline_stats();
    (done, stats, timeline)
}

/// Schedules from the shared churn generator: seeded bounded-degree
/// fabrics, with staggers from dense (0: every flow arrives at once) to
/// sparse — the same generator the churn bench and `churn_smoke` use.
fn arb_transfers() -> impl Strategy<Value = Vec<(u64, Communication, f64)>> {
    (0u64..1_000_000, 2usize..24, 0usize..4).prop_map(|(seed, flows, stagger_pick)| {
        let stagger = [0.0, 0.5, 5.0, 40.0][stagger_pick];
        churn_transfers_seeded(flows, stagger, seed)
    })
}

proptest! {
    /// Heap timeline == linear scans == full recompute == component-sharded
    /// on random churn for all three specialized models: identical
    /// completion times (bitwise — the four modes share the anchored-finish
    /// arithmetic and the penalties are bit-for-bit equal because every
    /// model is component-local, so the cached finish times are too), with
    /// the incremental engine issuing no more model queries, every settle
    /// after the first reaching the model as a positional delta (mixed
    /// batches included), and every offered delta actually patched.
    #[test]
    fn heap_engine_matches_linear_oracle_and_sharded_on_random_churn(
        transfers in arb_transfers(),
    ) {
        macro_rules! check {
            ($model:expr) => {{
                let (fast, fast_stats, fast_timeline) = drain($model, &transfers, EngineMode::Event);
                let (lin, _, lin_timeline) = drain($model, &transfers, EngineMode::LinearTimeline);
                let (slow, slow_stats, _) = drain($model, &transfers, EngineMode::FullRecompute);
                let (shard, shard_stats, shard_timeline) =
                    drain($model, &transfers, EngineMode::Sharded);
                prop_assert_eq!(fast.len(), slow.len());
                prop_assert_eq!(fast.len(), lin.len());
                prop_assert_eq!(fast.len(), shard.len());
                for ((&(ka, ta), &(kl, tl)), &(kb, tb)) in fast.iter().zip(&lin).zip(&slow) {
                    prop_assert_eq!(ka, kb);
                    prop_assert_eq!(ka, kl);
                    prop_assert_eq!(ta.to_bits(), tb.to_bits(),
                        "heap vs oracle, key {}: {} vs {}", ka, ta, tb);
                    prop_assert_eq!(ta.to_bits(), tl.to_bits(),
                        "heap vs linear, key {}: {} vs {}", ka, ta, tl);
                }
                for (&(ka, ta), &(ks, ts)) in fast.iter().zip(&shard) {
                    prop_assert_eq!(ka, ks);
                    prop_assert_eq!(ta.to_bits(), ts.to_bits(),
                        "heap vs sharded, key {}: {} vs {}", ka, ta, ts);
                }
                // the sharded engine anchors every flow in some shard's heap
                // and settles each shard's cache at least once
                prop_assert!(shard_timeline.heap_pushes >= transfers.len() as u64,
                    "{:?}", shard_timeline);
                prop_assert!(shard_stats.rebuild_queries() >= 1, "{:?}", shard_stats);
                prop_assert!(fast_stats.model_queries <= slow_stats.model_queries);
                prop_assert!(fast_stats.rebuild_queries() <= 1,
                    "only the first settle may rebuild: {:?}", fast_stats);
                prop_assert_eq!(fast_stats.patched_queries, fast_stats.delta_queries,
                    "every offered delta must be patched at these sizes: {:?}", fast_stats);
                // heap hygiene: stale entries never outnumber pushes, the
                // only full resync is the first settle's rebuild, and the
                // linear ablation never touches the heaps
                prop_assert!(fast_timeline.lazy_pops <= fast_timeline.heap_pushes,
                    "{:?}", fast_timeline);
                prop_assert!(fast_timeline.heap_pushes >= transfers.len() as u64,
                    "every flow anchors at least once: {:?}", fast_timeline);
                prop_assert_eq!(fast_timeline.rescans, 1, "{:?}", fast_timeline);
                prop_assert_eq!(lin_timeline.heap_pushes, 0, "{:?}", lin_timeline);
                prop_assert_eq!(lin_timeline.gate_pushes, 0, "{:?}", lin_timeline);
            }};
        }
        check!(GigabitEthernetModel::default());
        check!(MyrinetModel::default());
        check!(InfinibandModel::default());
    }

    /// Pure time advances are free in the anchored arithmetic: draining
    /// the same schedule through arbitrary fixed-step `advance_to` targets
    /// (which cut the timeline at non-event instants) yields bitwise the
    /// same completions as the event-driven drain, and the stepping does
    /// not disturb the heap (no extra pushes: probes never re-anchor).
    #[test]
    fn stepped_time_advances_do_not_perturb_the_heap_timeline(
        transfers in arb_transfers(),
        step_denom in 3u32..17,
    ) {
        let (event_driven, _, event_timeline) =
            drain(MyrinetModel::default(), &transfers, EngineMode::Event);
        let horizon = event_driven.iter().map(|&(_, t)| t).fold(0.0, f64::max);
        let mut net = build(MyrinetModel::default(), EngineMode::Event);
        let mut sorted = transfers.clone();
        sorted.sort_by(|a, b| a.2.total_cmp(&b.2));
        for &(key, comm, start) in &sorted {
            net.add(key, comm, start);
        }
        let mut done: Vec<(u64, f64)> = Vec::new();
        for k in 1..=step_denom {
            let t = horizon * f64::from(k) / f64::from(step_denom);
            done.extend(net.advance_to(t).into_iter().map(|c| (c.key, c.completion)));
        }
        // mop up float shortfall at the horizon
        done.extend(net.run_to_completion().into_iter().map(|c| (c.key, c.completion)));
        done.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(done.len(), event_driven.len());
        for (&(ka, ta), &(kb, tb)) in done.iter().zip(&event_driven) {
            prop_assert_eq!(ka, kb);
            prop_assert_eq!(ta.to_bits(), tb.to_bits(), "key {}: {} vs {}", ka, ta, tb);
        }
        let stepped_timeline = net.timeline_stats();
        prop_assert_eq!(stepped_timeline.heap_pushes, event_timeline.heap_pushes,
            "probe boundaries must not re-anchor: {:?} vs {:?}",
            stepped_timeline, event_timeline);
    }

    /// A delta that bridges two components mid-settle: two disjoint
    /// node-offset copies of the churn schedule, plus one extra flow whose
    /// endpoints straddle the copies, arriving anywhere from before the
    /// first gate to past the stagger horizon. The sharded engine merges
    /// the two shards at that settle (the winner rebuilds); all four modes
    /// must still agree bitwise on all three models.
    #[test]
    fn bridging_delta_agrees_across_all_modes(
        seed in 0u64..1_000_000,
        flows in 3usize..14,
        stagger_pick in 0usize..4,
        sa in 0u32..64,
        sb in 0u32..64,
        bridge_pct in 0u32..120,
    ) {
        let stagger = [0.0, 0.5, 5.0, 40.0][stagger_pick];
        let mut transfers = multi_component_churn(2, flows, stagger, seed);
        let nodes = (flows.max(4) / 2) as u32;
        let key = transfers.len() as u64;
        let bridge = Communication::new(sa % nodes, nodes + sb % nodes, 4_000);
        let bridge_start = stagger * flows as f64 * f64::from(bridge_pct) / 100.0;
        transfers.push((key, bridge, bridge_start));
        macro_rules! check {
            ($model:expr) => {{
                let (fast, _, _) = drain($model, &transfers, EngineMode::Event);
                let (lin, _, _) = drain($model, &transfers, EngineMode::LinearTimeline);
                let (slow, _, _) = drain($model, &transfers, EngineMode::FullRecompute);
                let (shard, _, _) = drain($model, &transfers, EngineMode::Sharded);
                prop_assert_eq!(fast.len(), transfers.len());
                prop_assert_eq!(fast.len(), lin.len());
                prop_assert_eq!(fast.len(), slow.len());
                prop_assert_eq!(fast.len(), shard.len());
                for (((&(ka, ta), &(_, tl)), &(_, tb)), &(_, ts)) in
                    fast.iter().zip(&lin).zip(&slow).zip(&shard)
                {
                    prop_assert_eq!(ta.to_bits(), tl.to_bits(),
                        "heap vs linear, key {}: {} vs {}", ka, ta, tl);
                    prop_assert_eq!(ta.to_bits(), tb.to_bits(),
                        "heap vs oracle, key {}: {} vs {}", ka, ta, tb);
                    prop_assert_eq!(ta.to_bits(), ts.to_bits(),
                        "heap vs sharded, key {}: {} vs {}", ka, ta, ts);
                }
            }};
        }
        check!(GigabitEthernetModel::default());
        check!(MyrinetModel::default());
        check!(InfinibandModel::default());
    }

    /// Mid-run component splits: the bridge-wave workload merges the
    /// partition every wave and carves it back apart when the bridges
    /// complete, so the splitting machinery (slab-key partitioning, cache
    /// forks, heap rebuilds, slot reuse) runs continuously mid-drain. All
    /// five modes — including the merge-only ablation, whose partition
    /// shape differs — must agree bitwise on all three models, because a
    /// union of components is still a safe partition cell.
    #[test]
    fn bridge_wave_splits_agree_across_all_modes(
        seed in 0u64..1_000_000,
        comps in 2usize..4,
        flows_per_comp in 4usize..9,
        waves in 1usize..4,
        stagger_pick in 0usize..3,
    ) {
        let stagger = [0.5, 5.0, 40.0][stagger_pick];
        let transfers = bridge_wave_churn(comps, flows_per_comp, waves, stagger, seed);
        macro_rules! check {
            ($model:expr) => {{
                let (fast, _, _) = drain($model, &transfers, EngineMode::Event);
                let (lin, _, _) = drain($model, &transfers, EngineMode::LinearTimeline);
                let (slow, _, _) = drain($model, &transfers, EngineMode::FullRecompute);
                let (shard, _, _) = drain($model, &transfers, EngineMode::Sharded);
                let (fused, _, _) = drain($model, &transfers, EngineMode::ShardedMergeOnly);
                prop_assert_eq!(fast.len(), transfers.len());
                for modeled in [&lin, &slow, &shard, &fused] {
                    prop_assert_eq!(fast.len(), modeled.len());
                    for (&(ka, ta), &(kb, tb)) in fast.iter().zip(modeled) {
                        prop_assert_eq!(ka, kb);
                        prop_assert_eq!(ta.to_bits(), tb.to_bits(),
                            "key {}: {} vs {}", ka, ta, tb);
                    }
                }
            }};
        }
        check!(GigabitEthernetModel::default());
        check!(MyrinetModel::default());
        check!(InfinibandModel::default());

        // The refining engine must have actually exercised the partition:
        // every wave's bridge chain coarsens it, and (stagger permitting)
        // its completion refines it back.
        let mut net = build(GigabitEthernetModel::default(), EngineMode::Sharded);
        drain_into(&mut net, &transfers);
        let stats = net.shard_stats();
        prop_assert!(
            stats.merges >= (comps - 1) as u64,
            "bridges must merge shards: {:?}", stats
        );
    }

    /// Split-then-rebridge round-trips: two components joined and re-joined
    /// by a sequence of short bridges, each gone before the next arrives.
    /// The partition round-trips merged → split → merged; the kept shard
    /// and the splinter must stay interchangeable with the fused modes at
    /// every step — bitwise, on all three models.
    #[test]
    fn split_rebridge_round_trips_agree_across_all_modes(
        seed in 0u64..1_000_000,
        flows in 4usize..12,
        stagger_pick in 0usize..3,
        bridges in 2usize..5,
        sa in 0u32..64,
        sb in 0u32..64,
    ) {
        let stagger = [0.5, 5.0, 40.0][stagger_pick];
        let mut transfers = multi_component_churn(2, flows, stagger, seed);
        let nodes = (flows.max(4) / 2) as u32;
        let horizon = stagger * flows as f64 + 1.0;
        for r in 0..bridges {
            let key = transfers.len() as u64;
            let bridge = Communication::new(sa % nodes, nodes + sb % nodes, 20);
            transfers.push((key, bridge, horizon * r as f64 / bridges as f64));
        }
        macro_rules! check {
            ($model:expr) => {{
                let (fast, _, _) = drain($model, &transfers, EngineMode::Event);
                let (slow, _, _) = drain($model, &transfers, EngineMode::FullRecompute);
                let (shard, _, _) = drain($model, &transfers, EngineMode::Sharded);
                let (fused, _, _) = drain($model, &transfers, EngineMode::ShardedMergeOnly);
                prop_assert_eq!(fast.len(), transfers.len());
                for modeled in [&slow, &shard, &fused] {
                    prop_assert_eq!(fast.len(), modeled.len());
                    for (&(ka, ta), &(kb, tb)) in fast.iter().zip(modeled) {
                        prop_assert_eq!(ka, kb);
                        prop_assert_eq!(ta.to_bits(), tb.to_bits(),
                            "key {}: {} vs {}", ka, ta, tb);
                    }
                }
            }};
        }
        check!(GigabitEthernetModel::default());
        check!(MyrinetModel::default());
        check!(InfinibandModel::default());
    }
}

#[test]
fn zero_size_transfers_complete_at_their_gate_in_all_modes() {
    // `remaining <= eps` at arrival: the flow anchors with its finish time
    // equal to the settle instant and completes in the same event step —
    // including one landing exactly on another flow's completion instant.
    // All three timelines must agree bitwise.
    let mut results = Vec::new();
    for mode in MODES {
        let mut net = mode.apply(FluidNetwork::new(
            MyrinetModel::default(),
            NetworkParams::new(1.0, 0.0),
        ));
        net.add(0, Communication::new(0u32, 1u32, 100), 0.0);
        net.add(1, Communication::new(0u32, 2u32, 0), 0.0); // flashes at t=0
        let mut done: Vec<(u64, f64)> = net
            .advance_to(50.0)
            .into_iter()
            .map(|c| (c.key, c.completion))
            .collect();
        net.add(2, Communication::new(2u32, 3u32, 0), 100.0); // lands on 0's completion
        done.extend(
            net.run_to_completion()
                .into_iter()
                .map(|c| (c.key, c.completion)),
        );
        done.sort_by_key(|&(k, _)| k);
        assert_eq!(done.len(), 3, "{mode:?}");
        assert_eq!(done[1].1, 0.0, "{mode:?}: zero-size completes at its gate");
        assert!((done[0].1 - 100.0).abs() < 1e-9, "{mode:?}: {done:?}");
        assert_eq!(
            done[2].1, done[0].1,
            "{mode:?}: flash at the completion instant"
        );
        results.push(done);
    }
    let heap = &results[0];
    for (done, mode) in results[1..].iter().zip(&MODES[1..]) {
        for (&(ka, ta), &(kb, tb)) in heap.iter().zip(done) {
            assert_eq!(ka, kb, "{mode:?}");
            assert_eq!(ta.to_bits(), tb.to_bits(), "heap vs {mode:?}, key {ka}");
        }
    }
}

#[test]
fn reset_network_replays_the_heap_timeline_bit_for_bit() {
    // Network reuse across drains (the FluidSolver pattern): a reset heap
    // engine must hand back exactly what a fresh one would — the cleared
    // slab re-issues the same key/epoch sequence, so the heap's lazy
    // invalidation cannot leak state across batteries.
    let battery = [
        churn_transfers_seeded(16, 5.0, 11),
        churn_transfers_seeded(12, 0.0, 12),
        churn_transfers_seeded(20, 0.5, 13),
    ];
    let mut reused = build(MyrinetModel::default(), EngineMode::Event);
    for transfers in &battery {
        let again = drain_into(&mut reused, transfers);
        let (fresh, _, _) = drain(MyrinetModel::default(), transfers, EngineMode::Event);
        assert_eq!(again.len(), fresh.len());
        for (&(ka, ta), &(kb, tb)) in again.iter().zip(&fresh) {
            assert_eq!(ka, kb);
            assert_eq!(ta.to_bits(), tb.to_bits(), "key {ka}: {ta} vs {tb}");
        }
        reused.reset();
    }
}

#[test]
fn zero_size_flash_is_served_by_patches_not_rebuilds() {
    // A zero-size transfer arrives and completes inside one event step.
    // Its arrival and departure are separated by one settle, so the engine
    // serves the flash with two incremental patches (`Arrived` then
    // `Departed`); only the very first settle of the run may rebuild.
    // (Pure cancellation — arrival and departure with *no* settle between,
    // an empty delta — is covered by the `PenaltyCache` unit tests.)
    let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(1.0, 0.0));
    net.add(0, Communication::new(0u32, 1u32, 1000), 0.0);
    net.advance_to(10.0);
    net.add(1, Communication::new(2u32, 3u32, 0), 10.0);
    let done = net.advance_to(10.0);
    assert_eq!(done.len(), 1, "zero-size flow completes instantly");
    assert_eq!(done[0].key, 1);
    let rest = net.run_to_completion();
    assert_eq!(rest.len(), 1);
    assert!((rest[0].completion - 1000.0).abs() < 1e-9);
    let stats = net.cache_stats();
    assert_eq!(
        stats.rebuild_queries(),
        1,
        "only the first settle may rebuild: {stats:?}"
    );
    assert!(stats.delta_queries >= 2, "{stats:?}");
}

#[test]
fn same_endpoint_pair_arrival_and_departure_in_one_batch() {
    // Flow A (0→1) completes at t=100 exactly when flow B with the *same
    // endpoint pair* opens its gate: the cache sees a mixed batch — now
    // served as a chained positional delta that the model patches — and
    // both engines must agree.
    for full in [false, true] {
        let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(1.0, 0.0));
        if full {
            net = net.with_full_recompute();
        }
        net.add(0, Communication::new(0u32, 1u32, 100), 0.0);
        net.add(1, Communication::new(0u32, 1u32, 100), 100.0);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 2);
        assert!((done[0].completion - 100.0).abs() < 1e-9, "full={full}");
        assert!((done[1].completion - 200.0).abs() < 1e-9, "full={full}");
        if !full {
            let stats = net.cache_stats();
            assert_eq!(
                stats.rebuild_queries(),
                1,
                "the mixed settle must stay positional: {stats:?}"
            );
            assert_eq!(
                stats.patched_queries, stats.delta_queries,
                "and must actually be patched: {stats:?}"
            );
        }
    }
}

#[test]
fn components_collapsing_to_singletons_agree_in_all_modes() {
    // Two fan-out components that each shrink to a single surviving flow
    // as the short transfers complete: the shard keeps settling a
    // singleton population (departure patches down to one flow) before
    // draining dry. All four modes must agree bitwise, and the sharded
    // engine must keep both component shards alive through the collapse
    // (shards retire only by merging, never by emptying).
    let transfers: Vec<(u64, Communication, f64)> = vec![
        // component A: shared source 0
        (0, Communication::new(0u32, 1u32, 600), 0.0),
        (1, Communication::new(0u32, 2u32, 600), 0.0),
        (2, Communication::new(0u32, 3u32, 5_000), 0.0), // A's singleton
        // component B: shared source 10
        (3, Communication::new(10u32, 11u32, 400), 1.0),
        (4, Communication::new(10u32, 12u32, 7_000), 1.0), // B's singleton
    ];
    let mut results = Vec::new();
    for mode in [
        EngineMode::Event,
        EngineMode::LinearTimeline,
        EngineMode::FullRecompute,
        EngineMode::Sharded,
    ] {
        let (done, _, _) = drain(MyrinetModel::default(), &transfers, mode);
        assert_eq!(done.len(), transfers.len(), "{mode:?}");
        results.push(done);
    }
    let heap = &results[0];
    for (done, mode) in results[1..].iter().zip([
        EngineMode::LinearTimeline,
        EngineMode::FullRecompute,
        EngineMode::Sharded,
    ]) {
        for (&(ka, ta), &(kb, tb)) in heap.iter().zip(done) {
            assert_eq!(ka, kb, "{mode:?}");
            assert_eq!(
                ta.to_bits(),
                tb.to_bits(),
                "heap vs {mode:?}, key {ka}: {ta} vs {tb}"
            );
        }
    }
    let mut net = build(MyrinetModel::default(), EngineMode::Sharded);
    for &(key, comm, start) in &transfers {
        net.add(key, comm, start);
    }
    // Past every short flow's completion but before the singletons finish:
    // both component shards must still be alive (shards retire only by
    // merging or a full drain, never by shrinking to a singleton).
    net.advance_to(2000.0);
    assert_eq!(net.in_flight(), 2, "only the singletons remain");
    assert_eq!(
        net.shard_count(),
        2,
        "collapsed components keep their shards"
    );
    // A full drain is the quiescent barrier: the partition is forgotten
    // wholesale and rebuilt by the next churn phase.
    net.run_to_completion();
    assert_eq!(net.shard_count(), 0, "a full drain quiesces the partition");
}

#[test]
fn completion_batches_report_keys_in_order_and_patch_survivors() {
    // Four equal flows from one source complete simultaneously while two
    // more (staggered) survive: the batch must come out in key order and
    // the survivors' penalties must drop from 6 to 2 — an incremental
    // `Departed` patch over the slab.
    let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(1.0, 0.0));
    for k in 0..4u64 {
        net.add(10 + k, Communication::new(0u32, 1 + k as u32, 600), 0.0);
    }
    net.add(2, Communication::new(0u32, 8u32, 1000), 0.0);
    net.add(1, Communication::new(0u32, 9u32, 1000), 0.0);
    // all six share source 0: penalty 6 each; the four 600-byte flows
    // complete together at t = 3600.
    let batch = net.advance_to(3600.0);
    assert_eq!(batch.len(), 4);
    let keys: Vec<u64> = batch.iter().map(|c| c.key).collect();
    assert_eq!(keys, vec![10, 11, 12, 13], "batch sorted by caller key");
    // survivors continue at penalty 2: 400 bytes left × 2 = 800 s
    let rest = net.run_to_completion();
    assert_eq!(rest.len(), 2);
    for c in &rest {
        assert!((c.completion - 4400.0).abs() < 1e-9, "{c:?}");
    }
    let stats = net.cache_stats();
    assert!(
        stats.delta_queries >= 1,
        "the departure batch must reach the model as a positional delta: {stats:?}"
    );
}

/// An 8-flow conflict cycle (10 maximal state sets) next to a 6-flow one
/// (5 sets, exact penalty 5/2 where the max-conflict approximation gives
/// 2), each cycle alternating shared-source and shared-destination pairs:
/// C8 on nodes 0..8, C6 on nodes 8..14. Under a state-set budget of 9
/// only C8 blows it.
const C8: [(u32, u32); 8] = [
    (0, 1),
    (2, 1),
    (2, 3),
    (4, 3),
    (4, 5),
    (6, 5),
    (6, 7),
    (0, 7),
];
const C6: [(u32, u32); 6] = [(8, 9), (10, 9), (10, 11), (12, 11), (12, 13), (8, 13)];

/// `pairs` as transfers of `size` bytes starting at t = 0, keyed from
/// `first_key` on.
fn cycle(pairs: &[(u32, u32)], size: u64, first_key: u64) -> Vec<(u64, Communication, f64)> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| (first_key + i as u64, Communication::new(s, d, size), 0.0))
        .collect()
}

/// Asserts two `(key, completion)` lists are bitwise equal.
fn assert_bitwise(a: &[(u64, f64)], b: &[(u64, f64)], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}");
    for (&(ka, ta), &(kb, tb)) in a.iter().zip(b) {
        assert_eq!(ka, kb, "{context}");
        assert_eq!(
            ta.to_bits(),
            tb.to_bits(),
            "{context}, key {ka}: {ta} vs {tb}"
        );
    }
}

/// A budget blow-up degrades only its own conflict component: C8 takes
/// the max-conflict rows while C6 keeps its exact 5/2, so each cycle
/// completes exactly as it would alone — in every engine mode, bitwise.
#[test]
fn budget_blowup_degrades_only_its_own_component() {
    let c8 = cycle(&C8, 4_000, 0);
    let c6 = cycle(&C6, 4_000, 8);
    let both: Vec<_> = c8.iter().chain(&c6).copied().collect();
    let model = || MyrinetModel::with_budget(9);

    let (c8_alone, c8_stats, _) = drain(model(), &c8, EngineMode::Event);
    let (c6_alone, c6_stats, _) = drain(model(), &c6, EngineMode::Event);
    assert!(
        c8_stats.budget_fallbacks >= 1,
        "C8 blows the budget: {c8_stats:?}"
    );
    assert_eq!(c6_stats.budget_fallbacks, 0, "C6 fits it: {c6_stats:?}");
    // C6 drains at its exact penalty: 4000 bytes at 2 B/s ÷ 5/2, after
    // the 0.25 s latency gate.
    for &(_, t) in &c6_alone {
        assert_eq!(t, 0.25 + 4_000.0 * 2.5 / 2.0, "exact 5/2 penalty");
    }

    for mode in MODES {
        let (done, ..) = drain(model(), &both, mode);
        assert_bitwise(&done[..8], &c8_alone, &format!("{mode:?}: C8 vs C8 alone"));
        assert_bitwise(&done[8..], &c6_alone, &format!("{mode:?}: C6 vs C6 alone"));
    }
}

/// The blown component never collapses the partition: C8 (short) and C6
/// (long) keep their own shards while C8 is over budget, C8's drain
/// retires only its shard, and a latecomer gated past that drain gets a
/// shard of its own — with every mode bitwise equal throughout.
#[test]
fn blown_component_keeps_the_partition_until_it_drains() {
    let mut transfers = cycle(&C8, 2_000, 0);
    transfers.extend(cycle(&C6, 8_000, 8));
    transfers.push((14, Communication::new(20u32, 21u32, 1_000), 6_500.0));
    let model = || MyrinetModel::with_budget(9);

    let (heap, ..) = drain(model(), &transfers, EngineMode::Event);
    let (c6_alone, ..) = drain(model(), &cycle(&C6, 8_000, 8), EngineMode::Event);
    assert_bitwise(&heap[8..14], &c6_alone, "C6 vs C6 alone");
    for mode in &MODES[1..] {
        let (done, ..) = drain(model(), &transfers, *mode);
        assert_bitwise(&done, &heap, &format!("{mode:?} vs heap"));
    }

    let mut net = build(model(), EngineMode::Sharded);
    for &(key, comm, start) in &transfers {
        net.add(key, comm, start);
    }
    assert_eq!(net.shard_count(), 3, "C8, C6 and the gated latecomer");
    net.advance_to(0.3); // the gates open: C8 blows the budget
    assert!(
        net.cache_stats().budget_fallbacks >= 1,
        "{:?}",
        net.cache_stats()
    );
    assert_eq!(net.shard_count(), 3, "the blow-up keeps every shard");
    let mut sharded: Vec<(u64, f64)> = net
        .advance_to(6_000.0)
        .into_iter()
        .map(|c| (c.key, c.completion))
        .collect();
    assert_eq!(sharded.len(), 8, "all of C8 drains by t=6000");
    assert_eq!(net.shard_count(), 2, "C8's drain retires only its shard");
    sharded.extend(
        net.run_to_completion()
            .into_iter()
            .map(|c| (c.key, c.completion)),
    );
    sharded.sort_by_key(|&(k, _)| k);
    assert_eq!(net.shard_count(), 0, "full drain quiesces");
    assert_bitwise(&sharded, &heap, "stepped sharded vs heap");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random churn through a budget-starved Myrinet: with budgets this
    /// small most components blow and take the max-conflict rows, and
    /// every engine mode must still agree bitwise.
    #[test]
    fn starved_budget_churn_agrees_across_all_modes(
        transfers in arb_transfers(),
        budget in 1usize..6,
    ) {
        let (heap, ..) = drain(MyrinetModel::with_budget(budget), &transfers, EngineMode::Event);
        prop_assert_eq!(heap.len(), transfers.len());
        for mode in &MODES[1..] {
            let (done, ..) = drain(MyrinetModel::with_budget(budget), &transfers, *mode);
            prop_assert_eq!(done.len(), heap.len());
            for (&(ka, ta), &(kb, tb)) in heap.iter().zip(&done) {
                prop_assert_eq!(ka, kb);
                prop_assert_eq!(ta.to_bits(), tb.to_bits(),
                    "{:?} vs heap, budget {}, key {}: {} vs {}", mode, budget, ka, tb, ta);
            }
        }
    }
}

/// The parallel settle barrier at a realistic size: bridge waves fed
/// online (each transfer added at its start time, so completed flows'
/// slots are reused by later arrivals while stale member keys still name
/// them) through the sharded engine on a 4-worker executor. Splits,
/// merges and stale-member probes all happen inside the parallel round;
/// the answers must equal the serial sharded engine's and the heap
/// engine's bit for bit.
#[test]
fn online_bridge_waves_on_the_executor_match_serial_and_heap() {
    let transfers = bridge_wave_churn(64, 16, 4, 5.0, 7);
    let feed = |mut net: FluidNetwork<GigabitEthernetModel>| {
        let mut done: Vec<(u64, f64)> = Vec::new();
        for &(key, comm, start) in &transfers {
            done.extend(
                net.advance_to(start)
                    .into_iter()
                    .map(|c| (c.key, c.completion)),
            );
            net.add(key, comm, start);
        }
        done.extend(
            net.run_to_completion()
                .into_iter()
                .map(|c| (c.key, c.completion)),
        );
        done.sort_by_key(|&(k, _)| k);
        (done, net.shard_stats())
    };
    let params = NetworkParams::new(2.0, 0.25);
    let (par, shape) = feed(
        FluidNetwork::new(GigabitEthernetModel::default(), params)
            .with_sharded_dispatch(Arc::new(SweepExecutor::new(4))),
    );
    let (serial, _) =
        feed(FluidNetwork::new(GigabitEthernetModel::default(), params).with_sharded());
    let (heap, _) = feed(FluidNetwork::new(GigabitEthernetModel::default(), params));
    assert_eq!(heap.len(), transfers.len());
    assert!(shape.splits >= 63 && shape.merges >= 63, "{shape:?}");
    assert_bitwise(&par, &serial, "executor vs serial sharded");
    assert_bitwise(&par, &heap, "executor vs heap");
}
