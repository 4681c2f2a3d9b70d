//! End-to-end equivalence of the fluid engine against the standalone
//! §IV.B `ReferenceNetwork`, plus the `PopulationDelta` edge cases the
//! slab refactor must not regress: empty (cancelled) deltas, simultaneous
//! arrival+departure of the same endpoint pair (served as a chained mixed
//! delta), and completion-batch ordering. Every engine configuration —
//! one shard, shards on serial dispatch, shards on the work-stealing
//! executor — must match the reference bit for bit. Schedules come from
//! the shared churn generator in `netbw-bench` — the same source the
//! churn bench and the `churn_smoke` CI guard draw from.

use netbw_bench::{
    bridge_wave_churn, churn_transfers_seeded, multi_component_churn, Drive, Engine,
};
use netbw_core::{GigabitEthernetModel, InfinibandModel, MyrinetModel, PenaltyModel};
use netbw_eval::SweepExecutor;
use netbw_fluid::{CacheStats, FluidNetwork, NetworkParams, ReferenceNetwork, TimelineStats};
use netbw_graph::Communication;
use proptest::prelude::*;
use std::sync::Arc;

fn params() -> NetworkParams {
    NetworkParams::new(2.0, 0.25)
}

fn build<M: PenaltyModel>(model: M, engine: Engine) -> FluidNetwork<M> {
    engine.build(model, params())
}

/// Adds `transfers` (sorted by start) and drains the network, returning
/// `(key, completion)` sorted by key.
fn drain_into<N: Drive>(net: &mut N, transfers: &[(u64, Communication, f64)]) -> Vec<(u64, f64)> {
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

/// Drains `transfers` through a fresh engine, returning `(key,
/// completion)` sorted by key, plus the cache and timeline stats.
fn drain<M: PenaltyModel>(
    model: M,
    transfers: &[(u64, Communication, f64)],
    engine: Engine,
) -> (Vec<(u64, f64)>, CacheStats, TimelineStats) {
    let mut net = build(model, engine);
    let done = drain_into(&mut net, transfers);
    let stats = net.cache_stats();
    let timeline = net.timeline_stats();
    (done, stats, timeline)
}

/// Drains `transfers` through the reference, returning `(key,
/// completion)` sorted by key, plus its model queries.
fn reference<M: PenaltyModel>(
    model: M,
    transfers: &[(u64, Communication, f64)],
) -> (Vec<(u64, f64)>, u64) {
    let mut net = ReferenceNetwork::new(model, params());
    let done = drain_into(&mut net, transfers);
    (done, net.model_queries())
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

/// Asserts every engine configuration drains `transfers` bitwise like
/// the reference, returning the reference's completions.
fn assert_engines_match_reference<M: PenaltyModel>(
    model: impl Fn() -> M,
    transfers: &[(u64, Communication, f64)],
) -> Vec<(u64, f64)> {
    let (expected, _) = reference(model(), transfers);
    assert_eq!(expected.len(), transfers.len(), "reference lost flows");
    for engine in Engine::ALL {
        let (done, ..) = drain(model(), transfers, engine);
        assert_bitwise(&done, &expected, &format!("{engine:?} vs reference"));
    }
    expected
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
    /// Every engine configuration == the reference on random churn for
    /// all three specialized models: identical completion times (bitwise
    /// — they share the anchored-finish arithmetic and the penalties are
    /// bit-for-bit equal because every model is component-local and
    /// order-independent), with the single-shard engine issuing no more
    /// model queries than the reference, every settle after the first
    /// reaching the model as a positional delta (mixed batches included),
    /// and every offered delta actually patched.
    #[test]
    fn heap_engine_matches_linear_oracle_and_sharded_on_random_churn(
        transfers in arb_transfers(),
    ) {
        macro_rules! check {
            ($model:expr) => {{
                let (expected, oracle_queries) = reference($model, &transfers);
                prop_assert_eq!(expected.len(), transfers.len());
                for engine in Engine::ALL {
                    let (done, stats, timeline) = drain($model, &transfers, engine);
                    assert_bitwise(&done, &expected, &format!("{engine:?} vs reference"));
                    // every engine anchors every flow in some heap and
                    // settles each cache at least once
                    prop_assert!(timeline.heap_pushes >= transfers.len() as u64,
                        "{:?}: every flow anchors at least once: {:?}", engine, timeline);
                    prop_assert!(timeline.lazy_pops <= timeline.heap_pushes,
                        "{:?}: {:?}", engine, timeline);
                    prop_assert!(stats.rebuild_queries() >= 1, "{:?}: {:?}", engine, stats);
                    if engine == Engine::Single {
                        prop_assert!(stats.model_queries <= oracle_queries);
                        prop_assert!(stats.rebuild_queries() <= 1,
                            "only the first settle may rebuild: {:?}", stats);
                        prop_assert_eq!(stats.patched_queries, stats.delta_queries,
                            "every offered delta must be patched at these sizes: {:?}", stats);
                        // the only full resync is the first settle's rebuild
                        prop_assert_eq!(timeline.rescans, 1, "{:?}", timeline);
                    }
                }
            }};
        }
        check!(GigabitEthernetModel::default());
        check!(MyrinetModel::default());
        check!(InfinibandModel::default());
    }

    /// Pure time advances are free in the anchored arithmetic: draining
    /// the same schedule through arbitrary fixed-step `advance_to` targets
    /// (which cut the timeline at non-event instants) yields bitwise the
    /// same completions as the reference's event-driven drain, in every
    /// engine, and the stepping does not disturb the heaps (no extra
    /// pushes: probes never re-anchor).
    #[test]
    fn stepped_time_advances_do_not_perturb_the_heap_timeline(
        transfers in arb_transfers(),
        step_denom in 3u32..17,
    ) {
        let (event_driven, _) = reference(MyrinetModel::default(), &transfers);
        let horizon = event_driven.iter().map(|&(_, t)| t).fold(0.0, f64::max);
        for engine in Engine::ALL {
            let (_, _, event_timeline) = drain(MyrinetModel::default(), &transfers, engine);
            let mut net = build(MyrinetModel::default(), engine);
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
            assert_bitwise(&done, &event_driven, &format!("stepped {engine:?} vs reference"));
            let stepped_timeline = net.timeline_stats();
            prop_assert_eq!(stepped_timeline.heap_pushes, event_timeline.heap_pushes,
                "{:?}: probe boundaries must not re-anchor: {:?} vs {:?}",
                engine, stepped_timeline, event_timeline);
        }
    }

    /// A delta that bridges two components mid-settle: two disjoint
    /// node-offset copies of the churn schedule, plus one extra flow whose
    /// endpoints straddle the copies, arriving anywhere from before the
    /// first gate to past the stagger horizon. The sharded engines merge
    /// the two shards at that settle (the larger side's cache patches in
    /// the smaller side's flows); every engine must still match the
    /// reference bitwise on all three models.
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
        assert_engines_match_reference(GigabitEthernetModel::default, &transfers);
        assert_engines_match_reference(MyrinetModel::default, &transfers);
        assert_engines_match_reference(InfinibandModel::default, &transfers);
    }

    /// Mid-run component splits: the bridge-wave workload merges the
    /// partition every wave and carves it back apart when the bridges
    /// complete, so the splitting machinery (slab-key partitioning, fresh
    /// caches for the smaller part, heap rebuilds, slot reuse) runs
    /// continuously mid-drain.
    /// Every engine must match the reference bitwise on all three models.
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
        assert_engines_match_reference(GigabitEthernetModel::default, &transfers);
        assert_engines_match_reference(MyrinetModel::default, &transfers);
        assert_engines_match_reference(InfinibandModel::default, &transfers);

        // The sharded engine must have actually exercised the partition:
        // every wave's bridge chain coarsens it, and (stagger permitting)
        // its completion refines it back.
        let mut net = build(GigabitEthernetModel::default(), Engine::Sharded);
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
    /// and the splinter must stay interchangeable with the single shard at
    /// every step — all bitwise equal to the reference, on all three
    /// models.
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
        assert_engines_match_reference(GigabitEthernetModel::default, &transfers);
        assert_engines_match_reference(MyrinetModel::default, &transfers);
        assert_engines_match_reference(InfinibandModel::default, &transfers);
    }
}

/// The scripted zero-size scenario: a zero-size flow flashing at t=0
/// next to a 100-byte one, then another landing exactly on the 100-byte
/// flow's completion instant.
fn zero_size_script<N: Drive>(mut net: N) -> Vec<(u64, f64)> {
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
    done
}

#[test]
fn zero_size_transfers_complete_at_their_gate_in_all_modes() {
    // `remaining <= eps` at arrival: the flow anchors with its finish time
    // equal to the settle instant and completes in the same event step —
    // including one landing exactly on another flow's completion instant.
    // Every engine must agree with the reference bitwise.
    let params = NetworkParams::new(1.0, 0.0);
    let expected = zero_size_script(ReferenceNetwork::new(MyrinetModel::default(), params));
    assert_eq!(expected.len(), 3);
    assert_eq!(expected[1].1, 0.0, "zero-size completes at its gate");
    assert!((expected[0].1 - 100.0).abs() < 1e-9, "{expected:?}");
    assert_eq!(
        expected[2].1, expected[0].1,
        "flash at the completion instant"
    );
    for engine in Engine::ALL {
        let done = zero_size_script(engine.build(MyrinetModel::default(), params));
        assert_bitwise(&done, &expected, &format!("{engine:?} vs reference"));
    }
}

#[test]
fn reset_network_replays_the_heap_timeline_bit_for_bit() {
    // Network reuse across drains (the FluidSolver pattern): a reset
    // engine must hand back exactly what the reference does — the cleared
    // slab re-issues the same key/epoch sequence, so the heap's lazy
    // invalidation cannot leak state across batteries.
    let battery = [
        churn_transfers_seeded(16, 5.0, 11),
        churn_transfers_seeded(12, 0.0, 12),
        churn_transfers_seeded(20, 0.5, 13),
    ];
    for engine in Engine::ALL {
        let mut reused = build(MyrinetModel::default(), engine);
        for transfers in &battery {
            let again = drain_into(&mut reused, transfers);
            let (fresh, _) = reference(MyrinetModel::default(), transfers);
            assert_bitwise(&again, &fresh, &format!("reset {engine:?} vs reference"));
            reused.reset();
        }
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
    // endpoint pair* opens its gate: the cache sees a mixed batch — served
    // as a chained positional delta that the model patches — and every
    // engine must agree with the reference.
    let params = NetworkParams::new(1.0, 0.0);
    let transfers = [
        (0, Communication::new(0u32, 1u32, 100), 0.0),
        (1, Communication::new(0u32, 1u32, 100), 100.0),
    ];
    let expected = drain_into(
        &mut ReferenceNetwork::new(MyrinetModel::default(), params),
        &transfers,
    );
    assert!((expected[0].1 - 100.0).abs() < 1e-9, "{expected:?}");
    assert!((expected[1].1 - 200.0).abs() < 1e-9, "{expected:?}");
    for engine in Engine::ALL {
        let mut net = engine.build(MyrinetModel::default(), params);
        let done = drain_into(&mut net, &transfers);
        assert_bitwise(&done, &expected, &format!("{engine:?} vs reference"));
        let stats = net.cache_stats();
        assert_eq!(
            stats.rebuild_queries(),
            1,
            "{engine:?}: the mixed settle must stay positional: {stats:?}"
        );
        assert_eq!(
            stats.patched_queries, stats.delta_queries,
            "{engine:?}: and must actually be patched: {stats:?}"
        );
    }
}

#[test]
fn components_collapsing_to_singletons_agree_in_all_modes() {
    // Two fan-out components that each shrink to a single surviving flow
    // as the short transfers complete: the shard keeps settling a
    // singleton population (departure patches down to one flow) before
    // draining dry. Every engine must agree with the reference bitwise,
    // and the sharded engine must keep both component shards alive
    // through the collapse (shards retire only by merging or a full
    // drain, never by shrinking).
    let transfers: Vec<(u64, Communication, f64)> = vec![
        // component A: shared source 0
        (0, Communication::new(0u32, 1u32, 600), 0.0),
        (1, Communication::new(0u32, 2u32, 600), 0.0),
        (2, Communication::new(0u32, 3u32, 5_000), 0.0), // A's singleton
        // component B: shared source 10
        (3, Communication::new(10u32, 11u32, 400), 1.0),
        (4, Communication::new(10u32, 12u32, 7_000), 1.0), // B's singleton
    ];
    assert_engines_match_reference(MyrinetModel::default, &transfers);
    let mut net = build(MyrinetModel::default(), Engine::Sharded);
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

/// A budget blow-up degrades only its own conflict component: C8 takes
/// the max-conflict rows while C6 keeps its exact 5/2, so each cycle
/// completes exactly as it would alone — in every engine and in the
/// reference, bitwise.
#[test]
fn budget_blowup_degrades_only_its_own_component() {
    let c8 = cycle(&C8, 4_000, 0);
    let c6 = cycle(&C6, 4_000, 8);
    let both: Vec<_> = c8.iter().chain(&c6).copied().collect();
    let model = || MyrinetModel::with_budget(9);

    let (c8_alone, c8_stats, _) = drain(model(), &c8, Engine::Single);
    let (c6_alone, c6_stats, _) = drain(model(), &c6, Engine::Single);
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

    let expected = assert_engines_match_reference(model, &both);
    assert_bitwise(&expected[..8], &c8_alone, "C8 vs C8 alone");
    assert_bitwise(&expected[8..], &c6_alone, "C6 vs C6 alone");
}

/// The blown component never collapses the partition: C8 (short) and C6
/// (long) keep their own shards while C8 is over budget, C8's drain
/// retires only its shard, and a latecomer gated past that drain gets a
/// shard of its own — with every engine bitwise equal to the reference
/// throughout.
#[test]
fn blown_component_keeps_the_partition_until_it_drains() {
    let mut transfers = cycle(&C8, 2_000, 0);
    transfers.extend(cycle(&C6, 8_000, 8));
    transfers.push((14, Communication::new(20u32, 21u32, 1_000), 6_500.0));
    let model = || MyrinetModel::with_budget(9);

    let expected = assert_engines_match_reference(model, &transfers);
    let (c6_alone, _) = reference(model(), &cycle(&C6, 8_000, 8));
    assert_bitwise(&expected[8..14], &c6_alone, "C6 vs C6 alone");

    let mut net = build(model(), Engine::Sharded);
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
    assert_bitwise(&sharded, &expected, "stepped sharded vs reference");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random churn through a budget-starved Myrinet: with budgets this
    /// small most components blow and take the max-conflict rows, and
    /// every engine must still agree with the reference bitwise.
    #[test]
    fn starved_budget_churn_agrees_across_all_modes(
        transfers in arb_transfers(),
        budget in 1usize..6,
    ) {
        assert_engines_match_reference(|| MyrinetModel::with_budget(budget), &transfers);
    }
}

/// Feeds `transfers` (sorted by start) online — the clock advances to
/// each start before its transfer is added, so shards settle and merge
/// mid-run — then drains; returns `(key, completion)` sorted by key.
fn feed<N: Drive>(net: &mut N, transfers: &[(u64, Communication, f64)]) -> Vec<(u64, f64)> {
    let mut done: Vec<(u64, f64)> = Vec::new();
    for &(key, comm, start) in transfers {
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
    done
}

/// Repartitioning costs the smaller side in both orientations: a 12-flow
/// star out of node 0 and a 2-flow star out of node 100, every flow
/// contending and settled, then a short bridge between them, from node 0
/// to node 101 or from node 100 to node 1. Either way the large star's
/// component label survives the merge and its part keeps the label at
/// the split, while the small star moves. The bridge's arrival moves
/// penalties on both sides under GigE and Myrinet, and on its sender's
/// side under InfiniBand, which couples only flows that share a sender.
/// The bridge completes while both stars still run, the small star
/// drains next, then the large one flow at a time (so the large side
/// settles after the small side is gone). Every engine must match the
/// reference bit for bit on all three models, and the merge and the
/// split each re-home just the small star's two flows.
#[test]
fn lopsided_bridges_match_the_reference_in_both_orientations() {
    /// The small star is added first, so it gets the lower shard id
    /// and the smaller part settles first after the split.
    fn stars(bridge: Communication) -> Vec<(u64, Communication, f64)> {
        let mut transfers = vec![
            (13, Communication::new(100u32, 101u32, 1_500), 0.0),
            (14, Communication::new(100u32, 102u32, 1_500), 0.0),
        ];
        transfers.extend((1..=12u32).map(|d| {
            let size = 4_000 + 100 * u64::from(d);
            (u64::from(d), Communication::new(0u32, d, size), 0.0)
        }));
        transfers.push((15, bridge, 10.0));
        transfers
    }
    /// `moved`: flows whose penalty changes as the bridge opens.
    fn check<M: PenaltyModel>(
        model: impl Fn() -> M,
        transfers: &[(u64, Communication, f64)],
        moved: &[u64],
    ) {
        let expected = feed(&mut ReferenceNetwork::new(model(), params()), transfers);
        assert_eq!(expected.len(), transfers.len(), "reference lost flows");
        let last_small = expected[12].1.max(expected[13].1);
        assert!(expected[14].1 < last_small, "the bridge leaves first");
        assert!(last_small < expected[0].1, "the small star drains next");
        let mut oracle = ReferenceNetwork::new(model(), params()).with_phase_recording();
        let mut phased = Vec::new();
        for &(key, comm, start) in transfers {
            phased.extend(oracle.advance_to(start));
            oracle.add(key, comm, start);
        }
        phased.extend(oracle.run_to_completion());
        let gate = 10.0 + params().latency;
        for &key in moved {
            let flow = phased
                .iter()
                .find(|c| c.key == key)
                .expect("flow completed");
            assert!(
                flow.phases.iter().any(|ph| ph.t0 == gate),
                "flow {key}'s penalty must change as the bridge opens: {:?}",
                flow.phases
            );
        }
        for engine in Engine::ALL {
            let mut net = build(model(), engine);
            let done = feed(&mut net, transfers);
            assert_bitwise(&done, &expected, &format!("{engine:?} vs reference"));
            if engine != Engine::Single {
                let shape = net.shard_stats();
                assert_eq!(
                    (shape.merges, shape.splits),
                    (1, 1),
                    "{engine:?}: {shape:?}"
                );
                assert_eq!(shape.rehomed_flows, 2 + 2, "{engine:?}: {shape:?}");
            }
        }
    }
    // Flow 1 is in the large star, flow 13 in the small one.
    for (bridge, sender_side) in [
        (Communication::new(0u32, 101u32, 20), 1),
        (Communication::new(100u32, 1u32, 20), 13),
    ] {
        let transfers = stars(bridge);
        check(GigabitEthernetModel::default, &transfers, &[1, 13]);
        check(MyrinetModel::default, &transfers, &[1, 13]);
        check(InfinibandModel::default, &transfers, &[sender_side]);
    }
}

/// Barriers wide enough to share go to the dispatcher: 512 node-offset
/// copies of one schedule, all added up front, dirty every copy's shard
/// at each event instant. Every engine must match the reference bit for
/// bit, and both sharded engines must have dispatched barriers — so the
/// executor's parallel round runs, and in `release-checked` builds so
/// does the dispatch path's slot-disjointness assert.
#[test]
fn wide_barriers_are_dispatched_and_match_the_reference() {
    let transfers = multi_component_churn(512, 16, 5.0, 3);
    assert_engines_match_reference(GigabitEthernetModel::default, &transfers);
    for engine in [Engine::Sharded, Engine::Executor] {
        let mut net = build(GigabitEthernetModel::default(), engine);
        drain_into(&mut net, &transfers);
        let shape = net.shard_stats();
        assert!(shape.dispatched_barriers > 0, "{engine:?}: {shape:?}");
    }
}

/// Length of one wave of [`bridged_waves`].
const WAVE: f64 = 400.0;

/// Start of wave `w` of [`bridged_waves`].
fn wave_start(w: u32) -> f64 {
    1.0 + f64::from(w) * WAVE
}

/// `copies` node-offset copies (8 nodes each, base `b`) of one bridged
/// schedule, sorted by start. A long flow `b → b+1` runs through every
/// wave. Each of `waves` waves opens a short flow `b+2 → b+1` beside it,
/// then, a second later, a four-flow star into `b+5` and a tiny bridge
/// `b → b+5` that merges the two components' shards until it completes
/// and splits them again; the bridge shares a sender with the long flow
/// and a receiver with the star, so it moves penalties on both sides.
/// The short flow leaves last (the test asserts it), and one departure
/// out of two members leaves the long flow's member list uncompacted:
/// from the second wave on it names the slot the short flow freed, which
/// LIFO reuse has handed to another copy's new short flow, contending by
/// the time the star arrives. The star outnumbers that list (four
/// members to three), so the merge keeps the star's fresh cache and its
/// first settle rebuilds over the stale key. The copies' events coincide,
/// so every barrier dirties one shard per copy or more. Keys are
/// `64 × copy + i`: `i = 0` is the long flow, `i = 1 + 6w ..= 6 + 6w` are
/// wave `w`'s.
fn bridged_waves(copies: u32, waves: u32) -> Vec<(u64, Communication, f64)> {
    let mut out = Vec::new();
    for c in 0..copies {
        let b = 8 * c;
        let key = |i: u32| u64::from(c) * 64 + u64::from(i);
        out.push((key(0), Communication::new(b, b + 1, 4_000), 0.0));
        for w in 0..waves {
            let (t0, i) = (wave_start(w), 1 + 6 * w);
            out.extend([
                (key(i), Communication::new(b + 2, b + 1, 250), t0),
                (key(i + 1), Communication::new(b + 4, b + 5, 50), t0 + 1.0),
                (key(i + 2), Communication::new(b + 6, b + 5, 40), t0 + 1.0),
                (key(i + 3), Communication::new(b + 4, b + 6, 30), t0 + 1.0),
                (key(i + 4), Communication::new(b + 7, b + 5, 20), t0 + 1.0),
                (key(i + 5), Communication::new(b, b + 5, 4), t0 + 1.0),
            ]);
        }
    }
    out.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    out
}

/// Wide barriers on a live partition: 1,024 copies of [`bridged_waves`]
/// fed online, so each wave's flows take the slab slots the last wave's
/// freed while member lists may still name them, and every wave merges
/// and splits each copy. The barrier settling a wave's merges dirties
/// over 7,000 members beyond the largest shard, past the inline cutoff,
/// so it goes to the dispatcher: there, the merged shards' rebuild
/// gathers probe stale member keys through the jobs' raw slab views, and
/// in `release-checked` builds the barrier passes the slot-disjointness
/// assert. Every engine must match the reference bit for bit under
/// Myrinet, GigE and InfiniBand.
#[test]
fn wide_online_bridge_waves_dispatch_and_match_the_reference() {
    const COPIES: u32 = 1_024;
    const WAVES: u32 = 2;
    let transfers = bridged_waves(COPIES, WAVES);
    /// [`feed`], advancing once per start instant: the reference
    /// re-queries its whole population at every advance.
    fn feed_by_instant<N: Drive>(
        net: &mut N,
        transfers: &[(u64, Communication, f64)],
    ) -> Vec<(u64, f64)> {
        let mut done: Vec<(u64, f64)> = Vec::new();
        for batch in transfers.chunk_by(|a, b| a.2 == b.2) {
            let done_by_start = net.advance_to(batch[0].2);
            done.extend(done_by_start.into_iter().map(|c| (c.key, c.completion)));
            for &(key, comm, start) in batch {
                net.add(key, comm, start);
            }
        }
        let rest = net.run_to_completion();
        done.extend(rest.into_iter().map(|c| (c.key, c.completion)));
        done.sort_by_key(|&(k, _)| k);
        done
    }
    fn check<M: PenaltyModel>(model: impl Fn() -> M, transfers: &[(u64, Communication, f64)]) {
        let expected = feed_by_instant(&mut ReferenceNetwork::new(model(), params()), transfers);
        assert_eq!(expected.len(), transfers.len(), "reference lost flows");
        // Each wave drains before the next opens, its short flow last.
        for copy in expected.chunks(1 + 6 * WAVES as usize) {
            for (w, wave) in (1..).zip(copy[1..].chunks(6)) {
                let (&(short, left), rest) = wave.split_first().expect("six flows a wave");
                assert!(left < wave_start(w), "flow {short} outlives its wave");
                assert!(
                    rest.iter().all(|&(_, done)| done < left),
                    "flow {short} must leave its wave last: {wave:?}"
                );
            }
        }
        for engine in Engine::ALL {
            let mut net = build(model(), engine);
            let done = feed_by_instant(&mut net, transfers);
            assert_bitwise(&done, &expected, &format!("{engine:?} vs reference"));
            if engine != Engine::Single {
                let shape = net.shard_stats();
                let repartitions = u64::from(COPIES * WAVES);
                assert!(
                    shape.merges >= repartitions && shape.splits >= repartitions,
                    "{engine:?}: {shape:?}"
                );
                assert!(shape.dispatched_barriers > 0, "{engine:?}: {shape:?}");
            }
        }
    }
    check(MyrinetModel::default, &transfers);
    check(GigabitEthernetModel::default, &transfers);
    check(InfinibandModel::default, &transfers);
}

/// The sharded engine on a 4-worker executor at a realistic size: bridge
/// waves fed online (each transfer added at its start time, so completed
/// flows' slots are reused by later arrivals while stale member keys
/// still name them). Splits, merges and stale-member probes all happen
/// between and inside settle barriers (narrow enough here to settle
/// inline; the two wide-barrier tests above cover the parallel round);
/// the answers must equal the serial sharded engine's, the single-shard
/// engine's and the reference's bit for bit.
#[test]
fn online_bridge_waves_on_the_executor_match_serial_and_heap() {
    let transfers = bridge_wave_churn(64, 16, 4, 5.0, 7);
    let mut par = FluidNetwork::new(GigabitEthernetModel::default(), params())
        .with_sharded_dispatch(Arc::new(SweepExecutor::new(4)));
    let done = feed(&mut par, &transfers);
    let shape = par.shard_stats();
    assert!(shape.splits >= 63 && shape.merges >= 63, "{shape:?}");
    let serial = feed(
        &mut build(GigabitEthernetModel::default(), Engine::Sharded),
        &transfers,
    );
    let heap = feed(
        &mut build(GigabitEthernetModel::default(), Engine::Single),
        &transfers,
    );
    let oracle = feed(
        &mut ReferenceNetwork::new(GigabitEthernetModel::default(), params()),
        &transfers,
    );
    assert_eq!(oracle.len(), transfers.len());
    assert_bitwise(&done, &serial, "executor vs serial sharded");
    assert_bitwise(&done, &heap, "executor vs single shard");
    assert_bitwise(&done, &oracle, "executor vs reference");
}
