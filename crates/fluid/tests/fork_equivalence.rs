//! `FluidNetwork::fork` equivalence: a fork of a warm engine, diverged
//! with additional transfers, must match a rebuild-and-replay of the same
//! history bit-for-bit — across all three fabric models and all four
//! engine modes, including forks taken mid-churn with latency-gated flows
//! still pending. This is the contract the `netbw-serve` what-if service
//! relies on when it answers speculative placement queries from a forked
//! snapshot instead of replaying the admission log.

use netbw_bench::churn_transfers_seeded;
use netbw_core::{GigabitEthernetModel, InfinibandModel, MyrinetModel, PenaltyModel};
use netbw_fluid::{EngineMode, FluidNetwork, NetworkParams};
use netbw_graph::Communication;
use proptest::prelude::*;

/// The four engine configurations under test (the churn equivalence
/// suite's set, minus the merge-only ablation).
const MODES: [EngineMode; 4] = [
    EngineMode::Event,
    EngineMode::LinearTimeline,
    EngineMode::FullRecompute,
    EngineMode::Sharded,
];

fn build<M: PenaltyModel>(model: M, mode: EngineMode) -> FluidNetwork<M> {
    mode.apply(FluidNetwork::new(model, NetworkParams::new(2.0, 0.25)))
}

fn add_all<M: PenaltyModel>(net: &mut FluidNetwork<M>, transfers: &[(u64, Communication, f64)]) {
    for &(key, comm, start) in transfers {
        net.add(key, comm, start);
    }
}

fn completions<M: PenaltyModel>(net: &mut FluidNetwork<M>) -> Vec<(u64, u64)> {
    net.run_to_completion()
        .into_iter()
        .map(|c| (c.key, c.completion.to_bits()))
        .collect()
}

/// Drives one `(model, mode, split)` scenario: builds a base network over
/// the prefix, advances it to the last prefix start (so the newest flow's
/// latency gate is still pending — the fork happens mid-churn), forks it,
/// diverges the fork with the suffix, and checks the fork against a fresh
/// rebuild-and-replay of the identical history. Also drains the parent
/// afterwards to prove the fork did not perturb it.
fn check_fork_equivalence<M: PenaltyModel + Clone>(
    model: M,
    mode: EngineMode,
    transfers: &[(u64, Communication, f64)],
    split: usize,
) {
    let (prefix, suffix) = transfers.split_at(split);
    // churn starts are monotonically increasing, so the fork instant is
    // the last prefix flow's start: its gate (start + latency) is pending.
    let fork_time = prefix.last().expect("non-empty prefix").2;

    let mut base = build(model.clone(), mode);
    add_all(&mut base, prefix);
    let mut done_before: Vec<(u64, u64)> = base
        .advance_to(fork_time)
        .into_iter()
        .map(|c| (c.key, c.completion.to_bits()))
        .collect();

    let mut forked = base.fork();
    assert_eq!(forked.time().to_bits(), base.time().to_bits());
    assert_eq!(forked.in_flight(), base.in_flight());
    add_all(&mut forked, suffix);
    let mut fork_done = done_before.clone();
    fork_done.extend(completions(&mut forked));
    fork_done.sort_by_key(|&(k, _)| k);

    // Rebuild-and-replay the exact same history on a fresh engine.
    let mut replay = build(model.clone(), mode);
    add_all(&mut replay, prefix);
    let mut replay_done: Vec<(u64, u64)> = replay
        .advance_to(fork_time)
        .into_iter()
        .map(|c| (c.key, c.completion.to_bits()))
        .collect();
    add_all(&mut replay, suffix);
    replay_done.extend(completions(&mut replay));
    replay_done.sort_by_key(|&(k, _)| k);

    assert_eq!(
        fork_done, replay_done,
        "fork-then-diverge must equal rebuild-and-replay ({mode:?}, split {split})"
    );

    // The parent continues (without the suffix) exactly as an un-forked
    // control over the prefix alone.
    done_before.extend(completions(&mut base));
    done_before.sort_by_key(|&(k, _)| k);
    let mut control = build(model, mode);
    add_all(&mut control, prefix);
    let mut control_done: Vec<(u64, u64)> = control
        .advance_to(fork_time)
        .into_iter()
        .map(|c| (c.key, c.completion.to_bits()))
        .collect();
    control_done.extend(completions(&mut control));
    control_done.sort_by_key(|&(k, _)| k);
    assert_eq!(
        done_before, control_done,
        "forking must not perturb the parent ({mode:?}, split {split})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random churn, random mid-churn split point: fork + diverge equals
    /// rebuild + replay bitwise for every model and engine mode, and the
    /// forked-from parent is left unperturbed.
    #[test]
    fn fork_then_diverge_equals_rebuild_and_replay(
        seed in 0u64..1_000_000,
        flows in 3usize..16,
        stagger_pick in 0usize..4,
        split_pick in 0u32..1000,
    ) {
        let stagger = [0.0, 0.5, 5.0, 40.0][stagger_pick];
        let transfers = churn_transfers_seeded(flows, stagger, seed);
        let split = 1 + (split_pick as usize) % (transfers.len() - 1);
        for mode in MODES {
            check_fork_equivalence(GigabitEthernetModel::default(), mode, &transfers, split);
            check_fork_equivalence(MyrinetModel::default(), mode, &transfers, split);
            check_fork_equivalence(InfinibandModel::default(), mode, &transfers, split);
        }
    }
}

/// Forking a sharded engine while one Myrinet component is over the
/// state-set budget: the fork must carry that component's max-conflict
/// penalties next to the exact ones and stay bitwise with the rebuild.
#[test]
fn fork_carries_a_collapsed_partition() {
    // An 8-flow conflict cycle that blows a state-set budget of 9 (same
    // cycle as the churn-equivalence locality tests) plus a second small
    // component, staggered so there is a meaningful mid-point.
    let c8 = [
        (0u32, 1u32),
        (2, 1),
        (2, 3),
        (4, 3),
        (4, 5),
        (6, 5),
        (6, 7),
        (0, 7),
    ];
    let mut transfers: Vec<(u64, Communication, f64)> = c8
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| (i as u64, Communication::new(s, d, 4_000), i as f64))
        .collect();
    transfers.push((8, Communication::new(10u32, 11u32, 2_000), 8.0));
    transfers.push((9, Communication::new(12u32, 13u32, 2_000), 9.0));
    check_fork_equivalence(
        MyrinetModel::with_budget(9),
        EngineMode::Sharded,
        &transfers,
        8,
    );
    check_fork_equivalence(
        MyrinetModel::with_budget(9),
        EngineMode::Event,
        &transfers,
        8,
    );
}

/// A fork taken while *every* prefix flow is still latency-gated (advance
/// never crossed a gate): the gate heaps and pending-arrival sets must
/// survive the fork verbatim.
#[test]
fn fork_with_only_gated_flows_pending() {
    let transfers: Vec<(u64, Communication, f64)> = (0..6u64)
        .map(|i| {
            (
                i,
                Communication::new(i as u32 % 3, 3 + i as u32 % 2, 1_000 + 100 * i),
                0.0,
            )
        })
        .collect();
    for mode in MODES {
        // split 3, fork at t = 0.0: all three prefix gates (latency 0.25)
        // are pending at the fork instant.
        check_fork_equivalence(MyrinetModel::default(), mode, &transfers, 3);
    }
}
