//! Fork equivalence: a copy of a warm engine (a fork), diverged with
//! additional transfers, must match the standalone `ReferenceNetwork`
//! replaying the same history bit-for-bit — across all three fabric
//! models and every engine configuration (one shard, shards on serial
//! dispatch, shards on the work-stealing executor), including forks
//! taken mid-churn with latency-gated flows still pending. A fork is
//! taken both by `clone` and by `clone_from` into a warm engine of every
//! configuration that ran a different history first, so a field the
//! in-place copy misses shows up as a bit mismatch. This is the contract
//! the `netbw-serve` what-if service relies on when it answers
//! speculative placement queries from a copied snapshot instead of
//! replaying the admission log.

use netbw_bench::{churn_transfers_seeded, Drive, Engine};
use netbw_core::{GigabitEthernetModel, InfinibandModel, MyrinetModel, PenaltyModel};
use netbw_fluid::{FluidNetwork, NetworkParams, ReferenceNetwork};
use netbw_graph::Communication;
use proptest::prelude::*;

fn params() -> NetworkParams {
    NetworkParams::new(2.0, 0.25)
}

fn add_all<N: Drive>(net: &mut N, transfers: &[(u64, Communication, f64)]) {
    for &(key, comm, start) in transfers {
        net.add(key, comm, start);
    }
}

/// Advances to `t`, returning `(key, completion bits)` pairs.
fn advance<N: Drive>(net: &mut N, t: f64) -> Vec<(u64, u64)> {
    net.advance_to(t)
        .into_iter()
        .map(|c| (c.key, c.completion.to_bits()))
        .collect()
}

fn completions<N: Drive>(net: &mut N) -> Vec<(u64, u64)> {
    net.run_to_completion()
        .into_iter()
        .map(|c| (c.key, c.completion.to_bits()))
        .collect()
}

/// The reference's completions over `prefix` up to `fork_time`, then
/// `suffix` added, then drained — sorted by key.
fn replay<M: PenaltyModel>(
    model: M,
    prefix: &[(u64, Communication, f64)],
    fork_time: f64,
    suffix: &[(u64, Communication, f64)],
) -> Vec<(u64, u64)> {
    let mut oracle = ReferenceNetwork::new(model, params());
    add_all(&mut oracle, prefix);
    let mut done = advance(&mut oracle, fork_time);
    add_all(&mut oracle, suffix);
    done.extend(completions(&mut oracle));
    done.sort_by_key(|&(k, _)| k);
    done
}

/// Drives one `(model, engine, split)` scenario: builds a base network
/// over the prefix, advances it to the last prefix start (so the newest
/// flow's latency gate is still pending — the fork happens mid-churn),
/// forks it, diverges the fork with the suffix, and checks the fork
/// against the reference replaying the identical history. The same check
/// runs on a fork made by `clone_from` into a warm engine of each
/// configuration (the sharded kinds into the single shard and back
/// included) that first ran a different history. Also drains the parent
/// afterwards to prove the forks did not perturb it.
fn check_fork_equivalence<M: PenaltyModel + Clone>(
    model: M,
    engine: Engine,
    transfers: &[(u64, Communication, f64)],
    split: usize,
) {
    let (prefix, suffix) = transfers.split_at(split);
    // churn starts are monotonically increasing, so the fork instant is
    // the last prefix flow's start: its gate (start + latency) is pending.
    let fork_time = prefix.last().expect("non-empty prefix").2;

    let mut base = engine.build(model.clone(), params());
    add_all(&mut base, prefix);
    let mut done_before = advance(&mut base, fork_time);

    let expected = replay(model.clone(), prefix, fork_time, suffix);
    let diverge = |forked: &mut FluidNetwork<M>, how: &str| {
        assert_eq!(forked.time().to_bits(), base.time().to_bits());
        assert_eq!(forked.in_flight(), base.in_flight());
        add_all(forked, suffix);
        let mut fork_done = done_before.clone();
        fork_done.extend(completions(forked));
        fork_done.sort_by_key(|&(k, _)| k);
        assert_eq!(
            fork_done, expected,
            "{how}-then-diverge must equal the reference's replay ({engine:?}, split {split})"
        );
    };
    diverge(&mut base.clone(), "clone");
    // A different history on every target configuration: the same
    // schedule reversed, with other sizes, advanced past the fork instant.
    let history: Vec<(u64, Communication, f64)> = transfers
        .iter()
        .map(|&(key, c, start)| (key, Communication::new(c.dst, c.src, 2 * c.size + 1), start))
        .collect();
    let history_end = history.last().expect("non-empty schedule").2;
    for target in Engine::ALL {
        let mut warm = target.build(model.clone(), params());
        add_all(&mut warm, &history);
        advance(&mut warm, history_end);
        warm.clone_from(&base);
        diverge(&mut warm, &format!("clone_from into a warm {target:?}"));
    }

    // The parent continues (without the suffix) exactly as the reference
    // over the prefix alone.
    done_before.extend(completions(&mut base));
    done_before.sort_by_key(|&(k, _)| k);
    assert_eq!(
        done_before,
        replay(model, prefix, fork_time, &[]),
        "forking must not perturb the parent ({engine:?}, split {split})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random churn, random mid-churn split point: fork + diverge equals
    /// the reference's replay bitwise for every model and engine, and the
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
        for engine in Engine::ALL {
            check_fork_equivalence(GigabitEthernetModel::default(), engine, &transfers, split);
            check_fork_equivalence(MyrinetModel::default(), engine, &transfers, split);
            check_fork_equivalence(InfinibandModel::default(), engine, &transfers, split);
        }
    }
}

/// Forking while one Myrinet component is over the state-set budget: the
/// fork must carry that component's max-conflict penalties next to the
/// exact ones and stay bitwise with the reference.
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
    for engine in Engine::ALL {
        check_fork_equivalence(MyrinetModel::with_budget(9), engine, &transfers, 8);
    }
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
    for engine in Engine::ALL {
        // split 3, fork at t = 0.0: all three prefix gates (latency 0.25)
        // are pending at the fork instant.
        check_fork_equivalence(MyrinetModel::default(), engine, &transfers, 3);
    }
}
