//! Multi-settle scratch equivalence: scratch-backed incremental
//! evaluation must equal the full recompute **bit-for-bit across whole
//! settle sequences**, with the scratch state carried *between* settles —
//! not just for single-delta transitions. Workloads come from the shared
//! churn-scenario generator in `netbw-bench`, so these proptests and the
//! churn bench exercise the same kind of schedules (arrival, departure and
//! chained mixed batches alike).

use netbw_bench::{ChurnScenario, ChurnStep};
use netbw_core::{
    ComponentChange, ComponentRoot, ComponentTracker, GigabitEthernetModel, InfinibandModel,
    ModelKind, ModelScratch, MyrinetModel, Penalty, PenaltyModel, PopulationDelta,
};
use netbw_graph::Communication;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Drives a whole scenario through one scratch, checking every settle
/// against the stateless full evaluation. Returns how many settles the
/// model answered with a patch and how many had some component hit the
/// state-set budget.
fn check_scenario<M: PenaltyModel>(
    model: &M,
    scenario: &ChurnScenario,
) -> Result<(u64, u64), String> {
    let mut scratch = model.new_scratch();
    let mut population = scenario.initial.clone();
    let (mut patched, mut budget) = (0u64, 0u64);
    let (pens, outcome) = model.penalties_with_scratch(
        &population,
        &PopulationDelta::Rebuilt,
        None,
        scratch.as_mut(),
    );
    if pens != model.penalties(&population) {
        return Err(format!("{}: first settle diverged", model.name()));
    }
    if outcome.patched {
        return Err(format!("{}: first settle cannot patch", model.name()));
    }
    for (step_no, step) in scenario.steps.iter().enumerate() {
        let (next, delta) = step.apply(&population);
        // No `previous` hint: only the scratch can make this incremental.
        let (pens, outcome) = model.penalties_with_scratch(&next, &delta, None, scratch.as_mut());
        let full = model.penalties(&next);
        if pens != full {
            return Err(format!(
                "{}: settle {step_no} diverged under {delta:?}\n got {pens:?}\nwant {full:?}",
                model.name()
            ));
        }
        if outcome.patched {
            patched += 1;
        }
        if outcome.budget_fallback {
            budget += 1;
        }
        population = next;
    }
    Ok((patched, budget))
}

proptest! {
    /// Scratch-backed incremental == full recompute, bit-for-bit, across
    /// 40-settle sequences of arrival/departure/mixed batches, for all
    /// three specialized models — and the overwhelming majority of
    /// settles must actually be answered by patches (the scratch is not
    /// allowed to silently degrade to recompute-every-time).
    #[test]
    fn scratch_matches_full_recompute_across_settle_sequences(
        seed in 0u64..1_000_000_000,
        nodes in 4u32..12,
        initial in 0usize..12,
    ) {
        let scenario = ChurnScenario::generate(seed, nodes, initial, 40);
        for kind in [ModelKind::GigabitEthernet, ModelKind::Infiniband, ModelKind::Myrinet] {
            let model = kind.build();
            let (patched, budget) = check_scenario(&model, &scenario)?;
            // Every warm settle must be answered by a patch, and no
            // component of these small populations comes near the
            // default state-set budget.
            prop_assert!(
                patched + budget == 40,
                "{kind}: {patched} patched + {budget} budget blow-ups != 40"
            );
            if kind != ModelKind::Myrinet {
                prop_assert!(budget == 0, "{kind}: closed forms have no budget");
            }
        }
    }

    /// The `SharedNode` ablation rule drives a different arrival-marking
    /// table in the Myrinet component patch (flows conflict through *any*
    /// shared endpoint, in any role): same bit-for-bit pin, and every
    /// warm settle must patch even though SharedNode merges components
    /// aggressively.
    #[test]
    fn shared_node_rule_scratch_matches_full_recompute(
        seed in 0u64..1_000_000_000,
        nodes in 4u32..12,
        initial in 0usize..10,
    ) {
        let scenario = ChurnScenario::generate(seed, nodes, initial, 30);
        let model = MyrinetModel::with_rule(netbw_graph::conflict::ConflictRule::SharedNode);
        let (patched, budget) = check_scenario(&model, &scenario)?;
        prop_assert!(
            patched + budget == 30,
            "shared-node: {patched} patched + {budget} budget blow-ups != 30"
        );
    }

    /// Same sequences through a budget-starved Myrinet: with a budget of
    /// 2 most components blow it and take the max-conflict rows, yet the
    /// budget is decided per component, so every warm settle still patches
    /// (untouched components keep their previous rows, blown or not) and
    /// matches the full evaluation exactly.
    #[test]
    fn budget_starved_myrinet_stays_exact_without_patching(
        seed in 0u64..1_000_000_000,
        nodes in 4u32..10,
    ) {
        let scenario = ChurnScenario::generate(seed, nodes, 8, 15);
        let model = MyrinetModel::with_budget(2);
        let (patched, budget) = check_scenario(&model, &scenario)?;
        prop_assert!(patched == 15, "{patched} of 15 warm settles patched ({budget} blew)");
    }
}

/// One conflict component's slice of the sharded mirror: its own scratch
/// (never shared with another component), the per-shard population of the
/// last settle, where those flows sat in the global population, and the
/// answers of the last settle (reused verbatim when a step leaves the
/// shard untouched).
struct MirrorShard {
    scratch: Box<dyn ModelScratch>,
    comms: Vec<Communication>,
    global: Vec<usize>,
    pens: Vec<Penalty>,
    needs_rebuild: bool,
}

impl MirrorShard {
    fn new<M: PenaltyModel>(model: &M) -> Self {
        MirrorShard {
            scratch: model.new_scratch(),
            comms: Vec::new(),
            global: Vec::new(),
            pens: Vec::new(),
            needs_rebuild: true,
        }
    }
}

/// What the sharded mirror did across a scenario, per shard-settle.
#[derive(Debug, Default, PartialEq, Eq)]
struct ShardedTally {
    /// Positional shard settles the model answered with a patch.
    patched: u64,
    /// Positional shard settles in which some component hit the state-set
    /// budget.
    budget: u64,
    /// Positional shard settles offered to the model.
    warm: u64,
    /// Shard settles served as `Rebuilt` (first settle of a fresh shard,
    /// or the surviving shard of a bridge merge).
    rebuilt: u64,
    /// Shard settles skipped entirely because the step left the shard's
    /// membership untouched — component locality in its purest form.
    reused: u64,
    /// Most components alive at once (sanity: the mirror actually sharded).
    peak_components: usize,
}

/// Drives a scenario through a *sharded* mirror of the fluid engine's
/// partition: one scratch per conflict component ([`ComponentTracker`]
/// root), per-shard positional deltas mapped down from the global step,
/// a `Rebuilt` for the surviving shard of every bridge merge, and answers
/// scattered back to global positions. Every settle's scatter must equal
/// the stateless full evaluation over the *whole* population bit-for-bit —
/// the component-locality invariant the sharded engine rests on, here
/// pinned with the scratch state carried across settles per shard.
fn check_scenario_sharded<M: PenaltyModel>(
    model: &M,
    scenario: &ChurnScenario,
) -> Result<ShardedTally, String> {
    let mut tracker = ComponentTracker::new();
    let mut shards: HashMap<ComponentRoot, MirrorShard> = HashMap::new();
    let mut population: Vec<Communication> = Vec::new();
    let mut tally = ShardedTally::default();
    // The initial population is just the first settle's arrival batch.
    let initial_step = ChurnStep {
        departed: Vec::new(),
        arrived: scenario.initial.iter().copied().enumerate().collect(),
    };
    for (step_no, step) in std::iter::once(&initial_step)
        .chain(scenario.steps.iter())
        .enumerate()
    {
        let (next, _) = step.apply(&population);
        // Arrivals update the component structure; a bridge retires the
        // absorbed shard (its scratch is dropped, exactly like the engine)
        // and forces the surviving shard to rebuild.
        for &(_, comm) in &step.arrived {
            match tracker.insert(comm.src, comm.dst) {
                ComponentChange::Created { root } => {
                    shards.insert(root, MirrorShard::new(model));
                }
                ComponentChange::Joined { .. } => {}
                ComponentChange::Bridged { root, absorbed } => {
                    shards.remove(&absorbed);
                    shards
                        .get_mut(&root)
                        .expect("bridge winner has a shard")
                        .needs_rebuild = true;
                }
            }
        }
        tally.peak_components = tally.peak_components.max(tracker.component_count());
        // Group the new population by component root (global order kept
        // inside each group, mirroring the engine's slot-index order).
        let mut groups: BTreeMap<ComponentRoot, (Vec<Communication>, Vec<usize>)> = BTreeMap::new();
        for (g, &c) in next.iter().enumerate() {
            let root = tracker.find(c.src).expect("arrived flows are interned");
            let e = groups.entry(root).or_default();
            e.0.push(c);
            e.1.push(g);
        }
        // Map the global step down to per-shard positional deltas.
        let mut departed: BTreeMap<ComponentRoot, Vec<usize>> = BTreeMap::new();
        for &p in &step.departed {
            let root = tracker
                .find(population[p].src)
                .expect("departing flows are interned");
            if shards[&root].needs_rebuild {
                continue; // the rebuild supersedes the positional delta
            }
            let pos = shards[&root]
                .global
                .iter()
                .position(|&q| q == p)
                .ok_or_else(|| format!("settle {step_no}: departure {p} missing from its shard"))?;
            departed.entry(root).or_default().push(pos);
        }
        let mut arrived: BTreeMap<ComponentRoot, Vec<usize>> = BTreeMap::new();
        for &(i, comm) in &step.arrived {
            let root = tracker.find(comm.src).expect("just inserted");
            if shards[&root].needs_rebuild {
                continue;
            }
            let pos = groups[&root]
                .1
                .iter()
                .position(|&g| g == i)
                .expect("arrival is in its own group");
            arrived.entry(root).or_default().push(pos);
        }
        // Settle every shard the step touched; scatter the per-shard
        // answers back into global positions.
        let mut scattered: Vec<Option<Penalty>> = vec![None; next.len()];
        let roots: std::collections::BTreeSet<ComponentRoot> = groups
            .keys()
            .copied()
            .chain(departed.keys().copied()) // shards emptied by this step
            .collect();
        for root in roots {
            let (comms, global) = groups.remove(&root).unwrap_or_default();
            let sh = shards.get_mut(&root).expect("grouped flows have a shard");
            let dep = departed.remove(&root).unwrap_or_default();
            let arr = arrived.remove(&root).unwrap_or_default();
            let delta = if sh.needs_rebuild {
                PopulationDelta::Rebuilt
            } else {
                match (dep.is_empty(), arr.is_empty()) {
                    (true, true) => {
                        // Untouched shard: last settle's answers stand.
                        tally.reused += 1;
                        debug_assert_eq!(sh.comms, comms);
                        for (k, &g) in global.iter().enumerate() {
                            scattered[g] = Some(sh.pens[k]);
                        }
                        sh.global = global;
                        continue;
                    }
                    (true, false) => PopulationDelta::Arrived(arr),
                    (false, true) => PopulationDelta::Departed(dep),
                    (false, false) => PopulationDelta::Mixed {
                        departed: dep,
                        arrived: arr,
                    },
                }
            };
            let warm = !matches!(delta, PopulationDelta::Rebuilt);
            let (pens, outcome) =
                model.penalties_with_scratch(&comms, &delta, None, sh.scratch.as_mut());
            if warm {
                tally.warm += 1;
                if outcome.patched {
                    tally.patched += 1;
                }
                if outcome.budget_fallback {
                    tally.budget += 1;
                }
            } else {
                tally.rebuilt += 1;
                if outcome.patched {
                    return Err(format!("settle {step_no}: a rebuild cannot patch"));
                }
            }
            for (k, &g) in global.iter().enumerate() {
                scattered[g] = Some(pens[k]);
            }
            sh.comms = comms;
            sh.global = global;
            sh.pens = pens;
            sh.needs_rebuild = false;
        }
        let scattered: Vec<Penalty> = scattered
            .into_iter()
            .map(|p| p.expect("groups partition the population"))
            .collect();
        let full = model.penalties(&next);
        if scattered != full {
            return Err(format!(
                "{}: settle {step_no} sharded scatter diverged\n got {scattered:?}\nwant {full:?}",
                model.name()
            ));
        }
        population = next;
    }
    Ok(tally)
}

proptest! {
    /// The sharded mirror == the stateless full recompute, bit-for-bit,
    /// across 40-settle sequences for all three specialized models, with
    /// per-shard scratch state carried between settles and every warm
    /// shard settle patched.
    #[test]
    fn sharded_scratches_match_full_recompute_across_settle_sequences(
        seed in 0u64..1_000_000_000,
        nodes in 6u32..16,
        initial in 0usize..12,
    ) {
        let scenario = ChurnScenario::generate(seed, nodes, initial, 40);
        for kind in [ModelKind::GigabitEthernet, ModelKind::Infiniband, ModelKind::Myrinet] {
            let model = kind.build();
            let tally = check_scenario_sharded(&model, &scenario)?;
            prop_assert_eq!(
                tally.patched + tally.budget, tally.warm,
                "{}: every warm shard settle must patch: {:?}",
                kind, tally
            );
            if kind != ModelKind::Myrinet {
                prop_assert_eq!(tally.budget, 0, "{}: closed forms have no budget", kind);
            }
        }
    }

    /// The sharded mirror through a budget-starved Myrinet: blown
    /// components take the max-conflict rows inside their own shard, so
    /// every warm shard settle still patches and every scatter is
    /// bit-for-bit equal to the full evaluation.
    #[test]
    fn budget_starved_myrinet_sharded_mirror_stays_exact(
        seed in 0u64..1_000_000_000,
        nodes in 4u32..10,
    ) {
        let scenario = ChurnScenario::generate(seed, nodes, 8, 15);
        let model = MyrinetModel::with_budget(2);
        let tally = check_scenario_sharded(&model, &scenario)?;
        prop_assert_eq!(
            tally.patched, tally.warm,
            "starved shards must still patch: {:?}", tally
        );
    }
}

#[test]
fn sharded_mirror_bridges_rebuilds_and_resurrects_deterministically() {
    // A handcrafted scenario walking the mirror through every shard
    // lifecycle edge: two initial components, a third created mid-run, a
    // bridge merge (winner rebuilds, loser's scratch is dropped), a shard
    // draining to empty, and flows arriving back into the emptied shard
    // (patched from an empty previous population, not rebuilt).
    let c = |s: u32, d: u32| Communication::new(s, d, 500);
    let scenario = ChurnScenario {
        initial: vec![c(0, 1), c(2, 3)],
        steps: vec![
            // a third component appears
            ChurnStep {
                departed: vec![],
                arrived: vec![(2, c(4, 5))],
            },
            // a bridge flow merges {0,1} and {2,3}: the winner rebuilds
            ChurnStep {
                departed: vec![],
                arrived: vec![(1, c(1, 2))],
            },
            // the merged shard shrinks (population [c01,c12,c23,c45])
            ChurnStep {
                departed: vec![0],
                arrived: vec![],
            },
            // the {4,5} shard drains to empty (population [c12,c23,c45])
            ChurnStep {
                departed: vec![2],
                arrived: vec![],
            },
            // and is resurrected by a new flow on its endpoints
            ChurnStep {
                departed: vec![],
                arrived: vec![(2, c(4, 6))],
            },
        ],
    };
    for kind in [
        ModelKind::GigabitEthernet,
        ModelKind::Infiniband,
        ModelKind::Myrinet,
    ] {
        let model = kind.build();
        let tally = check_scenario_sharded(&model, &scenario).unwrap();
        // Rebuilds: the two initial shards, the {4,5} creation, and the
        // bridge winner. Warm settles: the merged shard's departure, the
        // {4,5} drain-to-empty, and the resurrection arrival.
        assert_eq!(tally.rebuilt, 4, "{kind}: {tally:?}");
        assert_eq!(tally.warm, 3, "{kind}: {tally:?}");
        assert_eq!(tally.patched + tally.budget, 3, "{kind}: {tally:?}");
        assert_eq!(tally.peak_components, 3, "{kind}: {tally:?}");
        assert!(
            tally.reused >= 3,
            "untouched shards must be reused: {tally:?}"
        );
    }
}

#[test]
fn specialized_models_patch_mixed_batches() {
    // A deterministic pin (independent of the proptest RNG) that chained
    // mixed deltas are patched — not just accepted — by all three
    // specialized models.
    let scenario = ChurnScenario::generate(1234, 8, 6, 30);
    let mixed_steps = scenario
        .steps
        .iter()
        .filter(|s| !s.departed.is_empty() && !s.arrived.is_empty())
        .count();
    assert!(mixed_steps > 0, "seed 1234 must produce mixed steps");
    let gige = GigabitEthernetModel::default();
    let ib = InfinibandModel::default();
    let myrinet = MyrinetModel::default();
    assert_eq!(check_scenario(&gige, &scenario), Ok((30, 0)));
    assert_eq!(check_scenario(&ib, &scenario), Ok((30, 0)));
    assert_eq!(check_scenario(&myrinet, &scenario), Ok((30, 0)));
}
