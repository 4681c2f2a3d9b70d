//! Multi-settle scratch equivalence: scratch-backed incremental
//! evaluation must equal the full recompute **bit-for-bit across whole
//! settle sequences**, with the scratch state carried *between* settles —
//! not just for single-delta transitions. Workloads come from the shared
//! churn-scenario generator in `netbw-bench`, so these proptests and the
//! churn bench exercise the same kind of schedules (arrival, departure and
//! chained mixed batches alike).

use netbw_bench::{ChurnScenario, ChurnStep};
use netbw_core::{
    ComponentChange, ComponentRoot, ComponentTracker, FlowId, GigabitEthernetModel,
    InfinibandModel, ModelKind, ModelScratch, MyrinetModel, Penalty, PenaltyModel, PopulationDelta,
};
use netbw_graph::Communication;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Checks the carried penalties `pens` (every member's last answer)
/// against the full evaluation of `population`, bit for bit.
fn check(
    model: &dyn PenaltyModel,
    population: &[(FlowId, Communication)],
    pens: &HashMap<FlowId, Penalty>,
    what: &str,
) -> Result<(), String> {
    let comms: Vec<Communication> = population.iter().map(|p| p.1).collect();
    let full = model.penalties(&comms);
    if pens.len() != population.len() {
        return Err(format!(
            "{}: {what}: {} penalties carried for {} members",
            model.name(),
            pens.len(),
            population.len()
        ));
    }
    for (&(id, c), want) in population.iter().zip(full) {
        if pens.get(&id) != Some(&want) {
            return Err(format!(
                "{}: {what}: flow {id} {c:?} carries {:?}, full query says {want:?}",
                model.name(),
                pens.get(&id)
            ));
        }
    }
    Ok(())
}

/// Applies `delta` through `scratch`, folding the answers into `pens`.
fn settle(
    model: &dyn PenaltyModel,
    scratch: &mut dyn ModelScratch,
    delta: &PopulationDelta<'_>,
    pens: &mut HashMap<FlowId, Penalty>,
) -> netbw_core::QueryOutcome {
    let mut answers = Vec::new();
    let outcome = model.apply_delta(delta, scratch, &mut answers);
    if delta.fresh {
        pens.clear();
    }
    for id in delta.departed {
        pens.remove(id);
    }
    pens.extend(answers);
    outcome
}

/// Drives a whole scenario through one scratch, checking every settle's
/// answers plus the carried-over penalties against the stateless full
/// evaluation. Returns how many settles the model answered with a patch
/// and how many had some component hit the state-set budget.
fn check_scenario<M: PenaltyModel>(
    model: &M,
    scenario: &ChurnScenario,
) -> Result<(u64, u64), String> {
    let mut scratch = model.new_scratch();
    let mut pens = HashMap::new();
    let (mut patched, mut budget) = (0u64, 0u64);
    let fresh = PopulationDelta {
        arrived: &scenario.initial,
        fresh: true,
        ..PopulationDelta::default()
    };
    let outcome = settle(model, scratch.as_mut(), &fresh, &mut pens);
    check(model, &scenario.initial, &pens, "first settle")?;
    if outcome.patched {
        return Err(format!("{}: first settle cannot patch", model.name()));
    }
    let mut population = scenario.initial.clone();
    for (step_no, step) in scenario.steps.iter().enumerate() {
        let next = step.apply(&population);
        let outcome = settle(model, scratch.as_mut(), &step.delta(), &mut pens);
        check(
            model,
            &next,
            &pens,
            &format!("settle {step_no} under {step:?}"),
        )?;
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
/// (never shared with another component), and whether its next settle
/// must be fresh (a new shard, or the surviving shard of a bridge merge).
struct MirrorShard {
    scratch: Box<dyn ModelScratch>,
    needs_fresh: bool,
}

/// What the sharded mirror did across a scenario, per shard-settle.
#[derive(Debug, Default, PartialEq, Eq)]
struct ShardedTally {
    /// Warm shard settles the model answered with a patch.
    patched: u64,
    /// Warm shard settles in which some component hit the state-set
    /// budget.
    budget: u64,
    /// Warm shard settles offered to the model.
    warm: u64,
    /// Fresh shard settles (first settle of a new shard, or the surviving
    /// shard of a bridge merge).
    rebuilt: u64,
    /// Shard settles skipped entirely because the step left the shard's
    /// membership untouched — component locality in its purest form.
    reused: u64,
    /// Most components alive at once (sanity: the mirror actually sharded).
    peak_components: usize,
}

/// Drives a scenario through a *sharded* mirror of the fluid engine's
/// partition: one scratch per conflict component ([`ComponentTracker`]
/// root), the global step's ids routed to their component's scratch, and a
/// fresh settle for the surviving shard of every bridge merge. After every
/// step the carried penalties must equal the stateless full evaluation over
/// the *whole* population bit-for-bit — the component-locality invariant
/// the sharded engine rests on, pinned with the scratch state carried
/// across settles per shard.
fn check_scenario_sharded<M: PenaltyModel>(
    model: &M,
    scenario: &ChurnScenario,
) -> Result<ShardedTally, String> {
    let mut tracker = ComponentTracker::new();
    let mut shards: HashMap<ComponentRoot, MirrorShard> = HashMap::new();
    let mut population: Vec<(FlowId, Communication)> = Vec::new();
    let mut pens: HashMap<FlowId, Penalty> = HashMap::new();
    let mut tally = ShardedTally::default();
    let initial_step = ChurnStep {
        departed: Vec::new(),
        arrived: scenario.initial.clone(),
    };
    for (step_no, step) in std::iter::once(&initial_step)
        .chain(scenario.steps.iter())
        .enumerate()
    {
        let next = step.apply(&population);
        for &(_, comm) in &step.arrived {
            match tracker.insert(comm.src, comm.dst) {
                ComponentChange::Created { root } => {
                    shards.insert(
                        root,
                        MirrorShard {
                            scratch: model.new_scratch(),
                            needs_fresh: true,
                        },
                    );
                }
                ComponentChange::Joined { .. } => {}
                ComponentChange::Bridged { root, absorbed } => {
                    shards.remove(&absorbed);
                    shards
                        .get_mut(&root)
                        .expect("bridge winner has a shard")
                        .needs_fresh = true;
                }
            }
        }
        tally.peak_components = tally.peak_components.max(tracker.component_count());
        let root_of = |c: &Communication| tracker.find(c.src).expect("flows are interned");
        let mut members: BTreeMap<ComponentRoot, Vec<(FlowId, Communication)>> = BTreeMap::new();
        for p in &next {
            members.entry(root_of(&p.1)).or_default().push(*p);
        }
        let mut departed: BTreeMap<ComponentRoot, Vec<FlowId>> = BTreeMap::new();
        for id in &step.departed {
            let c = population
                .iter()
                .find(|p| p.0 == *id)
                .expect("departing flow is live")
                .1;
            departed.entry(root_of(&c)).or_default().push(*id);
        }
        let mut arrived: BTreeMap<ComponentRoot, Vec<(FlowId, Communication)>> = BTreeMap::new();
        for p in &step.arrived {
            arrived.entry(root_of(&p.1)).or_default().push(*p);
        }
        for id in &step.departed {
            pens.remove(id);
        }
        let roots: std::collections::BTreeSet<ComponentRoot> =
            members.keys().chain(departed.keys()).copied().collect();
        for root in roots {
            let sh = shards.get_mut(&root).expect("grouped flows have a shard");
            let all = members.remove(&root).unwrap_or_default();
            let dep = departed.remove(&root).unwrap_or_default();
            let arr = arrived.remove(&root).unwrap_or_default();
            let delta = if sh.needs_fresh {
                PopulationDelta {
                    arrived: &all,
                    fresh: true,
                    ..PopulationDelta::default()
                }
            } else if dep.is_empty() && arr.is_empty() {
                tally.reused += 1;
                continue;
            } else {
                PopulationDelta {
                    departed: &dep,
                    arrived: &arr,
                    fresh: false,
                }
            };
            let mut answers = Vec::new();
            let outcome = model.apply_delta(&delta, sh.scratch.as_mut(), &mut answers);
            if delta.fresh {
                tally.rebuilt += 1;
                if outcome.patched {
                    return Err(format!("settle {step_no}: a fresh settle cannot patch"));
                }
            } else {
                tally.warm += 1;
                tally.patched += u64::from(outcome.patched);
                tally.budget += u64::from(outcome.budget_fallback);
            }
            pens.extend(answers);
            sh.needs_fresh = false;
        }
        check(model, &next, &pens, &format!("sharded settle {step_no}"))?;
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
    // bridge merge (winner settles fresh, loser's scratch is dropped), a
    // shard draining to empty, and a flow arriving back into the emptied
    // shard (patched from an empty population, not rebuilt).
    let c = |s: u32, d: u32| Communication::new(s, d, 500);
    let scenario = ChurnScenario {
        initial: vec![(0, c(0, 1)), (1, c(2, 3))],
        steps: vec![
            // a third component appears
            ChurnStep {
                departed: vec![],
                arrived: vec![(2, c(4, 5))],
            },
            // a bridge flow merges {0,1} and {2,3}: the winner is fresh
            ChurnStep {
                departed: vec![],
                arrived: vec![(3, c(1, 2))],
            },
            // the merged shard shrinks
            ChurnStep {
                departed: vec![0],
                arrived: vec![],
            },
            // the {4,5} shard drains to empty
            ChurnStep {
                departed: vec![2],
                arrived: vec![],
            },
            // and is resurrected by a new flow reusing the drained id
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
