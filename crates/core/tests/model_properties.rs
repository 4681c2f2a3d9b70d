//! Property-based tests for the penalty models.

use netbw_core::states::{count_components, enumerate_components, DEFAULT_STATE_SET_BUDGET};
use netbw_core::{
    GigabitEthernetModel, InfinibandModel, MyrinetModel, PenaltyModel, PopulationDelta,
};
use netbw_graph::conflict::{ConflictGraph, ConflictRule};
use netbw_graph::Communication;
use proptest::prelude::*;

fn arb_comms() -> impl Strategy<Value = Vec<Communication>> {
    proptest::collection::vec((0u32..7, 0u32..6, 1u64..1000), 1..10).prop_map(|raw| {
        raw.into_iter()
            .map(|(s, d_raw, size)| {
                let d = if d_raw >= s { d_raw + 1 } else { d_raw };
                Communication::new(s, d, size)
            })
            .collect()
    })
}

proptest! {
    /// The GigE model is permutation-equivariant: shuffling the input
    /// shuffles the output identically.
    #[test]
    fn gige_is_permutation_equivariant(comms in arb_comms(), seed in 0u64..100) {
        let model = GigabitEthernetModel::default();
        let base = model.penalties(&comms);
        // deterministic pseudo-shuffle
        let mut idx: Vec<usize> = (0..comms.len()).collect();
        let n = idx.len();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            idx.swap(i, j);
        }
        let shuffled: Vec<Communication> = idx.iter().map(|&i| comms[i]).collect();
        let p2 = model.penalties(&shuffled);
        for (k, &i) in idx.iter().enumerate() {
            prop_assert!((p2[k].value() - base[i].value()).abs() < 1e-12);
        }
    }

    /// Duplicating the whole scheme onto disjoint fresh nodes leaves every
    /// penalty unchanged (models are local to conflict structure).
    #[test]
    fn disjoint_copies_do_not_interact(comms in arb_comms()) {
        let shift = 100u32;
        let mut doubled = comms.clone();
        doubled.extend(
            comms
                .iter()
                .map(|c| Communication::new(c.src.0 + shift, c.dst.0 + shift, c.size)),
        );
        for model in [
            Box::new(GigabitEthernetModel::default()) as Box<dyn PenaltyModel>,
            Box::new(MyrinetModel::default()),
            Box::new(InfinibandModel::default()),
        ] {
            let base = model.penalties(&comms);
            let both = model.penalties(&doubled);
            for i in 0..comms.len() {
                prop_assert!(
                    (both[i].value() - base[i].value()).abs() < 1e-12,
                    "{}: comm {i}: {} vs {}",
                    model.name(),
                    both[i].value(),
                    base[i].value()
                );
                prop_assert!(
                    (both[comms.len() + i].value() - base[i].value()).abs() < 1e-12
                );
            }
        }
    }

    /// Counting and enumerating state sets agree everywhere.
    #[test]
    fn counting_equals_enumeration(comms in arb_comms()) {
        let cg = ConflictGraph::build(&comms, ConflictRule::Strict);
        let full = enumerate_components(&cg, DEFAULT_STATE_SET_BUDGET).unwrap();
        let fast = count_components(&cg, DEFAULT_STATE_SET_BUDGET);
        prop_assert_eq!(full.len(), fast.len());
        for (e, c) in full.iter().zip(&fast) {
            let (count, emission) = c.counts.as_ref().expect("within budget");
            prop_assert_eq!(e.count() as u64, *count);
            for (i, &v) in c.vertices.iter().enumerate() {
                prop_assert_eq!(e.emission(v) as u64, emission[i]);
            }
        }
    }

    /// Under the Myrinet model, all outgoing comms of one node share the
    /// same penalty (fair NIC sharing via the minimum coefficient).
    #[test]
    fn myrinet_same_source_same_penalty(comms in arb_comms()) {
        let model = MyrinetModel::default();
        let p = model.penalties(&comms);
        for i in 0..comms.len() {
            for j in 0..comms.len() {
                if comms[i].src == comms[j].src
                    && !comms[i].is_intra_node()
                    && !comms[j].is_intra_node()
                {
                    // same source ⇒ same component ⇒ same S and same κ
                    prop_assert!(
                        (p[i].value() - p[j].value()).abs() < 1e-12,
                        "comms {i},{j} share source but differ: {} vs {}",
                        p[i].value(),
                        p[j].value()
                    );
                }
            }
        }
    }

    /// β scales the GigE conflicted penalties linearly.
    #[test]
    fn gige_beta_scaling(k in 2usize..6) {
        let low = GigabitEthernetModel::new(0.6, 0.0, 0.0);
        let high = GigabitEthernetModel::new(0.9, 0.0, 0.0);
        let g = netbw_graph::schemes::outgoing_ladder(k);
        let pl = low.penalties(g.comms())[0].value();
        let ph = high.penalties(g.comms())[0].value();
        prop_assert!((ph / pl - 0.9 / 0.6).abs() < 1e-9);
    }

    /// Round-trip equivalence of the incremental entry point: over a
    /// random churn sequence (arrivals at random positions, departures of
    /// random subsets), `penalties_after_change` fed with the previous
    /// *patched* result must match the full `penalties` evaluation
    /// **bit-for-bit** at every step, for every specialized model.
    #[test]
    fn incremental_matches_full_on_random_churn(
        steps in proptest::collection::vec((0u8..4, (0u32..8, 0u32..8, 1u64..100), 0u64..1_000_000), 1..24)
    ) {
        let models: Vec<Box<dyn PenaltyModel>> = vec![
            Box::new(GigabitEthernetModel::default()),
            Box::new(MyrinetModel::default()),
            Box::new(InfinibandModel::default()),
        ];
        for model in &models {
            let mut population: Vec<Communication> = Vec::new();
            let mut penalties = model.penalties(&population);
            for &(kind, (src, dst, size), pick) in &steps {
                let previous = (population.clone(), penalties.clone());
                let delta = if population.is_empty() || kind < 2 {
                    // arrival at a pseudo-random position (intra-node
                    // allowed: src may equal dst)
                    let pos = (pick as usize) % (population.len() + 1);
                    population.insert(pos, Communication::new(src, dst, size));
                    PopulationDelta::Arrived(vec![pos])
                } else {
                    // departure of 1..=2 pseudo-random positions
                    let count = 1 + (kind as usize - 2).min(population.len() - 1);
                    let mut idx: Vec<usize> = (0..count)
                        .map(|i| (pick as usize).wrapping_mul(31).wrapping_add(i * 7) % population.len())
                        .collect();
                    idx.sort_unstable();
                    idx.dedup();
                    for &i in idx.iter().rev() {
                        population.remove(i);
                    }
                    PopulationDelta::Departed(idx)
                };
                let patched = model.penalties_after_change(
                    &population,
                    delta,
                    Some((&previous.0, &previous.1)),
                );
                let full = model.penalties(&population);
                prop_assert_eq!(
                    &patched,
                    &full,
                    "{}: population {:?}",
                    model.name(),
                    &population
                );
                penalties = patched;
            }
        }
    }

    /// The Myrinet patch must stay exact in the budget-fallback regime
    /// too: with a tiny enumeration budget blown components keep their
    /// max-conflict rows and the patched answer still equals the full one.
    #[test]
    fn myrinet_incremental_exact_under_tiny_budget(
        comms in arb_comms(),
        arrival in (0u32..8, 0u32..8, 1u64..100)
    ) {
        let model = MyrinetModel::with_budget(2);
        let prev_pens = model.penalties(&comms);
        let mut grown = comms.clone();
        grown.push(Communication::new(arrival.0, arrival.1, arrival.2));
        let patched = model.penalties_after_change(
            &grown,
            PopulationDelta::Arrived(vec![grown.len() - 1]),
            Some((&comms, &prev_pens)),
        );
        prop_assert_eq!(&patched, &model.penalties(&grown));
    }
}

/// Populations for the order-independence property: 1 to `max` flows on
/// ten nodes, intra-node pairs included.
fn arb_population(max: usize) -> impl Strategy<Value = Vec<Communication>> {
    proptest::collection::vec((0u32..10, 0u32..10, 1u64..1000), 1..max + 1).prop_map(|raw| {
        raw.into_iter()
            .map(|(s, d, size)| Communication::new(s, d, size))
            .collect()
    })
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        idx.swap(i, (state >> 33) as usize % (i + 1));
    }
    idx
}

/// Asserts that `model`'s penalties of the shuffled population are the
/// shuffled penalties, bit for bit.
fn assert_order_independent(model: &dyn PenaltyModel, comms: &[Communication], seed: u64) {
    let base = model.penalties(comms);
    let idx = permutation(comms.len(), seed);
    let shuffled: Vec<Communication> = idx.iter().map(|&i| comms[i]).collect();
    let penalties = model.penalties(&shuffled);
    for (k, &i) in idx.iter().enumerate() {
        assert_eq!(
            penalties[k].value().to_bits(),
            base[i].value().to_bits(),
            "{}: flow {i} moved to position {k} of {comms:?}",
            model.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// No model's penalties depend on the order of the population: the
    /// fluid engines hand flows to the model in slab-slot order and the
    /// reference engine in arrival order, and their completion times are
    /// compared bit for bit.
    #[test]
    fn penalties_do_not_depend_on_population_order(
        comms in arb_population(27),
        seed in 0u64..1_000_000_000,
        budget in 1usize..40,
    ) {
        assert_order_independent(&GigabitEthernetModel::default(), &comms, seed);
        assert_order_independent(&InfinibandModel::default(), &comms, seed);
        let few = &comms[..comms.len().min(20)];
        assert_order_independent(&MyrinetModel::default(), few, seed);
        assert_order_independent(&MyrinetModel::with_budget(budget), few, seed);
    }
}
