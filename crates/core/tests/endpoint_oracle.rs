//! The closed-form models (GigE §V.A and the InfiniBand extension) against
//! a reference evaluator written straight from the formulas: degrees and
//! `Cmo`/`Cmi` sets are counted by scanning the population, with no index,
//! no memo and no scratch — O(n²), and sharing no code with the kernel
//! under test. The churn property drives random insert/remove batches
//! (duplicate pairs, intra-node entries, node ids near `u32::MAX`, nodes
//! draining out and coming back so index slots are freed and reused)
//! through one long-lived scratch and asserts, bitwise, that the batch
//! evaluation equals the oracle and that every patched settle equals the
//! full recompute.

use netbw_core::{GigabitEthernetModel, InfinibandModel, Penalty, PenaltyModel, PopulationDelta};
use netbw_graph::{Communication, NodeId};
use proptest::prelude::*;

/// The network (inter-node) entries of `comms`: the only ones that occupy
/// a NIC.
fn network(comms: &[Communication]) -> Vec<Communication> {
    comms.iter().copied().filter(|c| c.src != c.dst).collect()
}

/// `Δo(node)`: network communications leaving `node`.
fn out_degree(net: &[Communication], node: NodeId) -> usize {
    net.iter().filter(|c| c.src == node).count()
}

/// `Δi(node)`: network communications entering `node`.
fn in_degree(net: &[Communication], node: NodeId) -> usize {
    net.iter().filter(|c| c.dst == node).count()
}

/// One side of §V.A for `ci`: `group` is the degree group (the comms
/// sharing `ci`'s source for `po`, its destination for `pi`) and `weight`
/// the counterpart degree that defines the strongly slowed set (`Δi` of
/// the destination for `Cmo`, `Δo` of the source for `Cmi`).
fn one_side(
    ci: &Communication,
    group: &[Communication],
    weight: impl Fn(&Communication) -> usize,
    beta: f64,
    gamma: f64,
) -> f64 {
    let delta = group.len();
    if delta == 1 {
        return 1.0;
    }
    let max = group.iter().map(&weight).max().expect("ci is in its group");
    let card = group.iter().filter(|c| weight(c) == max).count();
    let base = delta as f64 * beta;
    if weight(ci) == max {
        base * (1.0 + gamma * (delta as f64 - card as f64))
    } else {
        base * (1.0 - gamma / card as f64)
    }
}

/// `(po, pi)` of network communication `ci` in `net`.
fn po_pi(net: &[Communication], ci: &Communication, beta: f64, gammas: (f64, f64)) -> (f64, f64) {
    let leaving: Vec<Communication> = net.iter().copied().filter(|c| c.src == ci.src).collect();
    let entering: Vec<Communication> = net.iter().copied().filter(|c| c.dst == ci.dst).collect();
    let po = one_side(ci, &leaving, |c| in_degree(net, c.dst), beta, gammas.0);
    let pi = one_side(ci, &entering, |c| out_degree(net, c.src), beta, gammas.1);
    (po, pi)
}

fn gige_oracle(m: &GigabitEthernetModel, comms: &[Communication]) -> Vec<Penalty> {
    let net = network(comms);
    comms
        .iter()
        .map(|c| {
            if c.src == c.dst {
                return Penalty::ONE;
            }
            let (po, pi) = po_pi(&net, c, m.beta, (m.gamma_o, m.gamma_i));
            Penalty::new(po.max(pi))
        })
        .collect()
}

/// With `γ = 0` the same-direction terms reduce to fair sharing,
/// `Δ·β` (or 1 alone); the duplex terms count opposing flows.
fn infiniband_oracle(m: &InfinibandModel, comms: &[Communication]) -> Vec<Penalty> {
    let net = network(comms);
    let fair = |delta: usize| {
        if delta == 1 {
            1.0
        } else {
            delta as f64 * m.beta
        }
    };
    comms
        .iter()
        .map(|c| {
            if c.src == c.dst {
                return Penalty::ONE;
            }
            let po = fair(out_degree(&net, c.src));
            let pi = fair(in_degree(&net, c.dst));
            let tx_dx = 1.0 + m.delta_tx * in_degree(&net, c.src).saturating_sub(1) as f64;
            let rx_dx = 1.0 + m.delta_rx * out_degree(&net, c.dst).saturating_sub(2) as f64;
            Penalty::new((po * tx_dx).max(pi * rx_dx))
        })
        .collect()
}

fn bits(pens: &[Penalty]) -> Vec<u64> {
    pens.iter().map(|p| p.value().to_bits()).collect()
}

/// The node pool: a handful of small ids plus the top of the id space.
const IDS: [u32; 8] = [0, 1, 2, 3, 4, u32::MAX - 2, u32::MAX - 1, u32::MAX];

/// One churn op: `(kind, a, b, pick)`. Kinds below 4 remove the entry at
/// `pick` (modulo the population); the rest insert `IDS[a] → IDS[b]` at
/// `pick` (intra-node when `a == b`).
type Op = (u8, usize, usize, usize);

/// Applies one settle's ops to `prev`: every removal picks from the
/// previous population, every insertion lands in the new one. Returns the
/// new population and its positional delta.
fn settle(prev: &[Communication], ops: &[Op]) -> (Vec<Communication>, PopulationDelta) {
    let mut departed: Vec<usize> = ops
        .iter()
        .filter(|op| op.0 < 4 && !prev.is_empty())
        .map(|op| op.3 % prev.len())
        .collect();
    departed.sort_unstable();
    departed.dedup();
    let mut next: Vec<(Communication, bool)> = prev
        .iter()
        .enumerate()
        .filter(|(i, _)| departed.binary_search(i).is_err())
        .map(|(_, c)| (*c, false))
        .collect();
    for &(kind, a, b, pick) in ops {
        if kind >= 4 {
            let c = Communication::new(IDS[a], IDS[b], 1 + pick as u64);
            next.insert(pick % (next.len() + 1), (c, true));
        }
    }
    let arrived: Vec<usize> = (0..next.len()).filter(|&i| next[i].1).collect();
    let delta = match (departed.is_empty(), arrived.is_empty()) {
        (true, _) => PopulationDelta::Arrived(arrived),
        (false, true) => PopulationDelta::Departed(departed),
        (false, false) => PopulationDelta::Mixed { departed, arrived },
    };
    (next.into_iter().map(|(c, _)| c).collect(), delta)
}

/// Drives `settles` through one scratch (and, each settle, a fork of it
/// into a second, stale scratch), checking the batch path against
/// `oracle` and every patch against the batch path, all bitwise.
fn check_churn<M: PenaltyModel>(
    model: &M,
    oracle: impl Fn(&[Communication]) -> Vec<Penalty>,
    settles: &[Vec<Op>],
) -> Result<(), String> {
    let mut scratch = model.new_scratch();
    let mut spare = model.new_scratch();
    let mut population: Vec<Communication> = Vec::new();
    let (pens, _) = model.penalties_with_scratch(
        &population,
        &PopulationDelta::Rebuilt,
        None,
        scratch.as_mut(),
    );
    if !pens.is_empty() {
        return Err("empty population answered non-empty".into());
    }
    for (n, ops) in settles.iter().enumerate() {
        let (next, delta) = settle(&population, ops);
        let full = model.penalties(&next);
        let want = oracle(&next);
        if bits(&full) != bits(&want) {
            return Err(format!(
                "{}: settle {n}: batch path differs from the oracle over {next:?}\n got {full:?}\nwant {want:?}",
                model.name()
            ));
        }
        if !(*scratch).clone_into(spare.as_mut()) {
            return Err("clone_into refused a scratch of its own type".into());
        }
        let (patched, outcome) =
            model.penalties_with_scratch(&next, &delta, None, scratch.as_mut());
        if bits(&patched) != bits(&full) {
            return Err(format!(
                "{}: settle {n}: patch under {delta:?} differs from the full recompute over {next:?}\n got {patched:?}\nwant {full:?}",
                model.name()
            ));
        }
        if !outcome.patched || outcome.scratch_rebuilt {
            return Err(format!(
                "{}: settle {n}: a warm scratch with a consistent delta must patch: {outcome:?}",
                model.name()
            ));
        }
        let forked = model.penalties_with_scratch(&next, &delta, None, spare.as_mut());
        if bits(&forked.0) != bits(&patched) || forked.1 != outcome {
            return Err(format!(
                "{}: settle {n}: the forked scratch answered differently",
                model.name()
            ));
        }
        population = next;
    }
    Ok(())
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..10, 0usize..IDS.len(), 0usize..IDS.len(), 0usize..1000)
}

proptest! {
    /// Batch == oracle and patch == batch, bitwise, across 40 random
    /// settles of 1–4 ops each, for GigE at the paper's parameters, GigE
    /// with strong asymmetry terms, and InfiniBand.
    #[test]
    fn closed_form_models_match_the_oracle_under_churn(
        settles in proptest::collection::vec(proptest::collection::vec(op(), 1..5), 1..40),
    ) {
        let gige = GigabitEthernetModel::default();
        check_churn(&gige, |c| gige_oracle(&gige, c), &settles)?;
        let skewed = GigabitEthernetModel::new(0.6, 0.4, 0.3);
        check_churn(&skewed, |c| gige_oracle(&skewed, c), &settles)?;
        let ib = InfinibandModel::default();
        check_churn(&ib, |c| infiniband_oracle(&ib, c), &settles)?;
    }

    /// `po`/`pi` agree with `penalties` on populations with intra-node
    /// entries: `max(po, pi)` is exactly the batch penalty of every
    /// network entry, and an intra-node entry has `po = pi = 1`.
    #[test]
    fn po_pi_agree_with_penalties(ops in proptest::collection::vec(op(), 1..24)) {
        let inserts: Vec<Op> = ops.into_iter().map(|(_, a, b, p)| (9, a, b, p)).collect();
        let (comms, _) = settle(&[], &inserts);
        let m = GigabitEthernetModel::default();
        let pens = m.penalties(&comms);
        prop_assert_eq!(bits(&pens), bits(&gige_oracle(&m, &comms)));
        for (i, c) in comms.iter().enumerate() {
            let (po, pi) = (m.po(&comms, i), m.pi(&comms, i));
            if c.src == c.dst {
                prop_assert_eq!((po, pi), (1.0, 1.0));
            } else {
                prop_assert_eq!(Penalty::new(po.max(pi)).value().to_bits(), pens[i].value().to_bits());
            }
        }
    }
}

#[test]
fn settle_generator_exercises_every_delta_shape() {
    let prev: Vec<Communication> = (0u32..4).map(|i| Communication::new(i, i + 1, 9)).collect();
    let (next, delta) = settle(&prev, &[(0, 0, 0, 1), (9, 2, 2, 0)]);
    assert_eq!(
        delta,
        PopulationDelta::Mixed {
            departed: vec![1],
            arrived: vec![0]
        }
    );
    assert_eq!(next.len(), 4);
    assert!(next[0].is_intra_node());
    assert!(matches!(
        settle(&prev, &[(1, 0, 0, 0)]).1,
        PopulationDelta::Departed(_)
    ));
    assert!(matches!(
        settle(&prev, &[(5, 0, 1, 0)]).1,
        PopulationDelta::Arrived(_)
    ));
}
