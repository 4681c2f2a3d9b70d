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

use netbw_core::{
    FlowId, GigabitEthernetModel, InfinibandModel, Penalty, PenaltyModel, PopulationDelta,
};
use netbw_graph::{Communication, NodeId};
use proptest::prelude::*;
use std::collections::HashMap;

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

/// One churn op: `(kind, a, b, pick)`. Kinds below 4 remove the member at
/// `pick` (modulo the population); the rest insert `IDS[a] → IDS[b]`
/// (intra-node when `a == b`).
type Op = (u8, usize, usize, usize);

/// One keyed settle: the departing ids and the arriving flows.
type Settle = (Vec<FlowId>, Vec<(FlowId, Communication)>);

/// Applies one settle's ops to the keyed population `prev`: every removal
/// picks from the previous population, and arrivals take ids like slab
/// slots — the most recently freed one first, so an id departing in this
/// settle is reused by its arrivals. Returns the new population and the
/// settle's change.
fn settle(
    prev: &[(FlowId, Communication)],
    ops: &[Op],
    next_id: &mut FlowId,
) -> (Vec<(FlowId, Communication)>, Settle) {
    let mut departed: Vec<FlowId> = Vec::new();
    for op in ops.iter().filter(|op| op.0 < 4 && !prev.is_empty()) {
        let id = prev[op.3 % prev.len()].0;
        if !departed.contains(&id) {
            departed.push(id);
        }
    }
    let mut free = departed.clone();
    let arrived: Vec<(FlowId, Communication)> = ops
        .iter()
        .filter(|op| op.0 >= 4)
        .map(|&(_, a, b, pick)| {
            let id = free.pop().unwrap_or_else(|| {
                *next_id += 1;
                *next_id - 1
            });
            (id, Communication::new(IDS[a], IDS[b], 1 + pick as u64))
        })
        .collect();
    let next = prev
        .iter()
        .filter(|(id, _)| !departed.contains(id))
        .chain(&arrived)
        .copied()
        .collect();
    (next, (departed, arrived))
}

/// Drives `settles` through one scratch (and, each settle, a fork of it
/// into a second, stale scratch), checking the batch path against
/// `oracle` and the keyed answers plus the carried-over penalties against
/// the batch path, all bitwise.
fn check_churn<M: PenaltyModel>(
    model: &M,
    oracle: impl Fn(&[Communication]) -> Vec<Penalty>,
    settles: &[Vec<Op>],
) -> Result<(), String> {
    let mut scratch = model.new_scratch();
    let mut spare = model.new_scratch();
    let mut population: Vec<(FlowId, Communication)> = Vec::new();
    let mut carried: HashMap<FlowId, Penalty> = HashMap::new();
    let mut next_id = 0;
    for (n, ops) in settles.iter().enumerate() {
        let (next, (departed, arrived)) = settle(&population, ops, &mut next_id);
        let comms: Vec<Communication> = next.iter().map(|p| p.1).collect();
        let full = model.penalties(&comms);
        let want = oracle(&comms);
        if bits(&full) != bits(&want) {
            return Err(format!(
                "{}: settle {n}: batch path differs from the oracle over {comms:?}\n got {full:?}\nwant {want:?}",
                model.name()
            ));
        }
        if !(*scratch).clone_into(spare.as_mut()) {
            return Err("clone_into refused a scratch of its own type".into());
        }
        let delta = PopulationDelta {
            departed: &departed,
            arrived: &arrived,
            fresh: n == 0,
        };
        let mut answers = Vec::new();
        let outcome = model.apply_delta(&delta, scratch.as_mut(), &mut answers);
        if n > 0 && (!outcome.patched || outcome.scratch_rebuilt) {
            return Err(format!(
                "{}: settle {n}: a warm scratch must patch: {outcome:?}",
                model.name()
            ));
        }
        let mut forked = Vec::new();
        let forked_outcome = model.apply_delta(&delta, spare.as_mut(), &mut forked);
        if forked != answers || forked_outcome != outcome {
            return Err(format!(
                "{}: settle {n}: the forked scratch answered differently",
                model.name()
            ));
        }
        for id in &departed {
            carried.remove(id);
        }
        carried.extend(answers);
        let got: Vec<Penalty> = next.iter().map(|p| carried[&p.0]).collect();
        if bits(&got) != bits(&full) {
            return Err(format!(
                "{}: settle {n}: keyed answers differ from the full recompute over {comms:?}\n got {got:?}\nwant {full:?}",
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
        let (keyed, _) = settle(&[], &inserts, &mut 0);
        let comms: Vec<Communication> = keyed.iter().map(|p| p.1).collect();
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
    let prev: Vec<(FlowId, Communication)> = (0u32..4)
        .map(|i| (i, Communication::new(i, i + 1, 9)))
        .collect();
    let mut next_id = 4;
    // a mixed settle reuses the departing id for its intra-node arrival
    let (next, (departed, arrived)) = settle(&prev, &[(0, 0, 0, 1), (9, 2, 2, 0)], &mut next_id);
    assert_eq!(departed, vec![1]);
    assert_eq!(arrived.len(), 1);
    assert_eq!(arrived[0].0, 1, "the departed id is reused at once");
    assert!(arrived[0].1.is_intra_node());
    assert_eq!(next.len(), 4);
    let (_, (departed, arrived)) = settle(&prev, &[(1, 0, 0, 0)], &mut next_id);
    assert!(!departed.is_empty() && arrived.is_empty());
    let (_, (departed, arrived)) = settle(&prev, &[(5, 0, 1, 0)], &mut next_id);
    assert!(departed.is_empty() && arrived == vec![(4, Communication::new(0u32, 1u32, 1))]);
}
