//! The keyed contract of [`PenaltyModel::apply_delta`], pinned over random
//! change streams for every model: GigE, InfiniBand, Myrinet (default and
//! with a state-set budget of 2) and both baselines.
//!
//! A stream mixes arrivals, departures, a departed id reused by the next
//! arrival (the slab's free list hands it straight back), a departure and
//! an arrival on one endpoint pair in the same settle, intra-node flows,
//! an arrival that departs before any settle (it cancels out, as in the
//! fluid engine's penalty cache), fresh settles of a warm scratch, and a
//! `clone_from` of the scratch into a warm copy mid-stream, the stream
//! continuing on the copy. After every settle it asserts that
//!
//! 1. the answered penalties plus every unanswered member's carried-over
//!    one equal `penalties(population)` bit for bit;
//! 2. no unanswered survivor's penalty moved since the previous settle;
//! 3. a fresh settle answers every member;
//! 4. the outcome flags are right: a fresh settle rebuilds and a warm one
//!    patches (never for the baselines), and Myrinet reports a budget
//!    fallback exactly when a conflict component it answered blew the
//!    budget.

use netbw_core::baseline::{LinearModel, MaxConflictModel};
use netbw_core::states::{count_components, DEFAULT_STATE_SET_BUDGET};
use netbw_core::{
    FlowId, GigabitEthernetModel, InfinibandModel, ModelScratch, MyrinetModel, Penalty,
    PenaltyModel, PopulationDelta, QueryOutcome,
};
use netbw_graph::conflict::{ConflictGraph, ConflictRule};
use netbw_graph::Communication;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// What the outcome flags of a model's answers must say.
#[derive(Clone, Copy, Debug)]
enum Flags {
    /// A closed form: fresh settles rebuild, warm ones patch.
    ClosedForm,
    /// Myrinet with this state-set budget: like a closed form, plus a
    /// budget fallback exactly when an answered component blew it.
    Myrinet(usize),
    /// A baseline on the default population scratch: never patches.
    Baseline,
}

/// Every model under the contract, with the flags its answers must carry.
fn models() -> Vec<(Box<dyn PenaltyModel>, Flags)> {
    vec![
        (Box::new(GigabitEthernetModel::default()), Flags::ClosedForm),
        (Box::new(InfinibandModel::default()), Flags::ClosedForm),
        (
            Box::new(MyrinetModel::default()),
            Flags::Myrinet(DEFAULT_STATE_SET_BUDGET),
        ),
        (Box::new(MyrinetModel::with_budget(2)), Flags::Myrinet(2)),
        (Box::new(LinearModel), Flags::Baseline),
        (Box::new(MaxConflictModel), Flags::Baseline),
    ]
}

/// One step of a change stream, decoded from `(kind, pos, src, dst)`.
type Op = (u8, usize, u32, u32);

fn op() -> impl Strategy<Value = Op> {
    (0u8..20, 0usize..64, 0u32..6, 0u32..6)
}

/// A model, the scratch it answers over, and the caller's bookkeeping:
/// the population with pending changes applied, the pending change, the
/// penalty each settled member was last answered, and the full
/// evaluation at the last settle.
struct Stream<'m> {
    model: &'m dyn PenaltyModel,
    flags: Flags,
    scratch: Box<dyn ModelScratch>,
    members: BTreeMap<FlowId, Communication>,
    departed: Vec<FlowId>,
    arrived: Vec<(FlowId, Communication)>,
    carried: BTreeMap<FlowId, Penalty>,
    before: BTreeMap<FlowId, Penalty>,
    /// Freed ids, reused last-in first-out like the slab's free list.
    free: Vec<FlowId>,
    next: FlowId,
    answers: Vec<(FlowId, Penalty)>,
    settles: usize,
}

impl<'m> Stream<'m> {
    fn new(model: &'m dyn PenaltyModel, flags: Flags) -> Self {
        Stream {
            model,
            flags,
            scratch: model.new_scratch(),
            members: BTreeMap::new(),
            departed: Vec::new(),
            arrived: Vec::new(),
            carried: BTreeMap::new(),
            before: BTreeMap::new(),
            free: Vec::new(),
            next: 0,
            answers: Vec::new(),
            settles: 0,
        }
    }

    fn arrive(&mut self, c: Communication) {
        let id = self.free.pop().unwrap_or_else(|| {
            self.next += 1;
            self.next - 1
        });
        self.members.insert(id, c);
        self.arrived.push((id, c));
    }

    /// The member at `pos` (modulo the population), if any.
    fn nth(&self, pos: usize) -> Option<FlowId> {
        let n = self.members.len().max(1);
        self.members.keys().nth(pos % n).copied()
    }

    /// Member `id` departs; an arrival that never reached a settle
    /// cancels out instead.
    fn depart(&mut self, id: FlowId) {
        self.members
            .remove(&id)
            .expect("departing flow is a member");
        match self.arrived.iter().position(|a| a.0 == id) {
            Some(i) => {
                self.arrived.remove(i);
            }
            None => self.departed.push(id),
        }
        self.free.push(id);
    }

    /// Copies the scratch into a warm scratch of another population and
    /// carries on over the copy.
    fn clone_into_warm_copy(&mut self) {
        let mut copy = self.model.new_scratch();
        let decoy = [
            (900, Communication::new(0u32, 1u32, 10)),
            (901, Communication::new(0u32, 2u32, 10)),
        ];
        let fresh = PopulationDelta {
            arrived: &decoy,
            fresh: true,
            ..PopulationDelta::default()
        };
        self.model
            .apply_delta(&fresh, copy.as_mut(), &mut Vec::new());
        copy.clone_from(&self.scratch);
        self.scratch = copy;
    }

    /// Hands the pending change (or, `fresh`, the whole population) to the
    /// model and checks the four clauses of the contract.
    fn settle(&mut self, fresh: bool) -> Result<(), String> {
        let name = self.model.name();
        let what = format!("{name} {:?}, settle {}", self.flags, self.settles);
        self.settles += 1;
        let everyone: Vec<(FlowId, Communication)>;
        let delta = if fresh {
            everyone = self.members.iter().map(|(&id, &c)| (id, c)).collect();
            PopulationDelta {
                departed: &[],
                arrived: &everyone,
                fresh: true,
            }
        } else {
            PopulationDelta {
                departed: &self.departed,
                arrived: &self.arrived,
                fresh: false,
            }
        };
        self.answers.clear();
        let outcome = self
            .model
            .apply_delta(&delta, self.scratch.as_mut(), &mut self.answers);
        if fresh {
            self.carried.clear();
        }
        for id in &self.departed {
            self.carried.remove(id);
        }
        self.departed.clear();
        self.arrived.clear();
        let mut answered = BTreeSet::new();
        for &(id, p) in &self.answers {
            if !self.members.contains_key(&id) {
                return Err(format!("{what}: answered flow {id} is not a member"));
            }
            answered.insert(id);
            self.carried.insert(id, p);
        }
        let comms: Vec<Communication> = self.members.values().copied().collect();
        let full: BTreeMap<FlowId, Penalty> = self
            .members
            .keys()
            .copied()
            .zip(self.model.penalties(&comms))
            .collect();
        // 1. answered plus carried over == the full evaluation
        if self.carried.len() != full.len() {
            return Err(format!(
                "{what}: {} penalties held for {} members (answered {answered:?})",
                self.carried.len(),
                full.len()
            ));
        }
        for (id, want) in &full {
            let got = self.carried.get(id);
            if got.map(|p| p.value().to_bits()) != Some(want.value().to_bits()) {
                return Err(format!(
                    "{what}: flow {id} {:?} holds {got:?}, full query says {want:?}",
                    self.members[id]
                ));
            }
        }
        // 2. no unanswered survivor moved
        for (id, now) in &full {
            if answered.contains(id) {
                continue;
            }
            let was = self.before.get(id).map(|p| p.value().to_bits());
            if was != Some(now.value().to_bits()) {
                return Err(format!(
                    "{what}: unanswered flow {id} moved from {was:?} to {now:?}"
                ));
            }
        }
        // 3. a fresh settle answers every member
        if fresh && answered.len() != full.len() {
            return Err(format!(
                "{what}: a fresh settle answered {} of {} members",
                answered.len(),
                full.len()
            ));
        }
        // 4. the outcome flags
        let want = self.expected_outcome(fresh, &answered);
        if outcome != want {
            return Err(format!("{what}: outcome {outcome:?}, expected {want:?}"));
        }
        self.before = full;
        Ok(())
    }

    fn expected_outcome(&self, fresh: bool, answered: &BTreeSet<FlowId>) -> QueryOutcome {
        let shape = match self.flags {
            Flags::Baseline => QueryOutcome::default(),
            _ if fresh => QueryOutcome::rebuild(),
            _ => QueryOutcome::patch(),
        };
        let budget_fallback = match self.flags {
            Flags::Myrinet(budget) => self.blows_an_answered_component(budget, answered),
            _ => false,
        };
        QueryOutcome {
            budget_fallback,
            ..shape
        }
    }

    /// Whether a conflict component of the population holding an answered
    /// flow has more state sets than `budget`.
    fn blows_an_answered_component(&self, budget: usize, answered: &BTreeSet<FlowId>) -> bool {
        let (ids, network): (Vec<FlowId>, Vec<Communication>) = self
            .members
            .iter()
            .filter(|(_, c)| !c.is_intra_node())
            .map(|(&id, &c)| (id, c))
            .unzip();
        let graph = ConflictGraph::build(&network, ConflictRule::Strict);
        count_components(&graph, budget).iter().any(|comp| {
            comp.counts.is_err() && comp.vertices.iter().any(|&v| answered.contains(&ids[v]))
        })
    }

    /// Applies one decoded step.
    fn step(&mut self, (kind, pos, src, dst): Op) -> Result<(), String> {
        let size = 100 + 7 * pos as u64;
        match kind {
            0..=5 => self.arrive(Communication::new(src, dst, size)),
            6..=8 => {
                if let Some(id) = self.nth(pos) {
                    self.depart(id);
                }
            }
            // the departed id goes straight back to the next arrival
            9 | 10 => {
                if let Some(id) = self.nth(pos) {
                    self.depart(id);
                }
                self.arrive(Communication::new(src, dst, size));
            }
            // a departure and an arrival on one endpoint pair, under
            // different ids, in the same settle
            11 | 12 => {
                if let Some(id) = self.nth(pos) {
                    self.arrive(self.members[&id]);
                    self.depart(id);
                }
            }
            // a flow that flashes in and out between settles
            13 => {
                self.arrive(Communication::new(src, dst, size));
                let id = self.arrived.last().expect("just arrived").0;
                self.depart(id);
            }
            14..=16 => self.settle(false)?,
            17 => self.settle(true)?,
            18 => self.clone_into_warm_copy(),
            _ => {
                self.arrive(Communication::new(src, src, size));
                self.settle(false)?;
            }
        }
        Ok(())
    }
}

/// Runs `ops` through every model, ending on a settle.
fn check_stream(ops: &[Op]) -> Result<(), String> {
    for (model, flags) in models() {
        let mut stream = Stream::new(model.as_ref(), flags);
        stream.settle(true)?;
        for &op in ops {
            stream.step(op)?;
        }
        stream.settle(false)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The keyed contract over random change streams of up to 80 steps.
    #[test]
    fn every_model_keeps_the_keyed_contract(ops in proptest::collection::vec(op(), 1..80)) {
        check_stream(&ops)?;
    }
}

/// A hand-written stream that hits every step kind at least once, so the
/// contract is exercised on each shape even if the generator drifts.
#[test]
fn a_stream_of_every_step_kind_keeps_the_contract() {
    let mut ops = Vec::new();
    for kind in 0u8..20 {
        ops.push((0, 1, 0, 1));
        ops.push((1, 2, 2, 1));
        ops.push((kind, 1, u32::from(kind) % 6, 1));
        ops.push((14, 0, 0, 0));
    }
    check_stream(&ops).unwrap();
}
