//! The [`PenaltyModel`] abstraction shared by all predictive models.

use crate::intern::KeyedMembers;
use crate::penalty::Penalty;
use crate::scratch::{ModelScratch, QueryOutcome};
use netbw_graph::Communication;

/// A flow's identity in a keyed population: the fluid engine's slab slot
/// index. An id names one flow from its arrival until its departure has
/// been handed to the model; only then may a later flow reuse it.
pub type FlowId = u32;

/// An instantaneous bandwidth-sharing model.
///
/// Given the set of communications in flight *right now*, a model assigns
/// each a [`Penalty`] — the factor by which its transfer rate is reduced
/// relative to running alone. The fluid solver (`netbw-fluid`) integrates
/// these instantaneous penalties over time, re-querying the model whenever
/// a communication completes or a new one starts.
///
/// Two entry points share one contract, a slow and a fast algorithm for
/// the same answers: the stateless [`Self::penalties`] evaluates a whole
/// population, and the keyed [`Self::apply_delta`] keeps the population in
/// a caller-owned scratch and answers only the flows a change reaches.
///
/// # Contract
///
/// * [`Self::penalties`] returns a vector aligned with (and as long as)
///   the input slice.
/// * Intra-node communications (`src == dst`) never cross the NIC; models
///   must give them penalty 1 and exclude them from degree counts. The
///   helper [`split_intra_node`] implements this policy.
/// * Penalties are `>= 1` and finite ([`Penalty`] enforces this).
/// * A single inter-node communication with no conflict has penalty 1
///   (`Tref` is *defined* as its time).
/// * After every [`Self::apply_delta`], the penalties it answered, plus
///   each unanswered member's previously answered penalty, equal
///   `penalties` over the scratch's population bit for bit.
pub trait PenaltyModel: Send + Sync {
    /// A short stable name for reports and tables.
    fn name(&self) -> &'static str;

    /// Penalties for the given set of concurrent communications — the
    /// stateless reference entry point.
    fn penalties(&self, comms: &[Communication]) -> Vec<Penalty>;

    /// Creates the opaque per-cache scratch for [`Self::apply_delta`]. The
    /// query issuer (one penalty cache) owns it and hands it back on every
    /// query. The default is a plain keyed population, answered by
    /// [`Self::penalties`].
    fn new_scratch(&self) -> Box<dyn ModelScratch> {
        Box::new(PopulationScratch::default())
    }

    /// The keyed entry point of the incremental fluid engine: applies
    /// `delta` to the population `scratch` holds (departures first, then
    /// arrivals; a fresh delta first forgets the whole population) and
    /// appends `(id, penalty)` to `answers` for exactly the members it
    /// re-evaluated — every arrival, plus the survivors the change can
    /// reach. Every unanswered member keeps its previous penalty bit for
    /// bit, and a fresh delta answers every member. The returned
    /// [`QueryOutcome`] says how the query was answered.
    ///
    /// The default implementation keeps the population in the default
    /// scratch and answers every member from [`Self::penalties`]; the
    /// paper's models patch from state they keep between settles
    /// (endpoint indices for the closed forms, conflict components for
    /// Myrinet — see [`crate::incremental`] and the per-model docs).
    ///
    /// # Panics
    /// On an inconsistent delta — the departure of an id that is not a
    /// member, the arrival of one that is — or a scratch this model did
    /// not create: each is a bug in the caller's bookkeeping.
    fn apply_delta(
        &self,
        delta: &PopulationDelta<'_>,
        scratch: &mut dyn ModelScratch,
        answers: &mut Vec<(FlowId, Penalty)>,
    ) -> QueryOutcome {
        let population = downcast_scratch::<PopulationScratch>(scratch);
        population.apply(delta);
        let penalties = self.penalties(population.members.items());
        answers.extend(population.members.ids().iter().copied().zip(penalties));
        QueryOutcome::default()
    }

    /// Penalty of one communication inside a population. Convenience used
    /// by tests and spot checks; index must be in range.
    fn penalty_of(&self, comms: &[Communication], index: usize) -> Penalty {
        self.penalties(comms)[index]
    }
}

/// How a keyed population changed since a model last answered over the
/// same scratch: the ids that left and the `(id, communication)` pairs
/// that joined. Produced by the incremental fluid engine's penalty cache,
/// consumed by [`PenaltyModel::apply_delta`].
///
/// Departures apply before arrivals, so an id may depart and arrive (as a
/// new flow reusing its slot) in one delta.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PopulationDelta<'a> {
    /// Ids of the members that left.
    pub departed: &'a [FlowId],
    /// The flows that joined, with their ids.
    pub arrived: &'a [(FlowId, Communication)],
    /// The scratch starts over: the model forgets its population before
    /// applying the change, and answers every member. Set on a cache's
    /// first settle (a new, reset or recycled shard).
    pub fresh: bool,
}

/// Downcasts a model scratch to the concrete type its model created.
///
/// # Panics
/// If the scratch holds another type — a scratch handed to a model that
/// did not create it.
pub(crate) fn downcast_scratch<T: 'static>(scratch: &mut dyn ModelScratch) -> &mut T {
    scratch
        .as_any_mut()
        .downcast_mut::<T>()
        .expect("a model scratch goes back to the model that created it")
}

/// The default scratch: the keyed population and nothing else, for models
/// that answer every settle from [`PenaltyModel::penalties`].
#[derive(Clone, Debug, Default)]
pub(crate) struct PopulationScratch {
    members: KeyedMembers<Communication>,
}

impl PopulationScratch {
    /// Applies `delta` to the population.
    fn apply(&mut self, delta: &PopulationDelta<'_>) {
        if delta.fresh {
            self.members.clear();
        }
        for &id in delta.departed {
            self.members.remove(id);
        }
        for &(id, c) in delta.arrived {
            self.members.insert(id, c);
        }
    }
}

impl<M: PenaltyModel + ?Sized> PenaltyModel for &M {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn penalties(&self, comms: &[Communication]) -> Vec<Penalty> {
        (**self).penalties(comms)
    }
    fn new_scratch(&self) -> Box<dyn ModelScratch> {
        (**self).new_scratch()
    }
    fn apply_delta(
        &self,
        delta: &PopulationDelta<'_>,
        scratch: &mut dyn ModelScratch,
        answers: &mut Vec<(FlowId, Penalty)>,
    ) -> QueryOutcome {
        (**self).apply_delta(delta, scratch, answers)
    }
}

impl<M: PenaltyModel + ?Sized> PenaltyModel for Box<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn penalties(&self, comms: &[Communication]) -> Vec<Penalty> {
        (**self).penalties(comms)
    }
    fn new_scratch(&self) -> Box<dyn ModelScratch> {
        (**self).new_scratch()
    }
    fn apply_delta(
        &self,
        delta: &PopulationDelta<'_>,
        scratch: &mut dyn ModelScratch,
        answers: &mut Vec<(FlowId, Penalty)>,
    ) -> QueryOutcome {
        (**self).apply_delta(delta, scratch, answers)
    }
}

impl<M: PenaltyModel + ?Sized> PenaltyModel for std::sync::Arc<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn penalties(&self, comms: &[Communication]) -> Vec<Penalty> {
        (**self).penalties(comms)
    }
    fn new_scratch(&self) -> Box<dyn ModelScratch> {
        (**self).new_scratch()
    }
    fn apply_delta(
        &self,
        delta: &PopulationDelta<'_>,
        scratch: &mut dyn ModelScratch,
        answers: &mut Vec<(FlowId, Penalty)>,
    ) -> QueryOutcome {
        (**self).apply_delta(delta, scratch, answers)
    }
}

/// Splits a communication population into network communications (returned
/// with their original indices) and intra-node ones. Models compute on the
/// former; the latter get [`Penalty::ONE`].
pub fn split_intra_node(comms: &[Communication]) -> (Vec<usize>, Vec<Communication>) {
    let mut indices = Vec::with_capacity(comms.len());
    let mut network = Vec::with_capacity(comms.len());
    for (i, c) in comms.iter().enumerate() {
        if !c.is_intra_node() {
            indices.push(i);
            network.push(*c);
        }
    }
    (indices, network)
}

/// Scatters penalties computed on the network subset back into a
/// full-length vector, filling intra-node slots with penalty 1.
pub fn scatter_penalties(
    total_len: usize,
    indices: &[usize],
    network_penalties: &[Penalty],
) -> Vec<Penalty> {
    debug_assert_eq!(indices.len(), network_penalties.len());
    let mut out = vec![Penalty::ONE; total_len];
    for (&i, &p) in indices.iter().zip(network_penalties) {
        out[i] = p;
    }
    out
}

/// Identifies a model family; useful for command-line harnesses and
/// experiment configs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's Gigabit Ethernet model (§V.A).
    GigabitEthernet,
    /// The paper's Myrinet 2000 state-set model (§V.B).
    Myrinet,
    /// Our InfiniBand extension model (paper future work).
    Infiniband,
    /// Contention-blind LogP/LogGP-style baseline.
    Linear,
    /// Kim & Lee max-conflict-multiplier baseline.
    MaxConflict,
}

impl ModelKind {
    /// All kinds, in presentation order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::GigabitEthernet,
        ModelKind::Myrinet,
        ModelKind::Infiniband,
        ModelKind::Linear,
        ModelKind::MaxConflict,
    ];

    /// Builds the model with its default (paper-calibrated) parameters.
    pub fn build(self) -> Box<dyn PenaltyModel> {
        match self {
            ModelKind::GigabitEthernet => Box::new(crate::GigabitEthernetModel::default()),
            ModelKind::Myrinet => Box::new(crate::MyrinetModel::default()),
            ModelKind::Infiniband => Box::new(crate::InfinibandModel::default()),
            ModelKind::Linear => Box::new(crate::baseline::LinearModel),
            ModelKind::MaxConflict => Box::new(crate::baseline::MaxConflictModel),
        }
    }

    /// Parses a user-facing name (`gige`, `myrinet`, `infiniband`,
    /// `linear`, `maxconflict`).
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s.to_ascii_lowercase().as_str() {
            "gige" | "gigabit" | "ethernet" | "gigabit-ethernet" => {
                Some(ModelKind::GigabitEthernet)
            }
            "myrinet" | "mx" => Some(ModelKind::Myrinet),
            "infiniband" | "ib" => Some(ModelKind::Infiniband),
            "linear" | "logp" | "loggp" => Some(ModelKind::Linear),
            "maxconflict" | "max-conflict" | "kimlee" | "kim-lee" => Some(ModelKind::MaxConflict),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ModelKind::GigabitEthernet => "gige",
            ModelKind::Myrinet => "myrinet",
            ModelKind::Infiniband => "infiniband",
            ModelKind::Linear => "linear",
            ModelKind::MaxConflict => "maxconflict",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_scatter_round_trip() {
        let comms = vec![
            Communication::new(0u32, 1u32, 10),
            Communication::new(2u32, 2u32, 10), // intra-node
            Communication::new(0u32, 3u32, 10),
        ];
        let (idx, net) = split_intra_node(&comms);
        assert_eq!(idx, vec![0, 2]);
        assert_eq!(net.len(), 2);
        let out = scatter_penalties(3, &idx, &[Penalty::new(2.0), Penalty::new(3.0)]);
        assert_eq!(out[0].value(), 2.0);
        assert_eq!(out[1].value(), 1.0);
        assert_eq!(out[2].value(), 3.0);
    }

    #[test]
    fn model_kind_parse_and_display() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(ModelKind::parse("GigE"), Some(ModelKind::GigabitEthernet));
        assert_eq!(ModelKind::parse("kim-lee"), Some(ModelKind::MaxConflict));
        assert_eq!(ModelKind::parse("token-ring"), None);
    }

    #[test]
    fn build_produces_named_models() {
        for kind in ModelKind::ALL {
            let m = kind.build();
            assert!(!m.name().is_empty());
        }
    }

    #[test]
    fn scratch_state_carries_between_settles() {
        // Drive two settles through one scratch: the second patches from
        // the population the scratch kept and answers the arrival plus
        // only the survivors it reaches.
        let first = [
            (0, Communication::new(0u32, 1u32, 10)),
            (1, Communication::new(2u32, 3u32, 10)),
        ];
        let joined = [(5, Communication::new(0u32, 4u32, 10))];
        let second = [first[0].1, first[1].1, joined[0].1];
        let specialized = [
            ModelKind::GigabitEthernet,
            ModelKind::Myrinet,
            ModelKind::Infiniband,
        ];
        for kind in ModelKind::ALL {
            let model = kind.build();
            let mut scratch = model.new_scratch();
            let mut answers = Vec::new();
            let fresh = PopulationDelta {
                arrived: &first,
                fresh: true,
                ..PopulationDelta::default()
            };
            let o1 = model.apply_delta(&fresh, scratch.as_mut(), &mut answers);
            assert!(!o1.patched, "{kind}: a fresh settle cannot patch");
            let full = model.penalties(&[first[0].1, first[1].1]);
            assert_eq!(answers, vec![(0, full[0]), (1, full[1])], "{kind}");
            answers.clear();
            let grow = PopulationDelta {
                arrived: &joined,
                ..PopulationDelta::default()
            };
            let o2 = model.apply_delta(&grow, scratch.as_mut(), &mut answers);
            let full = model.penalties(&second);
            for &(id, p) in &answers {
                let i = [0, 1, 5].iter().position(|&x| x == id).unwrap();
                assert_eq!(p, full[i], "{kind}: flow {id}");
            }
            if specialized.contains(&kind) {
                assert!(o2.patched, "{kind}: second settle must patch from scratch");
                assert!(!o2.scratch_rebuilt, "{kind}: warm scratch must not rebuild");
                let mut ids: Vec<_> = answers.iter().map(|a| a.0).collect();
                ids.sort_unstable();
                assert_eq!(ids, vec![0, 5], "{kind}: the 2→3 island is unreached");
            }
        }
    }
}
