//! The [`PenaltyModel`] abstraction shared by all predictive models.

use crate::penalty::Penalty;
use crate::scratch::{ModelScratch, NoScratch, QueryOutcome};
use netbw_graph::Communication;

/// An instantaneous bandwidth-sharing model.
///
/// Given the set of communications in flight *right now*, a model assigns
/// each a [`Penalty`] — the factor by which its transfer rate is reduced
/// relative to running alone. The fluid solver (`netbw-fluid`) integrates
/// these instantaneous penalties over time, re-querying the model whenever
/// a communication completes or a new one starts.
///
/// # Contract
///
/// * The returned vector is aligned with (and as long as) the input slice.
/// * Intra-node communications (`src == dst`) never cross the NIC; models
///   must give them penalty 1 and exclude them from degree counts. The
///   helper [`split_intra_node`] implements this policy.
/// * Penalties are `>= 1` and finite ([`Penalty`] enforces this).
/// * A single inter-node communication with no conflict has penalty 1
///   (`Tref` is *defined* as its time).
pub trait PenaltyModel: Send + Sync {
    /// A short stable name for reports and tables.
    fn name(&self) -> &'static str;

    /// Penalties for the given set of concurrent communications.
    fn penalties(&self, comms: &[Communication]) -> Vec<Penalty>;

    /// Creates the opaque per-cache scratch state for
    /// [`Self::penalties_with_scratch`]. The query issuer (one penalty
    /// cache) owns it and hands it back on every query; models with
    /// nothing to keep return the default [`NoScratch`].
    fn new_scratch(&self) -> Box<dyn ModelScratch> {
        Box::new(NoScratch)
    }

    /// The stateful batch-delta entry point of the incremental fluid
    /// engine: penalties for a population that evolved from the previously
    /// queried one as described by `delta`, with `scratch` carrying the
    /// model's own state between settles (endpoint indices for the
    /// closed-form models, union–find conflict components for Myrinet —
    /// see [`crate::incremental`] and the per-model docs).
    ///
    /// `previous` carries the last-queried population and its penalties
    /// (`None` on the first query); a cold scratch is *seeded* from it, so
    /// stateless callers (and the [`Self::penalties_after_change`]
    /// convenience wrapper) still get incremental patches. The default
    /// implementation recomputes from scratch and reports a non-patched
    /// [`QueryOutcome`].
    ///
    /// The contract is identical to [`Self::penalties`]: the result must
    /// equal `self.penalties(comms)` bit-for-bit. Implementations must
    /// treat `delta`, `previous` *and the scratch* as hints: on any
    /// inconsistency (see the invariants on [`PopulationDelta`]) the model
    /// falls back to a full recompute — and rebuilds the scratch — rather
    /// than producing wrong penalties.
    fn penalties_with_scratch(
        &self,
        comms: &[Communication],
        delta: &PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
        scratch: &mut dyn ModelScratch,
    ) -> (Vec<Penalty>, QueryOutcome) {
        let _ = (delta, previous, scratch);
        (self.penalties(comms), QueryOutcome::default())
    }

    /// Stateless convenience wrapper around
    /// [`Self::penalties_with_scratch`]: runs the query over a fresh
    /// scratch (seeded from `previous`), discarding the scratch and the
    /// outcome. Kept as the ergonomic entry point for tests and one-shot
    /// callers; long-lived callers hold a scratch and use the stateful
    /// entry point directly.
    fn penalties_after_change(
        &self,
        comms: &[Communication],
        delta: PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
    ) -> Vec<Penalty> {
        let mut scratch = self.new_scratch();
        self.penalties_with_scratch(comms, &delta, previous, scratch.as_mut())
            .0
    }

    /// Penalty of one communication inside a population. Convenience used
    /// by tests and spot checks; index must be in range.
    fn penalty_of(&self, comms: &[Communication], index: usize) -> Penalty {
        self.penalties(comms)[index]
    }
}

/// How an in-flight population evolved since a model was last queried.
///
/// Produced by the incremental fluid engine (`netbw-fluid`, which derives
/// it from stable slab keys) and consumed by
/// [`PenaltyModel::penalties_after_change`] specializations. The positional
/// variants let a model pair every surviving communication with its
/// previous penalty in one linear merge scan, then recompute only the
/// communications a change can actually affect.
///
/// # Invariants
///
/// * [`PopulationDelta::Arrived`] holds **strictly increasing** positions
///   into the *new* population slice; every entry not at one of those
///   positions appeared in the previous population, in the same relative
///   order.
/// * [`PopulationDelta::Departed`] holds **strictly increasing** positions
///   into the *previous* population slice; the survivors make up the new
///   slice exactly, in the same relative order.
/// * [`PopulationDelta::Mixed`] chains the two: it is exactly
///   `Departed(departed)` applied to the previous population, followed by
///   `Arrived(arrived)` applied to the intermediate result — both position
///   vectors strictly increasing, `departed` into the *previous* slice,
///   `arrived` into the *new* one. Simultaneous arrival+departure batches
///   (a completion coinciding with a gate opening) stay positional instead
///   of degrading to [`PopulationDelta::Rebuilt`].
///
/// Consumers must not trust these invariants blindly:
/// [`crate::incremental::align`] verifies them (including per-entry
/// equality of the paired communications) and returns `None` on any
/// inconsistency, which models answer with a full recompute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PopulationDelta {
    /// Positions (in the new population) of freshly arrived communications
    /// — new transfers or opened latency gates. May be empty: an empty
    /// arrival delta asserts the population is unchanged.
    Arrived(Vec<usize>),
    /// Positions (in the previous population) of departed communications
    /// (completions).
    Departed(Vec<usize>),
    /// A simultaneous arrival+departure batch, expressed as two chained
    /// positional deltas: departures first (positions in the *previous*
    /// population), then arrivals (positions in the *new* one).
    Mixed {
        /// Positions (in the previous population) of departed
        /// communications; applied first.
        departed: Vec<usize>,
        /// Positions (in the new population) of arrived communications;
        /// applied second.
        arrived: Vec<usize>,
    },
    /// First query, or a transition the cache could not explain
    /// positionally.
    Rebuilt,
}

impl PopulationDelta {
    /// True when the delta asserts the population did not change at all.
    pub fn is_empty(&self) -> bool {
        match self {
            PopulationDelta::Arrived(idx) | PopulationDelta::Departed(idx) => idx.is_empty(),
            PopulationDelta::Mixed { departed, arrived } => {
                departed.is_empty() && arrived.is_empty()
            }
            PopulationDelta::Rebuilt => false,
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
    fn penalties_with_scratch(
        &self,
        comms: &[Communication],
        delta: &PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
        scratch: &mut dyn ModelScratch,
    ) -> (Vec<Penalty>, QueryOutcome) {
        (**self).penalties_with_scratch(comms, delta, previous, scratch)
    }
    fn penalties_after_change(
        &self,
        comms: &[Communication],
        delta: PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
    ) -> Vec<Penalty> {
        (**self).penalties_after_change(comms, delta, previous)
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
    fn penalties_with_scratch(
        &self,
        comms: &[Communication],
        delta: &PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
        scratch: &mut dyn ModelScratch,
    ) -> (Vec<Penalty>, QueryOutcome) {
        (**self).penalties_with_scratch(comms, delta, previous, scratch)
    }
    fn penalties_after_change(
        &self,
        comms: &[Communication],
        delta: PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
    ) -> Vec<Penalty> {
        (**self).penalties_after_change(comms, delta, previous)
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
    fn penalties_with_scratch(
        &self,
        comms: &[Communication],
        delta: &PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
        scratch: &mut dyn ModelScratch,
    ) -> (Vec<Penalty>, QueryOutcome) {
        (**self).penalties_with_scratch(comms, delta, previous, scratch)
    }
    fn penalties_after_change(
        &self,
        comms: &[Communication],
        delta: PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
    ) -> Vec<Penalty> {
        (**self).penalties_after_change(comms, delta, previous)
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
    fn delta_is_empty_only_for_empty_positional_variants() {
        use PopulationDelta::*;
        assert!(Arrived(vec![]).is_empty());
        assert!(Departed(vec![]).is_empty());
        assert!(Mixed {
            departed: vec![],
            arrived: vec![]
        }
        .is_empty());
        assert!(!Arrived(vec![0]).is_empty());
        assert!(!Mixed {
            departed: vec![0],
            arrived: vec![]
        }
        .is_empty());
        assert!(!Rebuilt.is_empty());
    }

    #[test]
    fn penalties_after_change_matches_penalties_even_on_garbage_hints() {
        // The delta/previous pair below is deliberately inconsistent with
        // `comms` (wrong lengths, wrong pairings): every model must detect
        // that and fall back to a full recompute.
        let comms = vec![
            Communication::new(0u32, 1u32, 10),
            Communication::new(0u32, 2u32, 10),
            Communication::new(3u32, 2u32, 10),
        ];
        let prior = [Communication::new(0u32, 1u32, 10)];
        for kind in ModelKind::ALL {
            let model = kind.build();
            let full = model.penalties(&comms);
            let prior_penalties = model.penalties(&prior);
            for previous in [None, Some((prior.as_slice(), prior_penalties.as_slice()))] {
                for delta in [
                    PopulationDelta::Arrived(vec![1]),
                    PopulationDelta::Departed(vec![0, 2]),
                    PopulationDelta::Mixed {
                        departed: vec![0],
                        arrived: vec![1],
                    },
                    PopulationDelta::Rebuilt,
                ] {
                    assert_eq!(
                        model.penalties_after_change(&comms, delta, previous),
                        full,
                        "{kind}"
                    );
                }
            }
        }
    }

    #[test]
    fn penalties_after_change_honours_consistent_arrival_hints() {
        // comms[1] arrived; comms[0] and comms[2] survive from `prior` in
        // order. Patched answers must equal the full evaluation.
        let comms = vec![
            Communication::new(0u32, 1u32, 10),
            Communication::new(0u32, 2u32, 10),
            Communication::new(3u32, 2u32, 10),
        ];
        let prior = [comms[0], comms[2]];
        for kind in ModelKind::ALL {
            let model = kind.build();
            let full = model.penalties(&comms);
            let prior_penalties = model.penalties(&prior);
            let got = model.penalties_after_change(
                &comms,
                PopulationDelta::Arrived(vec![1]),
                Some((prior.as_slice(), prior_penalties.as_slice())),
            );
            assert_eq!(got, full, "{kind}");
        }
    }

    #[test]
    fn penalties_after_change_honours_consistent_mixed_hints() {
        // prior[1] departed while comms[1] arrived: one chained mixed
        // delta. Patched answers must equal the full evaluation.
        let comms = vec![
            Communication::new(0u32, 1u32, 10),
            Communication::new(0u32, 2u32, 10),
            Communication::new(3u32, 2u32, 10),
        ];
        let prior = [comms[0], Communication::new(4u32, 5u32, 10), comms[2]];
        for kind in ModelKind::ALL {
            let model = kind.build();
            let full = model.penalties(&comms);
            let prior_penalties = model.penalties(&prior);
            let got = model.penalties_after_change(
                &comms,
                PopulationDelta::Mixed {
                    departed: vec![1],
                    arrived: vec![1],
                },
                Some((prior.as_slice(), prior_penalties.as_slice())),
            );
            assert_eq!(got, full, "{kind}");
        }
    }

    #[test]
    fn scratch_state_carries_between_settles() {
        // Drive two settles through one scratch: the second query patches
        // from state the scratch kept (no `previous` hint supplied at all)
        // and still matches the full evaluation bit-for-bit.
        let first = vec![
            Communication::new(0u32, 1u32, 10),
            Communication::new(2u32, 3u32, 10),
        ];
        let mut second = first.clone();
        second.push(Communication::new(0u32, 4u32, 10));
        // The three specialized models must actually *use* the scratch:
        // with no `previous` hint, only state carried inside the scratch
        // can make the second query a patch.
        let specialized = [
            ModelKind::GigabitEthernet,
            ModelKind::Myrinet,
            ModelKind::Infiniband,
        ];
        for kind in ModelKind::ALL {
            let model = kind.build();
            let mut scratch = model.new_scratch();
            let (p1, o1) = model.penalties_with_scratch(
                &first,
                &PopulationDelta::Rebuilt,
                None,
                scratch.as_mut(),
            );
            assert_eq!(p1, model.penalties(&first), "{kind}");
            assert!(!o1.patched, "{kind}: first settle cannot patch");
            let (p2, o2) = model.penalties_with_scratch(
                &second,
                &PopulationDelta::Arrived(vec![2]),
                None,
                scratch.as_mut(),
            );
            assert_eq!(p2, model.penalties(&second), "{kind}");
            if specialized.contains(&kind) {
                assert!(o2.patched, "{kind}: second settle must patch from scratch");
                assert!(
                    !o2.scratch_rebuilt,
                    "{kind}: warm scratch must not be rebuilt"
                );
            }
        }
    }
}
