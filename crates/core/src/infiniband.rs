//! InfiniBand penalty model — **our extension**.
//!
//! The paper measures InfiniHost III penalties (Fig. 2) and announces an
//! InfiniBand model as future work ("We are working too on the model of the
//! Infiniband InfinihostIII and ConnectX interconnect"). This module
//! provides one, calibrated on the paper's published measurements; it is
//! *not* part of the original contribution and is flagged as an extension
//! as EXT-1 in `ARCHITECTURE.md`.
//!
//! Observations from Fig. 2 (InfiniHost III column):
//!
//! * same-direction sharing is near-fair and sub-linear exactly like TCP,
//!   with a higher single-stream efficiency: `2 → 1.725`, `3 → 2.61`
//!   (`β ≈ 0.8625`);
//! * credit-based flow control isolates directions well: one opposing flow
//!   leaves a transfer almost untouched (scheme 4: `d = 1.14`, `a,b,c`
//!   unchanged at 2.61);
//! * beyond one opposing flow, host/PCIe pressure appears on both sides
//!   (scheme 5: outgoing `3.66 ≈ 2.61·1.4`, incoming `2.035 ≈ 1.725·1.18`).
//!
//! The model keeps the paper's GigE functional form for same-direction
//! conflicts (with `γ = 0`: the credit mechanism is fair) and adds a
//! multiplicative duplex-coupling term driven by the number of *opposing*
//! flows at each endpoint:
//!
//! ```text
//! po, pi  — GigE form with β = 0.8625, γo = γi = 0
//! tx_dx   = 1 + δ_tx · max(0, in(vs) − 1)      (δ_tx = 0.33)
//! rx_dx   = 1 + δ_rx · max(0, out(vd) − 2)     (δ_rx = 0.14)
//! p       = max(po · tx_dx, pi · rx_dx, 1)
//! ```
//!
//! where `in(vs)` is the number of flows entering the source node and
//! `out(vd)` the number leaving the destination node. The thresholds (−1,
//! −2) encode that IB tolerates one opposing flow for free on the send
//! side and two on the receive side, as measured.

use crate::gige::GigabitEthernetModel;
use crate::incremental::{
    apply_endpoints, evaluate_full, EndpointIndex, EndpointScratch, EndpointSlots, Reach,
};
use crate::model::{FlowId, PenaltyModel, PopulationDelta};
use crate::penalty::Penalty;
use crate::scratch::{ModelScratch, QueryOutcome};
use netbw_graph::Communication;

/// Extension model for InfiniBand (InfiniHost III class hardware).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InfinibandModel {
    /// Single-stream efficiency (fit: 1.725/2 = 0.8625).
    pub beta: f64,
    /// Send-side duplex coupling per opposing flow beyond the first.
    pub delta_tx: f64,
    /// Receive-side duplex coupling per opposing flow beyond the second.
    pub delta_rx: f64,
}

impl Default for InfinibandModel {
    fn default() -> Self {
        InfinibandModel {
            beta: 0.8625,
            delta_tx: 0.33,
            delta_rx: 0.14,
        }
    }
}

impl InfinibandModel {
    /// Builds a model with explicit parameters.
    ///
    /// # Panics
    /// If `beta` is not in `(0, 1]` or a `δ` is negative.
    pub fn new(beta: f64, delta_tx: f64, delta_rx: f64) -> Self {
        assert!(
            beta > 0.0 && beta <= 1.0,
            "beta must be in (0,1], got {beta}"
        );
        assert!(delta_tx >= 0.0, "delta_tx must be >= 0");
        assert!(delta_rx >= 0.0, "delta_rx must be >= 0");
        InfinibandModel {
            beta,
            delta_tx,
            delta_rx,
        }
    }

    /// Penalty of one network communication over an endpoint index —
    /// shared by the batch evaluation and the incremental patch.
    fn penalty_indexed(
        &self,
        c: EndpointSlots,
        index: &mut EndpointIndex,
        fair: &GigabitEthernetModel,
    ) -> Penalty {
        let po = fair.po_indexed(c, index);
        let pi = fair.pi_indexed(c, index);
        let opposing_at_src = index.in_degree(c.src);
        let opposing_at_dst = index.out_degree(c.dst);
        let tx_dx = 1.0 + self.delta_tx * (opposing_at_src.saturating_sub(1)) as f64;
        let rx_dx = 1.0 + self.delta_rx * (opposing_at_dst.saturating_sub(2)) as f64;
        Penalty::new((po * tx_dx).max(pi * rx_dx))
    }
}

impl PenaltyModel for InfinibandModel {
    fn name(&self) -> &'static str {
        "infiniband"
    }

    fn penalties(&self, comms: &[Communication]) -> Vec<Penalty> {
        // Reuse the GigE po/pi machinery with γ = 0.
        let fair = GigabitEthernetModel::new(self.beta, 0.0, 0.0);
        evaluate_full(comms, |c, index| self.penalty_indexed(c, index, &fair))
    }

    fn new_scratch(&self) -> Box<dyn ModelScratch> {
        Box::new(EndpointScratch::default())
    }

    /// O(changed + reach) patch over the per-cache [`EndpointScratch`],
    /// like the GigE one but over the duplex-coupling reach
    /// ([`Reach::DUPLEX`]): a changed flow also reaches every flow whose
    /// source it enters (`tx_dx`) or whose destination it leaves
    /// (`rx_dx`).
    fn apply_delta(
        &self,
        delta: &PopulationDelta<'_>,
        scratch: &mut dyn ModelScratch,
        answers: &mut Vec<(FlowId, Penalty)>,
    ) -> QueryOutcome {
        let fair = GigabitEthernetModel::new(self.beta, 0.0, 0.0);
        apply_endpoints(delta, scratch, answers, Reach::DUPLEX, |c, index| {
            self.penalty_indexed(c, index, &fair)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbw_graph::schemes;

    fn penalties(scheme: usize) -> Vec<f64> {
        InfinibandModel::default()
            .penalties(schemes::fig2_scheme(scheme).comms())
            .iter()
            .map(|p| p.value())
            .collect()
    }

    #[test]
    fn pure_outgoing_matches_fig2() {
        // paper: 1.725 / 1.725 and 2.61 / 2.61 / 2.61 (model: 2.5875, −0.9%)
        let p2 = penalties(2);
        assert!(p2.iter().all(|&p| (p - 1.725).abs() < 1e-9), "{p2:?}");
        let p3 = penalties(3);
        assert!(p3.iter().all(|&p| (p - 2.5875).abs() < 1e-9), "{p3:?}");
        for (&got, want) in p3.iter().zip([2.61, 2.61, 2.61]) {
            assert!((got - want).abs() / want < 0.015);
        }
    }

    #[test]
    fn one_opposing_flow_is_tolerated() {
        // scheme 4: a,b,c unchanged (2.61 measured), d = 1.14 measured.
        let p = penalties(4);
        assert!((p[0] - 2.5875).abs() < 1e-9, "a unchanged: {p:?}");
        // our d: pi = 1, po = 1; rx_dx = 1 + 0.14·(3−2) = 1.14 → p = 1.14
        assert!((p[3] - 1.14).abs() < 1e-9, "d: {}", p[3]);
    }

    #[test]
    fn scheme5_duplex_pressure() {
        // measured: a,b,c = 3.66 (sim 3.44, −6%), d,e = 2.035 (sim 1.97).
        let p = penalties(5);
        let a = p[0];
        let d = p[3];
        assert!((a - 2.5875 * 1.33).abs() < 1e-9, "a: {a}");
        assert!((a - 3.66).abs() / 3.66 < 0.07);
        assert!((d - 1.725 * 1.14).abs() < 1e-9, "d: {d}");
        assert!((d - 2.035).abs() / 2.035 < 0.05);
    }

    #[test]
    fn scheme6_duplex_pressure() {
        // measured: a,b,c = 3.935 (model 4.30, +9%); d,e measured 1.995 but
        // the model answers 3β·1.14 = 2.95 — the paper's scheme-6 incoming
        // row is internally inconsistent (three concurrent incoming flows
        // cannot all beat 2β; its own f = 1.01 shows the flows did not
        // fully overlap). Documented as a known deviation (see the `ext_infiniband` report).
        let p = penalties(6);
        assert!((p[0] - 2.5875 * 1.66).abs() < 1e-9);
        assert!((p[0] - 3.935).abs() / 3.935 < 0.10);
        assert!((p[3] - 2.5875 * 1.14).abs() < 1e-9);
    }

    #[test]
    fn single_comm_penalty_one() {
        assert_eq!(penalties(1), vec![1.0]);
    }

    /// Settles `first` fresh, then `arrived` warm, through one scratch;
    /// returns the warm answers sorted by id and the full penalties of the
    /// joint population (ids are positions in `first` then `arrived`).
    fn warm_answers(
        first: &[Communication],
        arrived: &[Communication],
    ) -> (Vec<(FlowId, Penalty)>, Vec<Penalty>) {
        let model = InfinibandModel::default();
        let keyed = |comms: &[Communication], base: u32| -> Vec<(FlowId, Communication)> {
            comms
                .iter()
                .copied()
                .zip(base..)
                .map(|(c, i)| (i, c))
                .collect()
        };
        let (first_keyed, arrived_keyed) = (keyed(first, 0), keyed(arrived, first.len() as u32));
        let mut scratch = model.new_scratch();
        let mut answers = Vec::new();
        let fresh = PopulationDelta {
            arrived: &first_keyed,
            fresh: true,
            ..PopulationDelta::default()
        };
        model.apply_delta(&fresh, scratch.as_mut(), &mut answers);
        answers.clear();
        let grow = PopulationDelta {
            arrived: &arrived_keyed,
            ..PopulationDelta::default()
        };
        model.apply_delta(&grow, scratch.as_mut(), &mut answers);
        answers.sort_unstable_by_key(|a| a.0);
        let all: Vec<Communication> = first.iter().chain(arrived).copied().collect();
        (answers, model.penalties(&all))
    }

    #[test]
    fn patch_reuses_unaffected_penalties_verbatim() {
        // An arrival at nodes {0,3} cannot reach the {5,6,7} island, even
        // through the duplex-coupling terms: the island goes unanswered.
        let prev = [
            Communication::new(0u32, 1u32, 10),
            Communication::new(5u32, 6u32, 10),
            Communication::new(5u32, 7u32, 10),
        ];
        let (answers, full) = warm_answers(&prev, &[Communication::new(0u32, 3u32, 10)]);
        assert_eq!(
            answers,
            vec![(0, full[0]), (3, full[3])],
            "the island must be reused"
        );
    }

    #[test]
    fn patch_tracks_duplex_reach() {
        // d(1→0) opposes a(0→1): its arrival changes a's tx_dx term even
        // though a's src/dst groups are otherwise untouched — the patch
        // must re-evaluate a, not reuse it.
        let prev = [
            Communication::new(0u32, 1u32, 10),
            Communication::new(0u32, 2u32, 10),
            Communication::new(0u32, 3u32, 10),
        ];
        let arrived = [
            Communication::new(1u32, 0u32, 10),
            Communication::new(2u32, 0u32, 10),
        ];
        let (answers, full) = warm_answers(&prev, &arrived);
        let answered: Vec<(FlowId, Penalty)> = (0..5).map(|i| (i, full[i as usize])).collect();
        assert_eq!(answers, answered);
        // sanity: the duplex pressure really did change a's penalty
        let before = InfinibandModel::default().penalties(&prev);
        assert!(full[0].value() > before[0].value());
    }

    #[test]
    #[should_panic(expected = "delta_tx")]
    fn rejects_negative_delta() {
        InfinibandModel::new(0.8, -0.1, 0.1);
    }
}
