//! Batch solver for whole communication schemes (the paper's
//! synchronized-start methodology, §IV.B).
//!
//! A thin layer over the incremental [`FluidNetwork`]: every transfer is
//! keyed by its input index ([`TransferKey`]) and inserted before time
//! advances, so the batch path inherits the slab-backed engine's
//! incremental penalty patching for free — each completion batch reaches
//! the model as a keyed delta of departed ids.

use crate::network::{FluidNetwork, TransferKey};
use crate::params::NetworkParams;
use netbw_core::PenaltyModel;
use netbw_graph::{CommGraph, Communication};

/// One piecewise-constant penalty segment of a transfer's lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Segment start (absolute time).
    pub t0: f64,
    /// Segment end (absolute time).
    pub t1: f64,
    /// Penalty in force during the segment.
    pub penalty: f64,
}

impl Phase {
    /// Segment duration.
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Solved timing of one communication.
#[derive(Debug, Clone)]
pub struct TransferResult {
    /// Start time (as submitted).
    pub start: f64,
    /// Completion time (absolute).
    pub completion: f64,
    /// Penalty history (always recorded by the batch solver).
    pub phases: Vec<Phase>,
}

impl TransferResult {
    /// Total elapsed time, the paper's `Ti`.
    pub fn elapsed(&self) -> f64 {
        self.completion - self.start
    }

    /// The *effective* penalty over the whole transfer:
    /// `elapsed / Tref` — comparable to the paper's measured `Pi = Ti/Tref`.
    pub fn effective_penalty(&self, params: &NetworkParams, size: u64) -> f64 {
        let tref = params.reference_time(size);
        if tref <= 0.0 {
            1.0
        } else {
            self.elapsed() / tref
        }
    }
}

/// Batch fluid solver: all communications of a scheme start at time zero
/// (the paper's synchronized-start methodology, §IV.B).
///
/// The solver owns one [`FluidNetwork`] and *reuses* it across solves
/// (each solve starts with [`FluidNetwork::reset`]): the slab storage, the
/// penalty cache and the model's scratch state stay allocated, so sweeping
/// a battery of hundreds of schemes through one solver pays construction
/// once. Reset networks answer bit-for-bit like fresh ones, which the
/// sweep equivalence tests in `netbw-eval` pin.
pub struct FluidSolver<M> {
    net: FluidNetwork<M>,
}

impl<M: PenaltyModel> FluidSolver<M> {
    /// Creates a solver from a model and base network parameters.
    pub fn new(model: M, params: NetworkParams) -> Self {
        FluidSolver {
            net: FluidNetwork::new(model, params).with_phase_recording(),
        }
    }

    /// Switches the underlying network to the conflict-component-sharded
    /// engine ([`FluidNetwork::with_sharded`]); results are bit-for-bit
    /// unchanged.
    pub fn with_sharded(mut self) -> Self {
        self.net = self.net.with_sharded();
        self
    }

    /// The network parameters in use.
    pub fn params(&self) -> &NetworkParams {
        self.net.params()
    }

    /// The model in use.
    pub fn model(&self) -> &M {
        self.net.model()
    }

    /// Solves a scheme with all communications starting at time 0. The
    /// result vector is aligned with `graph.comms()`.
    pub fn solve(&mut self, graph: &CommGraph) -> Vec<TransferResult> {
        self.solve_with_starts(graph.comms(), &vec![0.0; graph.len()])
    }

    /// Solves a set of communications with explicit start times.
    pub fn solve_with_starts(
        &mut self,
        comms: &[Communication],
        starts: &[f64],
    ) -> Vec<TransferResult> {
        assert_eq!(
            comms.len(),
            starts.len(),
            "one start time per communication"
        );
        self.net.reset();
        // Insertion must respect time order for the network's invariant.
        let mut order: Vec<usize> = (0..comms.len()).collect();
        order.sort_by(|&a, &b| starts[a].total_cmp(&starts[b]));
        // FluidNetwork disallows adding after time has advanced past the
        // start; since nothing advances during adds, any order works, but
        // keep it sorted for clarity.
        for &i in &order {
            self.net.add(i as TransferKey, comms[i], starts[i]);
        }
        let done = self.net.run_to_completion();
        let mut out: Vec<Option<TransferResult>> = vec![None; comms.len()];
        for d in done {
            let i = d.key as usize;
            out[i] = Some(TransferResult {
                start: starts[i],
                completion: d.completion,
                phases: d.phases,
            });
        }
        out.into_iter()
            .map(|r| r.expect("every transfer completes"))
            .collect()
    }

    /// Per-communication effective penalties of a scheme solved from a
    /// synchronized start.
    pub fn effective_penalties(&mut self, graph: &CommGraph) -> Vec<f64> {
        let results = self.solve(graph);
        results
            .iter()
            .zip(graph.comms())
            .map(|(r, c)| r.effective_penalty(self.net.params(), c.size))
            .collect()
    }
}

/// One-shot convenience: completion times of a scheme under `model`,
/// starting synchronized at time 0.
pub fn solve_scheme<M: PenaltyModel>(
    model: M,
    params: NetworkParams,
    graph: &CommGraph,
) -> Vec<TransferResult> {
    FluidSolver::new(model, params).solve(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbw_core::{GigabitEthernetModel, MyrinetModel};
    use netbw_graph::schemes;

    /// Paper Fig. 7, MK1 predicted column (tref = 0.0354 s): the solver
    /// must reproduce a,b = 2.5·tref; c,g = 2·tref; d,f = 1.5·tref; e = tref.
    #[test]
    fn mk1_fluid_times_match_paper() {
        let mut solver = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let mk1 = schemes::mk1().with_uniform_size(1000);
        let res = solver.solve(&mk1);
        let by_label: std::collections::HashMap<&str, f64> = mk1
            .labels()
            .iter()
            .map(String::as_str)
            .zip(res.iter().map(|r| r.completion))
            .collect();
        let tref = 1000.0;
        assert!((by_label["a"] - 2.5 * tref).abs() < 1e-6);
        assert!((by_label["b"] - 2.5 * tref).abs() < 1e-6);
        assert!((by_label["c"] - 2.0 * tref).abs() < 1e-6);
        assert!((by_label["g"] - 2.0 * tref).abs() < 1e-6);
        assert!((by_label["d"] - 1.5 * tref).abs() < 1e-6);
        assert!((by_label["f"] - 1.5 * tref).abs() < 1e-6);
        assert!((by_label["e"] - 1.0 * tref).abs() < 1e-6);
    }

    /// Paper Fig. 7, MK2 predicted column (tref = 0.0354 s):
    /// a–d = 0.1758, e = 0.0531, f,g = 0.0844, h,i = 0.1003, j = 0.0726.
    #[test]
    fn mk2_fluid_times_match_paper() {
        let mut solver = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let mk2 = schemes::mk2().with_uniform_size(10_000);
        let res = solver.solve(&mk2);
        let tref = 10_000.0;
        let want = [
            ("a", 4.9667), // = 0.1758 / 0.0354
            ("b", 4.9667),
            ("c", 4.9667),
            ("d", 4.9667),
            ("e", 1.5),
            ("f", 2.3833),
            ("g", 2.3833),
            ("h", 2.8333),
            ("i", 2.8333),
            ("j", 2.05),
        ];
        for (label, mult) in want {
            let id = mk2.by_label(label).unwrap();
            let got = res[id.idx()].completion / tref;
            assert!(
                (got - mult).abs() < 0.01,
                "{label}: got {got:.4}, want {mult:.4}"
            );
        }
    }

    #[test]
    fn gige_constant_penalty_schemes_scale_linearly() {
        // outgoing ladder: symmetric, penalties constant until the common
        // finish → completion = k·β·tref.
        let mut solver = FluidSolver::new(GigabitEthernetModel::default(), NetworkParams::unit());
        for k in 2..=4 {
            let g = schemes::outgoing_ladder(k).with_uniform_size(100);
            let res = solver.solve(&g);
            for r in &res {
                assert!(
                    (r.completion - k as f64 * 0.75 * 100.0).abs() < 1e-6,
                    "k = {k}: {}",
                    r.completion
                );
            }
        }
    }

    #[test]
    fn effective_penalties_match_fig6_for_symmetric_cases() {
        // e in MK1 never shares: effective penalty exactly 1.
        let mut solver = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let mk1 = schemes::mk1().with_uniform_size(500);
        let p = solver.effective_penalties(&mk1);
        let e = mk1.by_label("e").unwrap();
        assert!((p[e.idx()] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_shifts_but_does_not_contend() {
        let params = NetworkParams::new(1.0, 5.0);
        let mut solver = FluidSolver::new(MyrinetModel::default(), params);
        let g = schemes::single().with_uniform_size(100);
        let res = solver.solve(&g);
        assert!((res[0].completion - 105.0).abs() < 1e-9);
        // effective penalty 1: elapsed / tref = 105/105
        assert!((res[0].effective_penalty(&params, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn staggered_starts_are_respected() {
        let mut solver = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let comms = vec![
            netbw_graph::Communication::new(0u32, 1u32, 100),
            netbw_graph::Communication::new(0u32, 2u32, 100),
        ];
        let res = solver.solve_with_starts(&comms, &[0.0, 50.0]);
        assert!((res[0].completion - 150.0).abs() < 1e-9);
        assert!((res[1].completion - 200.0).abs() < 1e-9);
        assert_eq!(res[1].start, 50.0);
        assert!((res[1].elapsed() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn phases_partition_the_transfer_lifetime() {
        let mut solver = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let mk1 = schemes::mk1().with_uniform_size(300);
        for r in solver.solve(&mk1) {
            assert!(!r.phases.is_empty());
            assert!((r.phases.first().unwrap().t0 - r.start).abs() < 1e-9);
            assert!((r.phases.last().unwrap().t1 - r.completion).abs() < 1e-9);
            for w in r.phases.windows(2) {
                assert!((w[0].t1 - w[1].t0).abs() < 1e-9, "gap between phases");
            }
        }
    }

    #[test]
    fn reused_solver_matches_fresh_solvers_bit_for_bit() {
        // One solver swept across a battery must answer exactly like a
        // fresh solver per scheme: the reset path may not leak any state
        // (slab keys, cache validity, model scratch) between solves.
        let mut reused = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let battery = [
            schemes::mk1().with_uniform_size(300),
            schemes::fig5().with_uniform_size(777),
            schemes::mk2().with_uniform_size(10_000),
            schemes::mk1().with_uniform_size(300),
        ];
        for g in &battery {
            let mut fresh = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
            let a = reused.solve(g);
            let b = fresh.solve(g);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.completion, y.completion, "{}", g.name());
                assert_eq!(x.phases, y.phases, "{}", g.name());
            }
        }
    }

    #[test]
    fn sharded_solver_matches_default_bit_for_bit() {
        let mut plain = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let mut sharded =
            FluidSolver::new(MyrinetModel::default(), NetworkParams::unit()).with_sharded();
        let battery = [
            schemes::mk1().with_uniform_size(300),
            schemes::fig5().with_uniform_size(777),
            schemes::mk2().with_uniform_size(10_000),
        ];
        for g in &battery {
            let a = plain.solve(g);
            let b = sharded.solve(g);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.completion.to_bits(),
                    y.completion.to_bits(),
                    "{}",
                    g.name()
                );
                assert_eq!(x.phases, y.phases, "{}", g.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one start time per communication")]
    fn start_length_mismatch_panics() {
        let mut solver = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        solver.solve_with_starts(&[netbw_graph::Communication::new(0u32, 1u32, 1)], &[]);
    }
}
