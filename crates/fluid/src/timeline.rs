//! Timelines derived from solved transfers: per-communication rate
//! series and aggregate network utilization over time.
//!
//! The paper's simulator reports "the duration of all events and total
//! time, the kind of conflicts, the average penality" (§VI.A); timelines
//! make the *when* visible — which phase of an application saturates the
//! fabric, and when the model predicts the penalty spikes.

use crate::solver::TransferResult;

/// A piecewise-constant series of `(t_start, t_end, value)` segments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepSeries {
    /// Segments in increasing time order, non-overlapping.
    pub segments: Vec<(f64, f64, f64)>,
}

impl StepSeries {
    /// The value at time `t` (0 outside all segments; boundaries belong to
    /// the later segment). Binary search over the sorted segment starts,
    /// so sampling a long series is O(log segments) per probe.
    pub fn at(&self, t: f64) -> f64 {
        let idx = self.segments.partition_point(|&(a, _, _)| a <= t);
        if idx == 0 {
            return 0.0;
        }
        let (a, b, v) = self.segments[idx - 1];
        debug_assert!(a <= t);
        if t < b {
            v
        } else {
            0.0
        }
    }

    /// Maximum value over all segments (0 when empty).
    pub fn max(&self) -> f64 {
        self.segments.iter().map(|s| s.2).fold(0.0, f64::max)
    }
}

/// The penalty of one transfer over time, from its recorded phases.
pub fn penalty_series(result: &TransferResult) -> StepSeries {
    StepSeries {
        segments: result
            .phases
            .iter()
            .map(|p| (p.t0, p.t1, p.penalty))
            .collect(),
    }
}

/// Aggregate network throughput over time, in units of the uncontended
/// single-stream bandwidth: each active transfer contributes `1/penalty`.
/// Breakpoints are the union of all phase boundaries.
pub fn utilization(results: &[TransferResult]) -> StepSeries {
    // One signed rate edge per phase boundary, swept in time order with a
    // running sum — O(P log P) over P phases, where the old implementation
    // re-scanned every phase per breakpoint window (quadratic).
    let total_phases: usize = results.iter().map(|r| r.phases.len()).sum();
    let mut edges: Vec<(f64, f64)> = Vec::with_capacity(2 * total_phases);
    for r in results {
        for p in &r.phases {
            let rate = 1.0 / p.penalty;
            edges.push((p.t0, rate));
            edges.push((p.t1, -rate));
        }
    }
    edges.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut segments = Vec::new();
    let mut value = 0.0;
    let mut i = 0;
    while i < edges.len() {
        let cut = edges[i].0;
        // fold the whole dedup run (consecutive edges within the cut
        // tolerance) into the running sum before emitting the window
        value += edges[i].1;
        let mut j = i + 1;
        while j < edges.len() && (edges[j].0 - edges[j - 1].0).abs() < 1e-12 {
            value += edges[j].1;
            j += 1;
        }
        if j < edges.len() {
            let next = edges[j].0;
            if next - cut >= 1e-15 {
                segments.push((cut, next, value));
            }
        }
        i = j;
    }
    StepSeries { segments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NetworkParams;
    use crate::solver::FluidSolver;
    use netbw_core::MyrinetModel;
    use netbw_graph::schemes;

    /// The series' integral over its whole span.
    fn integral(series: &StepSeries) -> f64 {
        series.segments.iter().map(|&(a, b, v)| (b - a) * v).sum()
    }

    #[test]
    fn single_transfer_utilization_is_one() {
        let mut solver = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let g = schemes::single().with_uniform_size(100);
        let res = solver.solve(&g);
        let u = utilization(&res);
        assert!((u.at(50.0) - 1.0).abs() < 1e-12);
        assert!((integral(&u) - 100.0).abs() < 1e-9); // bytes in bw units
        assert_eq!(u.at(1000.0), 0.0);
    }

    #[test]
    fn two_sharing_transfers_keep_aggregate_at_one() {
        // two comms from one node under the Myrinet model: each rate 1/2
        let mut solver = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let g = schemes::outgoing_ladder(2).with_uniform_size(100);
        let res = solver.solve(&g);
        let u = utilization(&res);
        assert!((u.at(10.0) - 1.0).abs() < 1e-12, "{}", u.at(10.0));
        assert!((integral(&u) - 200.0).abs() < 1e-6);
    }

    #[test]
    fn penalty_series_tracks_phases() {
        // MK1's `a` has two phases: penalty 3 then 2
        let mut solver = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let mk1 = schemes::mk1().with_uniform_size(1000);
        let res = solver.solve(&mk1);
        let a = mk1.by_label("a").unwrap();
        let s = penalty_series(&res[a.idx()]);
        assert_eq!(s.segments.len(), 2);
        assert_eq!(s.at(0.0), 3.0);
        assert!((s.max() - 3.0).abs() < 1e-12);
        let t_mid = 0.5 * (s.segments[1].0 + s.segments[1].1);
        assert_eq!(s.at(t_mid), 2.0);
    }

    #[test]
    fn at_binary_search_handles_gaps_and_boundaries() {
        let s = StepSeries {
            segments: vec![(0.0, 1.0, 2.0), (1.0, 2.0, 3.0), (5.0, 6.0, 4.0)],
        };
        assert_eq!(s.at(-0.5), 0.0, "before the series");
        assert_eq!(s.at(0.0), 2.0, "boundary belongs to the later segment");
        assert_eq!(s.at(1.0), 3.0);
        assert_eq!(s.at(1.5), 3.0);
        assert_eq!(s.at(2.0), 0.0, "gap after a closing boundary");
        assert_eq!(s.at(3.0), 0.0, "inside the gap");
        assert_eq!(s.at(5.5), 4.0);
        assert_eq!(s.at(6.0), 0.0, "past the series");
        assert_eq!(StepSeries::default().at(0.0), 0.0, "empty series");
    }

    #[test]
    fn utilization_reflects_parallel_components() {
        // MK1 starts with three independent components running at once:
        // rates 1/3+1/3 (a,b) + 1/2+1/2 (c,g) + 1/1.5+1/1.5 (d,f) + 1 (e)
        let mut solver = FluidSolver::new(MyrinetModel::default(), NetworkParams::unit());
        let mk1 = schemes::mk1().with_uniform_size(1000);
        let res = solver.solve(&mk1);
        let u = utilization(&res);
        let expect = 2.0 / 3.0 + 1.0 + 2.0 / 1.5 + 1.0;
        assert!(
            (u.at(1.0) - expect).abs() < 1e-9,
            "{} vs {expect}",
            u.at(1.0)
        );
    }
}
