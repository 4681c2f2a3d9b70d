//! Halo-exchange (stencil) workload: the nearest-neighbour pattern that
//! dominates structured-grid codes, a classic source of simultaneous
//! bidirectional NIC traffic (income/outgo conflicts).

use netbw_trace::Trace;

/// A 2-D Jacobi-style stencil: tasks arranged on a `px × py` process grid,
/// each iteration exchanges halos with the four neighbours (periodic
/// boundaries), then computes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StencilConfig {
    /// Process-grid width.
    pub px: usize,
    /// Process-grid height.
    pub py: usize,
    /// Local subdomain edge length (cells); halo payload per direction is
    /// `edge × 8` bytes.
    pub edge: usize,
    /// Number of iterations to trace.
    pub iterations: usize,
    /// Per-task compute rate, cell-updates/second.
    pub update_rate: f64,
}

impl StencilConfig {
    /// A small default: 4×2 grid, 4096-cell edges, 10 iterations.
    pub fn small() -> Self {
        StencilConfig {
            px: 4,
            py: 2,
            edge: 4096,
            iterations: 10,
            update_rate: 5e8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// On degenerate values.
    pub fn validate(&self) {
        assert!(self.px >= 1 && self.py >= 1, "grid must be non-empty");
        assert!(
            self.px * self.py >= 2,
            "need at least two tasks for communication"
        );
        assert!(self.edge >= 1 && self.iterations >= 1);
        assert!(self.update_rate > 0.0);
    }

    /// Number of tasks.
    pub fn tasks(&self) -> usize {
        self.px * self.py
    }

    fn rank(&self, x: usize, y: usize) -> usize {
        y * self.px + x
    }

    /// Generates the halo-exchange trace as four directional ring-shift
    /// phases (E, W, S, N). Each phase is a shift-by-one along a grid
    /// ring; under blocking rendezvous sends a full ring of simultaneous
    /// sends deadlocks, so — like `MPI_Sendrecv`-ordered production codes —
    /// the rank at coordinate 0 of the shifted dimension receives first.
    pub fn trace(&self) -> Trace {
        self.validate();
        let halo_bytes = (self.edge * 8) as u64;
        let compute = (self.edge * self.edge) as f64 / self.update_rate;
        let mut tr = Trace::with_tasks(self.tasks());
        for _ in 0..self.iterations {
            // (shift dim is x?, delta, coordinate that breaks the cycle)
            let phases: [(bool, isize); 4] = [(true, 1), (true, -1), (false, 1), (false, -1)];
            for (shift_x, delta) in phases {
                let extent = if shift_x { self.px } else { self.py };
                if extent <= 1 {
                    continue;
                }
                for y in 0..self.py {
                    for x in 0..self.px {
                        let me = self.rank(x, y);
                        let coord = if shift_x { x } else { y };
                        let step = |c: usize, d: isize| -> usize {
                            ((c as isize + d).rem_euclid(extent as isize)) as usize
                        };
                        let dst = if shift_x {
                            self.rank(step(x, delta), y)
                        } else {
                            self.rank(x, step(y, delta))
                        };
                        let src = if shift_x {
                            self.rank(step(x, -delta), y)
                        } else {
                            self.rank(x, step(y, -delta))
                        };
                        let task = tr.task_mut(me);
                        if coord == 0 {
                            task.recv(src as u32, halo_bytes);
                            task.send(dst as u32, halo_bytes);
                        } else {
                            task.send(dst as u32, halo_bytes);
                            task.recv(src as u32, halo_bytes);
                        }
                    }
                }
            }
            for y in 0..self.py {
                for x in 0..self.px {
                    tr.task_mut(self.rank(x, y)).compute(compute);
                }
            }
        }
        tr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_validates() {
        let tr = StencilConfig::small().trace();
        assert_eq!(tr.validate(), Ok(()));
        assert_eq!(tr.len(), 8);
    }

    #[test]
    fn halo_counts() {
        // Each task sends two halos per dimension of extent > 1.
        for (px, py, halos) in [(4, 4, 4), (4, 1, 2)] {
            let c = StencilConfig {
                px,
                py,
                ..StencilConfig::small()
            };
            let s = netbw_trace::TraceStats::of(&c.trace());
            assert_eq!(s.total_messages(), c.tasks() * halos * c.iterations);
        }
    }

    #[test]
    fn degenerate_dimension_still_exchanges_both_faces() {
        // 2×1 grid: east and west neighbours coincide but the two halo
        // faces are distinct messages.
        let c = StencilConfig {
            px: 2,
            py: 1,
            iterations: 1,
            ..StencilConfig::small()
        };
        let tr = c.trace();
        assert_eq!(tr.validate(), Ok(()));
        let s = netbw_trace::TraceStats::of(&tr);
        assert_eq!(s.total_messages(), 2 * 2);
    }

    #[test]
    fn message_counts_match_halo_structure() {
        let c = StencilConfig::small(); // 4×2 grid
        let tr = c.trace();
        let s = netbw_trace::TraceStats::of(&tr);
        assert_eq!(s.total_messages(), c.tasks() * 4 * c.iterations);
    }

    #[test]
    #[should_panic(expected = "at least two tasks")]
    fn rejects_single_task_grid() {
        StencilConfig {
            px: 1,
            py: 1,
            ..StencilConfig::small()
        }
        .validate();
    }
}
