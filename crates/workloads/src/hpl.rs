//! HPL (High-Performance Linpack) trace generation.
//!
//! HPL factorises a dense N×N system by blocked LU with partial pivoting:
//! at iteration `k` the owner of panel `k` (block-cyclic over tasks)
//! factorises an `m×NB` panel (`m = N − k·NB`), the panel travels along the
//! ring — task `n` sends to task `n + 1`, the paper's communication scheme
//! — and every task updates its share of the trailing submatrix with DGEMM.
//!
//! Compute times come from a flops model (`flops / dgemm_rate`); message
//! sizes are the panel payloads (`m × NB × 8` bytes + pivoting metadata).
//! This reproduces the *shape* that matters for bandwidth-sharing studies:
//! interleaved compute and ring communication with sizes shrinking over
//! iterations, several tasks per node contending for the NIC.

use netbw_trace::{Trace, TraceStats};

/// Configuration of an HPL run to trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HplConfig {
    /// Matrix order N.
    pub n: usize,
    /// Block size NB.
    pub nb: usize,
    /// Number of MPI tasks P (1-D block-cyclic column distribution).
    pub tasks: usize,
    /// Effective DGEMM rate per task, flops/second.
    pub dgemm_rate: f64,
    /// Effective panel-factorisation rate, flops/second (memory-bound,
    /// typically lower than DGEMM).
    pub panel_rate: f64,
}

impl HplConfig {
    /// The paper's configuration: N = 20500, 16 tasks on 2-core Opteron
    /// nodes (~3.2 GFLOP/s effective DGEMM per core in 2008).
    pub fn paper() -> Self {
        HplConfig {
            n: 20500,
            nb: 120,
            tasks: 16,
            dgemm_rate: 3.2e9,
            panel_rate: 1.2e9,
        }
    }

    /// A small configuration for tests and examples.
    pub fn small() -> Self {
        HplConfig {
            n: 2048,
            nb: 128,
            tasks: 4,
            dgemm_rate: 3.2e9,
            panel_rate: 1.2e9,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// On degenerate values.
    pub fn validate(&self) {
        assert!(self.n >= self.nb && self.nb >= 1, "need n >= nb >= 1");
        assert!(self.tasks >= 2, "need at least two tasks");
        assert!(self.dgemm_rate > 0.0 && self.panel_rate > 0.0);
    }

    /// Number of panel iterations.
    pub fn iterations(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// Panel payload in bytes at iteration `k` (column panel of the
    /// trailing matrix, f64 entries, plus pivot rows).
    fn panel_bytes(&self, k: usize) -> u64 {
        let m = self.n.saturating_sub(k * self.nb);
        let nb = self.nb.min(m);
        ((m * nb + nb) * 8) as u64
    }

    /// Panel factorisation flops at iteration `k` (≈ m·NB² for the
    /// unblocked panel).
    fn panel_flops(&self, k: usize) -> f64 {
        let m = self.n.saturating_sub(k * self.nb) as f64;
        let nb = self.nb as f64;
        m * nb * nb
    }

    /// Trailing-update flops per task at iteration `k`
    /// (2·m·m·NB spread over the tasks).
    fn update_flops_per_task(&self, k: usize) -> f64 {
        let m = self.n.saturating_sub((k + 1) * self.nb) as f64;
        let nb = self.nb as f64;
        2.0 * m * m * nb / self.tasks as f64
    }

    /// Generates the MPE-style event trace of the run.
    ///
    /// Per iteration `k` with owner `o = k mod P`:
    /// * `o` computes the panel factorisation, then sends the panel to
    ///   `o+1`;
    /// * every other task in ring order receives from its predecessor and
    ///   (unless it is the last, `o−1`) forwards to its successor;
    /// * every task then computes its trailing update.
    pub fn trace(&self) -> Trace {
        self.validate();
        let p = self.tasks;
        let mut tr = Trace::with_tasks(p);
        for k in 0..self.iterations() {
            let owner = k % p;
            let bytes = self.panel_bytes(k);
            let t_panel = self.panel_flops(k) / self.panel_rate;
            let t_update = self.update_flops_per_task(k) / self.dgemm_rate;

            // ring positions: owner, owner+1, …, owner+p−1 (mod p)
            for pos in 0..p {
                let rank = (owner + pos) % p;
                let next = (rank + 1) % p;
                let prev = (rank + p - 1) % p;
                let task = tr.task_mut(rank);
                if pos == 0 {
                    task.compute(t_panel);
                    if bytes > 0 {
                        task.send(next as u32, bytes);
                    }
                } else {
                    if bytes > 0 {
                        task.recv(prev as u32, bytes);
                        if pos != p - 1 {
                            task.send(next as u32, bytes);
                        }
                    }
                }
                task.compute(t_update);
            }
        }
        tr
    }

    /// Static statistics of the generated trace (for reports).
    pub fn stats(&self) -> HplTraceStats {
        let tr = self.trace();
        let s = TraceStats::of(&tr);
        HplTraceStats {
            iterations: self.iterations(),
            total_bytes: s.total_bytes(),
            total_messages: s.total_messages(),
            total_compute: s.total_compute(),
        }
    }
}

/// Summary statistics of an HPL trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HplTraceStats {
    /// Number of LU iterations.
    pub iterations: usize,
    /// Total payload bytes across all messages.
    pub total_bytes: u64,
    /// Total number of messages.
    pub total_messages: usize,
    /// Total declared compute seconds (all tasks).
    pub total_compute: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let c = HplConfig::paper();
        c.validate();
        assert_eq!(c.iterations(), 171); // ceil(20500/120)
        assert_eq!(c.panel_bytes(0), ((20500 * 120 + 120) * 8) as u64);
        // last iteration panel is ragged: m = 20500 − 170*120 = 100 < NB
        let last = c.iterations() - 1;
        assert_eq!(c.panel_bytes(last), ((100 * 100 + 100) * 8) as u64);
    }

    #[test]
    fn trace_validates_as_matched_mpi_program() {
        let tr = HplConfig::small().trace();
        assert_eq!(tr.validate(), Ok(()));
    }

    #[test]
    fn paper_trace_validates_too() {
        let tr = HplConfig::paper().trace();
        assert_eq!(tr.validate(), Ok(()));
    }

    #[test]
    fn ring_structure_each_task_sends_to_successor_only() {
        use netbw_trace::Event;
        let c = HplConfig::small();
        let tr = c.trace();
        for (rank, t) in tr.tasks.iter().enumerate() {
            let next = ((rank + 1) % c.tasks) as u32;
            for e in &t.events {
                if let Event::Send { dst, .. } = e {
                    assert_eq!(dst.0, next, "task {rank} must only send to its successor");
                }
            }
        }
    }

    #[test]
    fn message_count_is_ring_pipelined() {
        // each iteration moves the panel P−1 times
        let c = HplConfig::small();
        let s = c.stats();
        assert_eq!(s.total_messages, c.iterations() * (c.tasks - 1));
        assert_eq!(s.iterations, c.iterations());
    }

    #[test]
    fn sizes_shrink_monotonically() {
        let c = HplConfig::paper();
        for k in 1..c.iterations() {
            assert!(c.panel_bytes(k) <= c.panel_bytes(k - 1));
        }
    }

    #[test]
    fn compute_dominates_early_comm_late() {
        // classic HPL profile: compute-bound at the start; by the end the
        // per-iteration update shrinks cubically while messages shrink
        // linearly, so communication gains relative weight.
        let c = HplConfig::paper();
        let t_up_first = c.update_flops_per_task(0) / c.dgemm_rate;
        let bytes_first = c.panel_bytes(0) as f64;
        let t_up_late = c.update_flops_per_task(c.iterations() - 2) / c.dgemm_rate;
        let bytes_late = c.panel_bytes(c.iterations() - 2) as f64;
        assert!(t_up_first / bytes_first > 10.0 * (t_up_late / bytes_late).max(1e-30));
    }

    #[test]
    #[should_panic(expected = "at least two tasks")]
    fn rejects_single_task() {
        HplConfig {
            tasks: 1,
            ..HplConfig::small()
        }
        .validate();
    }
}
