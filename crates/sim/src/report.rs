//! Simulation results.

/// One message's lifecycle as replayed by the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MessageRecord {
    /// Sending rank.
    pub src_task: usize,
    /// Receiving rank.
    pub dst_task: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// When the sender posted `MPI_Send`.
    pub post_send: f64,
    /// When the receiver posted the matching receive.
    pub post_recv: f64,
    /// When payload transfer began (rendezvous: the later of the posts;
    /// eager: the send post).
    pub start: f64,
    /// When the payload was fully delivered.
    pub end: f64,
    /// True when both endpoints shared a node (no NIC involved).
    pub intra_node: bool,
    /// True when the eager protocol applied.
    pub eager: bool,
}

impl MessageRecord {
    /// The communication time as seen at the source — the paper's `T` for
    /// a task's communication (blocking `MPI_Send` duration; eager sends
    /// count their local copy time).
    pub fn send_duration(&self) -> f64 {
        if self.eager {
            // the sender only paid the local copy; it did not block
            0.0f64.max(self.start - self.post_send)
        } else {
            self.end - self.post_send
        }
    }
}

/// Per-task accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskReport {
    /// Task completion time (when its trace ran out).
    pub finish: f64,
    /// Total declared compute time executed.
    pub compute_time: f64,
    /// Total time blocked in `MPI_Send` (plus eager copy costs).
    pub send_time: f64,
    /// Total time blocked in receives.
    pub recv_time: f64,
    /// Total time waiting at barriers.
    pub barrier_time: f64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
}

/// Full result of replaying a trace.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Per-task accounting, indexed by rank.
    pub tasks: Vec<TaskReport>,
    /// Every message, in send-post order.
    pub messages: Vec<MessageRecord>,
}

impl SimReport {
    /// Application makespan (last task finish).
    pub fn makespan(&self) -> f64 {
        self.tasks.iter().map(|t| t.finish).fold(0.0, f64::max)
    }

    /// The paper's per-task sum of *send* communication times (`Sm`/`Sp`
    /// in §VI.B are computed over the task's communications, measured at
    /// the source like the §IV.B methodology).
    pub fn task_send_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.tasks.len()];
        for m in &self.messages {
            sums[m.src_task] += m.send_duration();
        }
        sums
    }

    /// Effective penalty of each inter-node message relative to an
    /// uncontended transfer at `ref_bandwidth` bytes/s — the paper
    /// simulator's per-communication penalty output. Intra-node messages
    /// report 1.
    pub fn message_penalties(&self, ref_bandwidth: f64) -> Vec<f64> {
        assert!(ref_bandwidth > 0.0, "reference bandwidth must be positive");
        self.messages
            .iter()
            .map(|m| {
                if m.intra_node || m.bytes == 0 {
                    1.0
                } else {
                    let tref = m.bytes as f64 / ref_bandwidth;
                    ((m.end - m.start) / tref).max(1.0)
                }
            })
            .collect()
    }

    /// Mean effective penalty of each task's sent messages (the "average
    /// penality" column of the paper's simulator output, §VI.A). Tasks
    /// that send nothing report 1.
    pub fn task_mean_penalties(&self, ref_bandwidth: f64) -> Vec<f64> {
        let per_msg = self.message_penalties(ref_bandwidth);
        let mut sum = vec![0.0; self.tasks.len()];
        let mut count = vec![0usize; self.tasks.len()];
        for (m, p) in self.messages.iter().zip(&per_msg) {
            if !m.intra_node {
                sum[m.src_task] += p;
                count[m.src_task] += 1;
            }
        }
        sum.iter()
            .zip(&count)
            .map(|(&s, &c)| if c == 0 { 1.0 } else { s / c as f64 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_sums_attribute_to_sources() {
        let report = SimReport {
            tasks: vec![TaskReport::default(); 2],
            messages: vec![
                MessageRecord {
                    src_task: 0,
                    dst_task: 1,
                    bytes: 10,
                    post_send: 0.0,
                    post_recv: 0.0,
                    start: 0.0,
                    end: 2.0,
                    intra_node: false,
                    eager: false,
                },
                MessageRecord {
                    src_task: 1,
                    dst_task: 0,
                    bytes: 10,
                    post_send: 1.0,
                    post_recv: 0.5,
                    start: 1.0,
                    end: 1.5,
                    intra_node: false,
                    eager: false,
                },
            ],
        };
        let sums = report.task_send_sums();
        assert_eq!(sums, vec![2.0, 0.5]);
    }

    #[test]
    fn eager_send_duration_is_copy_only() {
        let m = MessageRecord {
            src_task: 0,
            dst_task: 1,
            bytes: 10,
            post_send: 1.0,
            post_recv: 5.0,
            start: 1.0,
            end: 9.0,
            intra_node: false,
            eager: true,
        };
        assert_eq!(m.send_duration(), 0.0);
    }

    #[test]
    fn penalties_from_message_records() {
        let report = SimReport {
            tasks: vec![TaskReport::default(); 2],
            messages: vec![
                MessageRecord {
                    src_task: 0,
                    dst_task: 1,
                    bytes: 100,
                    post_send: 0.0,
                    post_recv: 0.0,
                    start: 0.0,
                    end: 2.0, // 100 B in 2 s at ref 100 B/s → penalty 2
                    intra_node: false,
                    eager: false,
                },
                MessageRecord {
                    src_task: 0,
                    dst_task: 1,
                    bytes: 100,
                    post_send: 2.0,
                    post_recv: 2.0,
                    start: 2.0,
                    end: 3.0, // penalty 1
                    intra_node: false,
                    eager: false,
                },
                MessageRecord {
                    src_task: 1,
                    dst_task: 0,
                    bytes: 100,
                    post_send: 0.0,
                    post_recv: 0.0,
                    start: 0.0,
                    end: 9.0,
                    intra_node: true, // intra-node → penalty 1 regardless
                    eager: false,
                },
            ],
        };
        let p = report.message_penalties(100.0);
        assert_eq!(p, vec![2.0, 1.0, 1.0]);
        let task_means = report.task_mean_penalties(100.0);
        assert_eq!(task_means[0], 1.5);
        assert_eq!(task_means[1], 1.0); // only an intra-node send
    }

    #[test]
    fn makespan_is_last_finish() {
        let r = SimReport {
            tasks: vec![
                TaskReport {
                    finish: 3.0,
                    ..Default::default()
                },
                TaskReport {
                    finish: 5.0,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.makespan(), 5.0);
    }
}
