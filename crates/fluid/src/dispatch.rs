//! How the sharded engine hands per-shard settles to an executor.
//!
//! [`crate::FluidNetwork::with_sharded`] splits one settle barrier into
//! independent per-shard jobs — one per dirty shard, each staging its
//! population, refreshing its penalty cache and re-anchoring its affected
//! flows — handed to the executor in a single round. This crate cannot
//! depend on `netbw-eval` (the dependency runs the other way), so the
//! engine talks to whatever executor the caller supplies through the tiny
//! [`SettleDispatch`] trait: `netbw-eval` implements it for its
//! work-stealing `SweepExecutor`, and the built-in [`SerialDispatch`] runs
//! the jobs in order on the calling thread (the default, and the honest
//! single-core baseline).
//!
//! A [`SettleJob`] is a one-shot closure over `&mut` shard state borrowed
//! for the duration of one settle barrier — which is why the dispatch
//! contract is "run every job exactly once, then return": the engine's
//! borrows end when `run_settles` does. Implementations must propagate a
//! panicking job to the caller (the `SweepExecutor` pool catches it on
//! whichever thread ran the job and re-raises it on the caller once every
//! job has run); swallowing one would leave a shard half-refreshed behind
//! a barrier that claims it settled.

/// One shard's settle job: a one-shot closure, boxed so dispatchers can
/// move it between threads. The borrow it captures lives only as long as
/// the enclosing [`SettleDispatch::run_settles`] call.
pub struct SettleJob<'scope>(Option<Box<dyn FnOnce() + Send + 'scope>>);

impl<'scope> SettleJob<'scope> {
    /// Wraps a shard's settle into a dispatchable job.
    pub fn new(f: impl FnOnce() + Send + 'scope) -> Self {
        SettleJob(Some(Box::new(f)))
    }

    /// Runs the job. Idempotent: the closure runs at most once, so a
    /// defensive double-run is a no-op rather than a double refresh.
    pub fn run(&mut self) {
        if let Some(f) = self.0.take() {
            f();
        }
    }

    /// Whether [`Self::run`] has already consumed the closure.
    fn is_done(&self) -> bool {
        self.0.is_none()
    }
}

impl std::fmt::Debug for SettleJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SettleJob")
            .field("done", &self.is_done())
            .finish()
    }
}

/// An executor for one settle barrier's worth of independent shard jobs.
///
/// Contract: every job in `jobs` runs exactly once before `run_settles`
/// returns, and a panicking job propagates to the caller (it must not be
/// swallowed — the settle barrier above relies on "returned normally"
/// meaning "every shard refreshed").
pub trait SettleDispatch: Send + Sync {
    /// Runs every job to completion.
    fn run_settles(&self, jobs: &mut [SettleJob<'_>]);
}

/// Runs the jobs in order on the calling thread — the default dispatcher,
/// and the reference behaviour every parallel dispatcher must match
/// bit-for-bit (trivially true: the jobs are independent).
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialDispatch;

impl SettleDispatch for SerialDispatch {
    fn run_settles(&self, jobs: &mut [SettleJob<'_>]) {
        for job in jobs {
            job.run();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_dispatch_runs_every_job_once() {
        let counter = AtomicUsize::new(0);
        let mut jobs: Vec<SettleJob> = (0..5)
            .map(|_| {
                SettleJob::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        SerialDispatch.run_settles(&mut jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 5);
        assert!(jobs.iter().all(SettleJob::is_done));
        // double dispatch is a no-op, not a double refresh
        SerialDispatch.run_settles(&mut jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn jobs_can_mutate_borrowed_state() {
        let mut cells = [0u64, 0, 0];
        let mut jobs: Vec<SettleJob> = cells
            .iter_mut()
            .enumerate()
            .map(|(i, c)| SettleJob::new(move || *c = i as u64 + 1))
            .collect();
        SerialDispatch.run_settles(&mut jobs);
        drop(jobs);
        assert_eq!(cells, [1, 2, 3]);
    }
}
