//! Failure modes of the executor's persistent worker pool.
//!
//! The pool outlives every round, so what one round leaves behind is seen
//! by the next: a panicking job must not take a worker (or the pool) with
//! it, a round issued from inside a pool job or while another thread's
//! round holds the pool must run inline rather than wait for the pool,
//! and no job may ever be lost or run twice across many back-to-back
//! rounds. Every test that could deadlock waits with a timeout, so a
//! deadlock fails the test instead of hanging it.

use netbw_core::MyrinetModel;
use netbw_eval::SweepExecutor;
use netbw_fluid::{FluidNetwork, NetworkParams, SettleDispatch, SettleJob};
use netbw_graph::Communication;
use proptest::prelude::*;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

/// Runs `f` on its own thread and returns its result (re-raising its
/// panic), failing the test if it has not finished within 30 s: a
/// deadlocked pool never returns.
fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let slot = Arc::new((Mutex::new(None), Condvar::new()));
    let done = Arc::clone(&slot);
    let runner = std::thread::spawn(move || {
        let r = panic::catch_unwind(AssertUnwindSafe(f));
        let (cell, wake) = &*done;
        *cell.lock().expect("result slot") = Some(r);
        wake.notify_all();
    });
    let (cell, wake) = &*slot;
    let r = wake
        .wait_timeout_while(
            cell.lock().expect("result slot"),
            Duration::from_secs(30),
            |r| r.is_none(),
        )
        .expect("result slot")
        .0
        .take()
        .expect("deadlock: the round never finished");
    runner.join().expect("the runner caught every panic");
    r.unwrap_or_else(|payload| panic::resume_unwind(payload))
}

/// A deterministic, float-heavy per-item function: any index mix-up or
/// double-processing shows up as a bit-level mismatch.
fn knead(x: u64, i: usize) -> f64 {
    let a = (x as f64).sqrt() + (i as f64 + 1.0).ln();
    (a * 1e9).sin() / (x as f64 + 1.5)
}

/// Enough three-flow components that one event instant dirties 4,197
/// members beyond the largest shard — past the engine's inline cutoff of
/// 4,096 — so the sharded engine hands its barriers to the executor.
const WIDE: u32 = 1_400;

/// `comps` disjoint conflict components whose events coincide, so the
/// sharded engine's settle barriers carry several dirty shards each.
fn multi_component_workload(comps: u32) -> Vec<(u64, Communication, f64)> {
    let mut adds: Vec<(u64, Communication, f64)> = Vec::new();
    for c in 0..comps {
        let (base, key) = (c * 4, u64::from(c) * 3);
        adds.push((key, Communication::new(base, base + 1, 300), 0.0));
        adds.push((key + 1, Communication::new(base, base + 2, 201), 5.0));
        adds.push((key + 2, Communication::new(base + 3, base + 1, 157), 12.5));
    }
    adds.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    adds
}

/// Drains `adds` through `net`, returning `(key, completion bits)` in key
/// order.
fn drain(
    net: &mut FluidNetwork<MyrinetModel>,
    adds: &[(u64, Communication, f64)],
) -> Vec<(u64, u64)> {
    for &(k, c, s) in adds {
        net.add(k, c, s);
    }
    let mut done: Vec<(u64, u64)> = net
        .run_to_completion()
        .into_iter()
        .map(|d| (d.key, d.completion.to_bits()))
        .collect();
    done.sort_unstable();
    done
}

/// Drains `adds` through a sharded engine dispatching its settle barriers
/// on `dispatch`, asserting that some barrier was wide enough to reach it.
fn drain_dispatched(
    dispatch: Arc<dyn SettleDispatch>,
    adds: &[(u64, Communication, f64)],
) -> Vec<(u64, u64)> {
    let mut net =
        FluidNetwork::new(MyrinetModel::default(), params()).with_sharded_dispatch(dispatch);
    let done = drain(&mut net, adds);
    let shape = net.shard_stats();
    assert!(
        shape.dispatched_barriers > 0,
        "no barrier reached the executor: {shape:?}"
    );
    done
}

fn params() -> NetworkParams {
    NetworkParams::new(2.0, 0.5)
}

/// The unsharded heap engine and the serially dispatched sharded engine
/// on `adds`; both must agree before either serves as the reference.
fn references(adds: &[(u64, Communication, f64)]) -> Vec<(u64, u64)> {
    let heap = drain(
        &mut FluidNetwork::new(MyrinetModel::default(), params()),
        adds,
    );
    let serial = drain(
        &mut FluidNetwork::new(MyrinetModel::default(), params()).with_sharded(),
        adds,
    );
    assert_eq!(heap.len(), adds.len());
    assert_eq!(heap, serial, "serial sharded vs heap");
    heap
}

/// `n` settle jobs that each bump their own counter.
fn counting_jobs(counters: &[AtomicUsize]) -> Vec<SettleJob<'_>> {
    counters
        .iter()
        .map(|c| {
            SettleJob::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect()
}

/// A panicking map item and a panicking settle job each surface on the
/// caller with their own payload, and the same executor — the same
/// parked workers — then answers the next `map`, `run_settles` and
/// sharded drain correctly.
#[test]
fn pool_survives_panicking_jobs() {
    let exec = Arc::new(SweepExecutor::new(4));
    let items: Vec<u64> = (0..64).collect();
    let want: Vec<f64> = items
        .iter()
        .enumerate()
        .map(|(i, &x)| knead(x, i))
        .collect();
    let adds = multi_component_workload(WIDE);
    let reference = references(&adds);
    within_deadline(move || {
        for round in 0..3 {
            let boom = panic::catch_unwind(AssertUnwindSafe(|| {
                exec.map(&items, |&x| {
                    if x == 21 {
                        panic!("item 21 exploded");
                    }
                    x
                })
            }))
            .expect_err("the item's panic must reach the caller");
            assert_eq!(boom.downcast_ref::<&str>(), Some(&"item 21 exploded"));

            let counters: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            let mut jobs = counting_jobs(&counters);
            jobs.insert(5, SettleJob::new(|| panic!("shard 5 exploded")));
            let boom = panic::catch_unwind(AssertUnwindSafe(|| exec.run_settles(&mut jobs)))
                .expect_err("the job's panic must reach the caller");
            assert_eq!(boom.downcast_ref::<&str>(), Some(&"shard 5 exploded"));
            drop(jobs);
            // the barrier still ran every other job, exactly once
            assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));

            let (got, _) = exec.map_init(&items, |_| (), |(), &x, i| knead(x, i));
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "round {round}: map after a panic"
            );
            let counters: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            exec.run_settles(&mut counting_jobs(&counters));
            assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            let sharded = drain_dispatched(exec.clone(), &adds);
            assert_eq!(sharded, reference, "round {round}: drain after a panic");
        }
    });
}

/// A `map` item that calls `map` on the same executor runs the inner
/// round inline instead of waiting for the pool it is running on.
#[test]
fn nested_map_on_the_same_executor_finishes() {
    let exec = Arc::new(SweepExecutor::new(4));
    let outer: Vec<u64> = (0..24).collect();
    let inner: Vec<u64> = (0..40).collect();
    let want: Vec<Vec<u64>> = outer
        .iter()
        .map(|&x| {
            inner
                .iter()
                .enumerate()
                .map(|(i, &y)| knead(x * 100 + y, i).to_bits())
                .collect()
        })
        .collect();
    let got = within_deadline(move || {
        exec.map(&outer, |&x| {
            let (row, _) = exec.map_init(&inner, |_| (), |(), &y, i| knead(x * 100 + y, i));
            row.into_iter().map(f64::to_bits).collect::<Vec<_>>()
        })
    });
    assert_eq!(got, want);
}

/// A sharded engine dispatching its settle barriers on the executor,
/// driven from inside a sweep item of that same executor, finishes and
/// matches serial dispatch and the heap engine bitwise.
#[test]
fn sharded_engine_inside_a_sweep_item_finishes() {
    let exec = Arc::new(SweepExecutor::new(4));
    let workloads: Vec<u32> = vec![WIDE, WIDE + 3, WIDE + 6, WIDE + 1];
    let want: Vec<_> = workloads
        .iter()
        .map(|&c| references(&multi_component_workload(c)))
        .collect();
    let got = within_deadline(move || {
        exec.map(&workloads, |&c| {
            drain_dispatched(exec.clone(), &multi_component_workload(c))
        })
    });
    assert_eq!(got, want);
}

/// A sharded engine driven by one thread while another thread's round
/// holds the pool: its barriers run inline on their own thread instead of
/// waiting for the pool, and it matches serial dispatch and the heap
/// engine bitwise.
#[test]
fn engine_runs_inline_while_another_thread_holds_the_pool() {
    let exec = Arc::new(SweepExecutor::new(4));
    let adds = multi_component_workload(WIDE);
    let reference = references(&adds);
    let got = within_deadline(move || {
        let (holding_tx, holding_rx) = mpsc::channel();
        let (result_tx, result_rx) = mpsc::channel();
        let result_rx = Mutex::new(result_rx);
        let holder = {
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || {
                // item 0 keeps this round, and with it the pool, open
                // until the other thread's drain is done
                exec.map(&[0u8, 1, 2, 3], |&i| {
                    if i == 0 {
                        holding_tx.send(()).expect("engine thread alive");
                        let result = result_rx.lock().expect("result channel").recv();
                        result.expect("engine thread result")
                    } else {
                        Vec::new()
                    }
                })
            })
        };
        holding_rx.recv().expect("holder alive");
        let drained = drain_dispatched(exec, &adds);
        result_tx.send(drained).expect("holder alive");
        holder.join().expect("holder thread").swap_remove(0)
    });
    assert_eq!(got, reference);
}

/// Two threads drive sharded engines on one shared executor at once
/// (released together by a barrier): whichever barrier finds the pool
/// held runs inline, and every drain matches serial dispatch and the heap
/// engine bitwise.
#[test]
fn concurrent_engines_share_one_executor() {
    let exec = Arc::new(SweepExecutor::new(4));
    let adds = Arc::new(multi_component_workload(WIDE));
    let reference = references(&adds);
    let results = within_deadline(move || {
        let start = Arc::new(Barrier::new(2));
        let engines: Vec<_> = (0..2)
            .map(|_| {
                let dispatch: Arc<dyn SettleDispatch> = exec.clone();
                let (adds, start) = (Arc::clone(&adds), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    (0..20)
                        .map(|_| drain_dispatched(Arc::clone(&dispatch), &adds))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        engines
            .into_iter()
            .flat_map(|e| e.join().expect("engine thread"))
            .collect::<Vec<_>>()
    });
    assert_eq!(results.len(), 40);
    for got in results {
        assert_eq!(got, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// 1,024 back-to-back rounds of 0–64 tiny jobs on one executor (and so
    /// one pool): every settle job runs exactly once and every map item
    /// lands once, in order.
    #[test]
    fn every_job_runs_exactly_once_across_rounds(
        sizes in proptest::collection::vec(0usize..=64, 1024..1025),
    ) {
        let exec = SweepExecutor::new(4);
        for &n in &sizes {
            let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            exec.run_settles(&mut counting_jobs(&counters));
            for (i, c) in counters.iter().enumerate() {
                prop_assert_eq!(c.load(Ordering::Relaxed), 1, "job {} of {}", i, n);
            }
            let items: Vec<usize> = (0..n).collect();
            let (out, stats) = exec.map_init(&items, |_| 0usize, |seen, &x, _| {
                *seen += 1;
                x
            });
            prop_assert_eq!(out, items);
            prop_assert_eq!(stats.per_worker_items.iter().sum::<u64>(), n as u64);
        }
    }
}
