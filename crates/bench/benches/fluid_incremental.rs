//! Incremental engine vs the §IV.B reference on high-churn workloads.
//!
//! Bounded-degree flows over many nodes with staggered starts (the shared
//! `netbw_bench::churn_transfers` workload, also enforced in CI by the
//! `churn_smoke` binary): the contending population churns at every
//! arrival and completion, which is the worst case for the reference
//! engine (a full model query per solver iteration *and* per
//! `next_event_time` probe, and a population scan per event). The
//! incremental engine settles once per population change, serves every
//! probe from the `PenaltyCache`, and hands the models a positional
//! `PopulationDelta` so each settle recomputes only the affected
//! endpoints (GigE/InfiniBand) or conflict components (Myrinet).
//!
//! Two sizes: the 512-flow workload benched since PR 1, and a 2048-flow
//! scale-up where the O(affected) patching dominates: per-event model
//! work no longer grows with the fabric, so the gap over the reference
//! widens. The models also keep their endpoint indices / union–find
//! components alive in per-cache scratch state, and mixed
//! arrival+departure batches stay positional — the printed counters
//! split deltas *offered* from patches *performed* to prove it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netbw::prelude::*;
use netbw_bench::{churn_stagger, churn_transfers, drain_churn_mode, drain_reference, Engine};
use std::hint::black_box;

fn bench_churn_size(c: &mut Criterion, flows: usize, sample_size: usize) {
    // One-off evidence that both engines do the same work with very
    // different model-query and event-scan profiles (the benched quantity
    // is wall time).
    let transfers = churn_transfers(flows, 25.0);
    let (done, stats, timeline) =
        drain_churn_mode(GigabitEthernetModel::default(), &transfers, Engine::Single);
    assert_eq!(done, flows);
    println!(
        "churn{flows}/incremental: {flows} flows, {} model queries \
         ({} carrying positional deltas, {} patched, {} scratch rebuilds, \
         {} budget fallbacks), {} cache reuses, {} heap pushes \
         ({} lazy pops, {} rescans)",
        stats.model_queries,
        stats.delta_queries,
        stats.patched_queries,
        stats.scratch_rebuilds,
        stats.budget_fallbacks,
        stats.reuses,
        timeline.heap_pushes,
        timeline.lazy_pops,
        timeline.rescans,
    );
    let (done, queries) = drain_reference(GigabitEthernetModel::default(), &transfers, usize::MAX);
    assert_eq!(done, flows);
    println!("churn{flows}/reference: {flows} flows, {queries} model queries");

    let mut group = c.benchmark_group(format!("churn{flows}"));
    group.sample_size(sample_size);
    for (model_name, kind) in [
        ("gige", ModelKind::GigabitEthernet),
        ("myrinet", ModelKind::Myrinet),
    ] {
        let transfers = churn_transfers(flows, churn_stagger(kind));
        group.bench_with_input(
            BenchmarkId::new("incremental", model_name),
            &kind,
            |b, &kind| {
                b.iter(|| black_box(drain_churn_mode(kind.build(), &transfers, Engine::Single).0))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference", model_name),
            &kind,
            |b, &kind| {
                b.iter(|| black_box(drain_reference(kind.build(), &transfers, usize::MAX).0))
            },
        );
    }
    group.finish();
}

fn bench_churn(c: &mut Criterion) {
    bench_churn_size(c, 512, 10);
    bench_churn_size(c, 2048, 5);
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
