//! Incremental vs full-recompute penalty engine on high-churn workloads.
//!
//! Bounded-degree flows over many nodes with staggered starts (the shared
//! `netbw_bench::churn_transfers` workload, also enforced in CI by the
//! `churn_smoke` binary): the contending population churns at every
//! arrival and completion, which is the worst case for the pre-refactor
//! engine (a full model query per solver iteration *and* per
//! `next_event_time` probe). The incremental engine settles once per
//! population change, serves every probe from the `PenaltyCache`, and —
//! since the slab refactor — hands the models a positional
//! `PopulationDelta` so each settle recomputes only the affected
//! endpoints (GigE/InfiniBand) or conflict components (Myrinet).
//!
//! Two sizes: the 512-flow workload benched since PR 1, and a 2048-flow
//! scale-up where the O(affected) patching dominates: per-event model
//! work no longer grows with the fabric, so the gap over the
//! full-recompute oracle widens. Since the scratch refactor the models
//! also keep their endpoint indices / union–find components alive in
//! per-cache scratch state, and mixed arrival+departure batches stay
//! positional — the printed counters split deltas *offered* from patches
//! *performed* to prove it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netbw::fluid::EngineMode;
use netbw::prelude::*;
use netbw_bench::{churn_stagger, churn_transfers, drain_churn_mode};
use std::hint::black_box;

const MODES: [(&str, EngineMode); 3] = [
    ("incremental", EngineMode::Event),
    ("linear-timeline", EngineMode::LinearTimeline),
    ("full-recompute", EngineMode::FullRecompute),
];

fn bench_churn_size(c: &mut Criterion, flows: usize, sample_size: usize) {
    // One-off evidence that all engines do the same work with very
    // different model-query and event-scan profiles (the benched quantity
    // is wall time).
    for (name, mode) in MODES {
        let transfers = churn_transfers(flows, 25.0);
        let (done, stats, timeline) =
            drain_churn_mode(GigabitEthernetModel::default(), &transfers, mode);
        assert_eq!(done, flows);
        println!(
            "churn{flows}/{name}: {flows} flows, {} model queries \
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
    }

    let mut group = c.benchmark_group(format!("churn{flows}"));
    group.sample_size(sample_size);
    for (model_name, kind) in [
        ("gige", ModelKind::GigabitEthernet),
        ("myrinet", ModelKind::Myrinet),
    ] {
        let transfers = churn_transfers(flows, churn_stagger(kind));
        for (mode_name, mode) in MODES {
            group.bench_with_input(
                BenchmarkId::new(mode_name, model_name),
                &kind,
                |b, &kind| b.iter(|| black_box(drain_churn_mode(kind.build(), &transfers, mode).0)),
            );
        }
    }
    group.finish();
}

fn bench_churn(c: &mut Criterion) {
    bench_churn_size(c, 512, 10);
    bench_churn_size(c, 2048, 5);
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
