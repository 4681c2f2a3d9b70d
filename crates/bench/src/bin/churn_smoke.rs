//! CI smoke check: the incremental penalty engine must stay ahead of the
//! standalone §IV.B `ReferenceNetwork` on the shared churn workloads —
//! in model queries and in wall-clock time — and the sharded engine must
//! keep up with the single-shard one where partitioning pays.
//!
//! Run with `cargo run --release -p netbw-bench --bin churn_smoke`.
//! Exits non-zero (panics) when an engine loses its lead in model
//! queries, delta share, or wall-clock time — the regressions the bench
//! baselines exist to catch. Every group interleaves the repetitions of
//! the engines it compares (A, B, A, B, …), so a host slow-down lands on
//! both sides alike. Groups:
//!
//! * the 512-flow workload benched since PR 1 (GigE + Myrinet), where
//!   the default engine must ask the model less than the reference and
//!   never fall behind it (also stated within a 20 % / 2 ms noise slack);
//! * the 2048-flow Myrinet group pinning the mixed-delta/patch shares
//!   (>90% of settles must carry warm keyed deltas and actually patch);
//! * the kernel-scaling group: one full GigE model query on a 512-sender
//!   and on a 4096-sender incast. The §V.A kernel is linear in the
//!   population, so 8x the senders must cost under 16x the time (a
//!   kernel that rescans each degree group per member is quadratic and
//!   takes ~64x). A ratio of two single-threaded timings holds on every
//!   core count; the group runs before the sharded groups so it reports
//!   even where those fail.
//! * the population-scaling group: the same `churn_transfers` schedule of
//!   8,000 GigE flows drained through the default engine at
//!   `churn_stagger` and at a quarter of it, which quadruples the
//!   contending population (about 410 and 1,540 flows) while every node
//!   keeps its bounded degree. A keyed settle costs what moved, so the
//!   model-side work per query (`CacheStats::keyed_traffic`: ids handed
//!   over plus penalties answered) must stay within 1.5x between the two
//!   — handing the model the whole population at every settle scales it
//!   with the population. A count guard; the per-completion wall-clock
//!   at both sizes goes to `BENCH_timeline.json` ungated.
//! * the 100k-flow GigE group, where every flow is added up front so the
//!   slab holds 100k slots while only a few hundred contend — the regime
//!   the finish-time heap exists for. The default engine and the
//!   reference drain the same fixed completion prefix (a full reference
//!   drain is O(events x flows) and takes minutes); the default engine
//!   must be ≥5x faster on the median and then also drain the full
//!   workload in bounded time.
//! * the churn-drain group: `churn_transfers` at 5,000 and 20,000 GigE
//!   flows and at 2,048 Myrinet flows (each at `churn_stagger`, every flow
//!   added up front), drained through the single-shard engine and the
//!   sharded engine on serial dispatch. Only counts are gated: the
//!   component tracker's work per flow removal
//!   (`ShardStats::tracker_visits`) must stay within 200 at 20k flows and
//!   grow less than 3x from 5k to 20k flows — a tracker that sweeps one
//!   side of a component per departure reads about 1,900 visits per
//!   removal at 20k flows, 4x its 5k count. The drain medians and
//!   sharded/single ratios are recorded, not gated.
//! * the `shard_smoke` group: a multi-component 65k-endpoint Myrinet
//!   churn (node-offset copies of the shared schedule, so events coincide
//!   across components and every settle barrier carries many dirty
//!   shards). On ≥4 cores the executor-dispatched sharded engine must be
//!   ≥1.5x faster than the single-shard ("heap") engine on the median; on
//!   fewer cores it must merely never fall behind it beyond a noise
//!   slack. At every core count it must also never fall behind the same
//!   engine on serial dispatch beyond that slack: the executor never
//!   loses to running the barrier's jobs in order on the caller. Its
//!   wide barriers must still reach the dispatcher (a count guard).
//! * the `shard_split_smoke` group: steady arrive/depart bridge waves
//!   (`netbw_bench::bridge_wave_churn`) that merge the partition every
//!   wave and break it apart again when the bridges complete. The
//!   splitting engine must keep the partition multi-shard at every wave
//!   boundary and its per-wave settle cost flat over time, and must not
//!   fall behind the single-shard engine on the same feed beyond a noise
//!   slack. At every core count the executor-dispatched feed must also
//!   keep up with the same feed on serial dispatch (`with_sharded`),
//!   within the same slack. Two count guards pin the work behind those
//!   timings: splits and merges re-home about one component's flows
//!   each (the smaller side), and the group's narrow barriers settle
//!   inline instead of going to the dispatcher.
//!
//! The medians land in `BENCH_timeline.json`, `BENCH_shard.json` (the
//! churn-drain group under its `churn_drains` key) and
//! `BENCH_split.json` (uploaded as CI artifacts next to
//! `BENCH_sweep.json`) so the perf trajectory is tracked. Pass
//! `--flows N`, `--big N`, `--prefix K`, `--comps N`, `--comp-flows N`,
//! `--shard-prefix K`, `--split-comps N`, `--split-waves N` to override
//! group sizes. The workload itself is `netbw_bench::churn_transfers`, shared
//! with the `fluid_incremental` bench and the engine proptests so all of
//! them measure the same scenario.

use netbw::eval::SweepExecutor;
use netbw::fluid::CacheStats;
use netbw::graph::Communication;
use netbw::prelude::*;
use netbw_bench::{
    bridge_wave_churn, churn_stagger, churn_transfers, drain_churn_mode, drain_churn_prefix,
    drain_prefix_into, drain_reference, multi_component_churn, Engine, CHURN_SEED,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times `reps` rounds of `runs`, alternating between them within each
/// round (A, B, A, B, …) so a host slow-down lands on every side alike.
/// Returns each run's timings, sorted.
fn interleaved<const N: usize>(reps: usize, mut runs: [&mut dyn FnMut(); N]) -> [Vec<Duration>; N] {
    let mut times: [Vec<Duration>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (run, t) in runs.iter_mut().zip(&mut times) {
            let t0 = Instant::now();
            run();
            t.push(t0.elapsed());
        }
    }
    for t in &mut times {
        t.sort_unstable();
    }
    times
}

/// The median of sorted timings.
fn median(times: &[Duration]) -> Duration {
    times[times.len() / 2]
}

/// Drains one workload through the default engine and the reference,
/// best of two interleaved runs each, printing the counter sets, and
/// enforces the generic invariants: fewer model queries than the
/// reference, a healthy warm-delta share, patches ≤ deltas, and no
/// wall-clock regression against the reference. Returns the default
/// engine's cache stats for group-specific guards.
fn check(name: &str, kind: ModelKind, flows: usize) -> CacheStats {
    let transfers = churn_transfers(flows, churn_stagger(kind));
    let (mut inc, mut oracle) = (None, None);
    let [t_inc, t_ref] = interleaved(
        2,
        [
            &mut || inc = Some(drain_churn_mode(kind.build(), &transfers, Engine::Single)),
            &mut || oracle = Some(drain_reference(kind.build(), &transfers, usize::MAX)),
        ],
    )
    .map(|t| t[0]);
    let (done, s_inc, tl_inc) = inc.expect("default engine ran");
    let (done_ref, q_ref) = oracle.expect("reference ran");
    assert_eq!(done, transfers.len(), "{name}: engine lost flows");
    assert_eq!(done_ref, transfers.len(), "{name}: reference lost flows");
    println!(
        "{name}: {flows} flows | heap {t_inc:?} ({} queries: {} carrying deltas, \
         {} patched, {} scratch rebuilds, {} budget fallbacks; {} reuses) \
         | reference {t_ref:?} ({q_ref} queries)",
        s_inc.model_queries,
        s_inc.delta_queries,
        s_inc.patched_queries,
        s_inc.scratch_rebuilds,
        s_inc.budget_fallbacks,
        s_inc.reuses,
    );
    println!(
        "{name}: timeline {} heap pushes, {} lazy pops, {} gate pushes, \
         {} gate heap hits, {} rescans",
        tl_inc.heap_pushes,
        tl_inc.lazy_pops,
        tl_inc.gate_pushes,
        tl_inc.gate_heap_hits,
        tl_inc.rescans,
    );
    assert!(
        s_inc.model_queries < q_ref,
        "{name}: incremental must issue fewer model queries than the reference \
         ({} vs {q_ref})",
        s_inc.model_queries,
    );
    // Most settles should reach the model as warm keyed deltas — only a
    // cache's first settle is fresh — and a patch can only happen where a
    // delta was offered.
    assert!(
        s_inc.delta_queries > s_inc.model_queries / 4,
        "{name}: too few queries carried warm keyed deltas: {s_inc:?}"
    );
    assert!(
        s_inc.patched_queries <= s_inc.delta_queries,
        "{name}: more patches than deltas makes no sense: {s_inc:?}"
    );
    // A full-population rescan is only legitimate where the model could
    // not scope the change: the first settle plus every scratch rebuild
    // (which answers every member).
    assert!(
        tl_inc.rescans <= s_inc.scratch_rebuilds + 1,
        "{name}: heap engine rescanned beyond its rebuild budget: {tl_inc:?} vs {s_inc:?}"
    );
    assert!(
        t_inc <= t_ref,
        "{name}: incremental engine fell behind the reference ({t_inc:?} vs {t_ref:?})"
    );
    // "Never behind" within noise: 20% or 2ms, whichever is larger.
    let slack = (t_ref / 5).max(Duration::from_millis(2));
    assert!(
        t_inc <= t_ref + slack,
        "{name}: incremental engine fell behind the reference \
         ({t_inc:?} vs {t_ref:?} + {slack:?} slack)"
    );
    s_inc
}

/// Share of model queries satisfying `count`, as a fraction.
fn share(count: u64, stats: &CacheStats) -> f64 {
    count as f64 / stats.model_queries.max(1) as f64
}

/// The kernel-scaling group: median wall-clock of one full
/// `GigabitEthernetModel::penalties` query on a 512-sender and on a
/// 4096-sender incast. Returns the JSON fields for `BENCH_timeline.json`.
fn check_kernel_scaling(reps: usize) -> String {
    let model = GigabitEthernetModel::default();
    let incast = |senders: u32| -> Vec<Communication> {
        (1..=senders)
            .map(|s| Communication::new(s, 0u32, 1 << 20))
            .collect()
    };
    let (small, large) = (incast(512), incast(4096));
    let (mut p_small, mut p_large) = (Vec::new(), Vec::new());
    let [t_small, t_large] = interleaved(
        reps,
        [&mut || p_small = model.penalties(&small), &mut || {
            p_large = model.penalties(&large)
        }],
    )
    .map(|t| median(&t));
    // Every sender of an N-incast is in Cmi and alone on its NIC: N·β.
    for (pens, senders) in [(&p_small, 512.0), (&p_large, 4096.0)] {
        assert!(
            pens.iter().all(|p| p.value() == senders * model.beta),
            "incast-{senders}: wrong penalties"
        );
    }
    let scaling = t_large.as_secs_f64() / t_small.as_secs_f64();
    println!(
        "gige kernel: full query on a 512-sender incast {t_small:?}, \
         4096-sender {t_large:?} ({scaling:.1}x for 8x the flows)"
    );
    assert!(
        scaling < 16.0,
        "gige kernel: 8x the incast senders cost {scaling:.1}x the time \
         ({t_small:?} vs {t_large:?}); a linear kernel gives about 8x"
    );
    format!(
        "\"incast_512_query_us\": {:.3}, \"incast_4096_query_us\": {:.3}, \
         \"incast_query_scaling\": {scaling:.3}",
        t_small.as_secs_f64() * 1e6,
        t_large.as_secs_f64() * 1e6,
    )
}

/// The population-scaling group: one `churn_transfers` schedule drained
/// through the default engine at `churn_stagger` and at a quarter of it
/// (median of `reps` interleaved runs), gated on the keyed traffic per
/// model query. Returns the JSON fields for `BENCH_timeline.json`.
fn check_population_scaling(flows: usize, reps: usize) -> String {
    let kind = ModelKind::GigabitEthernet;
    let stagger = churn_stagger(kind);
    let sizes = [
        churn_transfers(flows, stagger),
        churn_transfers(flows, stagger / 4.0),
    ];
    // Drains one schedule, returning the cache stats and the mean
    // contending population (Little's law: summed lifetimes over the
    // span). Keys are schedule indices.
    let drain = |transfers: &[(u64, Communication, f64)]| {
        let mut net = Engine::Single.build(kind.build(), NetworkParams::unit());
        for &(key, comm, start) in transfers {
            net.add(key, comm, start);
        }
        let (mut lifetimes, mut end, mut done) = (0.0, 0.0f64, 0);
        while let Some(t) = net.next_event_time() {
            for c in net.advance_to(t) {
                lifetimes += c.completion - transfers[c.key as usize].2;
                end = end.max(c.completion);
                done += 1;
            }
        }
        assert_eq!(done, transfers.len(), "population scaling: lost flows");
        (net.cache_stats(), lifetimes / (end - transfers[0].2))
    };
    let mut runs = [(CacheStats::default(), 0.0); 2];
    let [runs_small, runs_large] = &mut runs;
    let times = interleaved(
        reps,
        [&mut || *runs_small = drain(&sizes[0]), &mut || {
            *runs_large = drain(&sizes[1])
        }],
    )
    .map(|t| median(&t));
    let per_query = |s: &CacheStats| s.keyed_traffic() as f64 / s.model_queries.max(1) as f64;
    let [(small, pop_small), (large, pop_large)] = runs;
    let (traffic_small, traffic_large) = (per_query(&small), per_query(&large));
    let growth = traffic_large / traffic_small;
    let per_completion = times.map(|t| t.as_secs_f64() * 1e6 / flows as f64);
    println!(
        "population scaling: gige-{flows} at {pop_small:.0} and {pop_large:.0} contending \
         flows | keyed traffic {traffic_small:.2} and {traffic_large:.2} per model query \
         ({growth:.2}x) | {:.2} and {:.2} us per completion",
        per_completion[0], per_completion[1],
    );
    assert!(
        pop_large >= 3.0 * pop_small,
        "population scaling: the quarter stagger grew the contending population only \
         {:.2}x ({pop_small:.0} -> {pop_large:.0})",
        pop_large / pop_small,
    );
    assert!(
        growth <= 1.5,
        "population scaling: keyed traffic per model query grew {growth:.2}x for \
         {:.1}x the contending flows ({traffic_small:.2} -> {traffic_large:.2}, bound \
         1.5x): settles are paying for the population, not for what moved",
        pop_large / pop_small,
    );
    format!(
        "\"scaling_flows\": {flows}, \"scaling_population\": [{pop_small:.1}, {pop_large:.1}], \
         \"scaling_traffic_per_query\": [{traffic_small:.3}, {traffic_large:.3}], \
         \"scaling_traffic_growth\": {growth:.3}, \
         \"scaling_us_per_completion\": [{:.3}, {:.3}]",
        per_completion[0], per_completion[1],
    )
}

/// The 100k-flow group: the default engine and the reference drain the
/// same `prefix`-completion prefix (median of `reps` interleaved runs),
/// then the default engine alone drains the full workload. Returns its
/// JSON fields for `BENCH_timeline.json`.
fn check_big(flows: usize, prefix: usize, reps: usize) -> String {
    let kind = ModelKind::GigabitEthernet;
    let transfers = churn_transfers(flows, churn_stagger(kind));

    let (mut done_h, mut done_r) = (0, 0);
    let [t_heap, t_ref] = interleaved(
        reps,
        [
            &mut || done_h = drain_churn_prefix(kind.build(), &transfers, Engine::Single, prefix).0,
            &mut || done_r = drain_reference(kind.build(), &transfers, prefix).0,
        ],
    )
    .map(|t| median(&t));
    assert_eq!(done_h, done_r, "engines completed different prefixes");
    assert!(done_h >= prefix, "workload too small for the prefix");

    let t0 = Instant::now();
    let (done, _, tl) = drain_churn_mode(kind.build(), &transfers, Engine::Single);
    let t_full = t0.elapsed();
    assert_eq!(done, flows, "heap engine lost flows at {flows}");

    let speedup = t_ref.as_secs_f64() / t_heap.as_secs_f64();
    println!(
        "gige-{flows}: first {prefix} completions | heap {t_heap:?} | reference {t_ref:?} \
         ({speedup:.1}x) | full heap drain {t_full:?}"
    );
    println!(
        "gige-{flows}: timeline {} heap pushes, {} lazy pops, {} gate pushes, \
         {} gate heap hits, {} rescans",
        tl.heap_pushes, tl.lazy_pops, tl.gate_pushes, tl.gate_heap_hits, tl.rescans,
    );
    assert!(
        speedup >= 5.0,
        "gige-{flows}: the default engine must be ≥5x faster than the reference \
         on the {prefix}-completion prefix, got {speedup:.2}x ({t_heap:?} vs {t_ref:?})"
    );
    assert!(
        tl.lazy_pops <= tl.heap_pushes,
        "gige-{flows}: more stale pops than pushes: {tl:?}"
    );

    format!(
        "\"flows\": {flows}, \"prefix\": {prefix}, \"heap_prefix_ms\": {:.3}, \
         \"reference_prefix_ms\": {:.3}, \"prefix_speedup\": {speedup:.3}, \
         \"heap_full_drain_ms\": {:.3}, \"heap_pushes\": {}, \"lazy_pops\": {}, \
         \"gate_heap_hits\": {}, \"rescans\": {}",
        t_heap.as_secs_f64() * 1e3,
        t_ref.as_secs_f64() * 1e3,
        t_full.as_secs_f64() * 1e3,
        tl.heap_pushes,
        tl.lazy_pops,
        tl.gate_heap_hits,
        tl.rescans,
    )
}

/// The churn-drain group: full `churn_transfers` drains through the
/// single-shard engine and the serially dispatched sharded engine (median
/// of `reps` interleaved runs each), gated on the component tracker's
/// visits per flow removal only. Returns the JSON array for
/// `BENCH_shard.json`'s `churn_drains` key.
fn check_churn_drains(reps: usize) -> String {
    let groups = [
        ("gige-5000", ModelKind::GigabitEthernet, 5_000),
        ("gige-20000", ModelKind::GigabitEthernet, 20_000),
        ("myrinet-2048", ModelKind::Myrinet, 2_048),
    ];
    let mut per_removal = Vec::new();
    let mut records = Vec::new();
    for (name, kind, flows) in groups {
        let transfers = churn_transfers(flows, churn_stagger(kind));
        let (mut done_single, mut done_sharded) = (0, 0);
        let mut shape = netbw::fluid::ShardStats::default();
        let [t_single, t_sharded] = interleaved(
            reps,
            [
                &mut || done_single = drain_churn_mode(kind.build(), &transfers, Engine::Single).0,
                &mut || {
                    let mut net = Engine::Sharded.build(kind.build(), NetworkParams::unit());
                    done_sharded = drain_prefix_into(&mut net, &transfers, usize::MAX);
                    shape = net.shard_stats();
                },
            ],
        )
        .map(|t| median(&t));
        assert_eq!(done_single, flows, "{name}: single-shard engine lost flows");
        assert_eq!(done_sharded, flows, "{name}: sharded engine lost flows");
        let ratio = t_sharded.as_secs_f64() / t_single.as_secs_f64();
        // Every flow leaves the tracker once; a bridge's relabelling at
        // admission counts against the same budget.
        let visits = shape.tracker_visits as f64 / flows as f64;
        println!(
            "{name}: full drain | single shard {t_single:?} | sharded {t_sharded:?} \
             ({ratio:.2}x) | {} tracker visits ({visits:.1} per removal), {} splits, \
             {} merges",
            shape.tracker_visits, shape.splits, shape.merges,
        );
        per_removal.push((name, visits));
        records.push(format!(
            "{{\"workload\": \"{name}\", \"flows\": {flows}, \"single_ms\": {:.3}, \
             \"sharded_ms\": {:.3}, \"sharded_over_single\": {ratio:.3}, \
             \"tracker_visits\": {}, \"visits_per_removal\": {visits:.3}}}",
            t_single.as_secs_f64() * 1e3,
            t_sharded.as_secs_f64() * 1e3,
            shape.tracker_visits,
        ));
    }
    // Counted work: a departure costs the tracker what moved — the smaller
    // part of a split, or a search that stops where its two sides meet —
    // not a sweep over the whole component.
    let (small, large) = (per_removal[0].1, per_removal[1].1);
    assert!(
        large <= 200.0,
        "churn drains: {large:.1} tracker visits per flow removal at 20k GigE \
         flows (bound 200): departures are sweeping whole components"
    );
    assert!(
        large <= 3.0 * small,
        "churn drains: tracker visits per removal grew {:.2}x from 5k to 20k \
         flows ({small:.1} -> {large:.1}, bound 3x)",
        large / small,
    );
    format!("[{}]", records.join(", "))
}

/// The `shard_smoke` group: a multi-component Myrinet churn (identical
/// node-offset schedule copies, so completions and gate openings coincide
/// across components and every settle barrier is wide) drained to a fixed
/// completion prefix through the single-shard ("heap") engine, the
/// serially-dispatched sharded engine, and the sharded engine on the
/// work-stealing executor, interleaved.
/// Returns its JSON fields for `BENCH_shard.json`.
fn check_shard(comps: usize, flows_per_comp: usize, prefix: usize, reps: usize) -> String {
    // A wider stagger than the other churn groups: it bounds the
    // *concurrent* population to a few flows per component (the rest of
    // the schedule is queued in the slab), which is the regime sharding
    // targets — a big fabric with churning traffic. With every copy in
    // flight at once the heap baseline's per-barrier sub-population
    // conflict-graph build goes quadratic in 131k flows and takes
    // minutes, which is a useless yardstick for a smoke test.
    let stagger = 3_500.0;
    let transfers = multi_component_churn(comps, flows_per_comp, stagger, CHURN_SEED);
    let endpoints = comps * (flows_per_comp.max(4) / 2);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let (mut done_heap, mut done_serial, mut done_par) = (0, 0, 0);
    let mut live_shards = 0;
    let mut budget_fallbacks = 0;
    let mut shape = netbw::fluid::ShardStats::default();
    let [t_heap, t_serial, t_par] = interleaved(
        reps,
        [
            &mut || {
                let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::unit());
                done_heap = drain_prefix_into(&mut net, &transfers, prefix);
            },
            &mut || {
                let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::unit())
                    .with_sharded();
                done_serial = drain_prefix_into(&mut net, &transfers, prefix);
                live_shards = net.shard_count();
                budget_fallbacks = net.cache_stats().budget_fallbacks;
            },
            &mut || {
                let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::unit())
                    .with_sharded_dispatch(Arc::new(SweepExecutor::new(0)));
                done_par = drain_prefix_into(&mut net, &transfers, prefix);
                shape = net.shard_stats();
            },
        ],
    )
    .map(|t| median(&t));
    // The workload keeps components small enough that no Myrinet
    // component reaches the state-set budget, so every settle stays
    // exact; this guard pins that, and the shard count pins that the
    // partition survived.
    assert_eq!(
        budget_fallbacks, 0,
        "shard smoke: workload must stay under the state-set budget"
    );
    assert!(
        live_shards >= comps,
        "shard smoke: partition collapsed ({live_shards} shards left of ≥{comps})"
    );
    assert_eq!(
        done_heap, done_serial,
        "engines completed different prefixes"
    );
    assert_eq!(done_heap, done_par, "engines completed different prefixes");
    assert!(done_heap >= prefix, "workload too small for the prefix");

    let speedup = t_heap.as_secs_f64() / t_par.as_secs_f64();
    println!(
        "shard-{comps}x{flows_per_comp} ({endpoints} endpoints, {cores} cores): \
         first {prefix} completions | heap {t_heap:?} | sharded serial {t_serial:?} \
         | sharded executor {t_par:?} ({speedup:.2}x vs heap) | {} barriers dispatched, \
         {} flows re-homed",
        shape.dispatched_barriers, shape.rehomed_flows,
    );
    // Counted work: the event instants here dirty thousands of shards at
    // once, far past the inline cutoff, so the barriers must still reach
    // the executor.
    assert!(
        shape.dispatched_barriers > 0,
        "shard smoke: no settle barrier reached the executor: {shape:?}"
    );
    if cores >= 4 {
        assert!(
            speedup >= 1.5,
            "shard smoke: the executor-dispatched sharded engine must be ≥1.5x \
             faster than the heap engine on {cores} cores, got {speedup:.2}x \
             ({t_par:?} vs {t_heap:?})"
        );
    } else {
        // Too few cores for settle parallelism to pay: the sharded engine
        // must merely not fall behind the heap beyond noise (20% or 2ms).
        let slack = (t_heap / 5).max(Duration::from_millis(2));
        assert!(
            t_par <= t_heap + slack,
            "shard smoke: sharded engine fell behind the heap on {cores} core(s) \
             ({t_par:?} vs {t_heap:?} + {slack:?} slack)"
        );
    }
    // Whatever the core count, dispatching the barriers on the executor
    // must never lose to running them serially on the caller.
    let slack = (t_serial / 5).max(Duration::from_millis(2));
    assert!(
        t_par <= t_serial + slack,
        "shard smoke: executor dispatch fell behind serial dispatch on {cores} \
         core(s) ({t_par:?} vs {t_serial:?} + {slack:?} slack)"
    );

    format!(
        "\"comps\": {comps}, \"flows_per_comp\": {flows_per_comp}, \
         \"endpoints\": {endpoints}, \"prefix\": {prefix}, \"cores\": {cores}, \
         \"heap_prefix_ms\": {:.3}, \"sharded_serial_ms\": {:.3}, \
         \"sharded_executor_ms\": {:.3}, \"executor_speedup\": {speedup:.3}, \
         \"dispatched_barriers\": {}, \"rehomed_flows\": {}",
        t_heap.as_secs_f64() * 1e3,
        t_serial.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3,
        shape.dispatched_barriers,
        shape.rehomed_flows,
    )
}

/// The `shard_split_smoke` group: the bridge-wave workload, fed and
/// drained wave-by-wave through the splitting engine (shards are assigned
/// when a transfer is *added*, so an open-loop feed — each wave enqueued
/// as it opens — is what lets the partition refine between waves;
/// per-wave settle cost and partition shape are observed at every wave
/// boundary, where that wave's bridges are gone and the next wave's have
/// not arrived), interleaved with the same engine on serial dispatch and
/// with the default single-shard engine on the same feed. GigE has no
/// state-set budget, so the comparison isolates partition *shape*.
/// Returns the JSON line for `BENCH_split.json`.
fn check_split(comps: usize, flows_per_comp: usize, waves: usize, reps: usize) -> String {
    let stagger = churn_stagger(ModelKind::GigabitEthernet);
    let wave_len = stagger * flows_per_comp as f64;
    let transfers = bridge_wave_churn(comps, flows_per_comp, waves, stagger, CHURN_SEED);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let mut chunks: Vec<Vec<(u64, Communication, f64)>> = vec![Vec::new(); waves];
    for &t in &transfers {
        let w = ((t.2 / wave_len) as usize).min(waves - 1);
        chunks[w].push(t);
    }

    let feed = |net: &mut FluidNetwork<GigabitEthernetModel>,
                mut per_wave: Option<(&mut Vec<Duration>, &mut usize)>| {
        let mut done = 0usize;
        for (w, chunk) in chunks.iter().enumerate() {
            let tw = Instant::now();
            for &(key, comm, start) in chunk {
                net.add(key, comm, start);
            }
            done += net.advance_to((w + 1) as f64 * wave_len).len();
            if let Some((wave_times, boundary_shards)) = per_wave.as_mut() {
                wave_times[w] = wave_times[w].min(tw.elapsed());
                if w + 1 < waves {
                    **boundary_shards = (**boundary_shards).min(net.shard_count());
                }
            }
        }
        done + net.run_to_completion().len()
    };

    let mut wave_best = vec![Duration::MAX; waves];
    let mut boundary_min_shards = usize::MAX;
    let mut stats = netbw::fluid::ShardStats::default();
    let mut cache = CacheStats::default();
    let [t_split, t_split_serial, t_single] = interleaved(
        reps,
        [
            &mut || {
                let mut net =
                    FluidNetwork::new(GigabitEthernetModel::default(), NetworkParams::unit())
                        .with_sharded_dispatch(Arc::new(SweepExecutor::new(0)));
                let done = feed(&mut net, Some((&mut wave_best, &mut boundary_min_shards)));
                assert_eq!(done, transfers.len(), "splitting engine lost flows");
                stats = net.shard_stats();
                cache = net.cache_stats();
            },
            &mut || {
                let mut net =
                    FluidNetwork::new(GigabitEthernetModel::default(), NetworkParams::unit())
                        .with_sharded();
                let done = feed(&mut net, None);
                assert_eq!(
                    done,
                    transfers.len(),
                    "serially dispatched engine lost flows"
                );
            },
            &mut || {
                let mut net =
                    FluidNetwork::new(GigabitEthernetModel::default(), NetworkParams::unit());
                let done = feed(&mut net, None);
                assert_eq!(done, transfers.len(), "single-shard engine lost flows");
            },
        ],
    )
    .map(|t| median(&t));

    let speedup = t_single.as_secs_f64() / t_split.as_secs_f64();
    println!(
        "split-{comps}x{flows_per_comp}x{waves} ({cores} cores): split drain {t_split:?} \
         ({} splits, {} merges, {} flows re-homed, {} barriers dispatched) | serial dispatch \
         {t_split_serial:?} ({:.2}x) | single-shard drain {t_single:?} | refinement speedup \
         {speedup:.2}x | waves {:?}",
        stats.splits,
        stats.merges,
        stats.rehomed_flows,
        stats.dispatched_barriers,
        t_split.as_secs_f64() / t_split_serial.as_secs_f64(),
        wave_best,
    );

    // Partition shape: every wave re-merges and re-splits, and every
    // observed boundary shows the fine partition restored.
    assert!(
        boundary_min_shards >= comps,
        "split smoke: partition degraded to {boundary_min_shards} shards \
         at a wave boundary (expected ≥{comps})"
    );
    assert!(
        stats.splits >= ((waves - 1) * (comps - 1)) as u64,
        "split smoke: too few splits for {waves} bridge waves: {stats:?}"
    );
    assert_eq!(
        cache.budget_fallbacks, 0,
        "split smoke: no budget fallback on GigE: {cache:?}"
    );
    // Counted work. A split or a merge moves its smaller side, which is
    // about one component's flows (13.9 per repartition at 128 x 16 x 8);
    // moving the larger side re-homes over 300.
    let repartitions = stats.splits + stats.merges;
    assert!(
        stats.rehomed_flows <= flows_per_comp as u64 * repartitions,
        "split smoke: {} flows re-homed by {repartitions} splits and merges; the \
         smaller side should move, about one component each: {stats:?}",
        stats.rehomed_flows,
    );
    // Every barrier of this feed is narrow enough to settle inline (none
    // dispatches at 128 x 16 x 8; an inline cutoff of 0 sends all ~13.6k).
    assert!(
        stats.dispatched_barriers <= 4 * waves as u64,
        "split smoke: {} settle barriers went to the dispatcher; narrow barriers \
         should settle inline: {stats:?}",
        stats.dispatched_barriers,
    );

    // Settle cost must stay flat across waves: steady churn with a
    // refining partition has no mechanism to get slower. Wave 1 is cold
    // (first settles rebuild every scratch), so the yardstick is wave 2.
    let (t_early, t_late) = (wave_best[1], wave_best[waves - 1]);
    let flat_slack = Duration::from_millis(2);
    assert!(
        t_late <= t_early * 3 + flat_slack,
        "split smoke: per-wave settle cost grew over time \
         ({t_early:?} at wave 2 vs {t_late:?} at wave {waves})"
    );

    let slack = (t_single / 5).max(Duration::from_millis(2));
    assert!(
        t_split <= t_single + slack,
        "split smoke: refining partition fell behind the single-shard engine on \
         {cores} core(s) ({t_split:?} vs {t_single:?} + {slack:?} slack)"
    );
    let slack = (t_split_serial / 5).max(Duration::from_millis(2));
    assert!(
        t_split <= t_split_serial + slack,
        "split smoke: executor dispatch fell behind serial dispatch on {cores} \
         core(s) ({t_split:?} vs {t_split_serial:?} + {slack:?} slack)"
    );

    format!(
        "{{\"comps\": {comps}, \"flows_per_comp\": {flows_per_comp}, \"waves\": {waves}, \
         \"cores\": {cores}, \"split_drain_ms\": {:.3}, \"split_serial_ms\": {:.3}, \
         \"single_shard_drain_ms\": {:.3}, \"refinement_speedup\": {speedup:.3}, \
         \"wave2_ms\": {:.3}, \"last_wave_ms\": {:.3}, \"splits\": {}, \"merges\": {}, \
         \"rehomed_flows\": {}, \"dispatched_barriers\": {}}}\n",
        t_split.as_secs_f64() * 1e3,
        t_split_serial.as_secs_f64() * 1e3,
        t_single.as_secs_f64() * 1e3,
        t_early.as_secs_f64() * 1e3,
        t_late.as_secs_f64() * 1e3,
        stats.splits,
        stats.merges,
        stats.rehomed_flows,
        stats.dispatched_barriers,
    )
}

fn main() {
    let mut flows = 512usize;
    let mut big = 100_000usize;
    let mut prefix = 1000usize;
    let mut comps = 8192usize;
    let mut comp_flows = 16usize;
    let mut shard_prefix = 12_288usize;
    let mut split_comps = 128usize;
    let mut split_waves = 8usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut grab = |name: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} takes a number"))
        };
        match arg.as_str() {
            "--flows" => flows = grab("--flows"),
            "--big" => big = grab("--big"),
            "--prefix" => prefix = grab("--prefix"),
            "--comps" => comps = grab("--comps"),
            "--comp-flows" => comp_flows = grab("--comp-flows"),
            "--shard-prefix" => shard_prefix = grab("--shard-prefix"),
            "--split-comps" => split_comps = grab("--split-comps"),
            "--split-waves" => split_waves = grab("--split-waves"),
            other => panic!("unknown flag {other}"),
        }
    }
    check("gige", ModelKind::GigabitEthernet, flows);
    check("myrinet", ModelKind::Myrinet, flows);

    // The high-concurrency Myrinet group: wide staggering makes gate
    // openings and completions coincide, so before mixed-delta chaining
    // only ~33% of these settles carried deltas (744/2237). The guard
    // pins the fix: >90% must carry deltas and >90% must actually patch.
    let s = check("myrinet-2048", ModelKind::Myrinet, 2048);
    let delta_share = share(s.delta_queries, &s);
    let patch_share = share(s.patched_queries, &s);
    println!(
        "myrinet-2048: delta share {:.1}%, patch share {:.1}%",
        delta_share * 100.0,
        patch_share * 100.0
    );
    assert!(
        delta_share > 0.9,
        "myrinet-2048: delta share regressed to {delta_share:.3}: {s:?}"
    );
    assert!(
        patch_share > 0.9,
        "myrinet-2048: patch share regressed to {patch_share:.3}: {s:?}"
    );

    // The model kernel's scaling, the keyed settle's population scaling,
    // then the deep-slab group the event timeline exists for; all land in
    // the timeline record.
    let kernel = check_kernel_scaling(21);
    let scaling = check_population_scaling(8_000, 3);
    let json = format!("{{{}, {kernel}, {scaling}}}\n", check_big(big, prefix, 3));
    std::fs::write("BENCH_timeline.json", &json).expect("write BENCH_timeline.json");
    print!("churn_smoke: BENCH_timeline.json = {json}");

    // The component tracker's count guard on full churn drains, then the
    // multi-component group the sharded engine exists for; both land in
    // the shard record.
    let drains = check_churn_drains(3);
    let shard = check_shard(comps, comp_flows, shard_prefix, 3);
    let json = format!("{{{shard}, \"churn_drains\": {drains}}}\n");
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    print!("churn_smoke: BENCH_shard.json = {json}");

    // The merge/split churn group live partition refinement exists for.
    let json = check_split(split_comps, 16, split_waves, 3);
    std::fs::write("BENCH_split.json", &json).expect("write BENCH_split.json");
    print!("churn_smoke: BENCH_split.json = {json}");

    println!("churn smoke: every guard held");
}
