//! One command, the whole paper: runs every reproduction experiment and
//! prints a consolidated markdown report (a lighter-weight, regenerated
//! paper-comparison report). Every battery — the Fig. 2 scheme × fabric
//! grid, the Fig. 7 synthetic comparisons, the Figs. 8/9 HPL policy grid —
//! is driven through one shared `EvalSession`: fabrics and solvers are
//! reused across the schemes of each battery (worker state lives for one
//! sweep call), `Tref` measurements and the stats accumulate across the
//! whole report, and the batteries run on the work-stealing executor;
//! the session's `SweepStats` close the report.
//!
//! `cargo run --release -p netbw-bench --bin report_all`

use netbw::core::MyrinetModel;
use netbw::graph::schemes;
use netbw::graph::units::MB;
use netbw::prelude::*;
use netbw::sim::NetworkBackend;
use netbw_bench::{
    bridge_wave_churn, churn_stagger, churn_transfers, drain_churn_mode, fabric_model_pairs,
    section, show, Engine, CHURN_SEED,
};

fn main() {
    let session = EvalSession::new();
    println!("# netbw — full reproduction report");

    section("Fig. 2 — measured penalties on the simulated fabrics (20 MB)");
    show(&session.fig2_table(20 * MB));

    section("Fig. 6 — Myrinet penalty table (exact reproduction)");
    let analysis = MyrinetModel::default().analyse(schemes::fig5().comms());
    let mut t = Table::new(["row", "a", "b", "c", "d", "e", "f"]);
    t.push(
        std::iter::once("Sum".to_string())
            .chain(analysis.emission.iter().map(u64::to_string))
            .collect::<Vec<_>>(),
    );
    t.push(
        std::iter::once("penalty".to_string())
            .chain(analysis.penalties.iter().map(|p| p.to_string()))
            .collect::<Vec<_>>(),
    );
    show(&t);

    section("Fig. 7 — synthetic graphs, model vs simulated fabric (8 MB)");
    let pairs = fabric_model_pairs();
    let jobs: Vec<(usize, netbw::graph::CommGraph)> = (0..pairs.len())
        .flat_map(|i| {
            [schemes::mk1(), schemes::mk2()]
                .into_iter()
                .map(move |s| (i, s.with_uniform_size(8 * MB)))
        })
        .collect();
    let cmps = session.sweep(&jobs, |worker, (i, scheme)| {
        let (fabric, model) = &pairs[*i];
        worker.compare_scheme(model.as_ref(), *fabric, scheme)
    });
    let mut t = Table::new(["scheme", "fabric", "model", "Eabs [%]"]);
    for ((i, _), cmp) in jobs.iter().zip(&cmps) {
        let (fabric, model) = &pairs[*i];
        t.push([
            cmp.scheme.clone(),
            fabric.name.to_string(),
            model.name().to_string(),
            format!("{:.1}", cmp.eabs),
        ]);
    }
    show(&t);

    section("Figs. 8/9 — HPL 20500 per-task prediction error (16 tasks, 8 nodes)");
    let hpl = HplConfig::paper();
    let cluster = ClusterSpec::smp(8);
    let gige_model = GigabitEthernetModel::default();
    let myrinet_model = MyrinetModel::default();
    let hpl_jobs: Vec<(&str, FabricConfig, PlacementPolicy)> = [
        ("gige", FabricConfig::gige()),
        ("myrinet", FabricConfig::myrinet2000()),
    ]
    .into_iter()
    .flat_map(|(name, fabric)| {
        [
            PlacementPolicy::RoundRobinNode,
            PlacementPolicy::RoundRobinProcessor,
            PlacementPolicy::Random(2008),
        ]
        .into_iter()
        .map(move |policy| (name, fabric, policy))
    })
    .collect();
    let hpl_cmps = session.sweep(&hpl_jobs, |worker, (name, fabric, policy)| {
        let model: &dyn PenaltyModel = if *name == "gige" {
            &gige_model
        } else {
            &myrinet_model
        };
        worker
            .compare_hpl(&hpl, &cluster, policy, model, *fabric)
            .expect("HPL replays")
    });
    let mut t = Table::new(["fabric", "policy", "mean Eabs [%]", "makespan Sm/Sp [s]"]);
    for ((name, _, policy), cmp) in hpl_jobs.iter().zip(&hpl_cmps) {
        t.push([
            name.to_string(),
            policy.to_string(),
            format!("{:.1}", cmp.mean_eabs()),
            format!("{:.1}/{:.1}", cmp.makespan_measured, cmp.makespan_predicted),
        ]);
    }
    show(&t);

    println!("\nEach table above is annotated with its paper figure and known deviations.");

    section("Sweep execution stats (shared EvalSession across all batteries)");
    println!("{}", session.stats());

    section("Event-timeline stats (heap engine, 512-flow GigE churn drain)");
    let kind = ModelKind::GigabitEthernet;
    let transfers = churn_transfers(512, churn_stagger(kind));
    let (done, cache, tl) = drain_churn_mode(kind.build(), &transfers, Engine::Single);
    println!(
        "{done} completions | {} model queries ({} reuses) | {} heap pushes, \
         {} lazy pops, {} gate pushes, {} gate heap hits, {} rescans",
        cache.model_queries,
        cache.reuses,
        tl.heap_pushes,
        tl.lazy_pops,
        tl.gate_pushes,
        tl.gate_heap_hits,
        tl.rescans,
    );

    section("Serve path (what-if service: snapshot re-bases + warm fork arenas)");
    // A small live service: admissions and clock advances interleave with
    // query batches, so the churn travels the snapshot re-base path and
    // the per-query forks recycle the worker arenas.
    let serve = WhatIfService::new(ServeConfig::default());
    let sizes = [262_144u64, 1_048_576, 4_194_304];
    for i in 0..60usize {
        let comm = netbw::graph::Communication::new(
            (i % 12) as u32,
            (12 + i % 6) as u32,
            sizes[i % sizes.len()],
        );
        serve
            .admit(comm, i as f64 * 0.003)
            .expect("serve admission");
    }
    serve.advance_to(0.1).expect("advance into the load");
    for round in 0..4usize {
        let queries: Vec<WhatIfQuery> = (0..8u64)
            .map(|q| {
                WhatIfQuery::flow(
                    netbw::graph::Communication::new(
                        ((round as u64 * 5 + q) % 10) as u32,
                        (12 + q % 6) as u32,
                        sizes[q as usize % sizes.len()],
                    ),
                    (q % 3) as f64 * 0.001,
                )
            })
            .collect();
        for answer in serve.what_if_batch(&queries) {
            answer.expect("what-if answered");
        }
        let now = serve.now() + 0.004;
        serve.advance_to(now).expect("inter-round advance");
        serve
            .admit(
                netbw::graph::Communication::new(20u32, (12 + round % 6) as u32, sizes[round % 3]),
                now,
            )
            .expect("inter-round admission");
    }
    println!("{}", serve.stats());

    section("Partition shape (sharded engine, 16-component bridge-wave churn)");
    // Driven through the `NetworkBackend` trait object, the same surface the
    // simulator uses. Waves are fed incrementally — shards are assigned at
    // add time, so queueing the whole schedule up front would fuse the
    // partition for the entire run.
    let (comps, flows_per_comp, waves) = (16usize, 16usize, 4usize);
    let stagger = churn_stagger(kind);
    let wave_len = stagger * flows_per_comp as f64;
    let wave_churn = bridge_wave_churn(comps, flows_per_comp, waves, stagger, CHURN_SEED);
    let mut backend: Box<dyn NetworkBackend> =
        Box::new(FluidNetwork::new(kind.build(), NetworkParams::unit()).with_sharded());
    let mut done = 0usize;
    let mut boundary_shards = Vec::with_capacity(waves);
    for w in 0..waves {
        let lo = w as f64 * wave_len;
        let hi = lo + wave_len;
        let last = w + 1 == waves;
        for &(key, comm, start) in wave_churn
            .iter()
            .filter(|t| t.2 >= lo && (last || t.2 < hi))
        {
            backend.add(key, comm, start);
        }
        done += backend.advance_to(hi).len();
        boundary_shards.push(backend.shard_stats().expect("sharded backend").live_shards);
    }
    done += backend.advance_to(1e9).len();
    let shape = backend.shard_stats().expect("sharded backend");
    println!(
        "{done} completions | live shards at wave boundaries {boundary_shards:?} | \
         {} splits, {} merges, {} drains",
        shape.splits, shape.merges, shape.drains,
    );
}
