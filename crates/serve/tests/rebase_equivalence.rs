//! Snapshot re-base equivalence: a snapshot that followed the
//! authoritative engine through admissions and clock advances by O(delta)
//! re-bases must answer what-if queries bit-for-bit like a fresh fork
//! would — across all three fabric models, including a re-base applied
//! over a Myrinet component that blew its state-set budget and a re-base
//! racing an in-flight batch that still aliases the cached snapshot (which
//! must publish a private successor, never mutate the shared one). The
//! service runs the default single-shard engine; the sharded engine's
//! fork path is pinned by the fluid crate's `fork_equivalence` battery.
//!
//! The oracle is [`WhatIfService::what_if_batch_via_rebuild`]: it ignores
//! the snapshot cache entirely and rebuilds-and-replays the admission log
//! per query, so any divergence introduced by re-basing (or by the warm
//! fork arenas underneath [`WhatIfService::what_if_batch`]) shows up as a
//! bit mismatch.

use netbw_bench::churn_transfers_seeded;
use netbw_core::{
    GigabitEthernetModel, InfinibandModel, ModelScratch, MyrinetModel, Penalty, PenaltyModel,
    PopulationDelta, QueryOutcome,
};
use netbw_fluid::NetworkParams;
use netbw_graph::Communication;
use netbw_packet::FabricConfig;
use netbw_serve::{ServeConfig, WhatIfAnswer, WhatIfQuery, WhatIfService};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn config() -> ServeConfig {
    ServeConfig {
        params: NetworkParams::new(2.0, 0.25),
        fabric: FabricConfig::gige(),
        threads: 2,
    }
}

fn assert_bitwise(
    rebased: &[Result<WhatIfAnswer, netbw_serve::ServeError>],
    oracle: &[Result<WhatIfAnswer, netbw_serve::ServeError>],
    context: &str,
) {
    assert_eq!(rebased.len(), oracle.len());
    for (r, o) in rebased.iter().zip(oracle) {
        let (r, o) = (r.as_ref().expect(context), o.as_ref().expect(context));
        assert_eq!(
            r.makespan.to_bits(),
            o.makespan.to_bits(),
            "makespan diverged: {context}"
        );
        for (rf, of) in r.flows.iter().zip(&o.flows) {
            assert_eq!(
                rf.completion.to_bits(),
                of.completion.to_bits(),
                "completion diverged: {context}"
            );
            assert_eq!(
                rf.slowdown.to_bits(),
                of.slowdown.to_bits(),
                "slowdown diverged: {context}"
            );
        }
    }
}

/// Feeds `transfers` through a service, warming the snapshot cache right
/// after the first admission so every subsequent admission and advance
/// travels the re-base path, then checks a query batch from the long-
/// rebased snapshot bitwise against the rebuild-and-replay oracle.
fn check_rebase_equivalence(
    model: Arc<dyn PenaltyModel>,
    transfers: &[(u64, Communication, f64)],
    queries: &[WhatIfQuery],
) {
    let name = model.name();
    let service = WhatIfService::with_model(model, config());
    for (i, &(_, comm, start)) in transfers.iter().enumerate() {
        service.admit(comm, start).expect("churn admission");
        if i == 0 {
            // Populate the snapshot cache: from here on, every admission
            // and advance must re-base it instead of dropping it.
            service
                .what_if(&WhatIfQuery::flow(
                    Communication::new(60u32, 61u32, 100),
                    0.0,
                ))
                .expect("prewarm query");
        }
        if i % 3 == 2 {
            service.advance_to(start + 0.01).expect("churn advance");
        }
    }
    let last = transfers.last().expect("non-empty churn").2;
    service.advance_to(last + 0.02).expect("final advance");

    let stats = service.stats();
    assert_eq!(stats.snapshot_builds, 1, "one build, then re-bases");
    assert!(stats.rebases > 0, "churn after prewarm must re-base");

    let rebased = service.what_if_batch(queries);
    let oracle = service.what_if_batch_via_rebuild(queries);
    assert_bitwise(&rebased, &oracle, name);
    assert_eq!(
        service.stats().snapshot_builds,
        1,
        "the query batch must ride the rebased snapshot"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random churn on every fabric model: a snapshot kept alive by
    /// re-basing answers bit-for-bit like the rebuild oracle.
    #[test]
    fn rebased_snapshot_equals_fresh_fork(
        seed in 0u64..1_000_000,
        flows in 4usize..12,
        stagger_pick in 0usize..3,
    ) {
        let stagger = [0.05, 0.5, 5.0][stagger_pick];
        let transfers = churn_transfers_seeded(flows, stagger, seed);
        let queries: Vec<WhatIfQuery> = (0..4u64)
            .map(|i| {
                let mut q = WhatIfQuery::flow(
                    Communication::new((i % 3) as u32, (3 + i % 2) as u32, 900 + 17 * i),
                    0.1 * i as f64,
                );
                q.flows.push((Communication::new(40u32, 41u32, 700), 0.0));
                q
            })
            .collect();
        check_rebase_equivalence(Arc::new(GigabitEthernetModel::default()), &transfers, &queries);
        check_rebase_equivalence(Arc::new(MyrinetModel::default()), &transfers, &queries);
        check_rebase_equivalence(Arc::new(InfinibandModel::default()), &transfers, &queries);
    }
}

/// Re-basing over a Myrinet component that blew its state-set budget: the
/// 8-flow conflict cycle blows a budget of 9 (the same cycle as the fluid
/// crate's locality tests) and takes the max-conflict rows, and the
/// admissions that follow re-base the snapshot across that state.
#[test]
fn rebase_over_a_budget_collapsed_partition() {
    let c8 = [
        (0u32, 1u32),
        (2, 1),
        (2, 3),
        (4, 3),
        (4, 5),
        (6, 5),
        (6, 7),
        (0, 7),
    ];
    let mut transfers: Vec<(u64, Communication, f64)> = c8
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| (i as u64, Communication::new(s, d, 4_000), i as f64))
        .collect();
    // Two extra flows admitted after the cycle is in flight, next to the
    // blown cycle.
    transfers.push((8, Communication::new(10u32, 11u32, 2_000), 8.0));
    transfers.push((9, Communication::new(12u32, 13u32, 2_000), 9.0));
    let queries = vec![
        WhatIfQuery::flow(Communication::new(2u32, 7u32, 1_500), 0.0),
        WhatIfQuery::flow(Communication::new(20u32, 21u32, 1_500), 0.2),
    ];
    check_rebase_equivalence(Arc::new(MyrinetModel::with_budget(9)), &transfers, &queries);
}

/// A penalty model that delegates to GigE but, once armed, blocks exactly
/// one query at two barriers — long enough for the test to admit a
/// transfer while a batch is provably mid-flight and still aliasing the
/// cached snapshot.
struct GatedModel {
    inner: GigabitEthernetModel,
    armed: AtomicBool,
    /// The gated query signals here once it is inside the model...
    entered: Arc<Barrier>,
    /// ...and then blocks here until the test releases it.
    release: Arc<Barrier>,
}

impl PenaltyModel for GatedModel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn penalties(&self, comms: &[Communication]) -> Vec<Penalty> {
        self.gate();
        self.inner.penalties(comms)
    }

    fn new_scratch(&self) -> Box<dyn ModelScratch> {
        self.inner.new_scratch()
    }

    fn penalties_with_scratch(
        &self,
        comms: &[Communication],
        delta: &PopulationDelta,
        previous: Option<(&[Communication], &[Penalty])>,
        scratch: &mut dyn ModelScratch,
    ) -> (Vec<Penalty>, QueryOutcome) {
        self.gate();
        self.inner
            .penalties_with_scratch(comms, delta, previous, scratch)
    }
}

impl GatedModel {
    fn gate(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.entered.wait();
            self.release.wait();
        }
    }
}

/// An admission landing while a batch still aliases the snapshot must not
/// mutate it under the batch's feet: the delta goes to a privately
/// re-based successor, published atomically (counted as a
/// `rebase_fallback`), and both the in-flight batch and every later query
/// stay bitwise with the rebuild oracle.
#[test]
fn rebase_while_a_batch_aliases_the_snapshot() {
    let entered = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let model = Arc::new(GatedModel {
        inner: GigabitEthernetModel::default(),
        armed: AtomicBool::new(false),
        entered: Arc::clone(&entered),
        release: Arc::clone(&release),
    });
    let service = Arc::new(WhatIfService::with_model(
        Arc::clone(&model) as Arc<dyn PenaltyModel>,
        ServeConfig {
            threads: 1,
            ..config()
        },
    ));
    for i in 0..6u64 {
        service
            .admit(
                Communication::new((i % 3) as u32, (3 + i % 2) as u32, 800 + 25 * i),
                i as f64 * 0.2,
            )
            .expect("background admission");
    }
    service.advance_to(1.3).expect("advance into the load");

    let queries = vec![WhatIfQuery::flow(Communication::new(1u32, 4u32, 640), 0.05)];
    // Build the snapshot and the oracle answers before arming the gate:
    // the blocked batch below must answer from exactly this state.
    let expected = service.what_if_batch_via_rebuild(&queries);
    service.what_if_batch(&queries);
    assert_eq!(service.stats().snapshot_builds, 1);

    model.armed.store(true, Ordering::SeqCst);
    let batch = {
        let service = Arc::clone(&service);
        let queries = queries.clone();
        std::thread::spawn(move || service.what_if_batch(&queries))
    };
    // The batch is now provably mid-query (inside the model, on a private
    // fork) and holds an `Arc` alias of the cached snapshot.
    entered.wait();
    service
        .admit(Communication::new(7u32, 8u32, 512), 1.35)
        .expect("admission while the batch is in flight");
    let stats = service.stats();
    assert!(
        stats.rebase_fallbacks >= 1,
        "an aliased snapshot must publish a successor, not mutate in place: {stats}"
    );
    release.wait();
    let in_flight_answers = batch.join().expect("in-flight batch");
    // The blocked batch rode the *old* snapshot: pre-admission state.
    assert_bitwise(&in_flight_answers, &expected, "aliased in-flight batch");

    // The successor snapshot carries the admission: later queries answer
    // bitwise like a rebuild of the grown log, with no new build.
    let after = service.what_if_batch(&queries);
    let oracle = service.what_if_batch_via_rebuild(&queries);
    assert_bitwise(&after, &oracle, "successor snapshot");
    assert_eq!(service.stats().snapshot_builds, 1);
}
