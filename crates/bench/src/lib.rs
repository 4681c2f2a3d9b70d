//! Shared helpers for the paper-figure regeneration binaries (§VI results)
//! and the performance benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper: `fig1_conflicts` (§IV.A census), `fig2_penalties` (§IV.B
//! measured penalties), `fig4_gige_verify` (§V.A), `fig56_myrinet_states`
//! (§V.B), `fig7_synthetic`, `fig8_hpl_gige`, `fig9_hpl_myrinet` (§VI),
//! plus the calibration table, the `ext_*` extension reports, the
//! `ablation_*` studies, and `report_all` to print everything. The
//! `churn_smoke` binary is the CI guard for the incremental fluid engine
//! (see `ARCHITECTURE.md`); the Criterion benches in `benches/` measure
//! the machinery underneath.

use netbw::eval::SweepExecutor;
use netbw::fluid::{CacheStats, CompletedTransfer, ReferenceNetwork, TimelineStats};
use netbw::graph::Communication;
use netbw::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::{Arc, OnceLock};

/// Prints a section header in the harness output.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

/// Pretty-prints a table to stdout.
pub fn show(table: &Table) {
    print!("{}", table.to_markdown());
}

/// The canonical seed of the shared churn workloads (also the paper's
/// publication year + month, for what it's worth).
pub const CHURN_SEED: u64 = 20080;

/// The canonical churn workload shared by the `fluid_incremental` bench
/// and the `churn_smoke` CI guard — keeping it in one place means both
/// provably measure the same scenario. `flows` bounded-degree transfers
/// over `flows / 2` nodes (fixed seed), with starts staggered by
/// `stagger` seconds so many are in flight at any instant and the
/// population churns at every event.
pub fn churn_transfers(flows: usize, stagger: f64) -> Vec<(u64, netbw::graph::Communication, f64)> {
    churn_transfers_seeded(flows, stagger, CHURN_SEED)
}

/// [`churn_transfers`] with an explicit seed — the entry point the
/// engine-level proptests use, so tests and benches draw their schedules
/// from one generator instead of hand-rolling divergent workloads.
pub fn churn_transfers_seeded(
    flows: usize,
    stagger: f64,
    seed: u64,
) -> Vec<(u64, netbw::graph::Communication, f64)> {
    let g = netbw::graph::schemes::random_bounded(flows.max(4) / 2, flows, 3, 3, 10_000, seed);
    g.comms()
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u64, c, stagger * i as f64))
        .collect()
}

/// One settle-to-settle step of a keyed churn scenario: the ids of the
/// flows that leave the population, then the flows that join it with
/// their ids — the shape of the [`PopulationDelta`] the fluid engine's
/// penalty cache hands a model. Departures apply first, so a step may
/// reuse a departing flow's id for an arrival, as slab slot reuse does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnStep {
    /// Ids of the departing flows.
    pub departed: Vec<FlowId>,
    /// Arriving flows with their ids.
    pub arrived: Vec<(FlowId, Communication)>,
}

impl ChurnStep {
    /// Applies the step to the keyed population `prev`: the survivors in
    /// their order, then the arrivals.
    pub fn apply(&self, prev: &[(FlowId, Communication)]) -> Vec<(FlowId, Communication)> {
        prev.iter()
            .filter(|(id, _)| !self.departed.contains(id))
            .chain(&self.arrived)
            .copied()
            .collect()
    }

    /// The keyed delta the step hands a warm model scratch.
    pub fn delta(&self) -> PopulationDelta<'_> {
        PopulationDelta {
            departed: &self.departed,
            arrived: &self.arrived,
            fresh: false,
        }
    }
}

/// A seeded multi-settle keyed churn scenario: a starting population plus
/// a schedule of arrival/departure/mixed-batch steps. This is the
/// settle-form twin of [`churn_transfers`], used by the model-level
/// proptests that pin the keyed entry point against the full recompute
/// across whole settle sequences.
#[derive(Debug, Clone)]
pub struct ChurnScenario {
    /// The population of the first settle, keyed.
    pub initial: Vec<(FlowId, Communication)>,
    /// The settle-to-settle transitions, in order.
    pub steps: Vec<ChurnStep>,
}

impl ChurnScenario {
    /// Generates a scenario over a `nodes`-node fabric: `initial` starting
    /// flows, then `steps` transitions, each departing up to 3 flows
    /// and/or arriving up to 3 new ones (so pure-arrival, pure-departure
    /// and mixed batches all occur). Ids are handed out like slab slots:
    /// the most recently freed id first — a departing id is reused within
    /// its own step — and a fresh one otherwise. Deterministic in `seed`.
    pub fn generate(seed: u64, nodes: u32, initial: usize, steps: usize) -> ChurnScenario {
        let nodes = nodes.max(2);
        let mut rng = StdRng::seed_from_u64(seed);
        let comm = |rng: &mut StdRng| {
            let s = rng.random_range(0..nodes);
            let mut d = rng.random_range(0..nodes - 1);
            if d >= s {
                d += 1;
            }
            Communication::new(s, d, 100 + rng.random_range(0..900u32) as u64)
        };
        let mut free: Vec<FlowId> = Vec::new();
        let mut fresh = 0..;
        let initial: Vec<(FlowId, Communication)> = (0..initial)
            .map(|_| (fresh.next().unwrap(), comm(&mut rng)))
            .collect();
        let mut population = initial.clone();
        let mut out_steps = Vec::with_capacity(steps);
        for _ in 0..steps {
            let mut departed: Vec<FlowId> = Vec::new();
            let n_dep = (rng.random_range(0..4u32) as usize).min(population.len());
            for _ in 0..n_dep {
                let p = rng.random_range(0..population.len() as u32) as usize;
                let id = population[p].0;
                if !departed.contains(&id) {
                    departed.push(id);
                }
            }
            population.retain(|(id, _)| !departed.contains(id));
            free.extend(&departed);
            let mut n_arr = rng.random_range(0..4u32) as usize;
            if departed.is_empty() && n_arr == 0 {
                n_arr = 1; // every step changes the population
            }
            let arrived: Vec<(FlowId, Communication)> = (0..n_arr)
                .map(|_| {
                    let id = free.pop().unwrap_or_else(|| fresh.next().unwrap());
                    (id, comm(&mut rng))
                })
                .collect();
            population.extend(&arrived);
            out_steps.push(ChurnStep { departed, arrived });
        }
        ChurnScenario {
            initial,
            steps: out_steps,
        }
    }
}

/// The stagger used with [`churn_transfers`] per model: GigE's closed
/// form tolerates ~400 concurrent flows; the Myrinet state-set
/// enumeration gets a wider stagger (~100 concurrent) to keep a single
/// drain bounded.
pub fn churn_stagger(kind: ModelKind) -> f64 {
    match kind {
        ModelKind::Myrinet => 100.0,
        _ => 25.0,
    }
}

/// The fluid-engine configurations the benches time and the equivalence
/// batteries pin bit for bit against [`ReferenceNetwork`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The default engine: every flow in one shard.
    Single,
    /// Conflict-component shards, each settle barrier run serially.
    Sharded,
    /// Conflict-component shards, each settle barrier dispatched on a
    /// shared two-thread [`SweepExecutor`].
    Executor,
}

impl Engine {
    /// Every configuration, default first.
    pub const ALL: [Engine; 3] = [Engine::Single, Engine::Sharded, Engine::Executor];

    /// Builds a fresh network of this configuration.
    pub fn build<M: PenaltyModel>(self, model: M, params: NetworkParams) -> FluidNetwork<M> {
        static EXECUTOR: OnceLock<Arc<SweepExecutor>> = OnceLock::new();
        let net = FluidNetwork::new(model, params);
        match self {
            Engine::Single => net,
            Engine::Sharded => net.with_sharded(),
            Engine::Executor => net.with_sharded_dispatch(
                EXECUTOR
                    .get_or_init(|| Arc::new(SweepExecutor::new(2)))
                    .clone(),
            ),
        }
    }
}

/// The driving surface [`FluidNetwork`] and [`ReferenceNetwork`] share,
/// so one scripted scenario runs through every engine configuration and
/// the reference alike.
pub trait Drive {
    /// Starts a transfer at `start`.
    fn add(&mut self, key: u64, comm: Communication, start: f64);
    /// The next instant at which the network state changes, or `None`
    /// when idle.
    fn next_event_time(&mut self) -> Option<f64>;
    /// Advances the clock to `t`, returning the transfers completed on the
    /// way.
    fn advance_to(&mut self, t: f64) -> Vec<CompletedTransfer>;

    /// Advances until every transfer completes.
    fn run_to_completion(&mut self) -> Vec<CompletedTransfer> {
        let mut done = Vec::new();
        while let Some(t) = self.next_event_time() {
            done.extend(self.advance_to(t));
        }
        done
    }
}

impl<M: PenaltyModel> Drive for FluidNetwork<M> {
    fn add(&mut self, key: u64, comm: Communication, start: f64) {
        FluidNetwork::add(self, key, comm, start);
    }
    fn next_event_time(&mut self) -> Option<f64> {
        FluidNetwork::next_event_time(self)
    }
    fn advance_to(&mut self, t: f64) -> Vec<CompletedTransfer> {
        FluidNetwork::advance_to(self, t)
    }
}

impl<M: PenaltyModel> Drive for ReferenceNetwork<M> {
    fn add(&mut self, key: u64, comm: Communication, start: f64) {
        ReferenceNetwork::add(self, key, comm, start);
    }
    fn next_event_time(&mut self) -> Option<f64> {
        ReferenceNetwork::next_event_time(self)
    }
    fn advance_to(&mut self, t: f64) -> Vec<CompletedTransfer> {
        ReferenceNetwork::advance_to(self, t)
    }
}

/// Builds a fresh unit-parameter engine of the requested configuration.
fn churn_engine<M: PenaltyModel>(model: M, engine: Engine) -> FluidNetwork<M> {
    engine.build(model, NetworkParams::unit())
}

/// A churn workload of `comps` disjoint conflict components: the
/// [`churn_transfers_seeded`] schedule stamped out `comps` times with
/// node-id offsets. Every copy keeps the *same* arrival schedule, so
/// events coincide across components and each settle barrier carries many
/// dirty shards — the worst case for a serial settle loop and exactly
/// what the sharded engine parallelizes. Keys are globally unique
/// (component-major).
pub fn multi_component_churn(
    comps: usize,
    flows_per_comp: usize,
    stagger: f64,
    seed: u64,
) -> Vec<(u64, netbw::graph::Communication, f64)> {
    let base = churn_transfers_seeded(flows_per_comp, stagger, seed);
    let nodes = (flows_per_comp.max(4) / 2) as u32;
    let mut out = Vec::with_capacity(comps * base.len());
    for c in 0..comps {
        let offset = c as u32 * nodes;
        for &(key, comm, start) in &base {
            out.push((
                c as u64 * base.len() as u64 + key,
                Communication::new(comm.src.0 + offset, comm.dst.0 + offset, comm.size),
                start,
            ));
        }
    }
    out.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    out
}

/// A churn workload whose conflict components repeatedly merge and break
/// apart: `waves` waves, each carrying `flows_per_comp` staggered
/// intra-component flows for every one of `comps` disjoint components
/// *plus* a chain of tiny bridge flows joining adjacent components. While
/// a wave's bridges are in flight the whole fabric is one conflict
/// component; the bridges are sized to finish early in the wave, so the
/// component breaks back into `comps` pieces long before the next wave
/// re-bridges it. A partition that only merged would therefore fuse into
/// one mega-shard on the first wave and stay there; a splitting partition
/// returns to `comps` shards every wave. Intra-component flow lifetimes
/// are matched to the wave length so the live population reaches a steady
/// state instead of accumulating — the regime where per-settle cost
/// should stay flat over time. Bridges start mid-slot (`stagger / 2`
/// after the wave opens), so at every wave boundary the previous wave's
/// bridges are gone and the next wave's have not arrived: boundaries
/// observe the split partition. Keys are globally unique and the schedule
/// is sorted by start time.
pub fn bridge_wave_churn(
    comps: usize,
    flows_per_comp: usize,
    waves: usize,
    stagger: f64,
    seed: u64,
) -> Vec<(u64, Communication, f64)> {
    let comps = comps.max(2);
    let nodes = (flows_per_comp.max(4) / 2) as u32;
    let wave_len = stagger * flows_per_comp as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut key = 0u64;
    for w in 0..waves {
        let t0 = w as f64 * wave_len;
        for c in 0..comps {
            let offset = c as u32 * nodes;
            for i in 0..flows_per_comp {
                let s = rng.random_range(0..nodes);
                let mut d = rng.random_range(0..nodes - 1);
                if d >= s {
                    d += 1;
                }
                let size = 50 + rng.random_range(0..50u32) as u64;
                out.push((
                    key,
                    Communication::new(offset + s, offset + d, size),
                    t0 + stagger * i as f64,
                ));
                key += 1;
            }
        }
        for c in 0..comps - 1 {
            let a = c as u32 * nodes;
            let b = (c as u32 + 1) * nodes;
            out.push((key, Communication::new(a, b, 10), t0 + stagger / 2.0));
            key += 1;
        }
    }
    out.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    out
}

/// Drains a churn workload through a fresh unit-parameter engine of the
/// given configuration, returning the completion count, the cache stats
/// and the event-timeline counters.
pub fn drain_churn_mode<M: PenaltyModel>(
    model: M,
    transfers: &[(u64, netbw::graph::Communication, f64)],
    engine: Engine,
) -> (usize, CacheStats, TimelineStats) {
    drain_churn_prefix(model, transfers, engine, usize::MAX)
}

/// Drains only until `prefix` flows have completed (or the network runs
/// dry), returning the completions actually collected. This is how the
/// 100k-flow smoke group times the reference engine: a full reference
/// drain over 100k queued flows is O(events x flows) and takes minutes,
/// but a fixed completion prefix gives both engines the same measured
/// work — every event up to the prefix'th completion.
pub fn drain_churn_prefix<M: PenaltyModel>(
    model: M,
    transfers: &[(u64, netbw::graph::Communication, f64)],
    engine: Engine,
    prefix: usize,
) -> (usize, CacheStats, TimelineStats) {
    let mut net = churn_engine(model, engine);
    let done = drain_prefix_into(&mut net, transfers, prefix);
    (done, net.cache_stats(), net.timeline_stats())
}

/// Drains a churn workload through a fresh unit-parameter
/// [`ReferenceNetwork`] until `prefix` flows have completed (or it runs
/// dry; pass `usize::MAX` for a full drain), returning the completion
/// count and the reference's model queries.
pub fn drain_reference<M: PenaltyModel>(
    model: M,
    transfers: &[(u64, netbw::graph::Communication, f64)],
    prefix: usize,
) -> (usize, u64) {
    let mut net = ReferenceNetwork::new(model, NetworkParams::unit());
    let done = drain_prefix_into(&mut net, transfers, prefix);
    (done, net.model_queries())
}

/// Adds `transfers` to a prebuilt network and drains until `prefix` flows
/// have completed (or the network runs dry), returning the completion
/// count. The engine-agnostic core of [`drain_churn_prefix`] and
/// [`drain_reference`] — the `shard_smoke` guard uses it directly so it
/// can time networks carrying a custom settle dispatcher.
pub fn drain_prefix_into<N: Drive>(
    net: &mut N,
    transfers: &[(u64, netbw::graph::Communication, f64)],
    prefix: usize,
) -> usize {
    for &(key, comm, start) in transfers {
        net.add(key, comm, start);
    }
    let mut done = 0usize;
    while done < prefix {
        let Some(t) = net.next_event_time() else {
            break;
        };
        done += net.advance_to(t).len();
    }
    done
}

/// The paper's three fabrics with their models, paired for sweeps:
/// (fabric config, model for that fabric).
pub fn fabric_model_pairs() -> Vec<(FabricConfig, Box<dyn PenaltyModel>)> {
    vec![
        (
            FabricConfig::gige(),
            Box::new(GigabitEthernetModel::default()),
        ),
        (
            FabricConfig::myrinet2000(),
            Box::new(MyrinetModel::default()),
        ),
        (
            FabricConfig::infinihost3(),
            Box::new(InfinibandModel::default()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_cover_all_fabrics() {
        let pairs = fabric_model_pairs();
        assert_eq!(pairs.len(), 3);
        let names: Vec<&str> = pairs.iter().map(|(f, _)| f.name).collect();
        assert_eq!(names, vec!["gige", "myrinet", "infiniband"]);
    }

    #[test]
    fn churn_scenario_is_deterministic_in_its_seed() {
        let a = ChurnScenario::generate(7, 8, 6, 20);
        let b = ChurnScenario::generate(7, 8, 6, 20);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.steps, b.steps);
        let c = ChurnScenario::generate(8, 8, 6, 20);
        assert_ne!(a.initial, c.initial);
    }

    #[test]
    fn churn_scenario_steps_produce_verifiable_deltas() {
        // Every generated step must be consistent with the population it
        // applies to — departures name members, arrivals name ids that
        // are free once the departures left — and the schedule must
        // exercise every delta shape, including an id reused within the
        // step that freed it.
        let scenario = ChurnScenario::generate(42, 10, 8, 60);
        let mut population = scenario.initial.clone();
        let (mut arrivals, mut departures, mut mixed, mut reused) = (0, 0, 0, 0);
        for step in &scenario.steps {
            let live: Vec<FlowId> = population.iter().map(|p| p.0).collect();
            assert!(step.departed.iter().all(|id| live.contains(id)));
            let next = step.apply(&population);
            let mut ids: Vec<FlowId> = next.iter().map(|p| p.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), next.len(), "live ids are distinct");
            match (step.departed.is_empty(), step.arrived.is_empty()) {
                (true, false) => arrivals += 1,
                (false, true) => departures += 1,
                (false, false) => mixed += 1,
                (true, true) => panic!("a step that changes nothing"),
            }
            reused += step
                .arrived
                .iter()
                .filter(|(id, _)| step.departed.contains(id))
                .count();
            assert_eq!(step.delta().departed, step.departed.as_slice());
            population = next;
        }
        assert!(arrivals > 0, "no pure-arrival steps in 60");
        assert!(departures > 0, "no pure-departure steps in 60");
        assert!(mixed > 0, "no mixed steps in 60");
        assert!(reused > 0, "no id reused within its step in 60");
    }

    /// `net`'s completions over `transfers` as sorted `(key, completion
    /// bits)` pairs.
    fn completion_bits<N: Drive>(
        net: &mut N,
        transfers: &[(u64, Communication, f64)],
    ) -> Vec<(u64, u64)> {
        for &(key, comm, start) in transfers {
            net.add(key, comm, start);
        }
        let mut done: Vec<(u64, u64)> = net
            .run_to_completion()
            .iter()
            .map(|c| (c.key, c.completion.to_bits()))
            .collect();
        done.sort_unstable();
        done
    }

    fn reference_bits(transfers: &[(u64, Communication, f64)]) -> Vec<(u64, u64)> {
        let model = GigabitEthernetModel::default();
        completion_bits(
            &mut ReferenceNetwork::new(model, NetworkParams::unit()),
            transfers,
        )
    }

    #[test]
    fn mode_drains_agree_and_prefix_stops_early() {
        let transfers = churn_transfers(48, 25.0);
        let expected = reference_bits(&transfers);
        assert_eq!(expected.len(), 48);
        for engine in Engine::ALL {
            let mut net = churn_engine(GigabitEthernetModel::default(), engine);
            assert_eq!(
                completion_bits(&mut net, &transfers),
                expected,
                "{engine:?}"
            );
            assert!(net.timeline_stats().heap_pushes > 0, "{engine:?}");
        }
        let (done, _, _) = drain_churn_prefix(
            GigabitEthernetModel::default(),
            &transfers,
            Engine::Single,
            10,
        );
        assert!((10..48).contains(&done), "prefix drain got {done}");
        let (ref_done, queries) = drain_reference(GigabitEthernetModel::default(), &transfers, 10);
        assert_eq!(ref_done, done, "both stop at the same event");
        assert!(queries > 0);
    }

    #[test]
    fn multi_component_churn_keeps_components_disjoint_and_schedules_aligned() {
        let base = churn_transfers_seeded(8, 5.0, CHURN_SEED);
        let multi = multi_component_churn(3, 8, 5.0, CHURN_SEED);
        assert_eq!(multi.len(), 3 * base.len());
        let mut keys: Vec<u64> = multi.iter().map(|t| t.0).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), multi.len(), "keys must be globally unique");
        let nodes = 4u32; // 8.max(4)/2 nodes per component
        for &(key, comm, start) in &multi {
            let comp = (key / base.len() as u64) as u32;
            let copy = &base[(key % base.len() as u64) as usize];
            assert_eq!(start, copy.2, "copies keep the base schedule");
            for node in [comm.src.0, comm.dst.0] {
                assert!(
                    (comp * nodes..(comp + 1) * nodes).contains(&node),
                    "node {node} leaks out of component {comp}"
                );
            }
        }
    }

    #[test]
    fn bridge_waves_split_and_remerge_the_partition() {
        let (comps, flows_per_comp, waves) = (4usize, 8usize, 3usize);
        let transfers = bridge_wave_churn(comps, flows_per_comp, waves, 10.0, CHURN_SEED);
        assert_eq!(
            transfers.len(),
            waves * (comps * flows_per_comp + comps - 1)
        );
        assert_eq!(transfers, bridge_wave_churn(4, 8, 3, 10.0, CHURN_SEED));

        let expected = reference_bits(&transfers);
        assert_eq!(expected.len(), transfers.len());
        for engine in Engine::ALL {
            let mut net = churn_engine(GigabitEthernetModel::default(), engine);
            assert_eq!(
                completion_bits(&mut net, &transfers),
                expected,
                "{engine:?}"
            );
            let shape = net.shard_stats();
            if engine == Engine::Single {
                assert_eq!(shape, netbw::fluid::ShardStats::default(), "one shard");
            } else {
                // Every wave's bridge chain merges shards and its
                // completion carves them back apart.
                assert!(shape.merges >= (comps - 1) as u64, "{shape:?}");
                assert!(shape.splits >= (comps - 1) as u64, "{shape:?}");
            }
        }
    }

    #[test]
    fn seeded_transfers_match_the_canonical_workload() {
        assert_eq!(
            churn_transfers(64, 25.0),
            churn_transfers_seeded(64, 25.0, CHURN_SEED)
        );
        assert_ne!(
            churn_transfers_seeded(64, 25.0, 1),
            churn_transfers_seeded(64, 25.0, 2)
        );
    }
}
