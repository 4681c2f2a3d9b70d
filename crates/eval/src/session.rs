//! Sweep execution sessions: reusable per-worker state for experiment
//! batteries.
//!
//! The paper's methodology is batteries — `compare_scheme` over hundreds
//! of schemes, `fig2_table` over every scheme × fabric, size sweeps —
//! and the one-shot entry points rebuild everything per call: a fresh
//! [`PacketFabric`], a re-measured `Tref`, a new `FluidSolver`. An
//! [`EvalSession`] amortizes all three across a battery:
//!
//! * a **fabric arena** per worker, keyed by [`FabricKey`] (the fabric
//!   configuration by bit pattern): each arena entry is one
//!   [`PacketFabric`] whose internal network is reset between schemes and
//!   grown (to the next power-of-two node capacity) when a scheme needs
//!   more nodes — on a crossbar, capacity never changes timing, so a
//!   grown fabric answers bit-for-bit like a right-sized one;
//! * a **`Tref` memo** ([`TrefCache`]) per fabric per worker, backed by a
//!   session-shared cross-worker memo, so each `(fabric, size)` reference
//!   transfer is simulated once per battery instead of once per scheme;
//! * a **reusable [`FluidSolver`]** per worker per model instance: the
//!   solver resets (rather than rebuilds) its fluid network between
//!   schemes, keeping the slab and the model scratch allocations warm.
//!
//! Work is scheduled by the session's one work-stealing [`SweepExecutor`],
//! whose worker pool every sweep of the session reuses; results keep
//! input order, and sequential/parallel runs are bit-for-bit identical
//! (pinned by the equivalence tests in `tests/sweep_properties.rs`).
//! Everything is observable through [`SweepStats`], which the bench
//! binaries print and the `sweep_smoke` CI guard asserts on.

use crate::error::{mean_absolute_error, relative_error};
use crate::experiment::{HplComparison, SchemeComparison};
use crate::sweep::{ExecutorStats, SweepExecutor};
use crate::table::{fnum, Table};
use netbw_core::PenaltyModel;
use netbw_fluid::{FluidSolver, NetworkParams};
use netbw_graph::CommGraph;
use netbw_packet::{FabricConfig, FabricKey, PacketFabric, PenaltyMeasurement, TrefCache};
use netbw_sim::{ClusterSpec, PlacementPolicy, SimError};
use netbw_workloads::HplConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Aggregated observability counters of an [`EvalSession`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Battery items processed through the session.
    pub items: u64,
    /// Arena misses: `PacketFabric`s constructed (first use of a fabric
    /// on a worker, or capacity growth).
    pub fabrics_built: u64,
    /// Arena hits: runs served by resetting an arena fabric.
    pub fabrics_reused: u64,
    /// Packet networks constructed inside the arena fabrics.
    pub networks_built: u64,
    /// Packet-network resets inside the arena fabrics.
    pub networks_reused: u64,
    /// `Tref` lookups served from a memo (worker-local or shared).
    pub tref_hits: u64,
    /// `Tref` lookups that had to simulate the reference transfer.
    pub tref_misses: u64,
    /// Work-stealing batches moved between workers.
    pub steals: u64,
    /// Items per worker, summed across the session's sweeps.
    pub per_worker_items: Vec<u64>,
}

impl SweepStats {
    /// Share of fabric requests served by arena reuse, in `[0, 1]`.
    pub fn fabric_reuse_rate(&self) -> f64 {
        let total = self.fabrics_built + self.fabrics_reused;
        if total == 0 {
            0.0
        } else {
            self.fabrics_reused as f64 / total as f64
        }
    }

    /// Share of `Tref` lookups served from a memo, in `[0, 1]`.
    pub fn tref_hit_rate(&self) -> f64 {
        let total = self.tref_hits + self.tref_misses;
        if total == 0 {
            0.0
        } else {
            self.tref_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} items over {} workers {:?} | fabrics: {} built, {} reused ({:.1}% reuse) | \
             networks: {} built, {} reset | Tref: {} measured, {} memo hits ({:.1}% hit) | \
             {} steals",
            self.items,
            self.per_worker_items.len().max(1),
            self.per_worker_items,
            self.fabrics_built,
            self.fabrics_reused,
            self.fabric_reuse_rate() * 100.0,
            self.networks_built,
            self.networks_reused,
            self.tref_misses,
            self.tref_hits,
            self.tref_hit_rate() * 100.0,
            self.steals,
        )
    }
}

/// Cross-worker state of a session: the shared `Tref` memo (one bounded
/// [`TrefCache`] per fabric, so a long-lived session fed arbitrary sizes
/// cannot grow without bound) plus the atomically merged counters.
#[derive(Default)]
struct SessionShared {
    tref: Mutex<HashMap<FabricKey, TrefCache>>,
    /// Fork arenas parked between sweep calls, keyed by `(caller key,
    /// worker index)`: opaque warm state (the serve hot path parks a whole
    /// forked engine) that a worker checks out at first use and its drop
    /// flushes back, so steady-state re-forks reuse the allocations of the
    /// previous sweep's fork instead of building a fresh deep copy. Keyed
    /// per worker, an arena is never aliased across live workers.
    fork_arenas: Mutex<HashMap<(u64, usize), Box<dyn std::any::Any + Send>>>,
    items: AtomicU64,
    fabrics_built: AtomicU64,
    fabrics_reused: AtomicU64,
    networks_built: AtomicU64,
    networks_reused: AtomicU64,
    tref_hits: AtomicU64,
    tref_misses: AtomicU64,
    steals: AtomicU64,
    per_worker_items: Mutex<Vec<u64>>,
}

impl SessionShared {
    fn tref_lookup(&self, key: FabricKey, size: u64) -> Option<f64> {
        self.tref
            .lock()
            .expect("shared tref memo")
            .get(&key)
            .and_then(|cache| cache.lookup(size))
    }

    fn tref_publish(&self, key: FabricKey, size: u64, tref: f64) {
        self.tref
            .lock()
            .expect("shared tref memo")
            .entry(key)
            .or_default()
            .insert(size, tref);
    }

    fn absorb_exec(&self, stats: &ExecutorStats) {
        self.steals.fetch_add(stats.steals, Ordering::Relaxed);
        let mut per_worker = self.per_worker_items.lock().expect("per-worker items");
        if per_worker.len() < stats.per_worker_items.len() {
            per_worker.resize(stats.per_worker_items.len(), 0);
        }
        for (acc, &n) in per_worker.iter_mut().zip(&stats.per_worker_items) {
            *acc += n;
        }
    }
}

/// Worker-local counters, flushed to the shared state once on drop so the
/// per-item path never touches an atomic.
#[derive(Default)]
struct LocalCounters {
    fabrics_built: u64,
    fabrics_reused: u64,
    networks_built: u64,
    networks_reused: u64,
    tref_hits: u64,
    tref_misses: u64,
}

/// Per-worker reusable state of a sweep: the fabric arena, the `Tref`
/// memos and the reusable fluid solvers. Obtained inside
/// [`EvalSession::sweep`] closures, or standalone via
/// [`SweepWorker::standalone`] (which is what the one-shot free functions
/// wrap).
pub struct SweepWorker<'a> {
    shared: Option<&'a SessionShared>,
    /// This worker's stable index on the session executor (0 for
    /// standalone workers) — the second half of the fork-arena key.
    index: usize,
    arenas: HashMap<FabricKey, PacketFabric>,
    /// Fork arenas checked out from the session for the duration of one
    /// sweep call (see [`SessionShared::fork_arenas`]); flushed back on
    /// drop so they survive into the next sweep.
    fork_arenas: HashMap<u64, Box<dyn std::any::Any + Send>>,
    trefs: HashMap<FabricKey, TrefCache>,
    /// Reusable solvers keyed by model *instance*: `(name, address)`.
    /// The address distinguishes differently calibrated instances of one
    /// model type (which `name()` alone would conflate); the name
    /// distinguishes distinct zero-sized model types, whose locals can
    /// share one address. The referent cannot move or drop within `'a`.
    solvers: HashMap<(&'static str, usize), FluidSolver<&'a dyn PenaltyModel>>,
    local: LocalCounters,
}

impl<'a> SweepWorker<'a> {
    fn attached(shared: &'a SessionShared, index: usize) -> Self {
        SweepWorker {
            shared: Some(shared),
            index,
            arenas: HashMap::new(),
            fork_arenas: HashMap::new(),
            trefs: HashMap::new(),
            solvers: HashMap::new(),
            local: LocalCounters::default(),
        }
    }

    /// A worker with no session behind it: all reuse is worker-local.
    /// This is what the one-shot free functions (`compare_scheme`,
    /// `size_sweep`, …) are wrappers over.
    pub fn standalone() -> Self {
        SweepWorker {
            shared: None,
            index: 0,
            arenas: HashMap::new(),
            fork_arenas: HashMap::new(),
            trefs: HashMap::new(),
            solvers: HashMap::new(),
            local: LocalCounters::default(),
        }
    }

    /// Checks the fork arena for `key` out of the worker (falling back to
    /// the session's parked arenas from earlier sweep calls). The caller
    /// owns the arena until [`Self::put_fork_arena`] hands it back —
    /// taking it out of the worker sidesteps any borrow of the worker's
    /// other reusable state while the arena is in use. Returns `None` on
    /// a cold key (and always for standalone workers' first use), in
    /// which case the caller builds the state fresh and still hands it
    /// back to warm the next use.
    pub fn take_fork_arena(&mut self, key: u64) -> Option<Box<dyn std::any::Any + Send>> {
        if let Some(arena) = self.fork_arenas.remove(&key) {
            return Some(arena);
        }
        let shared = self.shared?;
        shared
            .fork_arenas
            .lock()
            .expect("session fork arenas")
            .remove(&(key, self.index))
    }

    /// Returns a fork arena to the worker; it survives into later sweep
    /// calls of the same session (flushed back on worker drop).
    pub fn put_fork_arena(&mut self, key: u64, arena: Box<dyn std::any::Any + Send>) {
        self.fork_arenas.insert(key, arena);
    }

    /// The arena fabric for `cfg`, reset and large enough for `nodes`
    /// nodes (growing to the next power-of-two capacity on a miss, so
    /// repeated growth stays logarithmic).
    pub fn fabric(&mut self, cfg: FabricConfig, nodes: usize) -> &mut PacketFabric {
        let key = cfg.key();
        let need = nodes.max(2);
        let fits = self
            .arenas
            .get(&key)
            .is_some_and(|fab| fab.capacity() >= need);
        if fits {
            self.local.fabrics_reused += 1;
        } else {
            self.local.fabrics_built += 1;
            if let Some(old) = self.arenas.remove(&key) {
                // carry the retiring fabric's network counters forward
                self.local.networks_built += old.stats().networks_built;
                self.local.networks_reused += old.stats().networks_reused;
            }
            // at least 8 nodes up front: batteries mix scheme sizes, and
            // crossbar capacity is timing-neutral, so over-provisioning
            // trades a few idle lanes for arena hits
            self.arenas
                .insert(key, PacketFabric::new(cfg, need.next_power_of_two().max(8)));
        }
        self.arenas.get_mut(&key).expect("just ensured")
    }

    /// The reference time `Tref(size)` on `cfg`, memoized worker-locally
    /// and (when attached to a session) across workers.
    pub fn tref(&mut self, cfg: FabricConfig, size: u64) -> f64 {
        let key = cfg.key();
        if let Some(t) = self.trefs.get(&key).and_then(|c| c.lookup(size)) {
            self.local.tref_hits += 1;
            return t;
        }
        if let Some(t) = self.shared.and_then(|s| s.tref_lookup(key, size)) {
            self.local.tref_hits += 1;
            self.trefs.entry(key).or_default().insert(size, t);
            return t;
        }
        self.local.tref_misses += 1;
        let t = self.fabric(cfg, 2).reference_time(size);
        self.trefs.entry(key).or_default().insert(size, t);
        if let Some(shared) = self.shared {
            shared.tref_publish(key, size, t);
        }
        t
    }

    /// The reusable fluid solver for this `model` instance.
    pub fn solver(
        &mut self,
        model: &'a dyn PenaltyModel,
    ) -> &mut FluidSolver<&'a dyn PenaltyModel> {
        let key = (
            model.name(),
            model as *const dyn PenaltyModel as *const () as usize,
        );
        self.solvers
            .entry(key)
            .or_insert_with(|| FluidSolver::new(model, NetworkParams::unit()))
    }

    /// Session-backed [`crate::compare_scheme`]: identical arithmetic and
    /// bit-for-bit identical results, but the fabric, the `Tref` values
    /// and the solver come from this worker's reusable state.
    pub fn compare_scheme(
        &mut self,
        model: &'a dyn PenaltyModel,
        fabric: FabricConfig,
        scheme: &CommGraph,
    ) -> SchemeComparison {
        let nodes = scheme
            .nodes()
            .iter()
            .map(|n| n.idx() + 1)
            .max()
            .unwrap_or(2)
            .max(2);
        let measured = self.fabric(fabric, nodes).run_scheme(scheme);
        let eff = self.solver(model).effective_penalties(scheme);
        let predicted: Vec<f64> = scheme
            .comms()
            .iter()
            .zip(&eff)
            .map(|(c, p)| p * self.tref(fabric, c.size))
            .collect();
        let erel: Vec<f64> = predicted
            .iter()
            .zip(&measured)
            .map(|(&tp, &tm)| relative_error(tp, tm))
            .collect();
        let eabs = mean_absolute_error(&erel);
        SchemeComparison {
            scheme: scheme.name().to_string(),
            labels: scheme.labels().to_vec(),
            measured,
            predicted,
            erel,
            eabs,
        }
    }

    /// Session-backed [`netbw_packet::measure_penalties`]: same
    /// methodology, fabric and `Tref` from the worker's reusable state.
    pub fn measure_penalties(
        &mut self,
        cfg: FabricConfig,
        graph: &CommGraph,
    ) -> PenaltyMeasurement {
        let nodes = graph
            .nodes()
            .iter()
            .map(|n| n.idx() + 1)
            .max()
            .unwrap_or(2)
            .max(2);
        let times = self.fabric(cfg, nodes).run_scheme(graph);
        let penalties: Vec<f64> = graph
            .comms()
            .iter()
            .zip(&times)
            .map(|(c, t)| t / self.tref(cfg, c.size))
            .collect();
        let tref = graph
            .comms()
            .first()
            .map(|c| self.tref(cfg, c.size))
            .unwrap_or(0.0);
        PenaltyMeasurement {
            fabric: cfg.name,
            tref,
            times,
            penalties,
        }
    }

    /// Session-backed [`crate::compare_hpl`]. HPL replays drive their own
    /// incremental networks through the trace simulator (nothing resets
    /// between policies), so the session contributes scheduling, not
    /// state reuse; the method exists so HPL batteries ride the same
    /// executor as scheme batteries.
    pub fn compare_hpl(
        &mut self,
        hpl: &HplConfig,
        cluster: &ClusterSpec,
        policy: &PlacementPolicy,
        model: &'a dyn PenaltyModel,
        fabric: FabricConfig,
    ) -> Result<HplComparison, SimError> {
        crate::experiment::compare_hpl_dyn(hpl, cluster, policy, model, fabric)
    }
}

impl Drop for SweepWorker<'_> {
    fn drop(&mut self) {
        let Some(shared) = self.shared else {
            return;
        };
        if !self.fork_arenas.is_empty() {
            let mut parked = shared.fork_arenas.lock().expect("session fork arenas");
            for (key, arena) in self.fork_arenas.drain() {
                parked.insert((key, self.index), arena);
            }
        }
        let mut nb = self.local.networks_built;
        let mut nr = self.local.networks_reused;
        for fab in self.arenas.values() {
            nb += fab.stats().networks_built;
            nr += fab.stats().networks_reused;
        }
        shared
            .fabrics_built
            .fetch_add(self.local.fabrics_built, Ordering::Relaxed);
        shared
            .fabrics_reused
            .fetch_add(self.local.fabrics_reused, Ordering::Relaxed);
        shared.networks_built.fetch_add(nb, Ordering::Relaxed);
        shared.networks_reused.fetch_add(nr, Ordering::Relaxed);
        shared
            .tref_hits
            .fetch_add(self.local.tref_hits, Ordering::Relaxed);
        shared
            .tref_misses
            .fetch_add(self.local.tref_misses, Ordering::Relaxed);
    }
}

/// A sweep execution session: a work-stealing executor plus the shared
/// and per-worker reusable state described in the module docs. Create one
/// per battery campaign and drive every battery through it; read
/// [`EvalSession::stats`] at the end.
pub struct EvalSession {
    exec: SweepExecutor,
    shared: SessionShared,
}

impl Default for EvalSession {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalSession {
    /// A session using every available core.
    pub fn new() -> Self {
        Self::with_threads(0)
    }

    /// A session using up to `threads` workers (0 = available
    /// parallelism).
    pub fn with_threads(threads: usize) -> Self {
        EvalSession {
            exec: SweepExecutor::new(threads),
            shared: SessionShared::default(),
        }
    }

    /// A single-worker session: same reuse, no parallelism. The free
    /// functions wrap one of these per call.
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// The worker ceiling in use.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Runs `f` over every item on the session's executor, handing each
    /// worker its own reusable [`SweepWorker`]. Results keep input order;
    /// counters accumulate into [`EvalSession::stats`]. Every sweep of a
    /// session reuses the executor's parked worker threads.
    pub fn sweep<'s, T, R, F>(&'s self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&mut SweepWorker<'s>, &T) -> R + Sync,
    {
        let (out, exec_stats) = self.exec.map_init(
            items,
            |w| SweepWorker::attached(&self.shared, w),
            |worker, item, _| f(worker, item),
        );
        self.shared
            .items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        self.shared.absorb_exec(&exec_stats);
        out
    }

    /// [`crate::compare_scheme`] over a whole battery: one result per
    /// scheme, input order, bit-for-bit identical to the per-call path.
    pub fn compare_schemes<'s>(
        &'s self,
        model: &'s dyn PenaltyModel,
        fabric: FabricConfig,
        schemes: &[CommGraph],
    ) -> Vec<SchemeComparison> {
        self.sweep(schemes, |worker, scheme| {
            worker.compare_scheme(model, fabric, scheme)
        })
    }

    /// [`crate::sizes::size_sweep`] through the session: sweep points
    /// evaluate in parallel, fabrics and `Tref`s come from the arenas.
    pub fn size_sweep<'s>(
        &'s self,
        model: &'s dyn PenaltyModel,
        fabric: FabricConfig,
        scheme: &CommGraph,
        sizes: &[u64],
    ) -> Vec<crate::sizes::SizePoint> {
        self.sweep(sizes, |worker, &size| {
            crate::sizes::size_point(worker, model, fabric, scheme, size)
        })
    }

    /// The Fig. 2 table (measured penalties of the six schemes on all
    /// three fabrics) with every scheme × fabric cell measured through
    /// the session.
    pub fn fig2_table(&self, size: u64) -> Table {
        let fabrics = FabricConfig::paper_fabrics();
        let jobs: Vec<(usize, FabricConfig)> = (1..=6)
            .flat_map(|s| fabrics.into_iter().map(move |cfg| (s, cfg)))
            .collect();
        let measured = self.sweep(&jobs, |worker, &(s, cfg)| {
            let scheme = netbw_graph::schemes::fig2_scheme(s).with_uniform_size(size);
            worker.measure_penalties(cfg, &scheme).penalties
        });
        let mut t = Table::new(["scheme", "com.", "gige", "myrinet", "infiniband"]);
        for s in 1..=6usize {
            let scheme = netbw_graph::schemes::fig2_scheme(s);
            let per_fabric = &measured[(s - 1) * fabrics.len()..s * fabrics.len()];
            for (i, label) in scheme.labels().iter().enumerate() {
                t.push([
                    if i == 0 {
                        format!("{s}")
                    } else {
                        String::new()
                    },
                    label.clone(),
                    fnum(per_fabric[0][i], 2),
                    fnum(per_fabric[1][i], 2),
                    fnum(per_fabric[2][i], 2),
                ]);
            }
        }
        t
    }

    /// Snapshot of the session's counters.
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            items: self.shared.items.load(Ordering::Relaxed),
            fabrics_built: self.shared.fabrics_built.load(Ordering::Relaxed),
            fabrics_reused: self.shared.fabrics_reused.load(Ordering::Relaxed),
            networks_built: self.shared.networks_built.load(Ordering::Relaxed),
            networks_reused: self.shared.networks_reused.load(Ordering::Relaxed),
            tref_hits: self.shared.tref_hits.load(Ordering::Relaxed),
            tref_misses: self.shared.tref_misses.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            per_worker_items: self
                .shared
                .per_worker_items
                .lock()
                .expect("per-worker items")
                .clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbw_core::{GigabitEthernetModel, MyrinetModel};
    use netbw_graph::schemes;
    use netbw_graph::units::MB;

    fn battery() -> Vec<CommGraph> {
        (1..=6)
            .map(|s| schemes::fig2_scheme(s).with_uniform_size(MB))
            .chain([
                schemes::mk1().with_uniform_size(MB),
                schemes::outgoing_ladder(3).with_uniform_size(2 * MB),
            ])
            .collect()
    }

    #[test]
    fn session_battery_matches_per_call_path_bit_for_bit() {
        let model = MyrinetModel::default();
        let fabric = FabricConfig::myrinet2000();
        let battery = battery();
        let session = EvalSession::with_threads(3);
        let got = session.compare_schemes(&model, fabric, &battery);
        assert_eq!(got.len(), battery.len());
        for (g, scheme) in got.iter().zip(&battery) {
            let want = crate::compare_scheme(&model, fabric, scheme);
            assert_eq!(g.scheme, want.scheme);
            assert_eq!(g.measured, want.measured, "{}", want.scheme);
            assert_eq!(g.predicted, want.predicted, "{}", want.scheme);
            assert_eq!(g.erel, want.erel, "{}", want.scheme);
            assert_eq!(g.eabs, want.eabs, "{}", want.scheme);
        }
    }

    #[test]
    fn session_reuses_fabrics_and_trefs() {
        let model = GigabitEthernetModel::default();
        let fabric = FabricConfig::gige();
        let battery = battery();
        let session = EvalSession::sequential();
        session.compare_schemes(&model, fabric, &battery);
        let stats = session.stats();
        assert_eq!(stats.items, battery.len() as u64);
        // one build (plus possible capacity growth), everything else reuse
        assert!(stats.fabrics_built <= 2, "{stats}");
        assert!(stats.fabric_reuse_rate() > 0.8, "{stats}");
        // two distinct sizes in the battery → two measurements, rest hits
        assert_eq!(stats.tref_misses, 2, "{stats}");
        assert!(stats.tref_hits > 0, "{stats}");
        assert_eq!(stats.per_worker_items, vec![battery.len() as u64]);
    }

    #[test]
    fn shared_tref_memo_crosses_workers() {
        let model = GigabitEthernetModel::default();
        let fabric = FabricConfig::gige();
        // every scheme the same size: with N workers, at most N misses
        let battery: Vec<CommGraph> = (0..12)
            .map(|_| schemes::outgoing_ladder(2).with_uniform_size(MB))
            .collect();
        let session = EvalSession::with_threads(4);
        session.compare_schemes(&model, fabric, &battery);
        let stats = session.stats();
        assert!(
            stats.tref_misses <= 4,
            "shared memo must bound misses by worker count: {stats}"
        );
    }

    #[test]
    fn session_fig2_table_matches_free_function() {
        let size = MB;
        let a = EvalSession::with_threads(2).fig2_table(size).to_markdown();
        let b = crate::fig2_table(size).to_markdown();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_zero_sized_models_get_distinct_solvers() {
        // LinearModel and MaxConflictModel are ZSTs, so their borrows can
        // land on one address (they reliably do in release builds): the
        // solver map must still keep them apart, or one baseline's column
        // silently becomes the other's. Keyed by (name, address).
        use netbw_core::baseline::{LinearModel, MaxConflictModel};
        let fabric = FabricConfig::myrinet2000();
        let scheme = schemes::outgoing_ladder(3).with_uniform_size(MB);
        let linear = LinearModel;
        let max_conflict = MaxConflictModel;
        let mut worker = SweepWorker::standalone();
        let lin = worker.compare_scheme(&linear, fabric, &scheme);
        let max = worker.compare_scheme(&max_conflict, fabric, &scheme);
        assert_eq!(worker.solvers.len(), 2, "one solver per model");
        assert_eq!(
            lin.predicted,
            crate::compare_scheme(&LinearModel, fabric, &scheme).predicted
        );
        assert_eq!(
            max.predicted,
            crate::compare_scheme(&MaxConflictModel, fabric, &scheme).predicted
        );
        assert_ne!(
            lin.predicted, max.predicted,
            "the two baselines disagree on a ladder; identical columns \
             mean the solver map conflated them"
        );
    }

    #[test]
    fn standalone_worker_reuses_across_calls() {
        let model = MyrinetModel::default();
        let fabric = FabricConfig::myrinet2000();
        let mut worker = SweepWorker::standalone();
        let g = schemes::outgoing_ladder(2).with_uniform_size(MB);
        let a = worker.compare_scheme(&model, fabric, &g);
        let b = worker.compare_scheme(&model, fabric, &g);
        assert_eq!(a.measured, b.measured);
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(worker.local.fabrics_built, 1);
        assert!(worker.local.fabrics_reused >= 1);
        assert_eq!(worker.local.tref_misses, 1);
    }
}
