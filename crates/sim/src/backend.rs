//! The network abstraction the engine replays traces against.
//!
//! Two implementations ship with the workspace:
//!
//! * [`netbw_fluid::FluidNetwork`] over a penalty model — the **predicted**
//!   side of the paper's evaluation;
//! * [`netbw_packet::PacketNetwork`] — the simulated hardware, the
//!   **measured** side.

use netbw_fluid::{CacheStats, ShardStats, TimelineStats};
use netbw_graph::Communication;

/// An inter-node transfer service: transfers are keyed, started at given
/// times, and complete asynchronously.
///
/// The engine probes [`NetworkBackend::next_event_time`] on every
/// scheduling step, so implementations should make repeated probes cheap
/// — the fluid backend serves them from its [`CacheStats`]-instrumented
/// penalty cache. Each population change is forwarded to the model as a
/// keyed delta — the ids that left and the flows that joined, in one
/// delta even when arrivals and departures coincide — and the cache owns
/// the model's per-cache scratch state: [`CacheStats::delta_queries`]
/// counts the settles that *offered* the model a warm delta,
/// [`CacheStats::patched_queries`] the settles the model actually answered
/// with an O(changed + reach) patch, and
/// [`CacheStats::scratch_rebuilds`] / [`CacheStats::budget_fallbacks`]
/// expose scratch rebuilds and Myrinet state-set budget blow-ups.
pub trait NetworkBackend {
    /// Starts transfer `key` at absolute time `start`.
    fn add(&mut self, key: u64, comm: Communication, start: f64);
    /// The next instant at which the backend's state changes, if any.
    fn next_event_time(&mut self) -> Option<f64>;
    /// Advances to `t`, returning `(key, completion_time)` for transfers
    /// completing in `(previous, t]`.
    fn advance_to(&mut self, t: f64) -> Vec<(u64, f64)>;
    /// Penalty-cache counters, for backends driven by a predictive model
    /// (`None` for measured/packet backends, which have no model to query).
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
    /// Event-timeline counters (completion-heap pushes, stale entries
    /// discarded on pop, gate-heap traffic, full-population rescans), for
    /// backends with an event-driven timeline (`None` for packet backends,
    /// which walk their own per-packet event queue).
    fn timeline_stats(&self) -> Option<TimelineStats> {
        None
    }
    /// Partition-shape counters (live shard count, splits, merges,
    /// drains), for backends that shard their population by conflict
    /// component (`None` otherwise).
    fn shard_stats(&self) -> Option<ShardStats> {
        None
    }
}

/// Mutable references forward, so a caller can keep the backend (and its
/// counters) after handing it to a `Simulator` by `&mut`.
impl<B: NetworkBackend + ?Sized> NetworkBackend for &mut B {
    fn add(&mut self, key: u64, comm: Communication, start: f64) {
        (**self).add(key, comm, start);
    }

    fn next_event_time(&mut self) -> Option<f64> {
        (**self).next_event_time()
    }

    fn advance_to(&mut self, t: f64) -> Vec<(u64, f64)> {
        (**self).advance_to(t)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        (**self).cache_stats()
    }

    fn timeline_stats(&self) -> Option<TimelineStats> {
        (**self).timeline_stats()
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        (**self).shard_stats()
    }
}

impl<M: netbw_core::PenaltyModel> NetworkBackend for netbw_fluid::FluidNetwork<M> {
    fn add(&mut self, key: u64, comm: Communication, start: f64) {
        netbw_fluid::FluidNetwork::add(self, key, comm, start);
    }

    fn next_event_time(&mut self) -> Option<f64> {
        netbw_fluid::FluidNetwork::next_event_time(self)
    }

    fn advance_to(&mut self, t: f64) -> Vec<(u64, f64)> {
        netbw_fluid::FluidNetwork::advance_to(self, t)
            .into_iter()
            .map(|c| (c.key, c.completion))
            .collect()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(netbw_fluid::FluidNetwork::cache_stats(self))
    }

    fn timeline_stats(&self) -> Option<TimelineStats> {
        Some(netbw_fluid::FluidNetwork::timeline_stats(self))
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        Some(netbw_fluid::FluidNetwork::shard_stats(self))
    }
}

impl NetworkBackend for netbw_packet::PacketNetwork {
    fn add(&mut self, key: u64, comm: Communication, start: f64) {
        netbw_packet::PacketNetwork::add(self, key, comm, start);
    }

    fn next_event_time(&mut self) -> Option<f64> {
        netbw_packet::PacketNetwork::next_event_time(self)
    }

    fn advance_to(&mut self, t: f64) -> Vec<(u64, f64)> {
        netbw_packet::PacketNetwork::advance_to(self, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbw_core::baseline::LinearModel;
    use netbw_fluid::{FluidNetwork, NetworkParams};
    use netbw_packet::{FabricConfig, PacketNetwork};

    #[test]
    fn fluid_backend_round_trips() {
        let mut b: Box<dyn NetworkBackend> =
            Box::new(FluidNetwork::new(LinearModel, NetworkParams::unit()));
        b.add(7, Communication::new(0u32, 1u32, 100), 0.0);
        assert!(b.next_event_time().is_some());
        let done = b.advance_to(200.0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 7);
        assert!((done[0].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fluid_backend_serves_repeated_probes_from_cache() {
        let mut b: Box<dyn NetworkBackend> =
            Box::new(FluidNetwork::new(LinearModel, NetworkParams::unit()));
        b.add(0, Communication::new(0u32, 1u32, 100), 0.0);
        let first = b.next_event_time();
        let queries_after_first = b.cache_stats().expect("fluid exposes stats").model_queries;
        for _ in 0..10 {
            assert_eq!(b.next_event_time(), first);
        }
        let stats = b.cache_stats().unwrap();
        assert_eq!(
            stats.model_queries, queries_after_first,
            "probes must not re-query the model: {stats:?}"
        );
        assert!(stats.reuses >= 10);
    }

    #[test]
    fn fluid_backend_surfaces_patch_observability() {
        // The scratch-era counters (patches performed, scratch rebuilds,
        // budget fallbacks) must be visible through the backend trait:
        // three staggered arrivals = first settle rebuilds the scratch,
        // later settles patch.
        use netbw_core::MyrinetModel;
        let mut b: Box<dyn NetworkBackend> = Box::new(FluidNetwork::new(
            MyrinetModel::default(),
            NetworkParams::unit(),
        ));
        for k in 0..3u64 {
            b.add(k, Communication::new(0u32, 1 + k as u32, 100), k as f64);
        }
        while let Some(t) = b.next_event_time() {
            b.advance_to(t);
        }
        let stats = b.cache_stats().expect("fluid exposes stats");
        assert_eq!(stats.scratch_rebuilds, 1, "{stats:?}");
        assert!(stats.patched_queries > 0, "{stats:?}");
        assert_eq!(stats.patched_queries, stats.delta_queries, "{stats:?}");
        assert_eq!(stats.budget_fallbacks, 0, "{stats:?}");
    }

    #[test]
    fn sharded_fluid_backend_aggregates_stats_through_the_trait() {
        // The component-sharded engine keeps one cache and one timeline
        // per shard; the backend trait must hand back the aggregate, so
        // the simulator's reporting is oblivious to the partition.
        use netbw_core::MyrinetModel;
        let mut b: Box<dyn NetworkBackend> = Box::new(
            FluidNetwork::new(MyrinetModel::default(), NetworkParams::unit()).with_sharded(),
        );
        b.add(0, Communication::new(0u32, 1u32, 100), 0.0);
        b.add(1, Communication::new(2u32, 3u32, 150), 0.0); // disjoint component
        while let Some(t) = b.next_event_time() {
            b.advance_to(t);
        }
        let cache = b.cache_stats().expect("sharded fluid exposes cache stats");
        assert_eq!(
            cache.scratch_rebuilds, 2,
            "one scratch rebuild per shard: {cache:?}"
        );
        let tl = b
            .timeline_stats()
            .expect("sharded fluid exposes timeline stats");
        assert!(tl.heap_pushes >= 2, "{tl:?}");
        assert_eq!(tl.rescans, 2, "one first-settle rescan per shard: {tl:?}");
        let shape = b.shard_stats().expect("sharded fluid exposes shard stats");
        assert_eq!(shape.merges, 0, "components stay disjoint: {shape:?}");
        assert_eq!(shape.splits, 0, "{shape:?}");
        assert_eq!(cache.budget_fallbacks, 0, "{cache:?}");
    }

    #[test]
    fn unsharded_fluid_backend_reports_trivial_partition() {
        // A fused (unsharded) fluid backend still answers `shard_stats`,
        // with the trivial single-cell shape, so reporting code can tell
        // "no partition machinery" (packet) apart from "one cell" (fused).
        let mut b: Box<dyn NetworkBackend> =
            Box::new(FluidNetwork::new(LinearModel, NetworkParams::unit()));
        b.add(0, Communication::new(0u32, 1u32, 100), 0.0);
        let shape = b.shard_stats().expect("fluid exposes shard stats");
        assert_eq!(shape.splits, 0, "{shape:?}");
    }

    #[test]
    fn packet_backend_has_no_model_stats() {
        let b: Box<dyn NetworkBackend> = Box::new(PacketNetwork::new(FabricConfig::gige(), 2));
        assert!(b.cache_stats().is_none());
        assert!(b.timeline_stats().is_none());
        assert!(b.shard_stats().is_none());
    }

    #[test]
    fn fluid_backend_surfaces_timeline_stats() {
        use netbw_core::MyrinetModel;
        let mut b: Box<dyn NetworkBackend> = Box::new(FluidNetwork::new(
            MyrinetModel::default(),
            NetworkParams::new(1.0, 0.5),
        ));
        for k in 0..3u64 {
            b.add(k, Communication::new(0u32, 1 + k as u32, 100), k as f64);
        }
        while let Some(t) = b.next_event_time() {
            b.advance_to(t);
        }
        let stats = b.timeline_stats().expect("fluid exposes timeline stats");
        assert!(stats.heap_pushes >= 3, "{stats:?}");
        assert!(stats.lazy_pops <= stats.heap_pushes, "{stats:?}");
        assert_eq!(
            stats.gate_pushes, 3,
            "all gates are in the future: {stats:?}"
        );
        assert_eq!(stats.gate_heap_hits, 3, "{stats:?}");
        assert_eq!(stats.rescans, 1, "only the first settle rescans: {stats:?}");
    }

    #[test]
    fn packet_backend_round_trips() {
        let mut b: Box<dyn NetworkBackend> = Box::new(PacketNetwork::new(FabricConfig::gige(), 2));
        b.add(3, Communication::new(0u32, 1u32, 1_000_000), 0.0);
        let mut done = Vec::new();
        while let Some(t) = b.next_event_time() {
            done.extend(b.advance_to(t));
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 3);
        assert!(done[0].1 > 0.0);
    }
}
