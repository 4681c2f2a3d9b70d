//! The segment-level fabric simulation.
//!
//! Every message is split into segments that serialize through the servers
//! of its route (sender NIC egress → optional uplinks → receiver delivery
//! port)
//! and finally through the receiver's *host stage* (DMA/memory), whose rate
//! drops to `host_budget − link_rate` while the receiving node is itself
//! transmitting — the income/outgo coupling measured in the paper's Fig. 2.
//!
//! Flow control is expressed through two per-fabric knobs (see
//! [`crate::config::FabricConfig`]):
//!
//! * `flow_cap` — injection pacing (TCP window ceiling / Myrinet
//!   inter-packet gap / InfiniBand static rate control);
//! * `window` — outstanding segments (TCP window in segments / wormhole
//!   path depth for Stop & Go / InfiniBand credits). Acknowledgements (or
//!   credit returns, or Go frames) release window slots after a round-trip.

use crate::config::FabricConfig;
use crate::des::EventQueue;
use crate::topology::{Route, Topology};
use netbw_graph::{CommGraph, Communication, NodeId};

/// Caller-chosen transfer identifier.
pub type FlowKey = u64;

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Try to inject the flow's next segment.
    Inject { flow: usize },
    /// Segment arrival at a route server (store-and-forward fabrics).
    Hop { flow: usize, stage: u8, bytes: u32 },
    /// Segment arrival at the receiver host stage.
    HostArrive { flow: usize, bytes: u32 },
    /// Wormhole packet: reserve the whole path at once (Stop & Go).
    CircuitAdmit { flow: usize, bytes: u32 },
    /// Segment fully delivered (exits host stage).
    Delivered { flow: usize },
    /// Window slot released at the sender (ACK / credit / Go).
    Ack { flow: usize },
}

#[derive(Debug)]
struct Flow {
    key: FlowKey,
    comm: Communication,
    route: Option<Route>,
    total_segs: u64,
    injected: u64,
    delivered: u64,
    outstanding: usize,
    pace_next: f64,
    inject_scheduled: bool,
    done: bool,
}

impl Flow {
    fn seg_bytes(&self, cfg: &FabricConfig, index: u64) -> u32 {
        let seg = cfg.segment;
        let full = self.comm.size / seg;
        if index < full {
            seg as u32
        } else {
            (self.comm.size - full * seg) as u32
        }
    }
}

/// Incremental packet-level network: transfers are added over time,
/// completions drained by [`PacketNetwork::advance_to`]. The "measured
/// hardware" counterpart of `netbw_fluid::FluidNetwork`.
pub struct PacketNetwork {
    cfg: FabricConfig,
    topo: Topology,
    time: f64,
    queue: EventQueue<Ev>,
    flows: Vec<Flow>,
    /// Per-server busy horizon (FIFO serialization).
    busy: Vec<f64>,
    /// Per-node host-stage busy horizon.
    host_busy: Vec<f64>,
    /// Per-node count of unfinished transmitting flows.
    tx_flows: Vec<usize>,
    completed: Vec<(FlowKey, f64)>,
}

impl PacketNetwork {
    /// Creates an idle network over a crossbar of `nodes` nodes.
    pub fn new(cfg: FabricConfig, nodes: usize) -> Self {
        cfg.validate();
        let topo = Topology::crossbar(nodes.max(2));
        let servers = topo.server_count() as usize;
        let nodes = topo.nodes();
        PacketNetwork {
            cfg,
            topo,
            time: 0.0,
            queue: EventQueue::new(),
            flows: Vec::new(),
            busy: vec![0.0; servers],
            host_busy: vec![0.0; nodes],
            tx_flows: vec![0; nodes],
            completed: Vec::new(),
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The fabric configuration in use.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Node capacity of the underlying topology.
    fn node_capacity(&self) -> usize {
        self.topo.nodes()
    }

    /// Returns the network to an idle state at time 0, keeping every
    /// allocation (event heap, flow table, server horizons) warm. A reset
    /// network replays any schedule bit-for-bit identically to a freshly
    /// built one of the same capacity; on a crossbar, capacity itself does
    /// not affect timing (every flow serializes through its own per-node
    /// servers), which is what makes fabric arenas sound.
    pub fn reset(&mut self) {
        self.time = 0.0;
        self.queue.clear();
        self.flows.clear();
        self.busy.fill(0.0);
        self.host_busy.fill(0.0);
        self.tx_flows.fill(0);
        self.completed.clear();
    }

    /// Number of unfinished transfers.
    pub fn in_flight(&self) -> usize {
        self.flows.iter().filter(|f| !f.done).count()
    }

    /// Starts a transfer of `comm` at absolute time `start`.
    ///
    /// # Panics
    /// If `start` precedes the current time, or an endpoint is outside the
    /// topology.
    pub fn add(&mut self, key: FlowKey, comm: Communication, start: f64) {
        assert!(
            start >= self.time - 1e-12,
            "transfer starts at {start} but network time is {}",
            self.time
        );
        assert!(
            !comm.is_intra_node(),
            "intra-node transfers do not enter the fabric"
        );
        let idx = self.flows.len();
        let route = self.topo.route(comm.src, comm.dst);
        let total_segs = comm.size.div_ceil(self.cfg.segment);
        let first = start.max(self.time) + self.cfg.startup;
        self.flows.push(Flow {
            key,
            comm,
            route: Some(route),
            total_segs,
            injected: 0,
            delivered: 0,
            outstanding: 0,
            pace_next: first,
            inject_scheduled: true,
            done: false,
        });
        if total_segs == 0 {
            self.queue.schedule(first, Ev::Delivered { flow: idx });
        } else {
            self.tx_flows[comm.src.idx()] += 1;
            self.queue.schedule(first, Ev::Inject { flow: idx });
        }
    }

    /// Instant of the next internal event, or `None` when idle.
    pub fn next_event_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Advances the clock to `t`, returning transfers completed in
    /// `(previous time, t]` as `(key, completion_time)` pairs, in
    /// completion order.
    pub fn advance_to(&mut self, t: f64) -> Vec<(FlowKey, f64)> {
        assert!(
            t >= self.time - 1e-12,
            "cannot advance backwards ({} -> {t})",
            self.time
        );
        while let Some(et) = self.queue.peek_time() {
            if et > t {
                break;
            }
            let (et, ev) = self.queue.pop().expect("peeked");
            self.time = self.time.max(et);
            self.handle(et, ev);
        }
        self.time = self.time.max(t);
        std::mem::take(&mut self.completed)
    }

    /// Runs until every transfer completes; returns all completions.
    pub fn run_to_completion(&mut self) -> Vec<(FlowKey, f64)> {
        let mut out = Vec::new();
        while let Some(t) = self.next_event_time() {
            out.extend(self.advance_to(t));
        }
        out
    }

    fn tx_active(&self, node: NodeId) -> bool {
        self.tx_flows[node.idx()] > 0
    }

    fn handle(&mut self, now: f64, ev: Ev) {
        match ev {
            Ev::Inject { flow } => {
                self.flows[flow].inject_scheduled = false;
                self.try_inject(now, flow);
            }
            Ev::Hop { flow, stage, bytes } => {
                let server = {
                    let f = &self.flows[flow];
                    f.route.as_ref().expect("routed flow").servers[stage as usize]
                };
                let start = now.max(self.busy[server.0 as usize]);
                let done = start + bytes as f64 / self.cfg.link_rate;
                self.busy[server.0 as usize] = done;
                let last_stage = {
                    let f = &self.flows[flow];
                    stage as usize + 1 >= f.route.as_ref().expect("routed").servers.len()
                };
                let next_at = done + self.cfg.prop_delay;
                if last_stage {
                    self.queue.schedule(next_at, Ev::HostArrive { flow, bytes });
                } else {
                    self.queue.schedule(
                        next_at,
                        Ev::Hop {
                            flow,
                            stage: stage + 1,
                            bytes,
                        },
                    );
                }
            }
            Ev::CircuitAdmit { flow, bytes } => {
                // Cut-through: the packet occupies every server on its path
                // plus the receiver host stage for its whole duration; the
                // drain rate is the slowest stage (link or host budget).
                let (dst, servers) = {
                    let f = &self.flows[flow];
                    (
                        f.comm.dst,
                        f.route.as_ref().expect("routed").servers.clone(),
                    )
                };
                let host_rate = if self.tx_active(dst) {
                    self.cfg.rx_budget_busy()
                } else {
                    self.cfg.host_budget.min(self.cfg.link_rate)
                };
                let rate = self.cfg.link_rate.min(host_rate);
                let mut admit = now.max(self.host_busy[dst.idx()]);
                for s in &servers {
                    admit = admit.max(self.busy[s.0 as usize]);
                }
                let done = admit + bytes as f64 / rate;
                for s in &servers {
                    self.busy[s.0 as usize] = done;
                }
                self.host_busy[dst.idx()] = done;
                let hops = self.flows[flow].route.as_ref().expect("routed").hops;
                let deliver = done + hops as f64 * self.cfg.prop_delay;
                self.queue.schedule(deliver, Ev::Delivered { flow });
                self.queue
                    .schedule(deliver + 2.0 * self.cfg.prop_delay, Ev::Ack { flow });
            }
            Ev::HostArrive { flow, bytes } => {
                let dst = self.flows[flow].comm.dst;
                // Reception shares the host with transmission: while the
                // node transmits, only the residual budget serves arrivals.
                let rate = if self.tx_active(dst) {
                    self.cfg.rx_budget_busy()
                } else {
                    self.cfg.host_budget.min(self.cfg.link_rate)
                };
                let start = now.max(self.host_busy[dst.idx()]);
                let done = start + bytes as f64 / rate;
                self.host_busy[dst.idx()] = done;
                self.queue.schedule(done, Ev::Delivered { flow });
                // window slot released after the reverse hop (ACK/credit/Go)
                self.queue
                    .schedule(done + 2.0 * self.cfg.prop_delay, Ev::Ack { flow });
            }
            Ev::Delivered { flow } => {
                let f = &mut self.flows[flow];
                if f.total_segs == 0 {
                    if !f.done {
                        f.done = true;
                        self.completed.push((f.key, now));
                    }
                    return;
                }
                f.delivered += 1;
                if f.delivered == f.total_segs && !f.done {
                    f.done = true;
                    let (key, src) = (f.key, f.comm.src);
                    self.completed.push((key, now));
                    let slot = &mut self.tx_flows[src.idx()];
                    *slot = slot.saturating_sub(1);
                }
            }
            Ev::Ack { flow } => {
                let f = &mut self.flows[flow];
                f.outstanding = f.outstanding.saturating_sub(1);
                self.try_inject(now, flow);
            }
        }
    }

    fn try_inject(&mut self, now: f64, flow: usize) {
        let cfg = self.cfg;
        let f = &mut self.flows[flow];
        if f.done || f.injected >= f.total_segs || f.inject_scheduled {
            return;
        }
        if f.outstanding >= cfg.window {
            return; // an Ack will retry
        }
        if now + 1e-15 < f.pace_next {
            f.inject_scheduled = true;
            let at = f.pace_next;
            self.queue.schedule(at, Ev::Inject { flow });
            return;
        }
        let bytes = f.seg_bytes(&cfg, f.injected);
        f.injected += 1;
        f.outstanding += 1;
        f.pace_next = f.pace_next.max(now) + bytes as f64 / cfg.flow_cap;
        if cfg.circuit {
            self.queue.schedule(now, Ev::CircuitAdmit { flow, bytes });
        } else {
            self.queue.schedule(
                now,
                Ev::Hop {
                    flow,
                    stage: 0,
                    bytes,
                },
            );
        }
        if f.outstanding < cfg.window && f.injected < f.total_segs {
            f.inject_scheduled = true;
            let at = f.pace_next;
            self.queue.schedule(at, Ev::Inject { flow });
        }
    }
}

/// Reuse counters of a [`PacketFabric`]'s retained network scratch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// `PacketNetwork`s constructed (first run, and capacity growth).
    pub networks_built: u64,
    /// Runs served by resetting the retained network instead.
    pub networks_reused: u64,
}

/// Batch façade over [`PacketNetwork`]: run whole schemes, measure
/// reference times and penalties.
///
/// The fabric retains one [`PacketNetwork`] and reuses it across runs
/// (resetting it between schemes, growing its crossbar capacity when a
/// scheme needs more nodes), so driving a battery of hundreds of schemes
/// through one fabric pays network construction once — the reuse that
/// `netbw_eval`'s fabric arenas are built on. [`FabricStats`] counts
/// builds vs reuses.
pub struct PacketFabric {
    cfg: FabricConfig,
    nodes: usize,
    scratch: Option<PacketNetwork>,
    stats: FabricStats,
}

impl Clone for PacketFabric {
    /// Clones the configuration and capacity; the retained network and the
    /// reuse counters stay with the original.
    fn clone(&self) -> Self {
        PacketFabric::new(self.cfg, self.nodes)
    }
}

impl std::fmt::Debug for PacketFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketFabric")
            .field("cfg", &self.cfg)
            .field("nodes", &self.nodes)
            .field("has_scratch", &self.scratch.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PacketFabric {
    /// A fabric over a crossbar large enough for `nodes` nodes.
    pub fn new(cfg: FabricConfig, nodes: usize) -> Self {
        cfg.validate();
        PacketFabric {
            cfg,
            nodes: nodes.max(2),
            scratch: None,
            stats: FabricStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Current node capacity (grows when a scheme needs more nodes).
    pub fn capacity(&self) -> usize {
        self.nodes
    }

    /// Network build/reuse counters since construction.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// The retained network, reset and large enough for `nodes` nodes.
    fn network_for(&mut self, nodes: usize) -> &mut PacketNetwork {
        let need = nodes.max(self.nodes);
        if self
            .scratch
            .as_ref()
            .is_some_and(|n| n.node_capacity() >= need)
        {
            self.stats.networks_reused += 1;
            let net = self.scratch.as_mut().expect("capacity checked");
            net.reset();
            net
        } else {
            self.nodes = need;
            self.stats.networks_built += 1;
            self.scratch.insert(PacketNetwork::new(self.cfg, need))
        }
    }

    /// Completion times for a scheme, all communications starting at 0.
    /// The result is aligned with `graph.comms()`.
    pub fn run_scheme(&mut self, graph: &CommGraph) -> Vec<f64> {
        let starts = vec![0.0; graph.len()];
        self.run_with_starts(graph.comms(), &starts)
    }

    /// Completion times with explicit start times.
    pub fn run_with_starts(&mut self, comms: &[Communication], starts: &[f64]) -> Vec<f64> {
        assert_eq!(comms.len(), starts.len());
        let max_node = comms
            .iter()
            .flat_map(|c| [c.src.idx(), c.dst.idx()])
            .max()
            .map_or(self.nodes, |m| (m + 1).max(self.nodes));
        let net = self.network_for(max_node);
        let mut order: Vec<usize> = (0..comms.len()).collect();
        order.sort_by(|&a, &b| starts[a].total_cmp(&starts[b]));
        for &i in &order {
            net.add(i as FlowKey, comms[i], starts[i]);
        }
        let done = net.run_to_completion();
        let mut out = vec![f64::NAN; comms.len()];
        for (key, t) in done {
            out[key as usize] = t - starts[key as usize];
        }
        assert!(
            out.iter().all(|t| t.is_finite()),
            "every transfer must complete"
        );
        out
    }

    /// The paper's reference time: one uncontended transfer of `size` bytes
    /// between two otherwise idle nodes (§IV.B).
    pub fn reference_time(&mut self, size: u64) -> f64 {
        let comm = Communication::new(0u32, 1u32, size);
        self.run_with_starts(&[comm], &[0.0])[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbw_graph::schemes;
    use netbw_graph::units::MB;

    fn penalties(cfg: FabricConfig, graph: &CommGraph) -> Vec<f64> {
        let mut fab = PacketFabric::new(cfg, graph.nodes().len().max(2));
        let times = fab.run_scheme(graph);
        graph
            .comms()
            .iter()
            .zip(&times)
            .map(|(c, t)| t / fab.reference_time(c.size))
            .collect()
    }

    #[test]
    fn single_flow_achieves_cap() {
        for cfg in FabricConfig::paper_fabrics() {
            let mut fab = PacketFabric::new(cfg, 2);
            let t = fab.reference_time(20 * MB);
            let ideal = 20e6 / cfg.flow_cap;
            assert!(
                (t - ideal) / ideal < 0.03,
                "{}: tref {t:.4} vs ideal {ideal:.4}",
                cfg.name
            );
        }
    }

    #[test]
    fn gige_outgoing_ladder_matches_fig2() {
        // paper: k=2 -> 1.5 each, k=3 -> 2.25 each
        let p2 = penalties(FabricConfig::gige(), &schemes::outgoing_ladder(2));
        for p in &p2 {
            assert!((p - 1.5).abs() < 0.06, "k=2: {p2:?}");
        }
        let p3 = penalties(FabricConfig::gige(), &schemes::outgoing_ladder(3));
        for p in &p3 {
            assert!((p - 2.25).abs() < 0.09, "k=3: {p3:?}");
        }
    }

    #[test]
    fn myrinet_outgoing_ladder_matches_fig2() {
        // paper: k=2 -> 1.9 each, k=3 -> 2.8 each
        let p2 = penalties(FabricConfig::myrinet2000(), &schemes::outgoing_ladder(2));
        for p in &p2 {
            assert!((p - 1.9).abs() < 0.1, "k=2: {p2:?}");
        }
        let p3 = penalties(FabricConfig::myrinet2000(), &schemes::outgoing_ladder(3));
        for p in &p3 {
            assert!((p - 2.8).abs() < 0.15, "k=3: {p3:?}");
        }
    }

    #[test]
    fn infiniband_outgoing_ladder_matches_fig2() {
        // paper: k=2 -> 1.725 each, k=3 -> 2.61 each
        let p2 = penalties(FabricConfig::infinihost3(), &schemes::outgoing_ladder(2));
        for p in &p2 {
            assert!((p - 1.725).abs() < 0.09, "k=2: {p2:?}");
        }
        let p3 = penalties(FabricConfig::infinihost3(), &schemes::outgoing_ladder(3));
        for p in &p3 {
            assert!((p - 2.61).abs() < 0.13, "k=3: {p3:?}");
        }
    }

    #[test]
    fn scheme4_income_outgo_coupling() {
        // paper: GigE d = 1.15, Myrinet d = 1.45, IB d = 1.14; outgoing
        // flows essentially unchanged.
        let expect = [
            (FabricConfig::gige(), 1.15, 0.08),
            (FabricConfig::myrinet2000(), 1.45, 0.12),
            (FabricConfig::infinihost3(), 1.14, 0.06),
        ];
        for (cfg, want_d, tol) in expect {
            let p = penalties(cfg, &schemes::fig2_scheme(4));
            let d = p[3];
            assert!(
                (d - want_d).abs() < tol,
                "{}: d = {d:.3}, paper {want_d}",
                cfg.name
            );
            // a,b,c within 8% of the pure-outgoing penalty
            let pure = penalties(cfg, &schemes::outgoing_ladder(3))[0];
            for &abc in &p[..3] {
                assert!((abc - pure).abs() / pure < 0.08, "{}: {p:?}", cfg.name);
            }
        }
    }

    #[test]
    fn incoming_flows_share_residual_budget() {
        // scheme 5: two incoming flows split the residual host budget, so
        // each is roughly twice scheme 4's single-flow penalty; ordering
        // must hold on every fabric.
        for cfg in FabricConfig::paper_fabrics() {
            let p4 = penalties(cfg, &schemes::fig2_scheme(4));
            let p5 = penalties(cfg, &schemes::fig2_scheme(5));
            assert!(
                p5[3] > p4[3] * 1.5,
                "{}: d went {:.2} -> {:.2}",
                cfg.name,
                p4[3],
                p5[3]
            );
            // outgoing flows never speed up when incoming load is added
            assert!(p5[0] >= p4[0] - 0.1, "{}", cfg.name);
        }
    }

    #[test]
    fn incast_is_symmetric_to_outcast() {
        // income conflicts behave like outgoing conflicts (same β): the
        // receive side serializes identically.
        for cfg in FabricConfig::paper_fabrics() {
            let pin = penalties(cfg, &schemes::incoming_ladder(3));
            let pout = penalties(cfg, &schemes::outgoing_ladder(3));
            for (i, o) in pin.iter().zip(&pout) {
                assert!(
                    (i - o).abs() / o < 0.05,
                    "{}: in {pin:?} out {pout:?}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn zero_size_message_completes_at_startup() {
        let cfg = FabricConfig::gige();
        let mut net = PacketNetwork::new(cfg, 2);
        net.add(0, Communication::new(0u32, 1u32, 0), 1.0);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!((done[0].1 - (1.0 + cfg.startup)).abs() < 1e-12);
    }

    #[test]
    fn incremental_advance_matches_batch() {
        let cfg = FabricConfig::myrinet2000();
        let g = schemes::fig5().with_uniform_size(2 * MB);
        let mut fab = PacketFabric::new(cfg, 6);
        let batch = fab.run_scheme(&g);

        let mut net = PacketNetwork::new(cfg, 6);
        for (i, c) in g.comms().iter().enumerate() {
            net.add(i as u64, *c, 0.0);
        }
        let mut done = Vec::new();
        // advance in arbitrary small steps: results must be identical
        let mut t = 0.0;
        while net.in_flight() > 0 {
            t += 0.001;
            done.extend(net.advance_to(t));
        }
        for (key, at) in done {
            assert!((batch[key as usize] - at).abs() < 1e-9, "flow {key}");
        }
    }

    #[test]
    fn staggered_start_detects_partial_overlap() {
        // second flow starts when the first is half done: both slower than
        // solo, faster than full overlap.
        let cfg = FabricConfig::gige();
        let mut fab = PacketFabric::new(cfg, 3);
        let comms = [
            Communication::new(0u32, 1u32, 8 * MB),
            Communication::new(0u32, 2u32, 8 * MB),
        ];
        let tref = fab.reference_time(8 * MB);
        let t = fab.run_with_starts(&comms, &[0.0, tref / 2.0]);
        assert!(t[0] > tref * 1.2 && t[0] < tref * 1.9, "t0 = {}", t[0]);
        assert!(t[1] > tref * 1.2 && t[1] < tref * 1.9, "t1 = {}", t[1]);
    }

    #[test]
    fn circuit_mode_convoys_dense_graphs() {
        // Wormhole circuit-per-packet blocking is faithful per packet but,
        // at coarse segment granularity, reservation dead-time compounds
        // on dense graphs: MK2 under circuit mode is far slower than under
        // store-and-forward. This documents why `circuit` is off by
        // default for the Myrinet preset.
        let mut circuit_cfg = FabricConfig::myrinet2000();
        circuit_cfg.circuit = true;
        let saf_cfg = FabricConfig::myrinet2000();
        let g = schemes::mk2().with_uniform_size(2 * MB);
        let t_circuit = PacketFabric::new(circuit_cfg, 5).run_scheme(&g);
        let t_saf = PacketFabric::new(saf_cfg, 5).run_scheme(&g);
        let worst_circuit = t_circuit.iter().cloned().fold(0.0, f64::max);
        let worst_saf = t_saf.iter().cloned().fold(0.0, f64::max);
        assert!(
            worst_circuit > 1.5 * worst_saf,
            "expected convoy collapse: circuit {worst_circuit:.3} vs saf {worst_saf:.3}"
        );
        // on a sparse scheme the two modes agree closely
        let sparse = schemes::outgoing_ladder(2).with_uniform_size(2 * MB);
        let c = PacketFabric::new(circuit_cfg, 3).run_scheme(&sparse);
        let s = PacketFabric::new(saf_cfg, 3).run_scheme(&sparse);
        for (a, b) in c.iter().zip(&s) {
            assert!((a - b).abs() / b < 0.15, "sparse: {a} vs {b}");
        }
    }

    #[test]
    fn reused_fabric_matches_fresh_fabrics_bit_for_bit() {
        // One fabric swept across a battery (with capacity growth in the
        // middle) answers exactly like a fresh fabric per scheme.
        let cfg = FabricConfig::myrinet2000();
        let mut reused = PacketFabric::new(cfg, 2);
        let battery = [
            schemes::outgoing_ladder(2).with_uniform_size(MB),
            schemes::mk2().with_uniform_size(2 * MB),
            schemes::fig2_scheme(4).with_uniform_size(MB),
            schemes::outgoing_ladder(2).with_uniform_size(MB),
        ];
        for g in &battery {
            let a = reused.run_scheme(g);
            let b = PacketFabric::new(cfg, 2).run_scheme(g);
            assert_eq!(a, b, "{}", g.name());
        }
        assert_eq!(reused.reference_time(MB), {
            let mut fresh = PacketFabric::new(cfg, 2);
            fresh.reference_time(MB)
        });
        let stats = reused.stats();
        assert_eq!(stats.networks_built + stats.networks_reused, 5);
        assert!(
            stats.networks_reused >= 3,
            "only capacity growth may rebuild: {stats:?}"
        );
        assert!(reused.capacity() >= 5, "mk2 grew the crossbar");
    }

    #[test]
    #[should_panic(expected = "intra-node")]
    fn rejects_intra_node_flows() {
        let mut net = PacketNetwork::new(FabricConfig::gige(), 2);
        net.add(0, Communication::new(1u32, 1u32, 100), 0.0);
    }
}
