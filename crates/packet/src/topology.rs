//! Network topology and routing.
//!
//! The paper's clusters use full-bisection fat trees, so core contention is
//! absent and sharing happens at the endpoints (NIC emission, NIC
//! reception). The topology is therefore a non-blocking crossbar: one
//! egress server per node, one ingress server per node.

use netbw_graph::NodeId;

/// A serialization point in the fabric (a directed link or port engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ServerId(pub u32);

/// Route of a segment: the ordered servers it must serialize through,
/// excluding the receiver's host stage (handled separately).
#[derive(Clone, Debug, PartialEq)]
pub struct Route {
    /// Serialization servers, in path order.
    pub servers: Vec<ServerId>,
    /// Number of propagation hops (`servers` transitions + final hop).
    pub hops: usize,
}

/// Fabric topology: computes routes and owns the server name space.
#[derive(Clone, Debug)]
pub struct Topology {
    nodes: usize,
    server_count: u32,
}

impl Topology {
    /// Non-blocking crossbar over `nodes` nodes (the paper's setting).
    pub fn crossbar(nodes: usize) -> Self {
        assert!(nodes >= 2, "topology needs at least two nodes");
        Topology {
            nodes,
            // servers: tx[node] then down[node]
            server_count: (nodes * 2) as u32,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total number of serialization servers.
    pub fn server_count(&self) -> u32 {
        self.server_count
    }

    /// The egress (NIC transmit) server of a node.
    fn tx_server(&self, node: NodeId) -> ServerId {
        assert!((node.idx()) < self.nodes, "node {node} out of range");
        ServerId(node.0)
    }

    /// The ingress (switch-to-NIC delivery) server of a node.
    fn down_server(&self, node: NodeId) -> ServerId {
        assert!((node.idx()) < self.nodes, "node {node} out of range");
        ServerId(self.nodes as u32 + node.0)
    }

    /// Route from `src` to `dst`.
    ///
    /// # Panics
    /// On out-of-range nodes or `src == dst` (intra-node transfers never
    /// enter the fabric).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route {
        assert!(src != dst, "intra-node traffic does not enter the fabric");
        Route {
            servers: vec![self.tx_server(src), self.down_server(dst)],
            hops: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_routes_have_two_stages() {
        let t = Topology::crossbar(4);
        let r = t.route(NodeId(0), NodeId(3));
        assert_eq!(r.servers.len(), 2);
        assert_eq!(r.servers[0], t.tx_server(NodeId(0)));
        assert_eq!(r.servers[1], t.down_server(NodeId(3)));
        assert_eq!(r.hops, 2);
    }

    #[test]
    fn distinct_servers_per_node_and_direction() {
        let t = Topology::crossbar(4);
        let mut all = std::collections::HashSet::new();
        for n in 0..4u32 {
            assert!(all.insert(t.tx_server(NodeId(n))));
            assert!(all.insert(t.down_server(NodeId(n))));
        }
        assert_eq!(all.len(), 8);
        assert_eq!(t.server_count(), 8);
    }

    #[test]
    #[should_panic(expected = "intra-node")]
    fn intra_node_route_panics() {
        Topology::crossbar(4).route(NodeId(1), NodeId(1));
    }

    #[test]
    fn server_ids_stay_in_bounds() {
        for t in [Topology::crossbar(2), Topology::crossbar(5)] {
            let n = t.nodes();
            for s in 0..n as u32 {
                for d in 0..n as u32 {
                    if s == d {
                        continue;
                    }
                    let r = t.route(NodeId(s), NodeId(d));
                    for srv in &r.servers {
                        assert!(srv.0 < t.server_count(), "server {srv:?} out of bounds");
                    }
                }
            }
        }
    }
}
