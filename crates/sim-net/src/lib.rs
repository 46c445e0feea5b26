//! Wormhole-routed bidirectional mesh network model.
//!
//! Reproduces the interconnect of the paper's simulated machine
//! (Section 3.1):
//!
//! * bi-directional wormhole-routed mesh with dimension-ordered routing,
//! * network clock equal to the processor clock,
//! * 2-cycle switch delay applied to the header of each message at every hop,
//! * 16-bit-wide datapath (one 2-byte flit per cycle),
//! * contention modeled **only at the source and destination** of messages.
//!
//! Because contention is endpoint-only, the fabric itself is a fixed-latency
//! pipe and each network interface reduces to two FIFO servers (transmit and
//! receive). A message of `f` flits from `s` to `d` with `h` hops:
//!
//! 1. waits for the source transmit port, then occupies it for `f` cycles;
//! 2. its header crosses the mesh in `2·h` cycles, flits streaming behind;
//! 3. waits for the destination receive port, then occupies it for `f`
//!    cycles; delivery completes when the last flit is accepted.

pub mod mesh;

pub use mesh::MeshShape;

use std::collections::BTreeMap;

use sim_engine::{Cycle, FifoServer, NodeId};

/// Static network parameters (defaults follow the paper).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Cycles a switch delays the header of a message at each hop.
    pub switch_delay: Cycle,
    /// Bytes carried per flit (16-bit datapath = 2 bytes).
    pub flit_bytes: u32,
    /// Bytes of header prepended to every message (routing + command info).
    pub header_bytes: u32,
    /// Latency of a node sending a message to itself (protocol transactions
    /// whose home is the local node bypass the mesh entirely).
    pub local_delay: Cycle,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { switch_delay: 2, flit_bytes: 2, header_bytes: 8, local_delay: 1 }
    }
}

/// Aggregate traffic counters for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct NetCounters {
    /// Messages that traversed the mesh (excludes node-local messages).
    pub messages: u64,
    /// Node-local (same source and destination) messages.
    pub local_messages: u64,
    /// Total flits injected into the mesh.
    pub flits: u64,
    /// Sum over messages of hop counts (for average-distance reporting).
    pub total_hops: u64,
}

/// The decomposed delivery record of one mesh message (an opt-in
/// observability feature; see [`Network::enable_journeys`]).
///
/// The endpoint-contention model makes the decomposition exact:
///
/// ```text
/// delivered − inject = tx_wait + tx_service + wire + rx_wait
/// ```
///
/// * `tx_wait` — cycles the message queued behind earlier traffic at the
///   source transmit port;
/// * `tx_service` (= `flits`) — cycles the port spends streaming the
///   message's flits; wormhole pipelining means the same span also covers
///   the tail flit's lag behind the header at every later stage, so it
///   appears exactly once in the identity;
/// * `wire` — `switch_delay · hops` of uncontended header pipelining
///   through the mesh;
/// * `rx_wait` — cycles the header waited for the destination receive
///   port beyond its uncontended arrival.
///
/// Node-local messages bypass the mesh and produce no journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Journey {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Flits the message occupied on every port it crossed.
    pub flits: u64,
    /// Switch hops between source and destination.
    pub hops: u64,
    /// Cycle the message was handed to the source port.
    pub inject: Cycle,
    /// Cycles spent queued at the source transmit port.
    pub tx_wait: Cycle,
    /// Cycles of header pipelining through the mesh (`switch_delay · hops`).
    pub wire: Cycle,
    /// Cycles the header queued at the destination receive port.
    pub rx_wait: Cycle,
    /// Cycle the last flit was accepted at the destination.
    pub delivered: Cycle,
}

impl Journey {
    /// Cycles the source port spent streaming this message's flits.
    pub fn tx_service(&self) -> Cycle {
        self.flits
    }

    /// End-to-end delivery latency.
    pub fn total(&self) -> Cycle {
        self.delivered - self.inject
    }

    /// Whether the four components close exactly against the total
    /// (they always do by construction; exposed for property tests).
    pub fn closes(&self) -> bool {
        self.tx_wait + self.tx_service() + self.wire + self.rx_wait == self.total()
    }
}

/// Flit counters over the mesh's *physical* directed links (adjacent node
/// pairs), as opposed to the per-(source, destination) endpoint pairs of
/// [`Network::link_flits`]. Indexed per [`MeshShape::links`].
#[derive(Debug, Clone)]
struct PhysLinkStats {
    links: Vec<(NodeId, NodeId)>,
    index: BTreeMap<(NodeId, NodeId), usize>,
    flits: Vec<u64>,
}

/// The mesh network: topology plus per-node interface ports.
#[derive(Debug, Clone)]
pub struct Network {
    shape: MeshShape,
    cfg: NetConfig,
    tx: Vec<FifoServer>,
    rx: Vec<FifoServer>,
    counters: NetCounters,
    /// Per-(src, dst) flit counts; `None` until enabled (the map costs a
    /// lookup per message, so it is an opt-in observability feature).
    link_flits: Option<BTreeMap<(NodeId, NodeId), u64>>,
    /// When on, each mesh `send` leaves its decomposed delivery record in
    /// `last_journey` for the caller to take and tag (opt-in).
    record_journeys: bool,
    last_journey: Option<Journey>,
    /// Physical directed-link flit counters; `None` until enabled (each
    /// message walks its route once when on).
    phys: Option<PhysLinkStats>,
}

impl Network {
    /// Builds a network for `nodes` nodes using the squarest mesh shape.
    pub fn new(nodes: usize, cfg: NetConfig) -> Self {
        let shape = MeshShape::for_nodes(nodes);
        Network {
            shape,
            cfg,
            tx: vec![FifoServer::new(); nodes],
            rx: vec![FifoServer::new(); nodes],
            counters: NetCounters::default(),
            link_flits: None,
            record_journeys: false,
            last_journey: None,
            phys: None,
        }
    }

    /// Starts tracking per-(source, destination) flit counts (counts only
    /// traffic sent after the call; node-local messages are excluded, as in
    /// [`NetCounters::flits`]).
    pub fn enable_link_stats(&mut self) {
        if self.link_flits.is_none() {
            self.link_flits = Some(BTreeMap::new());
        }
    }

    /// Per-(source, destination) flit counts, in node order; empty unless
    /// [`Network::enable_link_stats`] was called.
    pub fn link_flits(&self) -> Vec<(NodeId, NodeId, u64)> {
        self.link_flits
            .as_ref()
            .map(|m| m.iter().map(|(&(s, d), &f)| (s, d, f)).collect())
            .unwrap_or_default()
    }

    /// Starts recording a [`Journey`] per mesh message (counts only traffic
    /// sent after the call). Take each record with
    /// [`Network::take_last_journey`] right after the `send` that produced
    /// it — the slot holds one journey and is overwritten by the next send.
    pub fn enable_journeys(&mut self) {
        self.record_journeys = true;
    }

    /// The journey of the most recent [`Network::send`], when journey
    /// recording is on and that send crossed the mesh (node-local messages
    /// leave `None`). Taking clears the slot.
    pub fn take_last_journey(&mut self) -> Option<Journey> {
        self.last_journey.take()
    }

    /// Starts tracking flits over the mesh's physical directed links
    /// (counts only traffic sent after the call). Each message then credits
    /// its flit count to every link on its dimension-ordered route — a
    /// message of `f` flits over `h` hops adds `f` to each of `h` links.
    pub fn enable_phys_link_stats(&mut self) {
        if self.phys.is_none() {
            let links = self.shape.links();
            let index = links.iter().enumerate().map(|(i, &l)| (l, i)).collect();
            let flits = vec![0; links.len()];
            self.phys = Some(PhysLinkStats { links, index, flits });
        }
    }

    /// Flits over every physical directed link, in the canonical
    /// [`MeshShape::links`] order (zero-traffic links included); empty
    /// unless [`Network::enable_phys_link_stats`] was called.
    pub fn phys_link_flits(&self) -> Vec<(NodeId, NodeId, u64)> {
        self.phys
            .as_ref()
            .map(|p| p.links.iter().zip(&p.flits).map(|(&(a, b), &f)| (a, b, f)).collect())
            .unwrap_or_default()
    }

    /// The raw per-link flit counters in [`MeshShape::links`] order, for
    /// cheap periodic snapshots; `None` unless physical-link stats are on.
    pub fn phys_flits_raw(&self) -> Option<&[u64]> {
        self.phys.as_ref().map(|p| p.flits.as_slice())
    }

    /// The mesh shape chosen for this node count.
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// Network configuration in use.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Number of flits a message with `payload_bytes` of payload occupies.
    pub fn flits_for(&self, payload_bytes: u32) -> u64 {
        let total = self.cfg.header_bytes + payload_bytes;
        total.div_ceil(self.cfg.flit_bytes) as u64
    }

    /// Injects a message at cycle `now` and returns its delivery cycle at
    /// the destination.
    ///
    /// Endpoint contention is modeled by the two FIFO port servers; the mesh
    /// in between is an uncontended pipeline (per the paper's methodology).
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, payload_bytes: u32) -> Cycle {
        if src == dst {
            self.counters.local_messages += 1;
            if self.record_journeys {
                self.last_journey = None;
            }
            return now + self.cfg.local_delay;
        }
        let flits = self.flits_for(payload_bytes);
        let hops = self.shape.hops(src, dst) as Cycle;
        self.counters.messages += 1;
        self.counters.flits += flits;
        self.counters.total_hops += hops;
        if let Some(links) = self.link_flits.as_mut() {
            *links.entry((src, dst)).or_insert(0) += flits;
        }
        if let Some(p) = self.phys.as_mut() {
            for w in self.shape.route(src, dst).windows(2) {
                p.flits[p.index[&(w[0], w[1])]] += flits;
            }
        }

        // Source port: all flits leave the NI back to back.
        let tx_start = self.tx[src].next_start(now);
        let tx_done = self.tx[src].occupy(now, flits);
        debug_assert_eq!(tx_done, tx_start + flits);
        // Header pipelines through `hops` switches; the tail flit reaches the
        // destination `flits` cycles after the header started out.
        let head_arrival = tx_start + self.cfg.switch_delay * hops;
        // Destination port: accepts one message at a time at flit rate.
        let delivered = self.rx[dst].occupy(head_arrival, flits);
        if self.record_journeys {
            self.last_journey = Some(Journey {
                src,
                dst,
                flits,
                hops,
                inject: now,
                tx_wait: tx_start - now,
                wire: head_arrival - tx_start,
                rx_wait: delivered - head_arrival - flits,
                delivered,
            });
        }
        delivered
    }

    /// Traffic counters accumulated so far.
    pub fn counters(&self) -> &NetCounters {
        &self.counters
    }

    /// Cycles node `n`'s transmit port spent moving flits.
    pub fn tx_busy(&self, n: NodeId) -> Cycle {
        self.tx[n].busy_cycles()
    }

    /// Cycles node `n`'s receive port spent accepting flits.
    pub fn rx_busy(&self, n: NodeId) -> Cycle {
        self.rx[n].busy_cycles()
    }

    /// Exports the simulation-visible network state — every port server's
    /// raw parts plus the traffic counters — for checkpointing. The
    /// observability opt-ins (link stats, journeys, physical-link stats)
    /// are run-scoped instruments, not simulated state, and are excluded.
    pub fn snapshot_core(&self) -> NetSnapshot {
        NetSnapshot {
            tx: self.tx.iter().map(FifoServer::to_raw_parts).collect(),
            rx: self.rx.iter().map(FifoServer::to_raw_parts).collect(),
            counters: self.counters.clone(),
        }
    }

    /// Restores state exported by [`Network::snapshot_core`]. The mesh
    /// shape and config must match the network this snapshot came from.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's node count disagrees with this network.
    pub fn restore_core(&mut self, snap: NetSnapshot) {
        assert_eq!(snap.tx.len(), self.tx.len(), "snapshot node count disagrees with the network");
        assert_eq!(snap.rx.len(), self.rx.len(), "snapshot node count disagrees with the network");
        self.tx = snap.tx.into_iter().map(FifoServer::from_raw_parts).collect();
        self.rx = snap.rx.into_iter().map(FifoServer::from_raw_parts).collect();
        self.counters = snap.counters;
    }
}

/// The simulation-visible state of a [`Network`], as exported by
/// [`Network::snapshot_core`]: per-node transmit/receive port servers
/// (raw parts, in node order) and the aggregate traffic counters.
#[derive(Debug, Clone)]
pub struct NetSnapshot {
    /// Transmit-port server states, in node order.
    pub tx: Vec<[u64; 4]>,
    /// Receive-port server states, in node order.
    pub rx: Vec<[u64; 4]>,
    /// Aggregate traffic counters.
    pub counters: NetCounters,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: usize) -> Network {
        Network::new(nodes, NetConfig::default())
    }

    #[test]
    fn flit_count_rounds_up() {
        let n = net(4);
        // 8-byte header + 4-byte word = 12 bytes = 6 flits.
        assert_eq!(n.flits_for(4), 6);
        // 8 + 64 = 72 bytes = 36 flits.
        assert_eq!(n.flits_for(64), 36);
        // Header alone: 4 flits; odd payload rounds up.
        assert_eq!(n.flits_for(0), 4);
        assert_eq!(n.flits_for(1), 5);
    }

    #[test]
    fn uncontended_latency_formula() {
        let mut n = net(32); // 8x4 mesh
        let hops = n.shape().hops(0, 31) as u64;
        let flits = n.flits_for(0);
        let delivered = n.send(1000, 0, 31, 0);
        assert_eq!(delivered, 1000 + 2 * hops + flits);
    }

    #[test]
    fn local_messages_bypass_mesh() {
        let mut n = net(4);
        assert_eq!(n.send(10, 2, 2, 64), 11);
        assert_eq!(n.counters().messages, 0);
        assert_eq!(n.counters().local_messages, 1);
    }

    #[test]
    fn source_port_serializes() {
        let mut n = net(4);
        let f = n.flits_for(0);
        let first = n.send(0, 0, 1, 0);
        let second = n.send(0, 0, 2, 0);
        // The second message cannot start transmitting until the first's
        // flits have left the source port.
        assert_eq!(second, first + f);
    }

    #[test]
    fn destination_port_serializes() {
        let mut n = net(9); // 3x3
        let f = n.flits_for(0);
        // Two different sources, equidistant from destination 4 (center).
        let a = n.send(0, 1, 4, 0);
        let b = n.send(0, 7, 4, 0);
        assert_eq!(n.shape().hops(1, 4), n.shape().hops(7, 4));
        // Same head arrival; the receive port takes them one after another.
        assert_eq!(b, a + f);
    }

    #[test]
    fn longer_distance_takes_longer() {
        let mut a = net(32);
        let mut b = net(32);
        let near = a.send(0, 0, 1, 16);
        let far = b.send(0, 0, 31, 16);
        assert!(far > near);
    }

    #[test]
    fn counters_accumulate() {
        let mut n = net(4);
        n.send(0, 0, 1, 0);
        n.send(0, 1, 0, 64);
        let c = n.counters();
        assert_eq!(c.messages, 2);
        assert_eq!(c.flits, n.flits_for(0) + n.flits_for(64));
        assert_eq!(c.total_hops, 2);
    }

    #[test]
    fn journeys_decompose_exactly_and_are_opt_in() {
        let mut n = net(4); // 2x2
        n.send(0, 0, 1, 0);
        assert!(n.take_last_journey().is_none(), "disabled by default");
        n.enable_journeys();
        // Two back-to-back sends from the same source: the second waits at
        // the transmit port.
        let f = n.flits_for(0);
        n.send(100, 0, 1, 0);
        let first = n.take_last_journey().unwrap();
        assert_eq!(
            first,
            Journey {
                src: 0,
                dst: 1,
                flits: f,
                hops: 1,
                inject: 100,
                tx_wait: 0,
                wire: 2,
                rx_wait: 0,
                delivered: 100 + 2 + f,
            }
        );
        n.send(100, 0, 2, 0);
        let second = n.take_last_journey().unwrap();
        assert_eq!(second.tx_wait, f, "queued behind the first message's flits");
        assert!(first.closes() && second.closes());
        assert_eq!(second.total(), second.tx_wait + second.tx_service() + second.wire + second.rx_wait);
        assert!(n.take_last_journey().is_none(), "taking clears the slot");
        // Receive-port contention shows up as rx_wait.
        let mut m = net(9); // 3x3: nodes 1 and 7 are equidistant from 4
        m.enable_journeys();
        m.send(0, 1, 4, 0);
        m.send(0, 7, 4, 0);
        let contended = m.take_last_journey().unwrap();
        assert_eq!(contended.rx_wait, m.flits_for(0));
        assert!(contended.closes());
        // Local messages leave no journey.
        let mut l = net(4);
        l.enable_journeys();
        l.send(5, 3, 3, 64);
        assert!(l.take_last_journey().is_none());
    }

    #[test]
    fn phys_link_flits_follow_routes() {
        let mut n = net(9); // 3x3
        n.send(0, 0, 8, 0);
        assert!(n.phys_link_flits().is_empty(), "disabled by default");
        assert!(n.phys_flits_raw().is_none());
        n.enable_phys_link_stats();
        let f0 = n.flits_for(0);
        let f64 = n.flits_for(64);
        n.send(10, 0, 8, 0); // route 0,1,2,5,8 (X then Y)
        n.send(20, 1, 2, 64); // route 1,2
        n.send(30, 4, 4, 64); // local: no physical links
        let flits: std::collections::BTreeMap<(NodeId, NodeId), u64> =
            n.phys_link_flits().into_iter().filter(|&(_, _, f)| f > 0).map(|(a, b, f)| ((a, b), f)).collect();
        assert_eq!(
            flits,
            std::collections::BTreeMap::from([((0, 1), f0), ((1, 2), f0 + f64), ((2, 5), f0), ((5, 8), f0),])
        );
        // Flit·hop conservation: per-link sums equal Σ flits·hops.
        let total: u64 = n.phys_link_flits().iter().map(|&(_, _, f)| f).sum();
        assert_eq!(total, f0 * 4 + f64);
        // The canonical order covers every directed mesh link, zeros kept.
        assert_eq!(n.phys_link_flits().len(), n.shape().links().len());
    }

    #[test]
    fn link_stats_are_opt_in() {
        let mut n = net(4);
        n.send(0, 0, 1, 0);
        assert!(n.link_flits().is_empty(), "disabled by default");
        n.enable_link_stats();
        n.send(10, 0, 1, 0);
        n.send(20, 0, 1, 64);
        n.send(30, 1, 2, 0);
        n.send(40, 3, 3, 64); // local: not a mesh link
        assert_eq!(n.link_flits(), vec![(0, 1, n.flits_for(0) + n.flits_for(64)), (1, 2, n.flits_for(0)),]);
    }
}
