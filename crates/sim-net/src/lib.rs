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

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_engine::{Cycle, FifoServer, NodeId};

/// Cycles a switch delays the header of a message at each hop.
const SWITCH_DELAY: Cycle = 2;

/// Bytes carried per flit (16-bit datapath = 2 bytes).
const FLIT_BYTES: u32 = 2;

/// Bytes of header prepended to every message (routing + command info).
const HEADER_BYTES: u32 = 8;

/// Latency of a node sending a message to itself (protocol transactions
/// whose home is the local node bypass the mesh entirely).
const LOCAL_DELAY: Cycle = 1;

/// Aggregate traffic counters for one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

impl NetCounters {
    /// Writes the four counters in declaration order.
    pub fn encode(&self, w: &mut SnapWriter) {
        for v in [self.messages, self.local_messages, self.flits, self.total_hops] {
            w.u64(v);
        }
    }

    /// Reads counters written by [`NetCounters::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NetCounters {
            messages: r.u64()?,
            local_messages: r.u64()?,
            flits: r.u64()?,
            total_hops: r.u64()?,
        })
    }
}

/// The decomposed delivery record of one mesh message (an opt-in
/// observability feature; see [`Network::enable_observation`]).
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
/// * `wire` — `SWITCH_DELAY · hops` of uncontended header pipelining
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
    /// Cycles of header pipelining through the mesh (`SWITCH_DELAY · hops`).
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

/// The network's observation state, built by
/// [`Network::enable_observation`]. Everything is indexed by node or link
/// number, so recording a message neither allocates nor searches.
#[derive(Debug, Clone)]
struct Observation {
    /// Flits per (source, destination) endpoint pair, at
    /// `src * nodes + dst`; `None` until the pair sends a message.
    pair_flits: Vec<Option<u64>>,
    /// Every directed physical link, in [`MeshShape::links`] order.
    links: Vec<(NodeId, NodeId)>,
    /// Flits carried per physical link, in the same order.
    link_flits: Vec<u64>,
    /// The index of the link leaving each node toward −x, +x, −y and +y
    /// (`u32::MAX` where the mesh has no neighbour).
    link_toward: Vec<[u32; 4]>,
    /// The most recent mesh send's journey, until taken.
    last_journey: Option<Journey>,
}

/// [`Observation::link_toward`] directions.
const TO_LOWER_X: usize = 0;
const TO_HIGHER_X: usize = 1;
const TO_LOWER_Y: usize = 2;
const TO_HIGHER_Y: usize = 3;

impl Observation {
    fn new(shape: MeshShape) -> Self {
        let nodes = shape.nodes();
        let links = shape.links();
        let mut link_toward = vec![[u32::MAX; 4]; nodes];
        for (i, &(a, b)) in links.iter().enumerate() {
            let ((ax, ay), (bx, by)) = (shape.coords(a), shape.coords(b));
            let dir = if bx < ax {
                TO_LOWER_X
            } else if bx > ax {
                TO_HIGHER_X
            } else if by < ay {
                TO_LOWER_Y
            } else {
                TO_HIGHER_Y
            };
            link_toward[a][dir] = i as u32;
        }
        Observation {
            pair_flits: vec![None; nodes * nodes],
            link_flits: vec![0; links.len()],
            links,
            link_toward,
            last_journey: None,
        }
    }

    /// Records one mesh message: its flits on its endpoint pair and on
    /// every link of its X-then-Y route, walked hop by hop through
    /// `link_toward`, and its journey in the slot. Out of line, so that
    /// `send` stays small when nothing observes.
    #[inline(never)]
    fn record(&mut self, shape: MeshShape, journey: Journey) {
        let Journey { src, dst, flits, .. } = journey;
        *self.pair_flits[src * shape.nodes() + dst].get_or_insert(0) += flits;
        let ((sx, sy), (dx, dy)) = (shape.coords(src), shape.coords(dst));
        let x_leg = (if dx < sx { TO_LOWER_X } else { TO_HIGHER_X }, sx.abs_diff(dx));
        let y_leg = (if dy < sy { TO_LOWER_Y } else { TO_HIGHER_Y }, sy.abs_diff(dy));
        let mut at = src;
        for (dir, hops) in [x_leg, y_leg] {
            for _ in 0..hops {
                let link = self.link_toward[at][dir] as usize;
                self.link_flits[link] += flits;
                at = self.links[link].1;
            }
        }
        debug_assert_eq!(at, dst, "the route ends at the destination");
        self.last_journey = Some(journey);
    }
}

/// The mesh network: topology plus per-node interface ports.
#[derive(Debug, Clone)]
pub struct Network {
    shape: MeshShape,
    tx: Vec<FifoServer>,
    rx: Vec<FifoServer>,
    counters: NetCounters,
    /// Endpoint-pair and physical-link flit counters and the journey slot;
    /// `None` until [`Network::enable_observation`].
    obs: Option<Box<Observation>>,
}

impl Network {
    /// Builds a network for `nodes` nodes using the squarest mesh shape.
    pub fn new(nodes: usize) -> Self {
        let shape = MeshShape::for_nodes(nodes);
        Network {
            shape,
            tx: vec![FifoServer::new(); nodes],
            rx: vec![FifoServer::new(); nodes],
            counters: NetCounters::default(),
            obs: None,
        }
    }

    /// Starts observing traffic sent after the call: flits per
    /// (source, destination) endpoint pair, flits per physical directed
    /// link, and a [`Journey`] per mesh message. A message of `f` flits
    /// over `h` hops adds `f` to each of the `h` links of its
    /// dimension-ordered route. Node-local messages bypass the mesh and
    /// count toward none of these.
    pub fn enable_observation(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Box::new(Observation::new(self.shape)));
        }
    }

    /// Per-(source, destination) flit counts for every pair that sent a
    /// mesh message, in node order; empty unless observing.
    pub fn link_flits(&self) -> Vec<(NodeId, NodeId, u64)> {
        let Some(o) = self.obs.as_deref() else { return Vec::new() };
        let nodes = self.shape.nodes();
        o.pair_flits.iter().enumerate().filter_map(|(i, f)| f.map(|f| (i / nodes, i % nodes, f))).collect()
    }

    /// The journey of the most recent [`Network::send`], when observing and
    /// that send crossed the mesh (node-local messages leave `None`). The
    /// slot holds one journey: take it right after the send that produced
    /// it. Taking clears the slot.
    pub fn take_last_journey(&mut self) -> Option<Journey> {
        self.obs.as_mut().and_then(|o| o.last_journey.take())
    }

    /// Flits over every physical directed link, in the canonical
    /// [`MeshShape::links`] order (zero-traffic links included); empty
    /// unless observing.
    pub fn phys_link_flits(&self) -> Vec<(NodeId, NodeId, u64)> {
        self.obs
            .as_deref()
            .map(|o| o.links.iter().zip(&o.link_flits).map(|(&(a, b), &f)| (a, b, f)).collect())
            .unwrap_or_default()
    }

    /// The raw per-link flit counters in [`MeshShape::links`] order, for
    /// cheap periodic snapshots; `None` unless observing.
    pub fn phys_flits_raw(&self) -> Option<&[u64]> {
        self.obs.as_deref().map(|o| o.link_flits.as_slice())
    }

    /// The mesh shape chosen for this node count.
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// Number of flits a message with `payload_bytes` of payload occupies.
    pub fn flits_for(&self, payload_bytes: u32) -> u64 {
        (HEADER_BYTES + payload_bytes).div_ceil(FLIT_BYTES) as u64
    }

    /// Injects a message at cycle `now` and returns its delivery cycle at
    /// the destination.
    ///
    /// Endpoint contention is modeled by the two FIFO port servers; the mesh
    /// in between is an uncontended pipeline (per the paper's methodology).
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, payload_bytes: u32) -> Cycle {
        if src == dst {
            self.counters.local_messages += 1;
            if let Some(o) = self.obs.as_mut() {
                o.last_journey = None;
            }
            return now + LOCAL_DELAY;
        }
        let flits = self.flits_for(payload_bytes);
        let hops = self.shape.hops(src, dst) as Cycle;
        self.counters.messages += 1;
        self.counters.flits += flits;
        self.counters.total_hops += hops;

        // Source port: all flits leave the NI back to back.
        let tx_start = self.tx[src].next_start(now);
        let tx_done = self.tx[src].occupy(now, flits);
        debug_assert_eq!(tx_done, tx_start + flits);
        // Header pipelines through `hops` switches; the tail flit reaches the
        // destination `flits` cycles after the header started out.
        let head_arrival = tx_start + SWITCH_DELAY * hops;
        // Destination port: accepts one message at a time at flit rate.
        let delivered = self.rx[dst].occupy(head_arrival, flits);
        if let Some(o) = self.obs.as_mut() {
            let journey = Journey {
                src,
                dst,
                flits,
                hops,
                inject: now,
                tx_wait: tx_start - now,
                wire: head_arrival - tx_start,
                rx_wait: delivered - head_arrival - flits,
                delivered,
            };
            o.record(self.shape, journey);
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

    /// Writes the simulated network state to a checkpoint: the transmit
    /// and receive port servers, each list with its node count, then the
    /// traffic counters. The observation counters and journey slot are
    /// run-scoped instruments, not simulated state, and are left out.
    pub fn encode(&self, w: &mut SnapWriter) {
        for ports in [&self.tx, &self.rx] {
            w.usize(ports.len());
            for port in ports {
                port.encode(w);
            }
        }
        self.counters.encode(w);
    }

    /// Restores into this network (same shape) the state
    /// [`Network::encode`] wrote, refusing a different node count.
    pub fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for ports in [&mut self.tx, &mut self.rx] {
            if r.usize()? != ports.len() {
                return Err(SnapError::Corrupt("network node count disagrees"));
            }
            for port in ports.iter_mut() {
                *port = FifoServer::decode(r)?;
            }
        }
        self.counters = NetCounters::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: usize) -> Network {
        Network::new(nodes)
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
        n.enable_observation();
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
        m.enable_observation();
        m.send(0, 1, 4, 0);
        m.send(0, 7, 4, 0);
        let contended = m.take_last_journey().unwrap();
        assert_eq!(contended.rx_wait, m.flits_for(0));
        assert!(contended.closes());
        // Local messages leave no journey.
        let mut l = net(4);
        l.enable_observation();
        l.send(5, 3, 3, 64);
        assert!(l.take_last_journey().is_none());
    }

    #[test]
    fn phys_link_flits_follow_routes() {
        let mut n = net(9); // 3x3
        n.send(0, 0, 8, 0);
        assert!(n.phys_link_flits().is_empty(), "disabled by default");
        assert!(n.phys_flits_raw().is_none());
        n.enable_observation();
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

    /// One send credits exactly the links of `MeshShape::route`, each
    /// once, for every (source, destination) pair of every mesh up to 64
    /// nodes.
    #[test]
    fn table_walked_routes_credit_exactly_the_reference_route() {
        for nodes in 1..=64 {
            let mut n = net(nodes);
            n.enable_observation();
            let shape = n.shape();
            let links = shape.links();
            let flits = n.flits_for(0);
            for src in 0..nodes {
                for dst in 0..nodes {
                    let before = n.phys_flits_raw().unwrap().to_vec();
                    n.send(0, src, dst, 0);
                    let route = shape.route(src, dst);
                    let on_route: Vec<usize> = route
                        .windows(2)
                        .map(|w| links.binary_search(&(w[0], w[1])).expect("route hops are mesh links"))
                        .collect();
                    for (i, (&after, &was)) in n.phys_flits_raw().unwrap().iter().zip(&before).enumerate() {
                        let want = if on_route.contains(&i) { flits } else { 0 };
                        assert_eq!(after - was, want, "{nodes} nodes, {src}->{dst}, link {:?}", links[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn link_stats_are_opt_in() {
        let mut n = net(4);
        n.send(0, 0, 1, 0);
        assert!(n.link_flits().is_empty(), "disabled by default");
        n.enable_observation();
        n.send(10, 0, 1, 0);
        n.send(20, 0, 1, 64);
        n.send(30, 1, 2, 0);
        n.send(40, 3, 3, 64); // local: not a mesh link
        assert_eq!(n.link_flits(), vec![(0, 1, n.flits_for(0) + n.flits_for(64)), (1, 2, n.flits_for(0)),]);
    }
}
