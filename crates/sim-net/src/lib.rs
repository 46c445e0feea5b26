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

/// The delivery record of one message, as [`Network::send`] returns it.
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
/// A node-local message bypasses the mesh: zero hops and zero flits, and
/// its one-cycle local delay is its `wire`, so the identity holds for it
/// too. The network keeps no journey; observers file the returned one.
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
    /// Cycles of header pipelining through the mesh (`SWITCH_DELAY · hops`),
    /// or a node-local message's local delay.
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

/// The mesh network: topology plus per-node interface ports.
#[derive(Debug, Clone)]
pub struct Network {
    shape: MeshShape,
    tx: Vec<FifoServer>,
    rx: Vec<FifoServer>,
    counters: NetCounters,
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
        }
    }

    /// The mesh shape chosen for this node count.
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// Number of flits a message with `payload_bytes` of payload occupies.
    pub fn flits_for(&self, payload_bytes: u32) -> u64 {
        (HEADER_BYTES + payload_bytes).div_ceil(FLIT_BYTES) as u64
    }

    /// Injects a message at cycle `now` and returns its [`Journey`], whose
    /// `delivered` is the cycle the destination accepts its last flit.
    ///
    /// Endpoint contention is modeled by the two FIFO port servers; the mesh
    /// in between is an uncontended pipeline (per the paper's methodology).
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, payload_bytes: u32) -> Journey {
        if src == dst {
            self.counters.local_messages += 1;
            return Journey {
                src,
                dst,
                flits: 0,
                hops: 0,
                inject: now,
                tx_wait: 0,
                wire: LOCAL_DELAY,
                rx_wait: 0,
                delivered: now + LOCAL_DELAY,
            };
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
        Journey {
            src,
            dst,
            flits,
            hops,
            inject: now,
            tx_wait: tx_start - now,
            wire: head_arrival - tx_start,
            rx_wait: delivered - head_arrival - flits,
            delivered,
        }
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
    /// traffic counters. That is all the network holds: per-link and
    /// endpoint-pair flits are counted by the observing collector from
    /// the journeys [`Network::send`] returns.
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
        let delivered = n.send(1000, 0, 31, 0).delivered;
        assert_eq!(delivered, 1000 + 2 * hops + flits);
    }

    #[test]
    fn local_messages_bypass_mesh() {
        let mut n = net(4);
        assert_eq!(n.send(10, 2, 2, 64).delivered, 11);
        assert_eq!(n.counters().messages, 0);
        assert_eq!(n.counters().local_messages, 1);
    }

    #[test]
    fn source_port_serializes() {
        let mut n = net(4);
        let f = n.flits_for(0);
        let first = n.send(0, 0, 1, 0).delivered;
        let second = n.send(0, 0, 2, 0).delivered;
        // The second message cannot start transmitting until the first's
        // flits have left the source port.
        assert_eq!(second, first + f);
    }

    #[test]
    fn destination_port_serializes() {
        let mut n = net(9); // 3x3
        let f = n.flits_for(0);
        // Two different sources, equidistant from destination 4 (center).
        let a = n.send(0, 1, 4, 0).delivered;
        let b = n.send(0, 7, 4, 0).delivered;
        assert_eq!(n.shape().hops(1, 4), n.shape().hops(7, 4));
        // Same head arrival; the receive port takes them one after another.
        assert_eq!(b, a + f);
    }

    #[test]
    fn longer_distance_takes_longer() {
        let mut a = net(32);
        let mut b = net(32);
        let near = a.send(0, 0, 1, 16).delivered;
        let far = b.send(0, 0, 31, 16).delivered;
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
    fn journeys_decompose_exactly() {
        // Two back-to-back sends from the same source of a 2x2 mesh: the
        // second waits at the transmit port.
        let mut n = net(4);
        let f = n.flits_for(0);
        let first = n.send(100, 0, 1, 0);
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
        let second = n.send(100, 0, 2, 0);
        assert_eq!(second.tx_wait, f, "queued behind the first message's flits");
        assert!(first.closes() && second.closes());
        assert_eq!(second.total(), second.tx_wait + second.tx_service() + second.wire + second.rx_wait);
        // Receive-port contention shows up as rx_wait.
        let mut m = net(9); // 3x3: nodes 1 and 7 are equidistant from 4
        m.send(0, 1, 4, 0);
        let contended = m.send(0, 7, 4, 0);
        assert_eq!(contended.rx_wait, m.flits_for(0));
        assert!(contended.closes());
        // A local message crosses no link and carries no flit: its one
        // cycle is its wire.
        let local = net(4).send(5, 3, 3, 64);
        assert_eq!(
            local,
            Journey {
                src: 3,
                dst: 3,
                flits: 0,
                hops: 0,
                inject: 5,
                tx_wait: 0,
                wire: 1,
                rx_wait: 0,
                delivered: 6
            }
        );
        assert!(local.closes());
    }
}
