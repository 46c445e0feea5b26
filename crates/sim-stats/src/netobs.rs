//! Network and memory-back-end telemetry: message-journey accounting,
//! physical-link traffic attribution, and hot-home-node profiles.
//!
//! Its state lives in the one [`ObsCollector`] (built only when
//! `MachineConfig::obs` is on), and its facts are `ObsCollector` methods
//! defined here: every network send hands over the [`sim_net::Journey`]
//! that `Network::send` returned, tagged with the protocol message kind's
//! index and the classifier's index of the structure registered over the
//! message's address, and the journey is folded into totals (no journey
//! is kept individually; the machine's message trace is the per-message
//! record). A mesh message's flits are credited to its endpoint pair and
//! to every physical link of its dimension-ordered route, walked through
//! a per-node link table built once from the mesh shape; the network
//! itself keeps no instrument. Every directory/DRAM operation is counted
//! at its home, whose memory and port busy cycles are that node's gauges;
//! the periodic sampler snapshots the cumulative per-physical-link flit
//! counters into a utilisation time series.
//!
//! Everything here is passive bookkeeping on top of values the simulation
//! computes anyway — the collector never schedules events, so enabling it
//! cannot perturb timing or results. [`check_net_reconciliation`] pins that
//! down: journey cycle totals must close *exactly* against the network
//! latency accounting the observability layer already keeps.

use std::collections::BTreeMap;

use sim_engine::{Cycle, NodeId};
use sim_net::{Journey, MeshShape};

use crate::hist::LatencyHist;
use crate::json::Json;
use crate::obs::{EndpointPairFlits, ObsCollector, ObsReport};
use crate::report::UpdateStats;
use crate::sampler::SampleRows;

/// Cap on retained per-link flit snapshots; overflow is counted, not
/// stored.
pub const LINK_SAMPLE_CAP: usize = 1 << 12;

/// Key used in the per-structure breakdown for messages whose address falls
/// outside every registered structure range (or that carry no address).
pub const UNATTRIBUTED: &str = "(unattributed)";

/// Aggregated journey-stage cycle totals for one message class or
/// structure.
///
/// The per-stage sums decompose the exact latency sum: for every journey,
/// `tx_wait + tx_service + wire + rx_wait == delivered − inject`, so the
/// same identity holds for the totals ([`JourneyTotals::closes`]).
#[derive(Debug, Clone, Default)]
pub struct JourneyTotals {
    /// Remote messages aggregated.
    pub count: u64,
    /// Flits carried (network-interface traffic).
    pub flits: u64,
    /// Flit·hop products (physical-link traffic: each flit crosses every
    /// link of its route).
    pub flit_hops: u64,
    /// Cycles spent waiting behind earlier messages at the source tx port.
    pub tx_wait: u64,
    /// Cycles spent moving flits through the source tx port.
    pub tx_service: u64,
    /// Cycles of switch latency along the route.
    pub wire: u64,
    /// Cycles spent waiting for the destination rx port.
    pub rx_wait: u64,
    /// Distribution of end-to-end journey times (inject → delivered).
    pub total: LatencyHist,
}

impl JourneyTotals {
    /// Folds one journey in.
    pub fn add(&mut self, j: &Journey) {
        self.count += 1;
        self.flits += j.flits;
        self.flit_hops += j.flits * j.hops;
        self.tx_wait += j.tx_wait;
        self.tx_service += j.tx_service();
        self.wire += j.wire;
        self.rx_wait += j.rx_wait;
        self.total.record(j.total());
    }

    /// Adds another totals set into this one.
    pub fn merge(&mut self, other: &JourneyTotals) {
        self.count += other.count;
        self.flits += other.flits;
        self.flit_hops += other.flit_hops;
        self.tx_wait += other.tx_wait;
        self.tx_service += other.tx_service;
        self.wire += other.wire;
        self.rx_wait += other.rx_wait;
        self.total.merge(&other.total);
    }

    /// Whether the stage sums reproduce the exact latency sum.
    pub fn closes(&self) -> bool {
        self.tx_wait + self.tx_service + self.wire + self.rx_wait == self.total.sum()
    }

    /// Serializes counts, stage sums, and the latency distribution.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::U64(self.count)),
            ("flits", Json::U64(self.flits)),
            ("flit_hops", Json::U64(self.flit_hops)),
            ("tx_wait", Json::U64(self.tx_wait)),
            ("tx_service", Json::U64(self.tx_service)),
            ("wire", Json::U64(self.wire)),
            ("rx_wait", Json::U64(self.rx_wait)),
            ("total_cycles", Json::U64(self.total.sum())),
            ("mean", Json::F64(self.total.mean())),
            ("max", Json::U64(self.total.max())),
        ])
    }
}

/// Flits carried over one directed *physical* mesh link (a pair of adjacent
/// nodes), accumulated over every message whose dimension-ordered route
/// crossed it. Contrast [`crate::obs::EndpointPairFlits`], which buckets by
/// message source and final destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysLinkFlits {
    /// Link tail (the node the flits leave).
    pub src: NodeId,
    /// Link head (the adjacent node the flits enter).
    pub dst: NodeId,
    /// Flits that crossed the link.
    pub flits: u64,
}

/// [`NetState::link_toward`] directions.
const TO_LOWER_X: usize = 0;
const TO_HIGHER_X: usize = 1;
const TO_LOWER_Y: usize = 2;
const TO_HIGHER_Y: usize = 3;

/// The telemetry's state inside the [`ObsCollector`]; message kinds are
/// the collector's. The pair and link counters are flat arrays allocated
/// up front, so crediting a route neither allocates nor searches.
#[derive(Debug)]
pub(crate) struct NetState {
    shape: MeshShape,
    /// Flits per (source, destination) endpoint pair, at
    /// `src * nodes + dst`. Every mesh message carries at least a header
    /// flit, so a pair sent a message exactly when its count is nonzero.
    pair_flits: Vec<u64>,
    /// Every directed physical link, in [`MeshShape::links`] order.
    links: Vec<(NodeId, NodeId)>,
    /// Flits carried per physical link, in the same order.
    link_flits: Vec<u64>,
    /// The index of the link leaving each node toward −x, +x, −y and +y
    /// (`u32::MAX` where the mesh has no neighbour).
    link_toward: Vec<[u32; 4]>,
    /// Journey totals by kind index.
    by_class: Vec<JourneyTotals>,
    /// Journey totals by structure registration index, grown on demand.
    by_structure: Vec<JourneyTotals>,
    /// Journeys outside every registered structure.
    unattributed: JourneyTotals,
    local_messages: u64,
    local_cycles: u64,
    /// Each home's profile; its memory and port gauges and update columns
    /// are filled in at the end.
    pub(crate) homes: Vec<HomeProfile>,
    link_samples: SampleRows<Cycle, u64>,
    link_samples_dropped: u64,
}

impl NetState {
    /// Empty telemetry for a machine on the given mesh with `kinds`
    /// message kinds.
    pub(crate) fn new(shape: MeshShape, kinds: usize) -> Self {
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
        NetState {
            pair_flits: vec![0; nodes * nodes],
            link_flits: vec![0; links.len()],
            link_samples: SampleRows::new(links.len()),
            links,
            link_toward,
            by_class: vec![JourneyTotals::default(); kinds],
            by_structure: Vec::new(),
            unattributed: JourneyTotals::default(),
            local_messages: 0,
            local_cycles: 0,
            homes: (0..nodes).map(|node| HomeProfile { node, ..Default::default() }).collect(),
            link_samples_dropped: 0,
            shape,
        }
    }

    /// Credits mesh message `j`'s flits to its endpoint pair and to every
    /// link of its X-then-Y route, walked hop by hop through
    /// `link_toward`.
    fn credit_route(&mut self, j: &Journey) {
        let Journey { src, dst, flits, .. } = *j;
        self.pair_flits[src * self.shape.nodes() + dst] += flits;
        let ((sx, sy), (dx, dy)) = (self.shape.coords(src), self.shape.coords(dst));
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
    }

    /// Snapshots the cumulative per-physical-link flit counters at `at`.
    pub(crate) fn sample_links(&mut self, at: Cycle) {
        if self.link_samples.len() < LINK_SAMPLE_CAP {
            self.link_samples.push(at, self.link_flits.iter().copied());
        } else {
            self.link_samples_dropped += 1;
        }
    }

    /// Flits per endpoint pair that sent a mesh message, in node order.
    pub(crate) fn endpoint_pair_flits(&self) -> Vec<EndpointPairFlits> {
        let nodes = self.shape.nodes();
        self.pair_flits
            .iter()
            .enumerate()
            .filter(|&(_, &flits)| flits > 0)
            .map(|(i, &flits)| EndpointPairFlits { src: i / nodes, dst: i % nodes, flits })
            .collect()
    }

    /// Builds the report: journeys aggregated so far (classes named by
    /// `msg_kinds`), final physical-link totals, and the per-home profiles
    /// with their memory and port gauges filled in. `structure_names`
    /// names the structures by registration index; journeys merge by name.
    pub(crate) fn report(
        mut self,
        msg_kinds: &[&'static str],
        wall: Cycle,
        gauges: &[crate::obs::NodeGauges],
        structure_names: &[&str],
    ) -> NetObsReport {
        assert_eq!(gauges.len(), self.homes.len());
        for (h, g) in self.homes.iter_mut().zip(gauges) {
            h.mem_busy = g.mem_busy;
            h.mem_queue_wait = g.mem_queue_wait;
            h.tx_busy = g.tx_busy;
            h.rx_busy = g.rx_busy;
        }
        let by_class = msg_kinds
            .iter()
            .zip(self.by_class)
            .filter(|(_, t)| t.count > 0)
            .map(|(&kind, t)| (kind, t))
            .collect();
        let mut by_structure: BTreeMap<String, JourneyTotals> = BTreeMap::new();
        let named = self.by_structure.iter().enumerate().map(|(i, t)| (structure_names[i], t));
        for (name, t) in named.chain([(UNATTRIBUTED, &self.unattributed)]).filter(|(_, t)| t.count > 0) {
            by_structure.entry(name.to_string()).or_default().merge(t);
        }
        NetObsReport {
            cols: self.shape.cols,
            rows: self.shape.rows,
            wall_cycles: wall,
            by_class,
            by_structure,
            phys_links: self
                .links
                .iter()
                .zip(&self.link_flits)
                .map(|(&(src, dst), &flits)| PhysLinkFlits { src, dst, flits })
                .collect(),
            homes: self.homes,
            local_messages: self.local_messages,
            local_cycles: self.local_cycles,
            link_samples: self.link_samples,
            link_samples_dropped: self.link_samples_dropped,
        }
    }
}

impl ObsCollector {
    /// Counts one protocol message of kind index `kind` and files the
    /// journey `j` that `Network::send` returned for it; its latency is
    /// the journey's total. A node-local message stops there. A mesh
    /// message's flits are credited to its endpoint pair and route links,
    /// and `place` — called for mesh messages only — gives the `home` node
    /// of the address the message concerns and the registration index of
    /// the structure covering that address (if any). The flits are
    /// credited to `home`'s profile regardless of which rx port they
    /// landed on — this is the "whose traffic is it" view the paper's
    /// hot-spot argument needs (a hot home's update storm occupies *other*
    /// nodes' rx ports).
    pub fn message_sent(
        &mut self,
        kind: usize,
        j: &Journey,
        place: impl FnOnce() -> (NodeId, Option<usize>),
    ) {
        self.msg_counts[kind] += 1;
        self.msg_latency.record(j.total());
        let net = &mut self.net;
        if j.src == j.dst {
            net.local_messages += 1;
            net.local_cycles += j.total();
            return;
        }
        let (home, structure) = place();
        net.credit_route(j);
        net.homes[home].homed_rx_flits += j.flits;
        net.by_class[kind].add(j);
        let totals = match structure {
            Some(i) => {
                if i >= net.by_structure.len() {
                    net.by_structure.resize_with(i + 1, JourneyTotals::default);
                }
                &mut net.by_structure[i]
            }
            None => &mut net.unattributed,
        };
        totals.add(j);
    }

    /// The memory module at `home` serviced one block-sized (`is_block`)
    /// or word-sized directory/DRAM operation. Its busy and queue-wait
    /// cycles are the module's own gauges, read at the end.
    pub fn home_service(&mut self, home: NodeId, is_block: bool) {
        let h = &mut self.net.homes[home];
        if is_block {
            h.block_ops += 1;
        } else {
            h.word_ops += 1;
        }
    }
}

/// Everything network telemetry measured for one home node.
#[derive(Debug, Clone, Copy, Default)]
pub struct HomeProfile {
    /// The node.
    pub node: NodeId,
    /// Word-sized directory/DRAM operations serviced at this home.
    pub word_ops: u64,
    /// Block-sized directory/DRAM operations serviced at this home.
    pub block_ops: u64,
    /// Cycles this home's memory module spent servicing those operations
    /// (the node's `mem_busy` gauge).
    pub mem_busy: Cycle,
    /// Cycles those operations waited in this home's memory FIFO (the
    /// node's `mem_queue_wait` gauge).
    pub mem_queue_wait: Cycle,
    /// Cycles this node's tx port spent moving flits.
    pub tx_busy: Cycle,
    /// Cycles this node's rx port spent accepting flits.
    pub rx_busy: Cycle,
    /// Flits of remote messages for addresses *homed* at this node,
    /// wherever their rx port was: requests into this home plus the
    /// updates/data it fans out. Each flit occupies some rx port for one
    /// cycle, so summed over homes this equals total rx-port busy cycles —
    /// the per-home partition of rx-port occupancy.
    pub homed_rx_flits: u64,
    /// End-of-lifetime classification of updates homed at this node,
    /// summed over lineage's blocks homed here.
    pub updates: UpdateStats,
    /// Update arrivals applied at sharer caches for addresses homed here
    /// (summed over lineage's blocks).
    pub update_deliveries: u64,
    /// Update arrivals dropped (competitive threshold) for addresses homed
    /// here (summed over lineage's blocks).
    pub update_drops: u64,
}

impl HomeProfile {
    /// Share of this home's classified updates that were useless, or `None`
    /// with no updates.
    pub fn useless_share(&self) -> Option<f64> {
        let total = self.updates.total();
        (total > 0).then(|| self.updates.useless() as f64 / total as f64)
    }
}

/// The aggregated network-telemetry report for one run.
#[derive(Debug, Clone)]
pub struct NetObsReport {
    /// Mesh width.
    pub cols: usize,
    /// Mesh height.
    pub rows: usize,
    /// Wall clock of the run.
    pub wall_cycles: Cycle,
    /// Journey totals by protocol message kind.
    pub by_class: BTreeMap<&'static str, JourneyTotals>,
    /// Journey totals by registered structure label (later registrations
    /// win on overlap, matching traffic attribution); messages outside any
    /// range land under [`UNATTRIBUTED`].
    pub by_structure: BTreeMap<String, JourneyTotals>,
    /// Flits per directed physical mesh link, in canonical
    /// [`MeshShape::links`] order (zero-traffic links included).
    pub phys_links: Vec<PhysLinkFlits>,
    /// Per-home-node service and update profiles.
    pub homes: Vec<HomeProfile>,
    /// Node-local messages (mesh bypassed; no journey).
    pub local_messages: u64,
    /// Cycles spent by node-local messages.
    pub local_cycles: u64,
    /// Cumulative per-link flit snapshots (first [`LINK_SAMPLE_CAP`]): the
    /// sample cycle, then flits per link in canonical [`MeshShape::links`]
    /// order.
    pub link_samples: SampleRows<Cycle, u64>,
    /// Snapshots not retained.
    pub link_samples_dropped: u64,
}

/// Intensity ramp for the heatmap, blank (no traffic) to `@` (the maximum).
const RAMP: &[u8] = b" .:-=+*#%@";

fn ramp_char(value: u64, max: u64) -> char {
    if value == 0 || max == 0 {
        return RAMP[0] as char;
    }
    // Nonzero traffic never renders blank: clamp into 1..=9.
    let idx = 1 + (value.saturating_mul(RAMP.len() as u64 - 2) / max) as usize;
    RAMP[idx.min(RAMP.len() - 1)] as char
}

impl NetObsReport {
    /// Journey totals merged over every message class.
    pub fn totals(&self) -> JourneyTotals {
        let mut t = JourneyTotals::default();
        for v in self.by_class.values() {
            t.merge(v);
        }
        t
    }

    /// The mesh shape the report describes.
    pub fn shape(&self) -> MeshShape {
        MeshShape { cols: self.cols, rows: self.rows }
    }

    /// The `k` busiest physical links, worst first (ties broken by the
    /// canonical link order).
    pub fn worst_links(&self, k: usize) -> Vec<PhysLinkFlits> {
        let mut links = self.phys_links.clone();
        links.sort_by(|a, b| b.flits.cmp(&a.flits).then((a.src, a.dst).cmp(&(b.src, b.dst))));
        links.truncate(k);
        links
    }

    /// An ASCII heatmap of the mesh: one cell per node showing its rx-port
    /// utilisation (percent of the wall clock), with the connecting
    /// physical links shaded by carried flits (both directions summed) on
    /// the ` .:-=+*#%@` ramp relative to the busiest link.
    pub fn heatmap(&self) -> String {
        use std::fmt::Write;
        let shape = self.shape();
        let flits: BTreeMap<(NodeId, NodeId), u64> =
            self.phys_links.iter().map(|l| ((l.src, l.dst), l.flits)).collect();
        let pair = |a: NodeId, b: NodeId| {
            flits.get(&(a, b)).copied().unwrap_or(0) + flits.get(&(b, a)).copied().unwrap_or(0)
        };
        let max_pair = (0..shape.nodes())
            .flat_map(|a| {
                let (x, y) = shape.coords(a);
                let mut out = Vec::new();
                if x + 1 < shape.cols {
                    out.push(pair(a, shape.node_at(x + 1, y)));
                }
                if y + 1 < shape.rows {
                    out.push(pair(a, shape.node_at(x, y + 1)));
                }
                out
            })
            .max()
            .unwrap_or(0);
        let rx_pct = |n: NodeId| {
            if self.wall_cycles == 0 {
                0.0
            } else {
                100.0 * self.homes[n].rx_busy as f64 / self.wall_cycles as f64
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rx-port utilisation per node ({}x{} mesh); links shaded by flits (max {max_pair})",
            shape.cols, shape.rows
        );
        // Cell: `nNN[ PP%]` (9 chars); horizontal link: `-C-`.
        for y in 0..shape.rows {
            for x in 0..shape.cols {
                let n = shape.node_at(x, y);
                let _ = write!(out, "n{:02}[{:3.0}%]", n, rx_pct(n));
                if x + 1 < shape.cols {
                    let c = ramp_char(pair(n, shape.node_at(x + 1, y)), max_pair);
                    let _ = write!(out, "-{c}-");
                }
            }
            let _ = writeln!(out);
            if y + 1 < shape.rows {
                for x in 0..shape.cols {
                    let n = shape.node_at(x, y);
                    let c = ramp_char(pair(n, shape.node_at(x, y + 1)), max_pair);
                    let _ = write!(out, "    {c}    ");
                    if x + 1 < shape.cols {
                        let _ = write!(out, "   ");
                    }
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Serializes the report. The link-sample matrix stays out of the JSON
    /// (it exists for trace export); only its counts are reported.
    pub fn to_json(&self) -> Json {
        let totals_map =
            |m: &BTreeMap<&'static str, JourneyTotals>| Json::obj(m.iter().map(|(&k, v)| (k, v.to_json())));
        Json::obj([
            ("mesh", Json::obj([("cols", Json::from(self.cols)), ("rows", Json::from(self.rows))])),
            ("wall_cycles", Json::U64(self.wall_cycles)),
            ("journeys", totals_map(&self.by_class)),
            (
                "journeys_by_structure",
                Json::obj(self.by_structure.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
            (
                "phys_links",
                Json::Arr(
                    self.phys_links
                        .iter()
                        .map(|l| {
                            Json::obj([
                                ("src", Json::from(l.src)),
                                ("dst", Json::from(l.dst)),
                                ("flits", Json::U64(l.flits)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "homes",
                Json::Arr(
                    self.homes
                        .iter()
                        .map(|h| {
                            Json::obj([
                                ("node", Json::from(h.node)),
                                ("word_ops", Json::U64(h.word_ops)),
                                ("block_ops", Json::U64(h.block_ops)),
                                ("mem_busy", Json::U64(h.mem_busy)),
                                ("mem_queue_wait", Json::U64(h.mem_queue_wait)),
                                ("tx_busy", Json::U64(h.tx_busy)),
                                ("rx_busy", Json::U64(h.rx_busy)),
                                ("homed_rx_flits", Json::U64(h.homed_rx_flits)),
                                ("updates", h.updates.to_json()),
                                ("update_deliveries", Json::U64(h.update_deliveries)),
                                ("update_drops", Json::U64(h.update_drops)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "local",
                Json::obj([
                    ("messages", Json::U64(self.local_messages)),
                    ("cycles", Json::U64(self.local_cycles)),
                ]),
            ),
            (
                "link_samples",
                Json::obj([
                    ("kept", Json::from(self.link_samples.len())),
                    ("dropped", Json::U64(self.link_samples_dropped)),
                ]),
            ),
        ])
    }
}

/// Closes the journey accounting against the observability layer's own
/// network bookkeeping. Every equation must hold *exactly*; the first
/// violation is reported.
///
/// 1. Per class and per structure, the stage sums reproduce the exact
///    latency sum (`tx_wait + tx_service + wire + rx_wait = Σ total`).
/// 2. Journey cycles plus local-message cycles equal the cycle sum of the
///    per-message network latency histogram.
/// 3. Journey count plus local messages equals both the histogram's sample
///    count and the per-kind message counts.
/// 4. Journey flits equal the endpoint-pair flit totals and each port
///    side's busy cycles (every flit occupies its tx and rx port for one
///    cycle).
/// 5. Physical-link flits sum to the journeys' flit·hop total (each flit
///    crosses every link of its route).
/// 6. The per-structure breakdown is a partition of the per-class one.
/// 7. The per-home rx-flit attribution is a partition of the journey
///    flits (every remote message has exactly one home).
pub fn check_net_reconciliation(net: &NetObsReport, obs: &ObsReport) -> Result<(), String> {
    for (name, t) in &net.by_class {
        if !t.closes() {
            return Err(format!(
                "journey stages for class {name} do not close: {} + {} + {} + {} != {}",
                t.tx_wait,
                t.tx_service,
                t.wire,
                t.rx_wait,
                t.total.sum()
            ));
        }
    }
    for (name, t) in &net.by_structure {
        if !t.closes() {
            return Err(format!("journey stages for structure {name} do not close"));
        }
    }
    let totals = net.totals();
    let struct_totals = {
        let mut t = JourneyTotals::default();
        for v in net.by_structure.values() {
            t.merge(v);
        }
        t
    };
    if (struct_totals.count, struct_totals.flits, struct_totals.total.sum())
        != (totals.count, totals.flits, totals.total.sum())
    {
        return Err(format!(
            "structure breakdown is not a partition: {} msgs / {} flits vs {} / {}",
            struct_totals.count, struct_totals.flits, totals.count, totals.flits
        ));
    }
    let journey_cycles = totals.total.sum() + net.local_cycles;
    if journey_cycles != obs.msg_latency.sum() {
        return Err(format!(
            "journey cycles {journey_cycles} != message-latency cycle sum {}",
            obs.msg_latency.sum()
        ));
    }
    let journey_msgs = totals.count + net.local_messages;
    if journey_msgs != obs.msg_latency.count() {
        return Err(format!(
            "journey messages {journey_msgs} != message-latency samples {}",
            obs.msg_latency.count()
        ));
    }
    let counted: u64 = obs.msg_counts.values().sum();
    if journey_msgs != counted {
        return Err(format!("journey messages {journey_msgs} != per-kind message counts {counted}"));
    }
    let pair_flits: u64 = obs.endpoint_pair_flits.iter().map(|l| l.flits).sum();
    if totals.flits != pair_flits {
        return Err(format!("journey flits {} != endpoint-pair flits {pair_flits}", totals.flits));
    }
    let tx_busy: u64 = obs.per_node.iter().map(|n| n.gauges.tx_busy).sum();
    let rx_busy: u64 = obs.per_node.iter().map(|n| n.gauges.rx_busy).sum();
    if totals.flits != tx_busy || totals.flits != rx_busy {
        return Err(format!(
            "journey flits {} != port busy cycles (tx {tx_busy}, rx {rx_busy})",
            totals.flits
        ));
    }
    let phys: u64 = net.phys_links.iter().map(|l| l.flits).sum();
    if phys != totals.flit_hops {
        return Err(format!("physical-link flits {phys} != journey flit·hops {}", totals.flit_hops));
    }
    let homed: u64 = net.homes.iter().map(|h| h.homed_rx_flits).sum();
    if homed != totals.flits {
        return Err(format!("home-attributed rx flits {homed} != journey flits {}", totals.flits));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::Network;

    const KINDS: &[&str] = &["ReadShared", "Update", "Data"];
    const READ_SHARED: usize = 0;
    const UPDATE: usize = 1;

    fn collector(nodes: usize) -> ObsCollector {
        ObsCollector::new(MeshShape::for_nodes(nodes), KINDS)
    }

    /// Files journey `j` of kind `kind` for `home`'s address in `structure`.
    fn record(c: &mut ObsCollector, kind: usize, structure: Option<usize>, home: NodeId, j: &Journey) {
        c.message_sent(kind, j, || (home, structure));
    }

    /// The telemetry report with idle memory and port gauges.
    fn report(c: ObsCollector, wall: Cycle, names: &[&str]) -> NetObsReport {
        let gauges = vec![Default::default(); c.nodes.len()];
        c.net.report(KINDS, wall, &gauges, names)
    }

    /// Sets the collector's flit count on the physical link `a → b`.
    fn set_link(c: &mut ObsCollector, a: NodeId, b: NodeId, flits: u64) {
        let i = c.net.links.iter().position(|&l| l == (a, b)).expect("a mesh link");
        c.net.link_flits[i] = flits;
    }

    fn journey(src: NodeId, dst: NodeId, flits: u64, hops: u64, inject: Cycle) -> Journey {
        // An uncontended journey: wire = 2·hops, no queueing.
        let wire = 2 * hops;
        Journey {
            src,
            dst,
            flits,
            hops,
            inject,
            tx_wait: 0,
            wire,
            rx_wait: 0,
            delivered: inject + wire + flits,
        }
    }

    #[test]
    fn totals_close_and_merge() {
        let mut t = JourneyTotals::default();
        t.add(&journey(0, 1, 6, 1, 10));
        t.add(&journey(1, 2, 36, 2, 20));
        assert_eq!(t.count, 2);
        assert_eq!(t.flits, 42);
        assert_eq!(t.flit_hops, 6 + 72);
        assert!(t.closes());
        let mut u = JourneyTotals::default();
        u.add(&journey(2, 0, 4, 3, 5));
        t.merge(&u);
        assert_eq!(t.count, 3);
        assert!(t.closes());
    }

    #[test]
    fn collector_aggregates_by_class_and_structure() {
        let mut c = collector(4);
        record(&mut c, UPDATE, Some(1), 3, &journey(0, 1, 6, 1, 0));
        record(&mut c, UPDATE, None, 0, &journey(1, 2, 6, 1, 10));
        record(&mut c, READ_SHARED, Some(1), 3, &journey(2, 3, 4, 1, 20));
        record(&mut c, READ_SHARED, Some(2), 3, &journey(2, 3, 4, 1, 30));
        c.message_sent(UPDATE, &Network::new(4).send(40, 2, 2, 0), || panic!("a local message has no place"));
        let names = ["flag", "counter", "counter"];
        assert_eq!(c.msg_counts[UPDATE], 3, "local messages count by kind too");
        let r = report(c, 100, &names);
        assert_eq!(r.by_class["Update"].count, 2);
        assert_eq!(r.by_class["ReadShared"].count, 2);
        assert!(!r.by_class.contains_key("Data"), "kinds without journeys are not listed");
        assert_eq!(r.by_structure["counter"].count, 3, "structures merge by name");
        assert!(!r.by_structure.contains_key("flag"), "structures without journeys are not listed");
        assert_eq!(r.by_structure[UNATTRIBUTED].count, 1);
        assert_eq!(r.local_messages, 1);
        assert_eq!(r.local_cycles, 1);
        let t = r.totals();
        assert_eq!(t.count, 4);
        assert_eq!(t.flits, 20);
        assert!(t.closes());
        assert_eq!(r.homes[3].homed_rx_flits, 14, "flits credited to the address's home");
        assert_eq!(r.homes[0].homed_rx_flits, 6);
        let homed: u64 = r.homes.iter().map(|h| h.homed_rx_flits).sum();
        assert_eq!(homed, t.flits, "home attribution partitions the flits");
    }

    /// A mesh message's flits land on every link of its X-then-Y route; a
    /// local message credits no link.
    #[test]
    fn phys_link_flits_follow_routes() {
        let mut net = Network::new(9); // 3x3
        let mut c = collector(9);
        let f0 = net.flits_for(0);
        let f64 = net.flits_for(64);
        record(&mut c, UPDATE, None, 0, &net.send(10, 0, 8, 0)); // route 0,1,2,5,8
        record(&mut c, UPDATE, None, 0, &net.send(20, 1, 2, 64)); // route 1,2
        record(&mut c, UPDATE, None, 0, &net.send(30, 4, 4, 64)); // local: no links
        let r = c.finish_bare(100);
        let links = &r.netobs.phys_links;
        let flits: BTreeMap<(NodeId, NodeId), u64> =
            links.iter().filter(|l| l.flits > 0).map(|l| ((l.src, l.dst), l.flits)).collect();
        assert_eq!(flits, BTreeMap::from([((0, 1), f0), ((1, 2), f0 + f64), ((2, 5), f0), ((5, 8), f0)]));
        // Flit·hop conservation: per-link sums equal Σ flits·hops.
        let total: u64 = links.iter().map(|l| l.flits).sum();
        assert_eq!(total, f0 * 4 + f64);
        assert_eq!(total, r.netobs.totals().flit_hops);
        // The canonical order covers every directed mesh link, zeros kept.
        let order: Vec<_> = links.iter().map(|l| (l.src, l.dst)).collect();
        assert_eq!(order, net.shape().links());
    }

    /// One filed journey credits exactly the links of `MeshShape::route`,
    /// each once, for every (source, destination) pair of every mesh up to
    /// 64 nodes.
    #[test]
    fn table_walked_routes_credit_exactly_the_reference_route() {
        for nodes in 1..=64 {
            let mut net = Network::new(nodes);
            let mut c = collector(nodes);
            let shape = net.shape();
            let links = shape.links();
            let flits = net.flits_for(0);
            for src in 0..nodes {
                for dst in 0..nodes {
                    let before = c.net.link_flits.clone();
                    record(&mut c, UPDATE, None, 0, &net.send(0, src, dst, 0));
                    let route = shape.route(src, dst);
                    let on_route: Vec<usize> = route
                        .windows(2)
                        .map(|w| links.binary_search(&(w[0], w[1])).expect("route hops are mesh links"))
                        .collect();
                    for (i, (&after, &was)) in c.net.link_flits.iter().zip(&before).enumerate() {
                        let want = if on_route.contains(&i) { flits } else { 0 };
                        assert_eq!(after - was, want, "{nodes} nodes, {src}->{dst}, link {:?}", links[i]);
                    }
                }
            }
        }
    }

    /// Flits sum per (source, destination) pair, listed in node order for
    /// the pairs that sent a mesh message; a local message is no pair.
    #[test]
    fn endpoint_pair_flits_count_mesh_messages_only() {
        let mut net = Network::new(4);
        let mut c = collector(4);
        for (at, src, dst, payload) in [(10, 0, 1, 0), (20, 0, 1, 64), (30, 1, 2, 0), (40, 3, 3, 64)] {
            record(&mut c, UPDATE, None, 0, &net.send(at, src, dst, payload));
        }
        let (f0, f64) = (net.flits_for(0), net.flits_for(64));
        assert_eq!(
            c.finish_bare(100).endpoint_pair_flits,
            vec![
                EndpointPairFlits { src: 0, dst: 1, flits: f0 + f64 },
                EndpointPairFlits { src: 1, dst: 2, flits: f0 }
            ]
        );
    }

    #[test]
    fn worst_links_sort_desc_with_stable_ties() {
        let mut c = collector(4);
        for (a, b, flits) in [(0, 1, 5), (1, 0, 9), (2, 3, 5)] {
            set_link(&mut c, a, b, flits);
        }
        let r = report(c, 10, &[]);
        let worst = r.worst_links(2);
        assert_eq!(worst[0], PhysLinkFlits { src: 1, dst: 0, flits: 9 });
        assert_eq!(worst[1], PhysLinkFlits { src: 0, dst: 1, flits: 5 });
    }

    #[test]
    fn heatmap_renders_every_node_and_scales_links() {
        let shape = MeshShape::for_nodes(4); // 2x2
        let mut c = collector(4);
        c.home_service(0, true);
        for (a, b) in shape.links() {
            set_link(&mut c, a, b, if a == 0 { 90 } else { 1 });
        }
        let mut gauges = [crate::obs::NodeGauges::default(); 4];
        gauges[0].rx_busy = 50;
        let r = c.net.report(KINDS, 100, &gauges, &[]);
        let map = r.heatmap();
        for n in 0..4 {
            assert!(map.contains(&format!("n{n:02}")), "node {n} missing from heatmap:\n{map}");
        }
        assert!(map.contains("n00[ 50%]"), "rx utilisation rendered:\n{map}");
        assert!(map.contains('@'), "max link gets the top ramp char:\n{map}");
    }

    #[test]
    fn link_sample_cap_counts_overflow() {
        let mut c = collector(2);
        for i in 0..(LINK_SAMPLE_CAP as u64 + 10) {
            set_link(&mut c, 0, 1, i);
            c.net.sample_links(i);
        }
        let r = report(c, 1 << 20, &[]);
        assert_eq!(r.link_samples.len(), LINK_SAMPLE_CAP);
        assert_eq!(r.link_samples_dropped, 10);
        let last = r.link_samples.iter().last().expect("snapshots kept");
        assert_eq!(last.0, LINK_SAMPLE_CAP as u64 - 1, "the first snapshots are the ones kept");
        assert_eq!(last.1, [LINK_SAMPLE_CAP as u64 - 1, 0], "a snapshot holds the counters it was taken at");
    }

    #[test]
    fn report_json_parses_and_omits_raw_records() {
        let mut c = collector(2);
        record(&mut c, UPDATE, Some(0), 0, &journey(0, 1, 6, 1, 0));
        c.record_sample(500, 1, 6, |_, class, phase| crate::sampler::NodeSample {
            class,
            phase,
            wb_len: 0,
            mem_busy: 0,
            tx_busy: 0,
            rx_busy: 0,
        });
        let r = report(c, 1000, &["counter"]);
        assert_eq!(
            r.link_samples.iter().last().map(|(at, flits)| (at, flits.to_vec())),
            Some((500, vec![6, 0]))
        );
        let parsed = Json::parse(&r.to_json().render_pretty()).expect("netobs JSON parses");
        assert_eq!(
            parsed.get("journeys").unwrap().get("Update").unwrap().get("count").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(parsed.get("link_samples").unwrap().get("kept").and_then(Json::as_u64), Some(1));
        assert!(parsed.get("journey_records").is_none(), "no per-message records are kept");
    }
}
