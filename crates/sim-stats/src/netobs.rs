//! Network and memory-back-end telemetry: message-journey accounting,
//! physical-link traffic attribution, and hot-home-node profiles.
//!
//! Its state lives in the one [`ObsCollector`] (built only when
//! `MachineConfig::obs` is on), and its facts are `ObsCollector` methods
//! defined here: every network send hands over the [`sim_net::Journey`]
//! the network recorded, tagged with the protocol message kind's index and
//! the classifier's index of the structure registered over the message's
//! address; every directory/DRAM service interval lands in the destination
//! home's bucket; the periodic sampler snapshots cumulative
//! per-physical-link flit counters into a utilisation time series.
//!
//! Everything here is passive bookkeeping on top of values the simulation
//! computes anyway — the collector never schedules events, so enabling it
//! cannot perturb timing or results. [`check_net_reconciliation`] pins that
//! down: journey cycle totals must close *exactly* against the network
//! latency accounting the observability layer already keeps.

use std::collections::BTreeMap;

use sim_engine::{Cycle, NodeId};
use sim_net::{Journey, MeshShape};

use crate::classify::HomeUpdates;
use crate::hist::LatencyHist;
use crate::json::Json;
use crate::obs::{ObsCollector, ObsReport};
use crate::report::UpdateStats;
use crate::sampler::SampleRows;

/// Cap on retained per-journey records (for Chrome flow arrows); overflow
/// is counted, not stored. Aggregates keep counting past the cap.
pub const JOURNEY_RECORD_CAP: usize = 4096;

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

/// One retained journey (for Chrome flow arrows).
#[derive(Debug, Clone, Copy)]
pub struct JourneyRec {
    /// Protocol message kind.
    pub class: &'static str,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Flits carried.
    pub flits: u64,
    /// Send cycle.
    pub inject: Cycle,
    /// Delivery cycle.
    pub delivered: Cycle,
}

/// Directory/DRAM service accounting for one home node.
#[derive(Debug, Clone, Copy, Default)]
struct HomeService {
    word_ops: u64,
    block_ops: u64,
    busy: Cycle,
    queue_wait: Cycle,
    homed_rx_flits: u64,
}

/// The telemetry's state inside the [`ObsCollector`]; message kinds are
/// the collector's.
#[derive(Debug)]
pub(crate) struct NetState {
    shape: MeshShape,
    /// Journey totals by kind index.
    by_class: Vec<JourneyTotals>,
    /// Journey totals by structure registration index, grown on demand.
    by_structure: Vec<JourneyTotals>,
    /// Journeys outside every registered structure.
    unattributed: JourneyTotals,
    records: Vec<JourneyRec>,
    records_dropped: u64,
    local_messages: u64,
    local_cycles: u64,
    homes: Vec<HomeService>,
    link_samples: SampleRows<Cycle, u64>,
    link_samples_dropped: u64,
}

impl NetState {
    /// Empty telemetry for a machine on the given mesh with `kinds`
    /// message kinds.
    pub(crate) fn new(shape: MeshShape, kinds: usize) -> Self {
        NetState {
            by_class: vec![JourneyTotals::default(); kinds],
            by_structure: Vec::new(),
            unattributed: JourneyTotals::default(),
            records: Vec::new(),
            records_dropped: 0,
            local_messages: 0,
            local_cycles: 0,
            homes: vec![HomeService::default(); shape.nodes()],
            link_samples: SampleRows::new(shape.links().len()),
            link_samples_dropped: 0,
            shape,
        }
    }

    /// Snapshots the cumulative per-physical-link flit counters at `at`.
    pub(crate) fn sample_links(&mut self, at: Cycle, flits: &[u64]) {
        if self.link_samples.len() < LINK_SAMPLE_CAP {
            self.link_samples.push(at, flits.iter().copied());
        } else {
            self.link_samples_dropped += 1;
        }
    }

    /// Builds the report: journeys aggregated so far (classes named by
    /// `msg_kinds`), final physical-link totals, and per-home profiles
    /// joining this state's service accounting with the port gauges and
    /// the classifier's per-home update accounting. `structure_names`
    /// names the structures by registration index; journeys merge by name.
    pub(crate) fn report(
        self,
        msg_kinds: &[&'static str],
        wall: Cycle,
        phys_flits: Vec<(NodeId, NodeId, u64)>,
        gauges: &[crate::obs::NodeGauges],
        home_updates: Option<HomeUpdates>,
        structure_names: &[&str],
    ) -> NetObsReport {
        assert_eq!(gauges.len(), self.homes.len());
        let homes = self
            .homes
            .iter()
            .enumerate()
            .map(|(n, h)| HomeProfile {
                node: n,
                word_ops: h.word_ops,
                block_ops: h.block_ops,
                mem_busy: h.busy,
                mem_queue_wait: h.queue_wait,
                tx_busy: gauges[n].tx_busy,
                rx_busy: gauges[n].rx_busy,
                homed_rx_flits: h.homed_rx_flits,
                updates: home_updates.as_ref().map(|u| u.classified[n]).unwrap_or_default(),
                update_deliveries: home_updates.as_ref().map(|u| u.deliveries[n].0).unwrap_or(0),
                update_drops: home_updates.as_ref().map(|u| u.deliveries[n].1).unwrap_or(0),
            })
            .collect();
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
            phys_links: phys_flits
                .into_iter()
                .map(|(src, dst, flits)| PhysLinkFlits { src, dst, flits })
                .collect(),
            homes,
            local_messages: self.local_messages,
            local_cycles: self.local_cycles,
            records: self.records,
            records_dropped: self.records_dropped,
            link_samples: self.link_samples,
            link_samples_dropped: self.link_samples_dropped,
        }
    }
}

impl ObsCollector {
    /// Counts one protocol message of kind index `kind`, `latency` cycles
    /// from send to delivery. A mesh message also files the `journey` the
    /// network recorded, with the `home` node of the address it concerns
    /// and the registration index of the structure covering that address
    /// (if any); without a journey the message was node-local. The flits
    /// are credited to `home`'s profile regardless of which rx port they
    /// landed on — this is the "whose traffic is it" view the paper's
    /// hot-spot argument needs (a hot home's update storm occupies *other*
    /// nodes' rx ports).
    pub fn message_sent(
        &mut self,
        kind: usize,
        latency: Cycle,
        journey: Option<(&Journey, NodeId, Option<usize>)>,
    ) {
        self.msg_counts[kind] += 1;
        self.msg_latency.record(latency);
        let net = &mut self.net;
        let Some((j, home, structure)) = journey else {
            net.local_messages += 1;
            net.local_cycles += latency;
            return;
        };
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
        if net.records.len() < JOURNEY_RECORD_CAP {
            net.records.push(JourneyRec {
                class: self.msg_kinds[kind],
                src: j.src,
                dst: j.dst,
                flits: j.flits,
                inject: j.inject,
                delivered: j.delivered,
            });
        } else {
            net.records_dropped += 1;
        }
    }

    /// The memory module at `home` serviced one directory/DRAM operation:
    /// `busy` service cycles after `queue_wait` cycles in its FIFO.
    pub fn home_service(&mut self, home: NodeId, is_block: bool, busy: Cycle, queue_wait: Cycle) {
        let h = &mut self.net.homes[home];
        if is_block {
            h.block_ops += 1;
        } else {
            h.word_ops += 1;
        }
        h.busy += busy;
        h.queue_wait += queue_wait;
    }
}

/// Everything network telemetry measured for one home node.
#[derive(Debug, Clone, Copy)]
pub struct HomeProfile {
    /// The node.
    pub node: NodeId,
    /// Word-sized directory/DRAM operations serviced at this home.
    pub word_ops: u64,
    /// Block-sized directory/DRAM operations serviced at this home.
    pub block_ops: u64,
    /// Cycles this home's memory module spent servicing those operations.
    pub mem_busy: Cycle,
    /// Cycles those operations waited in this home's memory FIFO.
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
    /// End-of-lifetime classification of updates homed at this node.
    pub updates: UpdateStats,
    /// Update arrivals applied at sharer caches for addresses homed here.
    pub update_deliveries: u64,
    /// Update arrivals dropped (competitive threshold) for addresses homed
    /// here.
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
    /// Retained journeys for trace export (first [`JOURNEY_RECORD_CAP`]).
    pub records: Vec<JourneyRec>,
    /// Journeys aggregated but not retained.
    pub records_dropped: u64,
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

    /// Serializes the report. Raw journey records and link-sample matrices
    /// stay out of the JSON (they exist for trace export); only their
    /// counts are reported.
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
                "journey_records",
                Json::obj([
                    ("kept", Json::from(self.records.len())),
                    ("dropped", Json::U64(self.records_dropped)),
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

    const KINDS: &[&str] = &["ReadShared", "Update", "Data"];
    const READ_SHARED: usize = 0;
    const UPDATE: usize = 1;

    fn collector(nodes: usize) -> ObsCollector {
        ObsCollector::new(MeshShape::for_nodes(nodes), KINDS)
    }

    /// Files journey `j` of kind `kind` for `home`'s address in `structure`.
    fn record(c: &mut ObsCollector, kind: usize, structure: Option<usize>, home: NodeId, j: &Journey) {
        c.message_sent(kind, j.total(), Some((j, home, structure)));
    }

    /// The telemetry report with idle port gauges.
    fn report(
        c: ObsCollector,
        wall: Cycle,
        phys: Vec<(NodeId, NodeId, u64)>,
        names: &[&str],
    ) -> NetObsReport {
        let gauges = vec![Default::default(); c.nodes.len()];
        c.net.report(KINDS, wall, phys, &gauges, None, names)
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
        c.message_sent(UPDATE, 1, None);
        let names = ["flag", "counter", "counter"];
        assert_eq!(c.msg_counts[UPDATE], 3, "local messages count by kind too");
        let r = report(c, 100, vec![(0, 1, 6), (1, 2, 6), (2, 3, 4)], &names);
        assert_eq!(r.by_class["Update"].count, 2);
        assert_eq!(r.by_class["ReadShared"].count, 2);
        assert!(!r.by_class.contains_key("Data"), "kinds without journeys are not listed");
        assert_eq!(r.by_structure["counter"].count, 3, "structures merge by name");
        assert!(!r.by_structure.contains_key("flag"), "structures without journeys are not listed");
        assert_eq!(r.by_structure[UNATTRIBUTED].count, 1);
        assert_eq!(r.local_messages, 1);
        assert_eq!(r.local_cycles, 1);
        assert_eq!(r.records.len(), 4);
        assert_eq!(r.records[2].class, "ReadShared");
        let t = r.totals();
        assert_eq!(t.count, 4);
        assert_eq!(t.flits, 20);
        assert!(t.closes());
        assert_eq!(r.homes[3].homed_rx_flits, 14, "flits credited to the address's home");
        assert_eq!(r.homes[0].homed_rx_flits, 6);
        let homed: u64 = r.homes.iter().map(|h| h.homed_rx_flits).sum();
        assert_eq!(homed, t.flits, "home attribution partitions the flits");
    }

    #[test]
    fn worst_links_sort_desc_with_stable_ties() {
        let r = report(collector(4), 10, vec![(0, 1, 5), (1, 0, 9), (2, 3, 5)], &[]);
        let worst = r.worst_links(2);
        assert_eq!(worst[0], PhysLinkFlits { src: 1, dst: 0, flits: 9 });
        assert_eq!(worst[1], PhysLinkFlits { src: 0, dst: 1, flits: 5 });
    }

    #[test]
    fn heatmap_renders_every_node_and_scales_links() {
        let shape = MeshShape::for_nodes(4); // 2x2
        let mut c = collector(4);
        c.home_service(0, true, 35, 0);
        let phys: Vec<_> =
            shape.links().into_iter().map(|(a, b)| (a, b, if a == 0 { 90 } else { 1 })).collect();
        let mut gauges = [crate::obs::NodeGauges::default(); 4];
        gauges[0].rx_busy = 50;
        let r = c.net.report(KINDS, 100, phys, &gauges, None, &[]);
        let map = r.heatmap();
        for n in 0..4 {
            assert!(map.contains(&format!("n{n:02}")), "node {n} missing from heatmap:\n{map}");
        }
        assert!(map.contains("n00[ 50%]"), "rx utilisation rendered:\n{map}");
        assert!(map.contains('@'), "max link gets the top ramp char:\n{map}");
    }

    #[test]
    fn record_cap_counts_overflow() {
        let mut c = collector(2);
        for i in 0..(JOURNEY_RECORD_CAP as u64 + 10) {
            record(&mut c, UPDATE, None, 0, &journey(0, 1, 4, 1, i));
        }
        let r = report(c, 1 << 20, vec![], &[]);
        assert_eq!(r.records.len(), JOURNEY_RECORD_CAP);
        assert_eq!(r.records_dropped, 10);
        assert_eq!(r.by_class["Update"].count, JOURNEY_RECORD_CAP as u64 + 10, "aggregates keep counting");
    }

    #[test]
    fn report_json_parses_and_omits_raw_records() {
        let mut c = collector(2);
        record(&mut c, UPDATE, Some(0), 0, &journey(0, 1, 6, 1, 0));
        c.record_sample(500, 1, 6, Some(&[6, 0]), |_, class, phase| crate::sampler::NodeSample {
            class,
            phase,
            wb_len: 0,
            mem_busy: 0,
            tx_busy: 0,
            rx_busy: 0,
        });
        let r = report(c, 1000, vec![(0, 1, 6), (1, 0, 0)], &["counter"]);
        let parsed = Json::parse(&r.to_json().render_pretty()).expect("netobs JSON parses");
        assert_eq!(
            parsed.get("journeys").unwrap().get("Update").unwrap().get("count").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(parsed.get("journey_records").unwrap().get("kept").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("link_samples").unwrap().get("kept").and_then(Json::as_u64), Some(1));
        assert!(parsed.get("records").is_none(), "raw records stay out of the JSON");
    }
}
