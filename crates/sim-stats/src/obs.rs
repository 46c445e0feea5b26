//! End-to-end observability: the one collector `MachineConfig::obs`
//! turns on, per-processor cycle accounting, per-phase breakdowns,
//! component gauges, and the aggregated [`ObsReport`].
//!
//! The machine drives a single [`ObsCollector`] while it runs and calls it
//! once per fact. Its fact methods live next to the state they feed: stall
//! accounting and sampling here, critical-path chains and sync episodes in
//! [`crate::crit`], message journeys and home service in
//! [`crate::netobs`]. Every processor state transition calls
//! [`ObsCollector::transition`], which attributes the elapsed interval to
//! the *outgoing* state's [`CpuClass`] (and the current program phase)
//! through one per-node cursor. That cursor feeds the stall account, the
//! per-phase split, the timeline and the node's critical-path chain, so
//! per-node class totals always sum exactly to the wall clock and the chain
//! composition can never drift from them. `Phase` marker instructions
//! switch the active phase; periodic samples land in the collector's
//! [`crate::sampler::TimeSeries`]. [`ObsCollector::finish`] returns the
//! whole report, with lineage, critical path and network telemetry filled
//! in.
//!
//! Everything here is passive bookkeeping: the collector never schedules
//! events or changes values the simulation reads, so enabling it cannot
//! perturb timing or results.

use std::collections::BTreeMap;

use sim_engine::{Cycle, NodeId};
use sim_net::{MeshShape, Network};

use crate::classify::Classifier;
use crate::crit::{Chain, CritState, Seg};
use crate::hist::LatencyHist;
use crate::json::Json;
use crate::netobs::NetState;
use crate::sampler::{NodeSample, TimeSeries};

/// Where a processor cycle went (the paper-level stall taxonomy; the
/// machine maps its finer-grained `CpuState` onto these classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CpuClass {
    /// Retiring instructions (including local work and spin re-checks).
    Busy,
    /// Stalled on a shared-read miss (demand or spin-check fill).
    ReadStall,
    /// Stalled on a full write buffer, a release fence, or an ordered
    /// flush — all waits for the write pipeline to drain.
    WbFullStall,
    /// Stalled on an atomic operation in flight.
    AtomicStall,
    /// Waiting in synchronization: spin-wait sleep/park, barrier, or magic
    /// lock queue.
    BarrierWait,
    /// Halted (counted until the machine-wide last halt).
    Halted,
}

/// Every class, in serialization order.
pub const CPU_CLASSES: [CpuClass; 6] = [
    CpuClass::Busy,
    CpuClass::ReadStall,
    CpuClass::WbFullStall,
    CpuClass::AtomicStall,
    CpuClass::BarrierWait,
    CpuClass::Halted,
];

impl CpuClass {
    /// Stable name used in reports and trace tracks.
    pub fn name(self) -> &'static str {
        match self {
            CpuClass::Busy => "Busy",
            CpuClass::ReadStall => "ReadStall",
            CpuClass::WbFullStall => "WbFullStall",
            CpuClass::AtomicStall => "AtomicStall",
            CpuClass::BarrierWait => "BarrierWait",
            CpuClass::Halted => "Halted",
        }
    }

    /// Position in [`CPU_CLASSES`], which lists the classes in declaration
    /// order.
    fn index(self) -> usize {
        self as usize
    }
}

/// Cycles attributed to each [`CpuClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAccount {
    cycles: [u64; 6],
}

impl CycleAccount {
    /// Adds `n` cycles to `class`.
    pub fn add(&mut self, class: CpuClass, n: u64) {
        self.cycles[class.index()] += n;
    }

    /// Removes `n` cycles from `class` (saturating).
    pub fn sub(&mut self, class: CpuClass, n: u64) {
        let c = &mut self.cycles[class.index()];
        *c = c.saturating_sub(n);
    }

    /// Cycles attributed to `class`.
    pub fn get(&self, class: CpuClass) -> u64 {
        self.cycles[class.index()]
    }

    /// Sum over every class.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Cycles stalled on memory or synchronization (everything but `Busy`
    /// and `Halted`).
    pub fn stalled(&self) -> u64 {
        self.total() - self.get(CpuClass::Busy) - self.get(CpuClass::Halted)
    }

    /// Adds another account into this one.
    pub fn merge(&mut self, other: &CycleAccount) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += b;
        }
    }

    /// Serializes as `{class name: cycles}`.
    pub fn to_json(&self) -> Json {
        Json::obj(CPU_CLASSES.map(|c| (c.name(), Json::U64(self.get(c)))))
    }
}

/// One maximal run of cycles a processor spent in a single class (adjacent
/// same-class, same-phase intervals are merged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateSlice {
    /// The class.
    pub class: CpuClass,
    /// First cycle of the slice.
    pub start: Cycle,
    /// One past the last cycle of the slice.
    pub end: Cycle,
    /// Program phase active during the slice.
    pub phase: u16,
}

/// Per-slice cap on the recorded timeline (protects memory on long runs;
/// overflow is counted, not stored).
pub const TIMELINE_CAP: usize = 1 << 20;

/// Cycles between periodic gauge samples.
pub const SAMPLE_INTERVAL: Cycle = 1000;

/// The observability switch carried in the machine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsConfig {
    /// Master switch. Off (the default) leaves the default path untouched:
    /// no accounting, no sampling, no timeline.
    pub enabled: bool,
}

impl ObsConfig {
    /// Observability on.
    pub fn enabled() -> Self {
        ObsConfig { enabled: true }
    }
}

/// One processor's cursor and everything it feeds: the open interval
/// `[since, ..)` runs in `class` under `phase`, and each attribution
/// charges it to the stall account, the per-phase split, the timeline and
/// the critical-path chain at once.
#[derive(Debug)]
pub(crate) struct NodeAcct {
    pub(crate) class: CpuClass,
    /// The class before the latest transition: right after a wait ends,
    /// the class of that wait.
    pub(crate) prev_class: CpuClass,
    pub(crate) phase: u16,
    pub(crate) since: Cycle,
    pub(crate) cycles: CycleAccount,
    by_phase: BTreeMap<u16, CycleAccount>,
    timeline: Vec<StateSlice>,
    timeline_dropped: u64,
    /// A mid-interval split dropped part of the open slice: the drop is
    /// counted once, when a transition or phase change closes the slice.
    drop_pending: bool,
    wb_full_stalls: u64,
    /// The causal chain ending at this node ([`crate::crit`]).
    pub(crate) chain: Chain,
}

impl NodeAcct {
    fn new() -> Self {
        NodeAcct {
            class: CpuClass::Busy,
            prev_class: CpuClass::Busy,
            phase: 0,
            since: 0,
            cycles: CycleAccount::default(),
            by_phase: BTreeMap::new(),
            timeline: Vec::new(),
            timeline_dropped: 0,
            drop_pending: false,
            wb_full_stalls: 0,
            chain: Chain::new(),
        }
    }

    /// Charges node `n`'s open interval up to `upto` to its current class
    /// and phase. A `split` attributes in the middle of an interval (at a
    /// sync marker or a causal wait) without ending it, so the pieces
    /// re-merge and every account comes out as if the interval were
    /// charged whole.
    pub(crate) fn attribute(&mut self, n: NodeId, upto: Cycle, split: bool) {
        debug_assert!(upto >= self.since, "cycle accounting moved backwards");
        let mut dropped = false;
        if upto > self.since {
            let (class, phase, start) = (self.class, self.phase, self.since);
            let dt = upto - start;
            self.cycles.add(class, dt);
            self.by_phase.entry(phase).or_default().add(class, dt);
            let room = self.timeline.len() < TIMELINE_CAP;
            match self.timeline.last_mut() {
                Some(last) if last.end == start && last.class == class && last.phase == phase => {
                    last.end = upto
                }
                _ if room => self.timeline.push(StateSlice { class, start, end: upto, phase }),
                _ => dropped = true,
            }
            self.chain.push(Seg::plain(n, class, start, upto, phase));
            self.since = upto;
        }
        if split {
            self.drop_pending |= dropped;
        } else {
            self.timeline_dropped += u64::from(dropped || self.drop_pending);
            self.drop_pending = false;
        }
    }

    /// The cumulative account advanced (without mutation) to `at`.
    pub(crate) fn account_at(&self, at: Cycle) -> CycleAccount {
        let mut a = self.cycles;
        if at > self.since {
            a.add(self.class, at - self.since);
        }
        a
    }
}

/// The live recorder the machine drives during an observed run: stall
/// accounts, samples, critical-path chains and sync episodes, and network
/// journeys. Turned into an [`ObsReport`] by [`ObsCollector::finish`].
#[derive(Debug)]
pub struct ObsCollector {
    pub(crate) nodes: Vec<NodeAcct>,
    /// Message-kind names, by the kind index
    /// [`ObsCollector::message_sent`] takes.
    pub(crate) msg_kinds: &'static [&'static str],
    /// Messages sent, by kind index.
    pub(crate) msg_counts: Vec<u64>,
    pub(crate) msg_latency: LatencyHist,
    samples: TimeSeries,
    pub(crate) crit: CritState,
    pub(crate) net: NetState,
}

impl ObsCollector {
    /// A collector for a machine on the mesh `shape` (one processor per
    /// mesh node) whose messages come in the kinds `msg_kinds` names, by
    /// kind index.
    pub fn new(shape: MeshShape, msg_kinds: &'static [&'static str]) -> Self {
        let num_nodes = shape.nodes();
        ObsCollector {
            nodes: (0..num_nodes).map(|_| NodeAcct::new()).collect(),
            msg_kinds,
            msg_counts: vec![0; msg_kinds.len()],
            msg_latency: LatencyHist::new(),
            samples: TimeSeries::new(SAMPLE_INTERVAL, num_nodes),
            crit: CritState::new(),
            net: NetState::new(shape, msg_kinds.len()),
        }
    }

    /// Processor `n` enters `class` at cycle `at`; the interval since the
    /// previous transition is attributed to the outgoing class.
    pub fn transition(&mut self, n: NodeId, class: CpuClass, at: Cycle) {
        let node = &mut self.nodes[n];
        node.attribute(n, at, false);
        node.prev_class = node.class;
        node.class = class;
        if class == CpuClass::Halted {
            self.crit.note_halt(n, at);
        }
    }

    /// Starts processor `n`'s account and chain at `class` as of `at`
    /// without charging the elapsed interval — cursor alignment for
    /// windowed replay from a restored checkpoint, where cycles before `at`
    /// belong to the original run's account.
    pub fn align(&mut self, n: NodeId, class: CpuClass, at: Cycle) {
        let node = &mut self.nodes[n];
        node.class = class;
        node.prev_class = class;
        node.since = at;
        node.chain.head = at;
    }

    /// Processor `n` switches to program `phase` at cycle `at`.
    pub fn set_phase(&mut self, n: NodeId, phase: u16, at: Cycle) {
        let node = &mut self.nodes[n];
        node.attribute(n, at, false);
        node.phase = phase;
    }

    /// Counts one processor stall on a full write buffer.
    pub fn wb_full_stall(&mut self, n: NodeId) {
        self.nodes[n].wb_full_stalls += 1;
    }

    /// Appends the periodic sample taken at `at`, with the network's raw
    /// per-physical-link flit counters when it observes them. `node` fills
    /// in each node's entry given its index and its current class and
    /// phase.
    pub fn record_sample(
        &mut self,
        at: Cycle,
        msgs_sent: u64,
        flits_sent: u64,
        link_flits: Option<&[u64]>,
        mut node: impl FnMut(usize, CpuClass, u16) -> NodeSample,
    ) {
        let nodes = self.nodes.iter().enumerate().map(|(n, acct)| node(n, acct.class, acct.phase));
        self.samples.push(at, msgs_sent, flits_sent, nodes);
        if let Some(flits) = link_flits {
            self.net.sample_links(at, flits);
        }
    }

    /// Closes every node's account and chain at `wall` (attributing the
    /// tail interval to its current class) and builds the whole report:
    /// stall accounts and samples, the critical path, network telemetry
    /// from `net`'s link counters, and the lineage and per-home update
    /// accounting detached from `clf`, whose registered structures name
    /// the chain and journey labels. Call after [`Classifier::finish`].
    /// The per-node component gauges are read out by the machine and
    /// passed in.
    pub fn finish(
        mut self,
        wall: Cycle,
        gauges: Vec<NodeGauges>,
        net: &Network,
        clf: &mut Classifier,
    ) -> ObsReport {
        assert_eq!(gauges.len(), self.nodes.len());
        for (n, node) in self.nodes.iter_mut().enumerate() {
            node.attribute(n, wall, false);
        }
        let (lineage, home_updates) = clf.take_observation().unzip();
        let structures: Vec<&str> = clf.report().by_structure.iter().map(|s| s.name.as_str()).collect();
        let crit = self.crit_report(wall, &structures);
        let netobs =
            self.net.report(self.msg_kinds, wall, net.phys_link_flits(), &gauges, home_updates, &structures);
        let mut phase_totals: BTreeMap<u16, CycleAccount> = BTreeMap::new();
        let per_node: Vec<NodeObs> = self
            .nodes
            .iter_mut()
            .zip(gauges)
            .map(|(node, g)| {
                for (&phase, acct) in &node.by_phase {
                    phase_totals.entry(phase).or_default().merge(acct);
                }
                NodeObs {
                    cycles: node.cycles,
                    by_phase: std::mem::take(&mut node.by_phase),
                    timeline: std::mem::take(&mut node.timeline),
                    timeline_dropped: node.timeline_dropped,
                    wb_full_stalls: node.wb_full_stalls,
                    gauges: g,
                }
            })
            .collect();
        ObsReport {
            wall_cycles: wall,
            sample_interval: SAMPLE_INTERVAL,
            per_node,
            phase_totals,
            phase_names: BTreeMap::new(),
            msg_counts: self
                .msg_kinds
                .iter()
                .zip(&self.msg_counts)
                .filter(|&(_, &n)| n > 0)
                .map(|(&kind, &n)| (kind, n))
                .collect(),
            msg_latency: self.msg_latency,
            endpoint_pair_flits: net
                .link_flits()
                .into_iter()
                .map(|(src, dst, flits)| EndpointPairFlits { src, dst, flits })
                .collect(),
            samples: self.samples,
            lineage,
            crit: Some(crit),
            netobs: Some(netobs),
        }
    }
}

/// End-of-run component gauges for one node, read out of the memory system
/// and network interface.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeGauges {
    /// Cycles requests waited in the memory module's FIFO before service.
    pub mem_queue_wait: Cycle,
    /// Cycles the memory module spent servicing requests.
    pub mem_busy: Cycle,
    /// Cycles the transmit port spent moving flits.
    pub tx_busy: Cycle,
    /// Cycles the receive port spent accepting flits.
    pub rx_busy: Cycle,
    /// Deepest write-buffer occupancy reached.
    pub wb_high_water: usize,
}

/// Flits exchanged between one directed source→destination *endpoint pair*
/// (message source and final destination), regardless of the physical mesh
/// links the message crossed in between. For per-physical-link traffic see
/// [`crate::netobs::PhysLinkFlits`].
///
/// Known as `LinkFlits` (JSON key `link_flits`) before the physical-link
/// stats existed; renamed to make the endpoint-pair semantics explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointPairFlits {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Flits sent.
    pub flits: u64,
}

/// Everything observability measured for one node.
#[derive(Debug, Clone)]
pub struct NodeObs {
    /// Cycle account over the whole run; sums to the wall clock.
    pub cycles: CycleAccount,
    /// Cycle account split by program phase.
    pub by_phase: BTreeMap<u16, CycleAccount>,
    /// Merged state timeline.
    pub timeline: Vec<StateSlice>,
    /// Slices not recorded once [`TIMELINE_CAP`] was reached.
    pub timeline_dropped: u64,
    /// Stalls on a full write buffer.
    pub wb_full_stalls: u64,
    /// Component gauges.
    pub gauges: NodeGauges,
}

/// The aggregated observability report for one run.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Wall clock of the run (the machine-wide last halt).
    pub wall_cycles: Cycle,
    /// Sampling interval used.
    pub sample_interval: Cycle,
    /// Per-node accounts, timelines, and gauges.
    pub per_node: Vec<NodeObs>,
    /// Phase accounts summed over nodes.
    pub phase_totals: BTreeMap<u16, CycleAccount>,
    /// Optional human-readable phase names (see
    /// [`ObsReport::set_phase_names`]); phases without an entry render as
    /// `phase<N>`.
    pub phase_names: BTreeMap<u16, String>,
    /// Protocol messages sent, by message kind.
    pub msg_counts: BTreeMap<&'static str, u64>,
    /// Distribution of per-message network latencies (send to delivery).
    pub msg_latency: LatencyHist,
    /// Flits by directed message endpoint pair (source node → final
    /// destination node). Physical per-mesh-link traffic lives in
    /// [`ObsReport::netobs`]. This field carried the JSON key `link_flits`
    /// before the physical-link stats existed; it is now serialized as
    /// `endpoint_pair_flits`.
    pub endpoint_pair_flits: Vec<EndpointPairFlits>,
    /// The periodic gauge samples.
    pub samples: TimeSeries,
    /// Per-cache-line provenance (patterns, causal edges, per-structure
    /// aggregation), frozen from the classifier's
    /// [`crate::lineage::Lineage`] recorder by [`ObsCollector::finish`];
    /// `None` when the classifier was not observing.
    pub lineage: Option<crate::lineage::LineageReport>,
    /// Critical-path and sync-episode profile (lock handoffs, barrier
    /// episodes, causal stall chains); always filled in by
    /// [`ObsCollector::finish`].
    pub crit: Option<crate::crit::CritReport>,
    /// Network/memory-back-end telemetry (message journeys, physical-link
    /// traffic, hot-home profiles); always filled in by
    /// [`ObsCollector::finish`].
    pub netobs: Option<crate::netobs::NetObsReport>,
}

impl ObsReport {
    /// Installs display names for phase ids (e.g. from
    /// `kernels::phase::name`).
    pub fn set_phase_names<I: IntoIterator<Item = (u16, String)>>(&mut self, names: I) {
        self.phase_names = names.into_iter().collect();
    }

    /// Display label for a phase id (`phase_names` entry, else `phaseN`).
    pub fn phase_label(&self, phase: u16) -> String {
        self.phase_names.get(&phase).cloned().unwrap_or_else(|| format!("phase{phase}"))
    }

    /// Serializes the whole report.
    pub fn to_json(&self) -> Json {
        let per_node = self
            .per_node
            .iter()
            .map(|n| {
                Json::obj([
                    ("cycles", n.cycles.to_json()),
                    (
                        "by_phase",
                        Json::obj(n.by_phase.iter().map(|(&p, acct)| (self.phase_label(p), acct.to_json()))),
                    ),
                    ("wb_full_stalls", Json::U64(n.wb_full_stalls)),
                    ("wb_high_water", Json::from(n.gauges.wb_high_water)),
                    ("mem_queue_wait", Json::U64(n.gauges.mem_queue_wait)),
                    ("mem_busy", Json::U64(n.gauges.mem_busy)),
                    ("tx_busy", Json::U64(n.gauges.tx_busy)),
                    ("rx_busy", Json::U64(n.gauges.rx_busy)),
                    ("timeline_slices", Json::from(n.timeline.len())),
                    ("timeline_dropped", Json::U64(n.timeline_dropped)),
                ])
            })
            .collect();
        let endpoint_pair_flits = self
            .endpoint_pair_flits
            .iter()
            .map(|l| {
                Json::obj([
                    ("src", Json::from(l.src)),
                    ("dst", Json::from(l.dst)),
                    ("flits", Json::U64(l.flits)),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("wall_cycles", Json::U64(self.wall_cycles)),
            ("sample_interval", Json::U64(self.sample_interval)),
            ("per_node", Json::Arr(per_node)),
            (
                "phase_totals",
                Json::obj(self.phase_totals.iter().map(|(&p, acct)| (self.phase_label(p), acct.to_json()))),
            ),
            ("msg_counts", Json::obj(self.msg_counts.iter().map(|(&k, &v)| (k, Json::U64(v))))),
            (
                "msg_latency",
                Json::obj([
                    ("count", Json::U64(self.msg_latency.count())),
                    ("mean", Json::F64(self.msg_latency.mean())),
                    ("max", Json::U64(self.msg_latency.max())),
                    (
                        "buckets",
                        Json::Arr(
                            self.msg_latency
                                .nonempty_buckets()
                                .map(|(lo, n)| Json::Arr(vec![Json::U64(lo), Json::U64(n)]))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("endpoint_pair_flits", Json::Arr(endpoint_pair_flits)),
            ("samples", self.samples.to_json()),
        ];
        if let Some(lineage) = &self.lineage {
            pairs.push(("lineage", lineage.to_json(&|p| self.phase_label(p))));
        }
        if let Some(crit) = &self.crit {
            pairs.push(("crit", crit.to_json(&|p| self.phase_label(p))));
        }
        if let Some(netobs) = &self.netobs {
            pairs.push(("netobs", netobs.to_json()));
        }
        Json::obj(pairs)
    }

    /// A short human-readable summary (one line per node plus totals).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "wall cycles: {}", self.wall_cycles);
        for (i, n) in self.per_node.iter().enumerate() {
            let _ = write!(out, "node {i:>2}:");
            for c in CPU_CLASSES {
                let v = n.cycles.get(c);
                if v > 0 {
                    let _ = write!(out, " {}={v}", c.name());
                }
            }
            let _ = writeln!(out);
        }
        let msgs: u64 = self.msg_counts.values().sum();
        let _ = writeln!(
            out,
            "messages: {msgs}, mean net latency: {:.1}, samples: {}",
            self.msg_latency.mean(),
            self.samples.len()
        );
        out
    }
}

#[cfg(test)]
impl ObsCollector {
    /// Finishes with zero gauges, an unobserved network and a classifier
    /// that registered no structure.
    pub(crate) fn finish_bare(self, wall: Cycle) -> ObsReport {
        let n = self.nodes.len();
        let mut clf = Classifier::new(sim_mem::Geometry::new(n));
        clf.finish();
        let net = Network::new(n, sim_net::NetConfig::default());
        self.finish(wall, vec![NodeGauges::default(); n], &net, &mut clf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector(nodes: usize, msg_kinds: &'static [&'static str]) -> ObsCollector {
        ObsCollector::new(MeshShape::for_nodes(nodes), msg_kinds)
    }

    #[test]
    fn transitions_attribute_to_outgoing_class() {
        let mut c = collector(1, &[]);
        // Busy [0,10), ReadStall [10,35), Busy [35,40), Halted [40,100).
        c.transition(0, CpuClass::ReadStall, 10);
        c.transition(0, CpuClass::Busy, 35);
        c.transition(0, CpuClass::Halted, 40);
        let r = c.finish_bare(100);
        let acct = &r.per_node[0].cycles;
        assert_eq!(acct.get(CpuClass::Busy), 15);
        assert_eq!(acct.get(CpuClass::ReadStall), 25);
        assert_eq!(acct.get(CpuClass::Halted), 60);
        assert_eq!(acct.total(), 100, "classes sum to the wall clock");
        assert_eq!(acct.stalled(), 25);
    }

    #[test]
    fn phase_split_sums_to_class_totals() {
        let mut c = collector(1, &[]);
        c.set_phase(0, 1, 20); // phase0 Busy [0,20), then phase 1
        c.transition(0, CpuClass::ReadStall, 30);
        c.transition(0, CpuClass::Halted, 50);
        let r = c.finish_bare(50);
        let node = &r.per_node[0];
        assert_eq!(node.by_phase[&0].get(CpuClass::Busy), 20);
        assert_eq!(node.by_phase[&1].get(CpuClass::Busy), 10);
        assert_eq!(node.by_phase[&1].get(CpuClass::ReadStall), 20);
        let phase_sum: u64 = node.by_phase.values().map(|a| a.total()).sum();
        assert_eq!(phase_sum, node.cycles.total());
        assert_eq!(r.phase_totals[&1].total(), 30);
    }

    #[test]
    fn timeline_merges_adjacent_same_class_slices() {
        let mut c = collector(1, &[]);
        c.transition(0, CpuClass::Busy, 10); // Busy -> Busy: merge
        c.transition(0, CpuClass::ReadStall, 20);
        c.transition(0, CpuClass::Busy, 30);
        let r = c.finish_bare(40);
        let tl = &r.per_node[0].timeline;
        assert_eq!(
            tl.as_slice(),
            &[
                StateSlice { class: CpuClass::Busy, start: 0, end: 20, phase: 0 },
                StateSlice { class: CpuClass::ReadStall, start: 20, end: 30, phase: 0 },
                StateSlice { class: CpuClass::Busy, start: 30, end: 40, phase: 0 },
            ]
        );
    }

    /// A mid-interval split (a sync marker or a causal wait) re-merges:
    /// the account, the phase split, the timeline and the dropped-slice
    /// count equal an unsplit run's, also with the timeline already full.
    #[test]
    fn mid_interval_splits_leave_every_account_unchanged() {
        fn run(split_at: &[Cycle], full: bool) -> NodeAcct {
            let mut node = NodeAcct::new();
            if full {
                node.timeline =
                    vec![StateSlice { class: CpuClass::Halted, start: 0, end: 0, phase: 9 }; TIMELINE_CAP];
            }
            let mut splits = split_at.iter().copied().peekable();
            for (class, at) in [(CpuClass::ReadStall, 10), (CpuClass::Busy, 30), (CpuClass::Busy, 60)] {
                while let Some(s) = splits.next_if(|&s| s <= at) {
                    node.attribute(0, s, true);
                }
                node.attribute(0, at, false);
                node.prev_class = node.class;
                node.class = class;
            }
            node.attribute(0, 80, false);
            node
        }
        for full in [false, true] {
            let whole = run(&[], full);
            for splits in [&[5][..], &[10, 10], &[12, 20, 30], &[45, 60], &[70, 75]] {
                let split = run(splits, full);
                assert_eq!(split.cycles, whole.cycles, "{splits:?}");
                assert_eq!(split.by_phase, whole.by_phase, "{splits:?}");
                assert_eq!(split.timeline, whole.timeline, "{splits:?}");
                assert_eq!(split.timeline_dropped, whole.timeline_dropped, "full {full}, {splits:?}");
                assert_eq!(split.chain.head, 80);
            }
            // Four slices: Busy, ReadStall, and the Busy→Busy transition at
            // 60 counts as a new slice when nothing can be extended.
            assert_eq!(whole.timeline_dropped, if full { 4 } else { 0 });
        }
    }

    #[test]
    fn classes_index_in_serialization_order() {
        for (i, c) in CPU_CLASSES.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
    }

    #[test]
    fn report_json_round_trips() {
        let mut c = collector(2, &["ReadShared", "GetX", "Data"]);
        c.message_sent(0, 30, None);
        c.message_sent(2, 42, None);
        c.message_sent(0, 31, None);
        c.transition(0, CpuClass::Halted, 5);
        c.transition(1, CpuClass::Halted, 7);
        let mut r = c.finish_bare(7);
        r.set_phase_names([(0u16, "setup".to_string())]);
        let rendered = r.to_json().render_pretty();
        let parsed = Json::parse(&rendered).expect("report JSON parses");
        assert_eq!(parsed.get("wall_cycles").and_then(Json::as_u64), Some(7));
        assert_eq!(parsed.get("sample_interval").and_then(Json::as_u64), Some(SAMPLE_INTERVAL));
        assert_eq!(parsed.get("msg_counts").unwrap().get("ReadShared").and_then(Json::as_u64), Some(2));
        assert!(parsed.get("msg_counts").unwrap().get("GetX").is_none(), "unsent kinds are not listed");
        assert_eq!(parsed.get("per_node").unwrap().as_arr().unwrap().len(), 2);
        assert!(parsed.get("crit").is_some() && parsed.get("netobs").is_some(), "finish fills every part in");
        assert!(r.summary().contains("wall cycles: 7"));
    }
}
