//! End-to-end observability: per-processor cycle accounting, per-phase
//! breakdowns, component gauges, and the aggregated [`ObsReport`].
//!
//! The machine drives an [`ObsCollector`] while it runs: every processor
//! state transition calls [`ObsCollector::transition`], which attributes the
//! elapsed interval to the *outgoing* state's [`CpuClass`] (and the current
//! program phase), so per-node class totals always sum exactly to the wall
//! clock. `Phase` marker instructions switch the active phase; periodic
//! samples land in the collector's [`crate::sampler::TimeSeries`].
//!
//! Everything here is passive bookkeeping: the collector never schedules
//! events or changes values the simulation reads, so enabling it cannot
//! perturb timing or results.

use std::collections::BTreeMap;

use sim_engine::Cycle;

use crate::hist::LatencyHist;
use crate::json::Json;
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

    fn index(self) -> usize {
        match self {
            CpuClass::Busy => 0,
            CpuClass::ReadStall => 1,
            CpuClass::WbFullStall => 2,
            CpuClass::AtomicStall => 3,
            CpuClass::BarrierWait => 4,
            CpuClass::Halted => 5,
        }
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

/// Observability switches carried in the machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Master switch. Off (the default) leaves the default path untouched:
    /// no accounting, no sampling, no timeline.
    pub enabled: bool,
    /// Cycles between periodic gauge samples.
    pub sample_interval: Cycle,
    /// Record per-processor state timelines (needed for Chrome traces).
    pub timeline: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: false, sample_interval: 1000, timeline: true }
    }
}

impl ObsConfig {
    /// Enabled with default interval and timeline recording.
    pub fn enabled() -> Self {
        ObsConfig { enabled: true, ..Default::default() }
    }
}

#[derive(Debug, Clone)]
struct NodeAcct {
    class: CpuClass,
    phase: u16,
    since: Cycle,
    cycles: CycleAccount,
    by_phase: BTreeMap<u16, CycleAccount>,
    timeline: Vec<StateSlice>,
    timeline_dropped: u64,
    wb_full_stalls: u64,
}

impl NodeAcct {
    fn new() -> Self {
        NodeAcct {
            class: CpuClass::Busy,
            phase: 0,
            since: 0,
            cycles: CycleAccount::default(),
            by_phase: BTreeMap::new(),
            timeline: Vec::new(),
            timeline_dropped: 0,
            wb_full_stalls: 0,
        }
    }

    fn attribute(&mut self, upto: Cycle, timeline: bool) {
        debug_assert!(upto >= self.since, "cycle accounting moved backwards");
        let dt = upto.saturating_sub(self.since);
        if dt > 0 {
            self.cycles.add(self.class, dt);
            self.by_phase.entry(self.phase).or_default().add(self.class, dt);
            if timeline {
                let extends_last = self.timeline.last().is_some_and(|last| {
                    last.end == self.since && last.class == self.class && last.phase == self.phase
                });
                if extends_last {
                    self.timeline.last_mut().unwrap().end = upto;
                } else if self.timeline.len() < TIMELINE_CAP {
                    self.timeline.push(StateSlice {
                        class: self.class,
                        start: self.since,
                        end: upto,
                        phase: self.phase,
                    });
                } else {
                    self.timeline_dropped += 1;
                }
            }
        }
        self.since = upto;
    }
}

/// The live recorder the machine drives during a run. Turned into an
/// [`ObsReport`] by [`ObsCollector::finish`].
#[derive(Debug, Clone)]
pub struct ObsCollector {
    cfg: ObsConfig,
    nodes: Vec<NodeAcct>,
    /// Message-kind names, by the kind index [`ObsCollector::count_msg`]
    /// takes.
    msg_kinds: &'static [&'static str],
    /// Messages sent, by kind index.
    msg_counts: Vec<u64>,
    msg_latency: LatencyHist,
    samples: TimeSeries,
}

impl ObsCollector {
    /// A collector for `num_nodes` processors whose messages come in the
    /// kinds `msg_kinds` names, by kind index.
    pub fn new(num_nodes: usize, cfg: ObsConfig, msg_kinds: &'static [&'static str]) -> Self {
        ObsCollector {
            nodes: (0..num_nodes).map(|_| NodeAcct::new()).collect(),
            msg_kinds,
            msg_counts: vec![0; msg_kinds.len()],
            msg_latency: LatencyHist::new(),
            samples: TimeSeries::new(cfg.sample_interval, num_nodes),
            cfg,
        }
    }

    /// The configuration this collector was built with.
    pub fn config(&self) -> ObsConfig {
        self.cfg
    }

    /// Processor `n` enters `class` at cycle `at`; the interval since the
    /// previous transition is attributed to the outgoing class.
    pub fn transition(&mut self, n: usize, class: CpuClass, at: Cycle) {
        let node = &mut self.nodes[n];
        node.attribute(at, self.cfg.timeline);
        node.class = class;
    }

    /// Starts processor `n`'s account at `class` as of `at` without
    /// charging the elapsed interval — cursor alignment for windowed
    /// replay from a restored checkpoint, where cycles before `at` belong
    /// to the original run's account.
    pub fn align(&mut self, n: usize, class: CpuClass, at: Cycle) {
        let node = &mut self.nodes[n];
        node.class = class;
        node.since = at;
    }

    /// Processor `n` switches to program `phase` at cycle `at`.
    pub fn set_phase(&mut self, n: usize, phase: u16, at: Cycle) {
        let node = &mut self.nodes[n];
        node.attribute(at, self.cfg.timeline);
        node.phase = phase;
    }

    /// Counts one protocol message of kind index `kind` with the given
    /// network latency.
    pub fn count_msg(&mut self, kind: usize, latency: Cycle) {
        self.msg_counts[kind] += 1;
        self.msg_latency.record(latency);
    }

    /// Counts one processor stall on a full write buffer.
    pub fn wb_full_stall(&mut self, n: usize) {
        self.nodes[n].wb_full_stalls += 1;
    }

    /// Appends the periodic sample taken at `at`. `node` fills in each
    /// node's entry given its index and its current class and phase.
    pub fn record_sample(
        &mut self,
        at: Cycle,
        msgs_sent: u64,
        flits_sent: u64,
        mut node: impl FnMut(usize, CpuClass, u16) -> NodeSample,
    ) {
        let nodes = self.nodes.iter().enumerate().map(|(n, acct)| node(n, acct.class, acct.phase));
        self.samples.push(at, msgs_sent, flits_sent, nodes);
    }

    /// Closes every node's account at `wall` (attributing the tail interval
    /// to its current class) and builds the report. The per-node component
    /// gauges are read out by the machine and passed in.
    pub fn finish(
        mut self,
        wall: Cycle,
        gauges: Vec<NodeGauges>,
        endpoint_pair_flits: Vec<EndpointPairFlits>,
    ) -> ObsReport {
        assert_eq!(gauges.len(), self.nodes.len());
        let mut phase_totals: BTreeMap<u16, CycleAccount> = BTreeMap::new();
        let per_node: Vec<NodeObs> = self
            .nodes
            .iter_mut()
            .zip(gauges)
            .map(|(node, g)| {
                node.attribute(wall, self.cfg.timeline);
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
            sample_interval: self.cfg.sample_interval,
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
            endpoint_pair_flits,
            samples: self.samples,
            lineage: None,
            crit: None,
            netobs: None,
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
    /// Merged state timeline (empty when `ObsConfig::timeline` is off).
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
    /// aggregation); attached by the machine from the classifier's
    /// [`crate::lineage::Lineage`] recorder after the run.
    pub lineage: Option<crate::lineage::LineageReport>,
    /// Critical-path and sync-episode profile (lock handoffs, barrier
    /// episodes, causal stall chains); attached by the machine from its
    /// [`crate::crit::CritCollector`] after the run.
    pub crit: Option<crate::crit::CritReport>,
    /// Network/memory-back-end telemetry (message journeys, physical-link
    /// traffic, hot-home profiles); attached by the machine from its
    /// [`crate::netobs::NetObsCollector`] after the run.
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
mod tests {
    use super::*;

    #[test]
    fn transitions_attribute_to_outgoing_class() {
        let mut c = ObsCollector::new(1, ObsConfig::enabled(), &[]);
        // Busy [0,10), ReadStall [10,35), Busy [35,40), Halted [40,100).
        c.transition(0, CpuClass::ReadStall, 10);
        c.transition(0, CpuClass::Busy, 35);
        c.transition(0, CpuClass::Halted, 40);
        let r = c.finish(100, vec![NodeGauges::default()], vec![]);
        let acct = &r.per_node[0].cycles;
        assert_eq!(acct.get(CpuClass::Busy), 15);
        assert_eq!(acct.get(CpuClass::ReadStall), 25);
        assert_eq!(acct.get(CpuClass::Halted), 60);
        assert_eq!(acct.total(), 100, "classes sum to the wall clock");
        assert_eq!(acct.stalled(), 25);
    }

    #[test]
    fn phase_split_sums_to_class_totals() {
        let mut c = ObsCollector::new(1, ObsConfig::enabled(), &[]);
        c.set_phase(0, 1, 20); // phase0 Busy [0,20), then phase 1
        c.transition(0, CpuClass::ReadStall, 30);
        c.transition(0, CpuClass::Halted, 50);
        let r = c.finish(50, vec![NodeGauges::default()], vec![]);
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
        let mut c = ObsCollector::new(1, ObsConfig::enabled(), &[]);
        c.transition(0, CpuClass::Busy, 10); // Busy -> Busy: merge
        c.transition(0, CpuClass::ReadStall, 20);
        c.transition(0, CpuClass::Busy, 30);
        let r = c.finish(40, vec![NodeGauges::default()], vec![]);
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

    #[test]
    fn report_json_round_trips() {
        let mut c = ObsCollector::new(2, ObsConfig::enabled(), &["ReadShared", "GetX", "Data"]);
        c.count_msg(0, 30);
        c.count_msg(2, 42);
        c.count_msg(0, 31);
        c.transition(0, CpuClass::Halted, 5);
        c.transition(1, CpuClass::Halted, 7);
        let mut r = c.finish(
            7,
            vec![NodeGauges::default(), NodeGauges { wb_high_water: 3, ..Default::default() }],
            vec![EndpointPairFlits { src: 0, dst: 1, flits: 12 }],
        );
        r.set_phase_names([(0u16, "setup".to_string())]);
        let rendered = r.to_json().render_pretty();
        let parsed = Json::parse(&rendered).expect("report JSON parses");
        assert_eq!(parsed.get("wall_cycles").and_then(Json::as_u64), Some(7));
        assert_eq!(parsed.get("msg_counts").unwrap().get("ReadShared").and_then(Json::as_u64), Some(2));
        assert!(parsed.get("msg_counts").unwrap().get("GetX").is_none(), "unsent kinds are not listed");
        assert_eq!(parsed.get("per_node").unwrap().as_arr().unwrap().len(), 2);
        assert!(r.summary().contains("wall cycles: 7"));
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let cfg = ObsConfig { enabled: true, timeline: false, ..Default::default() };
        let mut c = ObsCollector::new(1, cfg, &[]);
        c.transition(0, CpuClass::ReadStall, 10);
        c.transition(0, CpuClass::Busy, 20);
        let r = c.finish(30, vec![NodeGauges::default()], vec![]);
        assert!(r.per_node[0].timeline.is_empty());
        assert_eq!(r.per_node[0].cycles.total(), 30, "accounting still runs");
    }
}
