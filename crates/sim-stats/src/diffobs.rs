//! Differential observability: structured comparison of two runs.
//!
//! Every single-run instrument in this crate reconciles to exact closure
//! (stall accounts sum to the wall clock, the crit chain's composition
//! sums to the wall clock, journey stages sum to journey latency). This
//! module lifts that discipline to *pairs* of runs: [`ReportDelta`]
//! compares two [`ObsReport`]s section by section — stall-class and phase
//! cycle accounting, lineage sharing patterns and provenance counts,
//! crit-path decomposition and per-lock handoff splits, netobs journey
//! stages and per-home/per-link totals, hostobs dispatch categories — as
//! paired [`Counter`]s carrying both absolute and relative deltas.
//!
//! The closure discipline carries over delta-wise:
//! [`ReportDelta::check_closure`] asserts that each section's deltas sum
//! to the section's total-cycle delta (the crit chain's class deltas sum
//! *exactly* to the wall-clock delta), mirroring
//! [`crate::crit::check_reconciliation`]. A run diffed against itself is
//! all-zeros ([`ReportDelta::is_zero`]).
//!
//! When both sides carry determinism fingerprints, the delta integrates
//! [`FingerprintChain::first_divergence`] to say *where* the two runs
//! stopped being the same; [`ReportDelta::attribution`] ranks the largest
//! cycle movements ("PU removed 2.1M remote-miss cycles from lock 0
//! handoffs") so the headline of a cross-protocol or cross-config
//! comparison reads off directly.

use std::collections::BTreeMap;

use crate::crit::CritReport;
use crate::hostobs::{DivergenceDetail, FingerprintChain, FingerprintDivergence, HostObsReport};
use crate::json::Json;
use crate::lineage::{LineageReport, SharingPattern};
use crate::netobs::{JourneyTotals, NetObsReport};
use crate::obs::{ObsReport, CPU_CLASSES};

/// One paired measurement: side A's value, side B's value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// The baseline (A) value.
    pub a: u64,
    /// The comparison (B) value.
    pub b: u64,
}

impl Counter {
    /// A pair.
    pub fn new(a: u64, b: u64) -> Self {
        Counter { a, b }
    }

    /// Absolute delta, `b - a`.
    pub fn delta(&self) -> i64 {
        self.b as i64 - self.a as i64
    }

    /// Relative delta `(b - a) / a`; `None` when the baseline is zero.
    pub fn rel(&self) -> Option<f64> {
        (self.a != 0).then(|| self.delta() as f64 / self.a as f64)
    }

    /// Whether both sides are equal.
    pub fn is_zero(&self) -> bool {
        self.a == self.b
    }

    /// Serializes as `{a, b, delta, rel?}`.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("a".to_string(), Json::U64(self.a)),
            ("b".to_string(), Json::U64(self.b)),
            ("delta".to_string(), json_i64(self.delta())),
        ];
        if let Some(r) = self.rel() {
            pairs.push(("rel".to_string(), Json::F64(r)));
        }
        Json::Obj(pairs)
    }

    /// `a -> b (delta, rel%)`, e.g. `123 -> 0 (-123, -100.0%)`.
    pub fn display(&self) -> String {
        match self.rel() {
            Some(r) => format!("{} -> {} ({:+}, {:+.1}%)", self.a, self.b, self.delta(), r * 100.0),
            None => format!("{} -> {} ({:+})", self.a, self.b, self.delta()),
        }
    }
}

fn json_i64(v: i64) -> Json {
    if v >= 0 {
        Json::U64(v as u64)
    } else {
        Json::F64(v as f64)
    }
}

/// One side of a diff: everything a run exposes to the comparison. The
/// machine layer builds this from its run result; tests can assemble it
/// from raw reports.
#[derive(Debug, Clone, Copy)]
pub struct RunSide<'a> {
    /// Display label ("WI", "PU", "baseline", a config digest, ...).
    pub label: &'a str,
    /// Total simulated cycles of the run.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// The run's observability report.
    pub obs: &'a ObsReport,
    /// Host self-profile, when the run carried one.
    pub host: Option<&'a HostObsReport>,
    /// Determinism fingerprint chain, when the run carried one.
    pub fingerprint: Option<&'a FingerprintChain>,
}

/// Sharing-pattern and provenance deltas from the lineage section.
#[derive(Debug, Clone, Default)]
pub struct LineageDelta {
    /// Blocks per sharing pattern.
    pub patterns: BTreeMap<&'static str, Counter>,
    /// Profiled blocks in total.
    pub blocks: Counter,
    /// Blocks carrying an invalidation→miss provenance chain.
    pub provenance_chains: Counter,
    /// Miss totals per class (keys from [`crate::MissStats::to_json`]).
    pub misses: BTreeMap<&'static str, Counter>,
    /// All misses (sum of the classes minus exclusive requests).
    pub miss_total: Counter,
    /// Update totals per class.
    pub updates: BTreeMap<&'static str, Counter>,
    /// All update messages.
    pub update_total: Counter,
    /// Invalidation messages observed by the ledger.
    pub invalidations: Counter,
    /// Update deliveries observed by the ledger.
    pub update_deliveries: Counter,
}

/// Per-lock handoff-split deltas.
#[derive(Debug, Clone)]
pub struct LockDelta {
    /// The lock id.
    pub lock: u32,
    /// Successful acquires.
    pub acquires: Counter,
    /// Handoffs.
    pub handoffs: Counter,
    /// Cycles held.
    pub hold_cycles: Counter,
    /// Queue wait (funded by predecessors' holds).
    pub queue_wait: Counter,
    /// Release-visibility share of the handoff window.
    pub release_visibility: Counter,
    /// Remote-miss share of the handoff window.
    pub remote_miss: Counter,
    /// Unclassified remainder of the handoff window.
    pub other: Counter,
    /// Total release→acquire cycles (the three shares above).
    pub handoff_cycles: Counter,
}

/// Per-barrier episode deltas.
#[derive(Debug, Clone)]
pub struct BarrierDelta {
    /// The barrier id.
    pub barrier: u32,
    /// Completed episodes.
    pub episodes: Counter,
    /// Summed arrival imbalance.
    pub imbalance_cycles: Counter,
    /// Summed release fanout.
    pub fanout_cycles: Counter,
}

/// Critical-path decomposition deltas.
#[derive(Debug, Clone, Default)]
pub struct CritDelta {
    /// Chain composition by stall class; delta-sums exactly to the
    /// wall-clock delta (the tightest closure equation of the diff).
    pub chain_classes: BTreeMap<&'static str, Counter>,
    /// Chain cycles per structure / sync-object label.
    pub chain_labels: BTreeMap<String, Counter>,
    /// Chain cycles per causal-edge kind.
    pub chain_edges: BTreeMap<String, Counter>,
    /// Per-lock handoff splits, by lock id.
    pub locks: Vec<LockDelta>,
    /// Per-barrier episodes, by barrier id.
    pub barriers: Vec<BarrierDelta>,
}

/// One journey-stage delta set (aggregate or per message class).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageDelta {
    /// Remote messages.
    pub count: Counter,
    /// Flits carried.
    pub flits: Counter,
    /// Cycles waiting for the transmit port.
    pub tx_wait: Counter,
    /// Cycles being serialized out.
    pub tx_service: Counter,
    /// Cycles on the wire.
    pub wire: Counter,
    /// Cycles waiting in receive contention.
    pub rx_wait: Counter,
    /// Summed end-to-end latency (the four stages above).
    pub latency: Counter,
}

impl StageDelta {
    fn from_totals(a: &JourneyTotals, b: &JourneyTotals) -> StageDelta {
        StageDelta {
            count: Counter::new(a.count, b.count),
            flits: Counter::new(a.flits, b.flits),
            tx_wait: Counter::new(a.tx_wait, b.tx_wait),
            tx_service: Counter::new(a.tx_service, b.tx_service),
            wire: Counter::new(a.wire, b.wire),
            rx_wait: Counter::new(a.rx_wait, b.rx_wait),
            latency: Counter::new(a.total.sum(), b.total.sum()),
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("count", self.count.to_json()),
            ("flits", self.flits.to_json()),
            ("tx_wait", self.tx_wait.to_json()),
            ("tx_service", self.tx_service.to_json()),
            ("wire", self.wire.to_json()),
            ("rx_wait", self.rx_wait.to_json()),
            ("latency", self.latency.to_json()),
        ])
    }
}

/// Per-home memory/update deltas.
#[derive(Debug, Clone)]
pub struct HomeDelta {
    /// The home node.
    pub node: usize,
    /// Flits received for blocks homed here.
    pub homed_rx_flits: Counter,
    /// Memory-module busy cycles.
    pub mem_busy: Counter,
    /// Updates this home fanned out.
    pub update_deliveries: Counter,
    /// Updates dropped (CU threshold).
    pub update_drops: Counter,
}

/// Per-physical-link flit deltas.
#[derive(Debug, Clone, Copy)]
pub struct LinkDelta {
    /// Upstream switch.
    pub src: usize,
    /// Downstream switch.
    pub dst: usize,
    /// Flits crossing the link.
    pub flits: Counter,
}

/// Network-telemetry deltas.
#[derive(Debug, Clone, Default)]
pub struct NetDelta {
    /// Aggregate journey stages over every remote message.
    pub totals: StageDelta,
    /// Journey stages per message class.
    pub by_class: BTreeMap<String, StageDelta>,
    /// Per-home profiles, by node.
    pub homes: Vec<HomeDelta>,
    /// Per-physical-link traffic (union of links live on either side).
    pub links: Vec<LinkDelta>,
    /// Messages delivered locally (no network crossing).
    pub local_messages: Counter,
}

/// One dispatch-category delta of the host self-profile.
#[derive(Debug, Clone)]
pub struct HostCatDelta {
    /// Category name (e.g. `proto-deliver`).
    pub name: &'static str,
    /// Handler invocations.
    pub calls: Counter,
    /// Wall nanoseconds inside the handler.
    pub nanos: Counter,
}

/// Host self-profile deltas.
#[derive(Debug, Clone, Default)]
pub struct HostDelta {
    /// Host wall time of the run.
    pub wall_nanos: Counter,
    /// Events committed.
    pub events: Counter,
    /// Per-dispatch-category splits.
    pub cats: Vec<HostCatDelta>,
}

/// Where two fingerprinted runs stopped being the same.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FingerprintCompare {
    /// One or both sides ran without a fingerprint chain.
    Absent,
    /// Chains are identical: the runs committed the same event stream.
    Identical,
    /// The chains diverged; says where (parameters, first epoch, or
    /// final state only).
    Diverged {
        /// The coarse divergence kind.
        at: FingerprintDivergence,
        /// Event-level localization of an epoch divergence: the divergent
        /// epoch's event-index range, plus the exact first divergent event
        /// when one stream ends inside that epoch. `None` for
        /// `Parameters`/`StateOnly` divergences.
        detail: Option<DivergenceDetail>,
    },
}

impl FingerprintCompare {
    /// One human-readable sentence: `absent`, `identical`, or a
    /// `diverged ...` description naming the epoch, its event-index
    /// range, and — when the chains pin it — the exact first divergent
    /// event. `ppc diff`'s text output and `ppc replay`'s header both
    /// print this.
    pub fn describe(&self) -> String {
        match self {
            FingerprintCompare::Absent => "absent".to_string(),
            FingerprintCompare::Identical => "identical (runs committed the same event stream)".to_string(),
            FingerprintCompare::Diverged { at, detail } => match (at, detail) {
                (FingerprintDivergence::Parameters, _) => {
                    "diverged: chains recorded with different epoch sizes".to_string()
                }
                (FingerprintDivergence::StateOnly, _) => {
                    "diverged: same event stream, final machine state differs".to_string()
                }
                (FingerprintDivergence::Epoch(i), None) => format!("diverged: first at epoch {i}"),
                (FingerprintDivergence::Epoch(_), Some(d)) => {
                    let mut s = format!(
                        "diverged: first at epoch {} (events [{}, {}))",
                        d.epoch, d.event_lo, d.event_hi
                    );
                    if let (Some(first), Some(in_epoch)) = (d.first_event, d.in_epoch) {
                        s.push_str(&format!(", first divergent event {first} ({in_epoch} into the epoch)"));
                    }
                    s
                }
            },
        }
    }
}

/// One ranked row of the attribution: a section/key pair and how many
/// cycles moved between the sides.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// The section the cycles belong to ("crit-path", "lock 0 handoffs",
    /// "journey Update", "stall-class", ...).
    pub section: String,
    /// The component within the section ("remote-miss", "tx-wait", ...).
    pub key: String,
    /// The paired measurement.
    pub counter: Counter,
}

impl Attribution {
    /// A human sentence, e.g. `PU removed 2100000 remote-miss cycles from
    /// lock 0 handoffs (123456 -> 0)`.
    pub fn sentence(&self, label_b: &str) -> String {
        let d = self.counter.delta();
        let verb = if d < 0 { "removed" } else { "added" };
        format!(
            "{label_b} {verb} {} {} cycles {} {} ({} -> {})",
            d.unsigned_abs(),
            self.key,
            if d < 0 { "from" } else { "to" },
            self.section,
            self.counter.a,
            self.counter.b
        )
    }
}

/// The structured comparison of two observed runs.
#[derive(Debug, Clone)]
pub struct ReportDelta {
    /// Label of side A (the baseline).
    pub label_a: String,
    /// Label of side B (the comparison).
    pub label_b: String,
    /// Node counts (sides may differ; closure accounts for it).
    pub procs: Counter,
    /// Wall clocks — the total-cycle delta every section closes against.
    pub wall: Counter,
    /// Instructions retired.
    pub instructions: Counter,
    /// Stall-class cycle accounts summed over nodes; per side each class
    /// column sums to `procs * wall`.
    pub classes: BTreeMap<&'static str, Counter>,
    /// Per-phase cycle totals (summed over nodes), by phase label.
    pub phases: BTreeMap<String, Counter>,
    /// Protocol messages by kind.
    pub msgs: BTreeMap<String, Counter>,
    /// Lineage section, when both sides carried one.
    pub lineage: Option<LineageDelta>,
    /// Crit-path section, when both sides carried one.
    pub crit: Option<CritDelta>,
    /// Netobs section, when both sides carried one.
    pub net: Option<NetDelta>,
    /// Host self-profile section, when both sides carried one.
    pub host: Option<HostDelta>,
    /// Fingerprint-chain comparison.
    pub fingerprint: FingerprintCompare,
}

fn merged_keys<'k, V>(a: &'k BTreeMap<String, V>, b: &'k BTreeMap<String, V>) -> Vec<&'k String> {
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    keys
}

fn lineage_delta(a: &LineageReport, b: &LineageReport) -> LineageDelta {
    let patterns_of = |r: &LineageReport| {
        let mut m: BTreeMap<&'static str, u64> = BTreeMap::new();
        for blk in &r.blocks {
            *m.entry(blk.pattern.name()).or_insert(0) += 1;
        }
        m
    };
    let (pa, pb) = (patterns_of(a), patterns_of(b));
    const PATTERNS: [SharingPattern; 5] = [
        SharingPattern::ReadOnly,
        SharingPattern::Private,
        SharingPattern::ProducerConsumer,
        SharingPattern::Migratory,
        SharingPattern::WideShared,
    ];
    let patterns = PATTERNS
        .iter()
        .map(|p| {
            let name = p.name();
            (name, Counter::new(pa.get(name).copied().unwrap_or(0), pb.get(name).copied().unwrap_or(0)))
        })
        .collect();
    let provenance = |r: &LineageReport| r.blocks.iter().filter(|b| b.provenance.is_some()).count() as u64;
    let (ma, mb) = (a.miss_totals(), b.miss_totals());
    let misses = BTreeMap::from([
        ("cold", Counter::new(ma.cold, mb.cold)),
        ("true_sharing", Counter::new(ma.true_sharing, mb.true_sharing)),
        ("false_sharing", Counter::new(ma.false_sharing, mb.false_sharing)),
        ("eviction", Counter::new(ma.eviction, mb.eviction)),
        ("drop", Counter::new(ma.drop, mb.drop)),
    ]);
    let (ua, ub) = (a.update_totals(), b.update_totals());
    let updates = BTreeMap::from([
        ("true_sharing", Counter::new(ua.true_sharing, ub.true_sharing)),
        ("false_sharing", Counter::new(ua.false_sharing, ub.false_sharing)),
        ("proliferation", Counter::new(ua.proliferation, ub.proliferation)),
        ("replacement", Counter::new(ua.replacement, ub.replacement)),
        ("termination", Counter::new(ua.termination, ub.termination)),
        ("drop", Counter::new(ua.drop, ub.drop)),
    ]);
    let sums = |r: &LineageReport| {
        let inv: u64 = r.blocks.iter().map(|b| b.invalidations).sum();
        let del: u64 = r.blocks.iter().map(|b| b.update_deliveries).sum();
        (inv, del)
    };
    let ((inv_a, del_a), (inv_b, del_b)) = (sums(a), sums(b));
    LineageDelta {
        patterns,
        blocks: Counter::new(a.blocks.len() as u64, b.blocks.len() as u64),
        provenance_chains: Counter::new(provenance(a), provenance(b)),
        misses,
        miss_total: Counter::new(ma.total_misses(), mb.total_misses()),
        updates,
        update_total: Counter::new(ua.total(), ub.total()),
        invalidations: Counter::new(inv_a, inv_b),
        update_deliveries: Counter::new(del_a, del_b),
    }
}

fn crit_delta(a: &CritReport, b: &CritReport, pl_a: &ObsReport, pl_b: &ObsReport) -> CritDelta {
    let chain_classes = CPU_CLASSES
        .map(|c| (c.name(), Counter::new(a.critical_path.by_class.get(c), b.critical_path.by_class.get(c))))
        .into_iter()
        .collect();
    let label_maps = (&a.critical_path.by_label, &b.critical_path.by_label);
    let chain_labels = merged_keys(label_maps.0, label_maps.1)
        .into_iter()
        .map(|k| {
            let get = |m: &BTreeMap<String, u64>| m.get(k).copied().unwrap_or(0);
            (k.clone(), Counter::new(get(label_maps.0), get(label_maps.1)))
        })
        .collect();
    let edges_of = |r: &CritReport| {
        r.critical_path.by_edge.iter().map(|(&e, &v)| (e.to_string(), v)).collect::<BTreeMap<_, _>>()
    };
    let (ea, eb) = (edges_of(a), edges_of(b));
    let chain_edges = merged_keys(&ea, &eb)
        .into_iter()
        .map(|k| (k.clone(), Counter::new(ea.get(k).copied().unwrap_or(0), eb.get(k).copied().unwrap_or(0))))
        .collect();
    // Phase labels (not raw ids) key the chain's phase composition in the
    // report JSON, so resolve ids through each side's own names.
    let _ = (pl_a, pl_b);
    let mut lock_ids: Vec<u32> =
        a.locks.iter().map(|l| l.lock).chain(b.locks.iter().map(|l| l.lock)).collect();
    lock_ids.sort_unstable();
    lock_ids.dedup();
    let locks = lock_ids
        .into_iter()
        .map(|id| {
            let get =
                |r: &CritReport, f: &dyn Fn(&crate::crit::LockReport) -> u64| r.lock(id).map(f).unwrap_or(0);
            let pair = |f: &dyn Fn(&crate::crit::LockReport) -> u64| Counter::new(get(a, f), get(b, f));
            LockDelta {
                lock: id,
                acquires: pair(&|l| l.acquires),
                handoffs: pair(&|l| l.handoffs),
                hold_cycles: pair(&|l| l.hold_cycles),
                queue_wait: pair(&|l| l.queue_wait),
                release_visibility: pair(&|l| l.release_visibility),
                remote_miss: pair(&|l| l.remote_miss),
                other: pair(&|l| l.other),
                handoff_cycles: pair(&|l| l.handoff_cycles()),
            }
        })
        .collect();
    let mut barrier_ids: Vec<u32> =
        a.barriers.iter().map(|x| x.barrier).chain(b.barriers.iter().map(|x| x.barrier)).collect();
    barrier_ids.sort_unstable();
    barrier_ids.dedup();
    let barriers = barrier_ids
        .into_iter()
        .map(|id| {
            let get = |r: &CritReport, f: &dyn Fn(&crate::crit::BarrierReport) -> u64| {
                r.barrier(id).map(f).unwrap_or(0)
            };
            let pair = |f: &dyn Fn(&crate::crit::BarrierReport) -> u64| Counter::new(get(a, f), get(b, f));
            BarrierDelta {
                barrier: id,
                episodes: pair(&|x| x.episodes),
                imbalance_cycles: pair(&|x| x.imbalance_cycles),
                fanout_cycles: pair(&|x| x.fanout_cycles),
            }
        })
        .collect();
    CritDelta { chain_classes, chain_labels, chain_edges, locks, barriers }
}

fn net_delta(a: &NetObsReport, b: &NetObsReport) -> NetDelta {
    let empty = JourneyTotals::default();
    let classes_of =
        |r: &NetObsReport| r.by_class.keys().map(|&k| (k.to_string(), ())).collect::<BTreeMap<String, ()>>();
    let (ca, cb) = (classes_of(a), classes_of(b));
    let by_class = merged_keys(&ca, &cb)
        .into_iter()
        .map(|k| {
            let ta = a.by_class.get(k.as_str()).unwrap_or(&empty);
            let tb = b.by_class.get(k.as_str()).unwrap_or(&empty);
            (k.clone(), StageDelta::from_totals(ta, tb))
        })
        .collect();
    let nodes = a.homes.len().max(b.homes.len());
    let homes = (0..nodes)
        .map(|n| {
            let get = |r: &NetObsReport, f: &dyn Fn(&crate::netobs::HomeProfile) -> u64| {
                r.homes.get(n).map(f).unwrap_or(0)
            };
            let pair = |f: &dyn Fn(&crate::netobs::HomeProfile) -> u64| Counter::new(get(a, f), get(b, f));
            HomeDelta {
                node: n,
                homed_rx_flits: pair(&|h| h.homed_rx_flits),
                mem_busy: pair(&|h| h.mem_busy),
                update_deliveries: pair(&|h| h.update_deliveries),
                update_drops: pair(&|h| h.update_drops),
            }
        })
        .collect();
    let link_map =
        |r: &NetObsReport| r.phys_links.iter().map(|l| ((l.src, l.dst), l.flits)).collect::<BTreeMap<_, _>>();
    let (la, lb) = (link_map(a), link_map(b));
    let mut link_keys: Vec<(usize, usize)> = la.keys().chain(lb.keys()).copied().collect();
    link_keys.sort_unstable();
    link_keys.dedup();
    let links = link_keys
        .into_iter()
        .map(|(src, dst)| LinkDelta {
            src,
            dst,
            flits: Counter::new(
                la.get(&(src, dst)).copied().unwrap_or(0),
                lb.get(&(src, dst)).copied().unwrap_or(0),
            ),
        })
        .collect();
    NetDelta {
        totals: StageDelta::from_totals(&a.totals(), &b.totals()),
        by_class,
        homes,
        links,
        local_messages: Counter::new(a.local_messages, b.local_messages),
    }
}

fn host_delta(a: &HostObsReport, b: &HostObsReport) -> HostDelta {
    let cats = crate::hostobs::HOST_CATS
        .iter()
        .map(|c| {
            let get = |r: &HostObsReport| {
                r.cats.iter().find(|x| x.name == c.name()).map(|x| (x.calls, x.nanos)).unwrap_or((0, 0))
            };
            let ((calls_a, nanos_a), (calls_b, nanos_b)) = (get(a), get(b));
            HostCatDelta {
                name: c.name(),
                calls: Counter::new(calls_a, calls_b),
                nanos: Counter::new(nanos_a, nanos_b),
            }
        })
        .collect();
    HostDelta {
        wall_nanos: Counter::new(a.wall_nanos, b.wall_nanos),
        events: Counter::new(a.events, b.events),
        cats,
    }
}

impl ReportDelta {
    /// Compares side `b` against baseline `a`, section by section.
    /// Optional sections (lineage, crit, netobs, host) diff only when both
    /// sides carry them; [`ReportDelta::check_closure`] then validates the
    /// per-section sum equations.
    pub fn between(a: &RunSide, b: &RunSide) -> ReportDelta {
        let (oa, ob) = (a.obs, b.obs);
        let classes = CPU_CLASSES
            .map(|c| {
                let sum = |o: &ObsReport| o.per_node.iter().map(|n| n.cycles.get(c)).sum::<u64>();
                (c.name(), Counter::new(sum(oa), sum(ob)))
            })
            .into_iter()
            .collect();
        let phases_of = |o: &ObsReport| {
            o.phase_totals
                .iter()
                .map(|(&p, acct)| (o.phase_label(p), acct.total()))
                .collect::<BTreeMap<String, u64>>()
        };
        let (pa, pb) = (phases_of(oa), phases_of(ob));
        let phases = merged_keys(&pa, &pb)
            .into_iter()
            .map(|k| {
                (k.clone(), Counter::new(pa.get(k).copied().unwrap_or(0), pb.get(k).copied().unwrap_or(0)))
            })
            .collect();
        let msgs_of = |o: &ObsReport| {
            o.msg_counts.iter().map(|(&k, &v)| (k.to_string(), v)).collect::<BTreeMap<_, _>>()
        };
        let (ma, mb) = (msgs_of(oa), msgs_of(ob));
        let msgs = merged_keys(&ma, &mb)
            .into_iter()
            .map(|k| {
                (k.clone(), Counter::new(ma.get(k).copied().unwrap_or(0), mb.get(k).copied().unwrap_or(0)))
            })
            .collect();
        let fingerprint = match (a.fingerprint, b.fingerprint) {
            (Some(fa), Some(fb)) => match fa.first_divergence(fb) {
                None => FingerprintCompare::Identical,
                Some(at) => FingerprintCompare::Diverged { at, detail: fa.divergence_detail(fb) },
            },
            _ => FingerprintCompare::Absent,
        };
        ReportDelta {
            label_a: a.label.to_string(),
            label_b: b.label.to_string(),
            procs: Counter::new(oa.per_node.len() as u64, ob.per_node.len() as u64),
            wall: Counter::new(oa.wall_cycles, ob.wall_cycles),
            instructions: Counter::new(a.instructions, b.instructions),
            classes,
            phases,
            msgs,
            lineage: match (&oa.lineage, &ob.lineage) {
                (Some(la), Some(lb)) => Some(lineage_delta(la, lb)),
                _ => None,
            },
            crit: match (&oa.crit, &ob.crit) {
                (Some(ca), Some(cb)) => Some(crit_delta(ca, cb, oa, ob)),
                _ => None,
            },
            net: match (&oa.netobs, &ob.netobs) {
                (Some(na), Some(nb)) => Some(net_delta(na, nb)),
                _ => None,
            },
            host: match (a.host, b.host) {
                (Some(ha), Some(hb)) => Some(host_delta(ha, hb)),
                _ => None,
            },
            fingerprint,
        }
    }

    /// Node-cycle totals per side: `procs * wall`, the quantity the
    /// stall-class and phase sections must sum to.
    fn node_cycles(&self) -> Counter {
        Counter::new(self.procs.a * self.wall.a, self.procs.b * self.wall.b)
    }

    /// Checks the delta's closure equations — the differential mirror of
    /// [`crate::crit::check_reconciliation`] / `check_net_reconciliation`.
    /// Every section's deltas must sum to that section's total-cycle
    /// delta; the crit chain's class deltas must sum exactly to the
    /// wall-clock delta. Returns the first violation.
    pub fn check_closure(&self) -> Result<(), String> {
        let nc = self.node_cycles();
        let class_sum =
            Counter::new(self.classes.values().map(|c| c.a).sum(), self.classes.values().map(|c| c.b).sum());
        if class_sum != nc {
            return Err(format!(
                "stall classes sum to {}/{}, node cycles are {}/{}",
                class_sum.a, class_sum.b, nc.a, nc.b
            ));
        }
        if class_sum.delta() != nc.delta() {
            return Err("stall-class deltas do not sum to the node-cycle delta".to_string());
        }
        let phase_sum =
            Counter::new(self.phases.values().map(|c| c.a).sum(), self.phases.values().map(|c| c.b).sum());
        if phase_sum != nc {
            return Err(format!(
                "phase totals sum to {}/{}, node cycles are {}/{}",
                phase_sum.a, phase_sum.b, nc.a, nc.b
            ));
        }
        if let Some(crit) = &self.crit {
            let chain_sum = Counter::new(
                crit.chain_classes.values().map(|c| c.a).sum(),
                crit.chain_classes.values().map(|c| c.b).sum(),
            );
            if chain_sum != self.wall {
                return Err(format!(
                    "crit chain classes sum to {}/{}, wall is {}/{}",
                    chain_sum.a, chain_sum.b, self.wall.a, self.wall.b
                ));
            }
            if chain_sum.delta() != self.wall.delta() {
                return Err("crit chain class deltas do not sum to the wall-clock delta".to_string());
            }
            for l in &crit.locks {
                let split = Counter::new(
                    l.release_visibility.a + l.remote_miss.a + l.other.a,
                    l.release_visibility.b + l.remote_miss.b + l.other.b,
                );
                if split != l.handoff_cycles {
                    return Err(format!(
                        "lock {} handoff split sums to {}/{}, handoff cycles are {}/{}",
                        l.lock, split.a, split.b, l.handoff_cycles.a, l.handoff_cycles.b
                    ));
                }
            }
        }
        if let Some(lineage) = &self.lineage {
            let miss_sum = Counter::new(
                lineage.misses.values().map(|c| c.a).sum(),
                lineage.misses.values().map(|c| c.b).sum(),
            );
            if miss_sum != lineage.miss_total {
                return Err("lineage miss classes do not sum to the miss total".to_string());
            }
            let upd_sum = Counter::new(
                lineage.updates.values().map(|c| c.a).sum(),
                lineage.updates.values().map(|c| c.b).sum(),
            );
            if upd_sum != lineage.update_total {
                return Err("lineage update classes do not sum to the update total".to_string());
            }
            let pattern_sum = Counter::new(
                lineage.patterns.values().map(|c| c.a).sum(),
                lineage.patterns.values().map(|c| c.b).sum(),
            );
            if pattern_sum != lineage.blocks {
                return Err("lineage pattern counts do not sum to the block count".to_string());
            }
        }
        if let Some(net) = &self.net {
            let stage_sum = |s: &StageDelta| {
                Counter::new(
                    s.tx_wait.a + s.tx_service.a + s.wire.a + s.rx_wait.a,
                    s.tx_wait.b + s.tx_service.b + s.wire.b + s.rx_wait.b,
                )
            };
            if stage_sum(&net.totals) != net.totals.latency {
                return Err("journey stages do not sum to journey latency".to_string());
            }
            let mut class_total = StageDelta::default();
            for s in net.by_class.values() {
                if stage_sum(s) != s.latency {
                    return Err("a journey class's stages do not sum to its latency".to_string());
                }
                class_total.count =
                    Counter::new(class_total.count.a + s.count.a, class_total.count.b + s.count.b);
                class_total.latency =
                    Counter::new(class_total.latency.a + s.latency.a, class_total.latency.b + s.latency.b);
            }
            if class_total.count != net.totals.count || class_total.latency != net.totals.latency {
                return Err("per-class journeys do not sum to the journey totals".to_string());
            }
        }
        Ok(())
    }

    /// Whether the diff is empty: every counter equal on both sides and
    /// the fingerprint chains (when present) identical. A run diffed
    /// against itself must satisfy this.
    pub fn is_zero(&self) -> bool {
        let base = self.procs.is_zero()
            && self.wall.is_zero()
            && self.instructions.is_zero()
            && self.classes.values().all(Counter::is_zero)
            && self.phases.values().all(Counter::is_zero)
            && self.msgs.values().all(Counter::is_zero);
        let lineage = self.lineage.as_ref().map_or(true, |l| {
            l.patterns.values().all(Counter::is_zero)
                && l.blocks.is_zero()
                && l.provenance_chains.is_zero()
                && l.misses.values().all(Counter::is_zero)
                && l.updates.values().all(Counter::is_zero)
                && l.invalidations.is_zero()
                && l.update_deliveries.is_zero()
        });
        let crit = self.crit.as_ref().map_or(true, |c| {
            c.chain_classes.values().all(Counter::is_zero)
                && c.chain_labels.values().all(Counter::is_zero)
                && c.chain_edges.values().all(Counter::is_zero)
                && c.locks.iter().all(|l| {
                    l.acquires.is_zero()
                        && l.handoffs.is_zero()
                        && l.hold_cycles.is_zero()
                        && l.queue_wait.is_zero()
                        && l.release_visibility.is_zero()
                        && l.remote_miss.is_zero()
                        && l.other.is_zero()
                })
                && c.barriers.iter().all(|b| {
                    b.episodes.is_zero() && b.imbalance_cycles.is_zero() && b.fanout_cycles.is_zero()
                })
        });
        let net = self.net.as_ref().map_or(true, |n| {
            let sd = |s: &StageDelta| {
                s.count.is_zero()
                    && s.flits.is_zero()
                    && s.tx_wait.is_zero()
                    && s.tx_service.is_zero()
                    && s.wire.is_zero()
                    && s.rx_wait.is_zero()
                    && s.latency.is_zero()
            };
            sd(&n.totals)
                && n.by_class.values().all(sd)
                && n.homes.iter().all(|h| {
                    h.homed_rx_flits.is_zero()
                        && h.mem_busy.is_zero()
                        && h.update_deliveries.is_zero()
                        && h.update_drops.is_zero()
                })
                && n.links.iter().all(|l| l.flits.is_zero())
                && n.local_messages.is_zero()
        });
        let fp = !matches!(self.fingerprint, FingerprintCompare::Diverged { .. });
        base && lineage && crit && net && fp
    }

    /// The ranked attribution: the largest cycle movements between the
    /// sides, most-moved first. Sources: crit-chain classes, per-lock
    /// handoff splits, barrier imbalance/fanout, aggregate stall classes,
    /// and journey stages per message class. At most `limit` rows, zero
    /// rows omitted.
    pub fn attribution(&self, limit: usize) -> Vec<Attribution> {
        let mut rows: Vec<Attribution> = Vec::new();
        let mut push = |section: String, key: String, counter: Counter| {
            if !counter.is_zero() {
                rows.push(Attribution { section, key, counter });
            }
        };
        for (&class, &c) in &self.classes {
            push("stall-class accounting".to_string(), format!("{class} stall"), c);
        }
        if let Some(crit) = &self.crit {
            for (&class, &c) in &crit.chain_classes {
                push("the critical path".to_string(), format!("{class} chain"), c);
            }
            for (label, &c) in &crit.chain_labels {
                push("the critical path".to_string(), format!("'{label}'"), c);
            }
            for l in &crit.locks {
                let sec = format!("lock {} handoffs", l.lock);
                push(sec.clone(), "remote-miss".to_string(), l.remote_miss);
                push(sec.clone(), "release-visibility".to_string(), l.release_visibility);
                push(sec.clone(), "queue-wait".to_string(), l.queue_wait);
                push(sec, "other".to_string(), l.other);
            }
            for b in &crit.barriers {
                let sec = format!("barrier {} episodes", b.barrier);
                push(sec.clone(), "imbalance".to_string(), b.imbalance_cycles);
                push(sec, "fanout".to_string(), b.fanout_cycles);
            }
        }
        if let Some(net) = &self.net {
            for (class, s) in &net.by_class {
                let sec = format!("{class} journeys");
                push(sec.clone(), "tx-wait".to_string(), s.tx_wait);
                push(sec.clone(), "tx-service".to_string(), s.tx_service);
                push(sec.clone(), "wire".to_string(), s.wire);
                push(sec, "rx-wait".to_string(), s.rx_wait);
            }
        }
        rows.sort_by_key(|r| std::cmp::Reverse(r.counter.delta().unsigned_abs()));
        rows.truncate(limit);
        rows
    }

    /// Serializes the whole delta.
    pub fn to_json(&self) -> Json {
        let map_json =
            |m: &BTreeMap<String, Counter>| Json::obj(m.iter().map(|(k, c)| (k.clone(), c.to_json())));
        let static_map_json =
            |m: &BTreeMap<&'static str, Counter>| Json::obj(m.iter().map(|(&k, c)| (k, c.to_json())));
        let mut pairs = vec![
            ("a".to_string(), Json::from(self.label_a.as_str())),
            ("b".to_string(), Json::from(self.label_b.as_str())),
            ("procs".to_string(), self.procs.to_json()),
            ("wall_cycles".to_string(), self.wall.to_json()),
            ("instructions".to_string(), self.instructions.to_json()),
            ("classes".to_string(), static_map_json(&self.classes)),
            ("phases".to_string(), map_json(&self.phases)),
            ("msg_counts".to_string(), map_json(&self.msgs)),
        ];
        if let Some(l) = &self.lineage {
            pairs.push((
                "lineage".to_string(),
                Json::obj([
                    ("patterns", static_map_json(&l.patterns)),
                    ("blocks", l.blocks.to_json()),
                    ("provenance_chains", l.provenance_chains.to_json()),
                    ("misses", static_map_json(&l.misses)),
                    ("miss_total", l.miss_total.to_json()),
                    ("updates", static_map_json(&l.updates)),
                    ("update_total", l.update_total.to_json()),
                    ("invalidations", l.invalidations.to_json()),
                    ("update_deliveries", l.update_deliveries.to_json()),
                ]),
            ));
        }
        if let Some(c) = &self.crit {
            let locks = c
                .locks
                .iter()
                .map(|l| {
                    Json::obj([
                        ("lock", Json::from(l.lock)),
                        ("acquires", l.acquires.to_json()),
                        ("handoffs", l.handoffs.to_json()),
                        ("hold_cycles", l.hold_cycles.to_json()),
                        ("queue_wait", l.queue_wait.to_json()),
                        ("release_visibility", l.release_visibility.to_json()),
                        ("remote_miss", l.remote_miss.to_json()),
                        ("other", l.other.to_json()),
                        ("handoff_cycles", l.handoff_cycles.to_json()),
                    ])
                })
                .collect();
            let barriers = c
                .barriers
                .iter()
                .map(|b| {
                    Json::obj([
                        ("barrier", Json::from(b.barrier)),
                        ("episodes", b.episodes.to_json()),
                        ("imbalance_cycles", b.imbalance_cycles.to_json()),
                        ("fanout_cycles", b.fanout_cycles.to_json()),
                    ])
                })
                .collect();
            pairs.push((
                "crit".to_string(),
                Json::obj([
                    ("chain_classes", static_map_json(&c.chain_classes)),
                    ("chain_labels", map_json(&c.chain_labels)),
                    ("chain_edges", map_json(&c.chain_edges)),
                    ("locks", Json::Arr(locks)),
                    ("barriers", Json::Arr(barriers)),
                ]),
            ));
        }
        if let Some(n) = &self.net {
            let homes = n
                .homes
                .iter()
                .map(|h| {
                    Json::obj([
                        ("node", Json::from(h.node)),
                        ("homed_rx_flits", h.homed_rx_flits.to_json()),
                        ("mem_busy", h.mem_busy.to_json()),
                        ("update_deliveries", h.update_deliveries.to_json()),
                        ("update_drops", h.update_drops.to_json()),
                    ])
                })
                .collect();
            let links = n
                .links
                .iter()
                .map(|l| {
                    Json::obj([
                        ("src", Json::from(l.src)),
                        ("dst", Json::from(l.dst)),
                        ("flits", l.flits.to_json()),
                    ])
                })
                .collect();
            pairs.push((
                "netobs".to_string(),
                Json::obj([
                    ("totals", n.totals.to_json()),
                    ("by_class", Json::obj(n.by_class.iter().map(|(k, s)| (k.clone(), s.to_json())))),
                    ("homes", Json::Arr(homes)),
                    ("links", Json::Arr(links)),
                    ("local_messages", n.local_messages.to_json()),
                ]),
            ));
        }
        if let Some(h) = &self.host {
            let cats = h
                .cats
                .iter()
                .map(|c| {
                    Json::obj([
                        ("cat", Json::from(c.name)),
                        ("calls", c.calls.to_json()),
                        ("nanos", c.nanos.to_json()),
                    ])
                })
                .collect();
            let host_pairs = vec![
                ("wall_nanos".to_string(), h.wall_nanos.to_json()),
                ("events".to_string(), h.events.to_json()),
                ("dispatch".to_string(), Json::Arr(cats)),
            ];
            pairs.push(("host".to_string(), Json::Obj(host_pairs)));
        }
        pairs.push((
            "fingerprint".to_string(),
            match &self.fingerprint {
                FingerprintCompare::Absent => Json::from("absent"),
                FingerprintCompare::Identical => Json::from("identical"),
                FingerprintCompare::Diverged { at, detail } => {
                    let mut fields = vec![
                        ("status".to_string(), Json::from("diverged")),
                        ("at".to_string(), Json::from(format!("{at:?}"))),
                        ("describe".to_string(), Json::from(self.fingerprint.describe())),
                    ];
                    if let Some(d) = detail {
                        fields.push(("epoch".to_string(), Json::U64(d.epoch as u64)));
                        fields.push(("event_lo".to_string(), Json::U64(d.event_lo)));
                        fields.push(("event_hi".to_string(), Json::U64(d.event_hi)));
                        if let Some(e) = d.first_event {
                            fields.push(("first_event".to_string(), Json::U64(e)));
                        }
                        if let Some(e) = d.in_epoch {
                            fields.push(("in_epoch".to_string(), Json::U64(e)));
                        }
                    }
                    Json::Obj(fields)
                }
            },
        ));
        pairs.push((
            "attribution".to_string(),
            Json::Arr(
                self.attribution(12)
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("section", Json::from(r.section.as_str())),
                            ("key", Json::from(r.key.as_str())),
                            ("counter", r.counter.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::Obj(pairs)
    }

    /// A human-readable comparison table (the `ppc diff` stdout format).
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let (la, lb) = (&self.label_a, &self.label_b);
        let _ = writeln!(out, "delta {la} -> {lb}:");
        let _ = writeln!(out, "  wall cycles:  {}", self.wall.display());
        let _ = writeln!(out, "  instructions: {}", self.instructions.display());
        let _ = writeln!(out, "  stall classes (cycles summed over {} nodes):", self.procs.b);
        for (class, c) in &self.classes {
            if !c.is_zero() || c.a > 0 {
                let _ = writeln!(out, "    {class:<13} {}", c.display());
            }
        }
        if self.phases.len() > 1 {
            let _ = writeln!(out, "  phases:");
            for (phase, c) in &self.phases {
                let _ = writeln!(out, "    {phase:<13} {}", c.display());
            }
        }
        if let Some(crit) = &self.crit {
            let _ = writeln!(out, "  critical path (chain classes; deltas close to the wall delta):");
            for (class, c) in &crit.chain_classes {
                if c.a > 0 || c.b > 0 {
                    let _ = writeln!(out, "    {class:<13} {}", c.display());
                }
            }
            for l in &crit.locks {
                let _ = writeln!(out, "  lock {} handoffs: {}", l.lock, l.handoffs.display());
                let _ = writeln!(out, "    remote-miss handoff cycles        {}", l.remote_miss.display());
                let _ =
                    writeln!(out, "    release-visibility handoff cycles {}", l.release_visibility.display());
                let _ = writeln!(out, "    queue-wait cycles                 {}", l.queue_wait.display());
                let _ = writeln!(out, "    other handoff cycles              {}", l.other.display());
            }
            for b in &crit.barriers {
                let _ = writeln!(
                    out,
                    "  barrier {}: imbalance {} / fanout {}",
                    b.barrier,
                    b.imbalance_cycles.display(),
                    b.fanout_cycles.display()
                );
            }
        }
        if let Some(lin) = &self.lineage {
            let _ = writeln!(out, "  sharing patterns (blocks):");
            for (pattern, c) in &lin.patterns {
                if c.a > 0 || c.b > 0 {
                    let _ = writeln!(out, "    {pattern:<17} {}", c.display());
                }
            }
            let _ = writeln!(out, "    provenance chains {}", lin.provenance_chains.display());
            let _ = writeln!(out, "  misses: {}", lin.miss_total.display());
            let _ = writeln!(out, "  updates: {}", lin.update_total.display());
        }
        if let Some(net) = &self.net {
            let _ = writeln!(out, "  journeys (stage cycles; stages close to latency):");
            let t = &net.totals;
            let _ = writeln!(out, "    messages      {}", t.count.display());
            let _ = writeln!(out, "    tx-wait       {}", t.tx_wait.display());
            let _ = writeln!(out, "    tx-service    {}", t.tx_service.display());
            let _ = writeln!(out, "    wire          {}", t.wire.display());
            let _ = writeln!(out, "    rx-wait       {}", t.rx_wait.display());
        }
        if let Some(host) = &self.host {
            let _ = writeln!(out, "  host profile:");
            let _ = writeln!(out, "    events        {}", host.events.display());
            for c in &host.cats {
                if c.calls.a > 0 || c.calls.b > 0 {
                    let _ = writeln!(out, "    {:<13} {} calls", c.name, c.calls.display());
                }
            }
        }
        let _ = writeln!(out, "  fingerprint: {}", self.fingerprint.describe());
        let ranked = self.attribution(8);
        if !ranked.is_empty() {
            let _ = writeln!(out, "  attribution (largest cycle movements):");
            for r in &ranked {
                let _ = writeln!(out, "    {}", r.sentence(lb));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{CpuClass, ObsCollector};

    fn tiny_report(stall: u64) -> ObsReport {
        let mut c = ObsCollector::new(sim_net::MeshShape::for_nodes(2), &["ReadShared"]);
        c.message_sent(0, 30, None);
        c.transition(0, CpuClass::ReadStall, 10);
        c.transition(0, CpuClass::Busy, 10 + stall);
        c.transition(0, CpuClass::Halted, 90);
        c.transition(1, CpuClass::Halted, 80);
        c.finish_bare(100)
    }

    #[test]
    fn self_diff_is_all_zeros() {
        let r = tiny_report(20);
        let side =
            RunSide { label: "A", cycles: 100, instructions: 50, obs: &r, host: None, fingerprint: None };
        let d = ReportDelta::between(&side, &side);
        assert!(d.is_zero(), "self-diff must be empty");
        d.check_closure().expect("self-diff closes");
        assert_eq!(d.fingerprint, FingerprintCompare::Absent);
        assert!(d.attribution(8).is_empty());
    }

    #[test]
    fn class_deltas_close_to_node_cycle_delta() {
        let (ra, rb) = (tiny_report(20), tiny_report(40));
        let a =
            RunSide { label: "A", cycles: 100, instructions: 50, obs: &ra, host: None, fingerprint: None };
        let b =
            RunSide { label: "B", cycles: 100, instructions: 55, obs: &rb, host: None, fingerprint: None };
        let d = ReportDelta::between(&a, &b);
        d.check_closure().expect("delta closes");
        assert!(!d.is_zero());
        assert_eq!(d.classes["ReadStall"].delta(), 20);
        assert_eq!(d.classes["Busy"].delta(), -20);
        let class_delta: i64 = d.classes.values().map(|c| c.delta()).sum();
        assert_eq!(class_delta, 0, "same wall clock: class deltas cancel");
        assert_eq!(d.instructions.delta(), 5);
        assert!(!d.attribution(8).is_empty());
        let json = d.to_json().render_pretty();
        assert!(Json::parse(&json).is_ok(), "delta JSON parses");
    }

    #[test]
    fn fingerprint_compare_describes_event_level_divergence() {
        let mk = |epochs: Vec<(u64, u64)>, total: u64| FingerprintChain {
            epoch_events: 512,
            epochs,
            total_events: total,
            state_digest: (1, 2),
        };
        // Shorter stream ends inside the divergent epoch: the detail pins
        // the exact first divergent event, and the sentence names it.
        let full = mk(vec![(1, 1), (2, 2), (3, 3)], 1400);
        let short = mk(vec![(1, 1), (2, 2), (9, 9)], 1100);
        let at = full.first_divergence(&short).expect("diverged");
        let detail = full.divergence_detail(&short);
        let cmp = FingerprintCompare::Diverged { at, detail };
        let s = cmp.describe();
        assert!(s.contains("epoch 2"), "{s}");
        assert!(s.contains("[1024, 1400)"), "{s}");
        assert!(s.contains("first divergent event 1100"), "{s}");
        assert!(s.contains("76 into the epoch"), "{s}");

        // Same-length divergence: only the epoch range is known.
        let b = mk(vec![(1, 1), (7, 7), (3, 3)], 1400);
        let at = full.first_divergence(&b).expect("diverged");
        let detail = full.divergence_detail(&b);
        let d = detail.expect("epoch-shaped divergence has a detail");
        assert_eq!((d.epoch, d.event_lo, d.event_hi), (1, 512, 1024));
        assert_eq!(d.first_event, None);
        let s = FingerprintCompare::Diverged { at, detail }.describe();
        assert!(s.contains("epoch 1") && !s.contains("first divergent event"), "{s}");

        assert_eq!(FingerprintCompare::Absent.describe(), "absent");
        assert!(FingerprintCompare::Identical.describe().contains("identical"));
    }

    #[test]
    fn counter_arithmetic() {
        let c = Counter::new(200, 50);
        assert_eq!(c.delta(), -150);
        assert_eq!(c.rel(), Some(-0.75));
        assert!(!c.is_zero());
        assert!(Counter::new(0, 0).rel().is_none());
        assert_eq!(c.display(), "200 -> 50 (-150, -75.0%)");
    }
}
