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
//! Each side is read once into a summary of `u64`s, and every counter is
//! formed on demand by pairing the two summaries over the union of their
//! keys; a key missing on one side reads as 0 there. A delta is the
//! difference of two sides that each close, so it closes by subtraction:
//! [`ReportDelta::check_closure`] checks each side's own equations,
//! mirroring [`crate::crit::check_reconciliation`]. A run diffed against
//! itself is all-zeros ([`ReportDelta::is_zero`]).
//!
//! When both sides carry determinism fingerprints, the delta integrates
//! [`FingerprintChain::first_divergence`] to say *where* the two runs
//! stopped being the same; [`ReportDelta::attribution`] ranks the largest
//! cycle movements ("PU removed 2.1M remote-miss cycles from lock 0
//! handoffs") so the headline of a cross-protocol or cross-config
//! comparison reads off directly.

use std::collections::{BTreeMap, BTreeSet};

use crate::hostobs::{DivergenceDetail, FingerprintChain, FingerprintDivergence, HostObsReport, HOST_CATS};
use crate::json::Json;
use crate::lineage::SharingPattern;
use crate::netobs::JourneyTotals;
use crate::obs::{CpuClass, ObsReport, CPU_CLASSES};

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
    /// Instructions retired.
    pub instructions: u64,
    /// The run's observability report.
    pub obs: &'a ObsReport,
    /// Host self-profile, when the run carried one.
    pub host: Option<&'a HostObsReport>,
    /// Determinism fingerprint chain, when the run carried one.
    pub fingerprint: Option<&'a FingerprintChain>,
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
        /// The divergent epoch's event-index range. `None` for
        /// `Parameters`/`StateOnly` divergences.
        detail: Option<DivergenceDetail>,
    },
}

impl FingerprintCompare {
    /// One human-readable sentence: `absent`, `identical`, or a
    /// `diverged ...` description naming the epoch and its event-index
    /// range (replay finds the event inside it). `ppc diff`'s text output
    /// and `ppc replay`'s header both print this.
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
                    format!("diverged: first at epoch {} (events [{}, {}))", d.epoch, d.event_lo, d.event_hi)
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

/// One side's counts by key. Rows are flattened to `(id, field)` keys, so
/// pairing fills a row missing on one side with zeros field by field.
type Map<K> = BTreeMap<K, u64>;

/// A lock row's handoff-window fields: field, attribution key, text label.
const LOCK_SPLIT: [(&str, &str, &str); 4] = [
    ("remote_miss", "remote-miss", "remote-miss handoff cycles"),
    ("release_visibility", "release-visibility", "release-visibility handoff cycles"),
    ("queue_wait", "queue-wait", "queue-wait cycles"),
    ("other", "other", "other handoff cycles"),
];

/// A journey row's four stages, which sum to its latency: field and
/// attribution key.
const STAGES: [(&str, &str); 4] =
    [("tx_wait", "tx-wait"), ("tx_service", "tx-service"), ("wire", "wire"), ("rx_wait", "rx-wait")];

/// One run, read once: every quantity the diff compares except the host
/// profile, keyed as the JSON document names it.
#[derive(Debug, Clone)]
struct Summary {
    label: String,
    procs: u64,
    wall: u64,
    instructions: u64,
    /// Stall-class cycles summed over nodes.
    classes: Map<&'static str>,
    /// Cycles summed over nodes, by phase label.
    phases: Map<String>,
    /// Protocol messages by kind.
    msgs: Map<&'static str>,
    /// Block, provenance-chain, invalidation and update-delivery counts,
    /// and the miss and update totals.
    lineage: Map<&'static str>,
    /// Blocks per sharing pattern, misses and updates per class, keyed
    /// `("patterns" | "misses" | "updates", name)`.
    lineage_classes: Map<(&'static str, &'static str)>,
    /// Critical-chain cycles by stall class, label and edge kind.
    chain_classes: Map<&'static str>,
    chain_labels: Map<String>,
    chain_edges: Map<&'static str>,
    /// Per-lock and per-barrier rows, by id.
    locks: Map<(u32, &'static str)>,
    barriers: Map<(u32, &'static str)>,
    /// Journey stages over every remote message, and per message class.
    journey_totals: Map<&'static str>,
    journeys: Map<(&'static str, &'static str)>,
    /// Per-home rows, by node.
    homes: Map<(usize, &'static str)>,
    /// Flits per physical link `(src, dst)`.
    links: Map<(usize, usize)>,
    local_messages: u64,
}

/// A journey total's stage fields.
fn stages(t: &JourneyTotals) -> [(&'static str, u64); 7] {
    [
        ("count", t.count),
        ("flits", t.flits),
        ("tx_wait", t.tx_wait),
        ("tx_service", t.tx_service),
        ("wire", t.wire),
        ("rx_wait", t.rx_wait),
        ("latency", t.total.sum()),
    ]
}

/// `fields` as the flattened row `id`.
fn row<K: Copy, const N: usize>(id: K, fields: [(&'static str, u64); N]) -> [((K, &'static str), u64); N] {
    fields.map(|(field, v)| ((id, field), v))
}

impl Summary {
    fn read(side: &RunSide) -> Summary {
        let o = side.obs;
        let (lineage, crit, net) = (&o.lineage, &o.crit, &o.netobs);
        let by_class =
            |get: &dyn Fn(CpuClass) -> u64| CPU_CLASSES.iter().map(|&c| (c.name(), get(c))).collect();
        let (m, u) = (lineage.miss_totals(), lineage.update_totals());
        let patterns = SharingPattern::ALL
            .map(|p| (p.name(), lineage.blocks.iter().filter(|b| b.pattern == p).count() as u64));
        let misses = [
            ("cold", m.cold),
            ("true_sharing", m.true_sharing),
            ("false_sharing", m.false_sharing),
            ("eviction", m.eviction),
            ("drop", m.drop),
        ];
        let updates = [
            ("true_sharing", u.true_sharing),
            ("false_sharing", u.false_sharing),
            ("proliferation", u.proliferation),
            ("replacement", u.replacement),
            ("termination", u.termination),
            ("drop", u.drop),
        ];
        Summary {
            label: side.label.to_string(),
            procs: o.per_node.len() as u64,
            wall: o.wall_cycles,
            instructions: side.instructions,
            classes: by_class(&|c| o.per_node.iter().map(|n| n.cycles.get(c)).sum()),
            phases: o.phase_totals.iter().map(|(&p, acct)| (o.phase_label(p), acct.total())).collect(),
            msgs: o.msg_counts.clone(),
            lineage: Map::from([
                ("blocks", lineage.blocks.len() as u64),
                (
                    "provenance_chains",
                    lineage.blocks.iter().filter(|b| b.provenance.is_some()).count() as u64,
                ),
                ("invalidations", lineage.blocks.iter().map(|b| b.invalidations).sum()),
                ("update_deliveries", lineage.blocks.iter().map(|b| b.update_deliveries).sum()),
                ("miss_total", m.total_misses()),
                ("update_total", u.total()),
            ]),
            lineage_classes: row("patterns", patterns)
                .into_iter()
                .chain(row("misses", misses))
                .chain(row("updates", updates))
                .collect(),
            chain_classes: by_class(&|c| crit.critical_path.by_class.get(c)),
            chain_labels: crit.critical_path.by_label.clone(),
            chain_edges: crit.critical_path.by_edge.clone(),
            locks: crit
                .locks
                .iter()
                .flat_map(|l| {
                    row(
                        l.lock,
                        [
                            ("acquires", l.acquires),
                            ("handoffs", l.handoffs),
                            ("hold_cycles", l.hold_cycles),
                            ("queue_wait", l.queue_wait),
                            ("release_visibility", l.release_visibility),
                            ("remote_miss", l.remote_miss),
                            ("other", l.other),
                            ("handoff_cycles", l.handoff_cycles()),
                        ],
                    )
                })
                .collect(),
            barriers: crit
                .barriers
                .iter()
                .flat_map(|x| {
                    row(
                        x.barrier,
                        [
                            ("episodes", x.episodes),
                            ("imbalance_cycles", x.imbalance_cycles),
                            ("fanout_cycles", x.fanout_cycles),
                        ],
                    )
                })
                .collect(),
            journey_totals: stages(&net.totals()).into_iter().collect(),
            journeys: net.by_class.iter().flat_map(|(&class, t)| row(class, stages(t))).collect(),
            homes: net
                .homes
                .iter()
                .enumerate()
                .flat_map(|(n, h)| {
                    row(
                        n,
                        [
                            ("homed_rx_flits", h.homed_rx_flits),
                            ("mem_busy", h.mem_busy),
                            ("update_deliveries", h.update_deliveries),
                            ("update_drops", h.update_drops),
                        ],
                    )
                })
                .collect(),
            links: net.phys_links.iter().map(|l| ((l.src, l.dst), l.flits)).collect(),
            local_messages: net.local_messages,
        }
    }

    /// This side's own closure equations: stall classes and phase totals
    /// sum to `procs * wall`, chain classes to `wall`, and each journey
    /// class's four stages to its latency. Returns the first violation.
    fn check_closure(&self) -> Result<(), String> {
        let node_cycles = self.procs * self.wall;
        let sums = [
            ("stall classes", self.classes.values().sum::<u64>(), "node cycles", node_cycles),
            ("phase totals", self.phases.values().sum(), "node cycles", node_cycles),
            ("crit chain classes", self.chain_classes.values().sum(), "wall", self.wall),
        ];
        for (what, sum, of, total) in sums {
            if sum != total {
                return Err(format!("{}: {what} sum to {sum}, {of} is {total}", self.label));
            }
        }
        for (class, row) in group(self.journeys.iter().map(|(&key, &v)| (key, v))) {
            let stage_sum: u64 = STAGES.iter().map(|&(field, _)| row[field]).sum();
            if stage_sum != row["latency"] {
                return Err(format!(
                    "{}: {class} journey stages sum to {stage_sum}, latency is {}",
                    self.label, row["latency"]
                ));
            }
        }
        Ok(())
    }

    /// Whether every quantity equals `other`'s, a key missing on one side
    /// reading as 0.
    fn same(&self, other: &Summary) -> bool {
        fn eq<K: Ord>(a: &Map<K>, b: &Map<K>) -> bool {
            paired(a, b).all(|(_, c)| c.is_zero())
        }
        let (a, b) = (self, other);
        [a.procs, a.wall, a.instructions, a.local_messages]
            == [b.procs, b.wall, b.instructions, b.local_messages]
            && eq(&a.classes, &b.classes)
            && eq(&a.phases, &b.phases)
            && eq(&a.msgs, &b.msgs)
            && eq(&a.lineage, &b.lineage)
            && eq(&a.lineage_classes, &b.lineage_classes)
            && eq(&a.chain_classes, &b.chain_classes)
            && eq(&a.chain_labels, &b.chain_labels)
            && eq(&a.chain_edges, &b.chain_edges)
            && eq(&a.locks, &b.locks)
            && eq(&a.barriers, &b.barriers)
            && eq(&a.journey_totals, &b.journey_totals)
            && eq(&a.journeys, &b.journeys)
            && eq(&a.homes, &b.homes)
            && eq(&a.links, &b.links)
    }
}

/// Pairs two sides' maps over the union of their keys; a key missing on
/// one side reads as 0 there.
fn paired<'s, K: Ord>(a: &'s Map<K>, b: &'s Map<K>) -> impl Iterator<Item = (&'s K, Counter)> + 's {
    let keys: BTreeSet<&K> = a.keys().chain(b.keys()).collect();
    let get = |m: &Map<K>, k: &K| m.get(k).copied().unwrap_or(0);
    keys.into_iter().map(move |k| (k, Counter::new(get(a, k), get(b, k))))
}

/// [`paired`], collected by key.
fn counters<K: Ord + Copy>(a: &Map<K>, b: &Map<K>) -> BTreeMap<K, Counter> {
    paired(a, b).map(|(&key, c)| (key, c)).collect()
}

/// Flattened `(id, field)` entries as one row of fields per id.
fn group<K: Ord, V>(
    entries: impl Iterator<Item = ((K, &'static str), V)>,
) -> BTreeMap<K, BTreeMap<&'static str, V>> {
    let mut rows: BTreeMap<K, BTreeMap<&'static str, V>> = BTreeMap::new();
    for ((id, field), v) in entries {
        rows.entry(id).or_default().insert(field, v);
    }
    rows
}

/// Two sides' flattened rows, paired and grouped by id.
fn rows<K: Ord + Copy>(
    a: &Map<(K, &'static str)>,
    b: &Map<(K, &'static str)>,
) -> BTreeMap<K, BTreeMap<&'static str, Counter>> {
    group(paired(a, b).map(|(&key, c)| (key, c)))
}

/// Two sides' maps, paired, as a JSON object of counters.
fn counters_json<K: Ord + ToString>(a: &Map<K>, b: &Map<K>) -> Json {
    Json::Obj(paired(a, b).map(|(k, c)| (k.to_string(), c.to_json())).collect())
}

/// One paired row's fields as JSON pairs.
fn row_json<'r>(row: &'r BTreeMap<&'static str, Counter>) -> impl Iterator<Item = (String, Json)> + 'r {
    row.iter().map(|(&field, c)| (field.to_string(), c.to_json()))
}

/// Two sides' rows, paired, as an array of objects carrying their id
/// under `id_key`.
fn rows_json<K: Ord + Copy>(id_key: &str, a: &Map<(K, &'static str)>, b: &Map<(K, &'static str)>) -> Json
where
    Json: From<K>,
{
    let objs = rows(a, b).into_iter().map(|(id, row)| {
        Json::Obj(std::iter::once((id_key.to_string(), Json::from(id))).chain(row_json(&row)).collect())
    });
    Json::Arr(objs.collect())
}

/// Two sides' rows, paired, as JSON pairs of an id and its row object.
fn keyed_rows_json(
    a: &Map<(&'static str, &'static str)>,
    b: &Map<(&'static str, &'static str)>,
) -> impl Iterator<Item = (String, Json)> {
    rows(a, b).into_iter().map(|(id, row)| (id.to_string(), Json::Obj(row_json(&row).collect())))
}

/// Calls and nanoseconds per host dispatch category, in [`HOST_CATS`]
/// order; a category missing from one profile reads as 0 there.
fn host_cats<'h>(
    a: &'h HostObsReport,
    b: &'h HostObsReport,
) -> impl Iterator<Item = (&'static str, Counter, Counter)> + 'h {
    let cat = |h: &HostObsReport, name| {
        h.cats.iter().find(|c| c.name == name).map_or((0, 0), |c| (c.calls, c.nanos))
    };
    HOST_CATS.iter().map(move |c| {
        let ((calls_a, nanos_a), (calls_b, nanos_b)) = (cat(a, c.name()), cat(b, c.name()));
        (c.name(), Counter::new(calls_a, calls_b), Counter::new(nanos_a, nanos_b))
    })
}

/// The structured comparison of two observed runs.
#[derive(Debug, Clone)]
pub struct ReportDelta {
    /// Side A (the baseline).
    a: Summary,
    /// Side B (the comparison).
    b: Summary,
    /// The two host self-profiles, when both sides carried one.
    host: Option<(HostObsReport, HostObsReport)>,
    /// Fingerprint-chain comparison.
    pub fingerprint: FingerprintCompare,
}

impl ReportDelta {
    /// Compares side `b` against baseline `a`. The host section diffs
    /// only when both sides carry one; [`ReportDelta::check_closure`]
    /// then validates each side's sum equations.
    pub fn between(a: &RunSide, b: &RunSide) -> ReportDelta {
        let fingerprint = match (a.fingerprint, b.fingerprint) {
            (Some(fa), Some(fb)) => match fa.first_divergence(fb) {
                None => FingerprintCompare::Identical,
                Some(at) => FingerprintCompare::Diverged { at, detail: fa.divergence_detail(fb) },
            },
            _ => FingerprintCompare::Absent,
        };
        ReportDelta {
            a: Summary::read(a),
            b: Summary::read(b),
            host: a.host.zip(b.host).map(|(ha, hb)| (ha.clone(), hb.clone())),
            fingerprint,
        }
    }

    /// Node counts (the sides may differ).
    pub fn procs(&self) -> Counter {
        Counter::new(self.a.procs, self.b.procs)
    }

    /// Wall clocks.
    pub fn wall(&self) -> Counter {
        Counter::new(self.a.wall, self.b.wall)
    }

    /// Instructions retired.
    pub fn instructions(&self) -> Counter {
        Counter::new(self.a.instructions, self.b.instructions)
    }

    /// Stall-class cycles summed over nodes, by class; on each side they
    /// sum to `procs * wall`.
    pub fn classes(&self) -> BTreeMap<&'static str, Counter> {
        counters(&self.a.classes, &self.b.classes)
    }

    /// Critical-chain cycles by stall class; on each side they sum to the
    /// wall clock, so their deltas sum exactly to the wall-clock delta.
    pub fn chain_classes(&self) -> BTreeMap<&'static str, Counter> {
        counters(&self.a.chain_classes, &self.b.chain_classes)
    }

    /// Checks each side's own closure equations — the per-run mirror of
    /// [`crate::crit::check_reconciliation`] / `check_net_reconciliation`:
    /// stall classes and phase totals sum to `procs * wall`, the crit
    /// chain's classes to the wall clock, and each journey class's stages
    /// to its latency. Every delta equation follows by subtraction.
    /// Returns the first violation.
    pub fn check_closure(&self) -> Result<(), String> {
        self.a.check_closure()?;
        self.b.check_closure()
    }

    /// Whether the diff is empty: every counter equal on both sides and
    /// the fingerprint chains (when present) identical. The host profile
    /// is not compared. A run diffed against itself must satisfy this.
    pub fn is_zero(&self) -> bool {
        self.a.same(&self.b) && !matches!(self.fingerprint, FingerprintCompare::Diverged { .. })
    }

    /// The ranked attribution: the largest cycle movements between the
    /// sides, most-moved first. Sources: crit-chain classes, per-lock
    /// handoff splits, barrier imbalance/fanout, aggregate stall classes,
    /// and journey stages per message class. At most `limit` rows, zero
    /// rows omitted.
    pub fn attribution(&self, limit: usize) -> Vec<Attribution> {
        let (a, b) = (&self.a, &self.b);
        let mut ranked: Vec<Attribution> = Vec::new();
        let mut push = |section: String, key: String, counter: Counter| {
            if !counter.is_zero() {
                ranked.push(Attribution { section, key, counter });
            }
        };
        for (class, c) in paired(&a.classes, &b.classes) {
            push("stall-class accounting".to_string(), format!("{class} stall"), c);
        }
        for (class, c) in paired(&a.chain_classes, &b.chain_classes) {
            push("the critical path".to_string(), format!("{class} chain"), c);
        }
        for (label, c) in paired(&a.chain_labels, &b.chain_labels) {
            push("the critical path".to_string(), format!("'{label}'"), c);
        }
        for (lock, row) in rows(&a.locks, &b.locks) {
            for (field, key, _) in LOCK_SPLIT {
                push(format!("lock {lock} handoffs"), key.to_string(), row[field]);
            }
        }
        for (barrier, row) in rows(&a.barriers, &b.barriers) {
            for (field, key) in [("imbalance_cycles", "imbalance"), ("fanout_cycles", "fanout")] {
                push(format!("barrier {barrier} episodes"), key.to_string(), row[field]);
            }
        }
        for (class, row) in rows(&a.journeys, &b.journeys) {
            for (field, key) in STAGES {
                push(format!("{class} journeys"), key.to_string(), row[field]);
            }
        }
        ranked.sort_by_key(|r| std::cmp::Reverse(r.counter.delta().unsigned_abs()));
        ranked.truncate(limit);
        ranked
    }

    /// Serializes the whole delta.
    pub fn to_json(&self) -> Json {
        let (a, b) = (&self.a, &self.b);
        let lineage = paired(&a.lineage, &b.lineage)
            .map(|(&k, c)| (k.to_string(), c.to_json()))
            .chain(keyed_rows_json(&a.lineage_classes, &b.lineage_classes));
        let links = paired(&a.links, &b.links).map(|(&(src, dst), c)| {
            Json::obj([("src", Json::from(src)), ("dst", Json::from(dst)), ("flits", c.to_json())])
        });
        let mut pairs = vec![
            ("a".to_string(), Json::from(a.label.as_str())),
            ("b".to_string(), Json::from(b.label.as_str())),
            ("procs".to_string(), self.procs().to_json()),
            ("wall_cycles".to_string(), self.wall().to_json()),
            ("instructions".to_string(), self.instructions().to_json()),
            ("classes".to_string(), counters_json(&a.classes, &b.classes)),
            ("phases".to_string(), counters_json(&a.phases, &b.phases)),
            ("msg_counts".to_string(), counters_json(&a.msgs, &b.msgs)),
            ("lineage".to_string(), Json::Obj(lineage.collect())),
            (
                "crit".to_string(),
                Json::obj([
                    ("chain_classes", counters_json(&a.chain_classes, &b.chain_classes)),
                    ("chain_labels", counters_json(&a.chain_labels, &b.chain_labels)),
                    ("chain_edges", counters_json(&a.chain_edges, &b.chain_edges)),
                    ("locks", rows_json("lock", &a.locks, &b.locks)),
                    ("barriers", rows_json("barrier", &a.barriers, &b.barriers)),
                ]),
            ),
            (
                "netobs".to_string(),
                Json::obj([
                    ("totals", counters_json(&a.journey_totals, &b.journey_totals)),
                    ("by_class", Json::Obj(keyed_rows_json(&a.journeys, &b.journeys).collect())),
                    ("homes", rows_json("node", &a.homes, &b.homes)),
                    ("links", Json::Arr(links.collect())),
                    ("local_messages", Counter::new(a.local_messages, b.local_messages).to_json()),
                ]),
            ),
        ];
        if let Some((ha, hb)) = &self.host {
            let dispatch = host_cats(ha, hb).map(|(name, calls, nanos)| {
                Json::obj([("cat", Json::from(name)), ("calls", calls.to_json()), ("nanos", nanos.to_json())])
            });
            pairs.push((
                "host".to_string(),
                Json::obj([
                    ("wall_nanos", Counter::new(ha.wall_nanos, hb.wall_nanos).to_json()),
                    ("events", Counter::new(ha.events, hb.events).to_json()),
                    ("dispatch", Json::Arr(dispatch.collect())),
                ]),
            ));
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
        let (a, b) = (&self.a, &self.b);
        let either = |(_, c): &(_, Counter)| c.a > 0 || c.b > 0;
        let mut out = String::new();
        let _ = writeln!(out, "delta {} -> {}:", a.label, b.label);
        let _ = writeln!(out, "  wall cycles:  {}", self.wall().display());
        let _ = writeln!(out, "  instructions: {}", self.instructions().display());
        let _ = writeln!(out, "  stall classes (cycles summed over {} nodes):", b.procs);
        for (class, c) in paired(&a.classes, &b.classes).filter(either) {
            let _ = writeln!(out, "    {class:<13} {}", c.display());
        }
        let phases: Vec<_> = paired(&a.phases, &b.phases).collect();
        if phases.len() > 1 {
            let _ = writeln!(out, "  phases:");
            for (phase, c) in phases {
                let _ = writeln!(out, "    {phase:<13} {}", c.display());
            }
        }
        let _ = writeln!(out, "  critical path (chain classes; deltas close to the wall delta):");
        for (class, c) in paired(&a.chain_classes, &b.chain_classes).filter(either) {
            let _ = writeln!(out, "    {class:<13} {}", c.display());
        }
        for (lock, row) in rows(&a.locks, &b.locks) {
            let _ = writeln!(out, "  lock {lock} handoffs: {}", row["handoffs"].display());
            for (field, _, label) in LOCK_SPLIT {
                let _ = writeln!(out, "    {label:<33} {}", row[field].display());
            }
        }
        for (barrier, row) in rows(&a.barriers, &b.barriers) {
            let (imbalance, fanout) = (row["imbalance_cycles"].display(), row["fanout_cycles"].display());
            let _ = writeln!(out, "  barrier {barrier}: imbalance {imbalance} / fanout {fanout}");
        }
        let lineage = counters(&a.lineage, &b.lineage);
        let _ = writeln!(out, "  sharing patterns (blocks):");
        for (pattern, c) in rows(&a.lineage_classes, &b.lineage_classes)["patterns"].iter() {
            if c.a > 0 || c.b > 0 {
                let _ = writeln!(out, "    {pattern:<17} {}", c.display());
            }
        }
        let _ = writeln!(out, "    provenance chains {}", lineage["provenance_chains"].display());
        let _ = writeln!(out, "  misses: {}", lineage["miss_total"].display());
        let _ = writeln!(out, "  updates: {}", lineage["update_total"].display());
        let _ = writeln!(out, "  journeys (stage cycles; stages close to latency):");
        let totals = counters(&a.journey_totals, &b.journey_totals);
        for (field, name) in [("count", "messages")].into_iter().chain(STAGES) {
            let _ = writeln!(out, "    {name:<13} {}", totals[field].display());
        }
        if let Some((ha, hb)) = &self.host {
            let _ = writeln!(out, "  host profile:");
            let _ = writeln!(out, "    events        {}", Counter::new(ha.events, hb.events).display());
            for (name, calls, _) in host_cats(ha, hb).filter(|(_, calls, _)| calls.a > 0 || calls.b > 0) {
                let _ = writeln!(out, "    {name:<13} {} calls", calls.display());
            }
        }
        let _ = writeln!(out, "  fingerprint: {}", self.fingerprint.describe());
        let ranked = self.attribution(8);
        if !ranked.is_empty() {
            let _ = writeln!(out, "  attribution (largest cycle movements):");
            for r in &ranked {
                let _ = writeln!(out, "    {}", r.sentence(&b.label));
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
        c.message_sent(0, &sim_net::Network::new(2).send(30, 0, 0, 0), || (0, None));
        c.transition(0, CpuClass::ReadStall, 10);
        c.transition(0, CpuClass::Busy, 10 + stall);
        c.transition(0, CpuClass::Halted, 90);
        c.transition(1, CpuClass::Halted, 80);
        c.finish_bare(100)
    }

    #[test]
    fn self_diff_is_all_zeros() {
        let r = tiny_report(20);
        let side = RunSide { label: "A", instructions: 50, obs: &r, host: None, fingerprint: None };
        let d = ReportDelta::between(&side, &side);
        assert!(d.is_zero(), "self-diff must be empty");
        d.check_closure().expect("self-diff closes");
        assert_eq!(d.fingerprint, FingerprintCompare::Absent);
        assert!(d.attribution(8).is_empty());
    }

    #[test]
    fn class_deltas_close_to_node_cycle_delta() {
        let (ra, rb) = (tiny_report(20), tiny_report(40));
        let a = RunSide { label: "A", instructions: 50, obs: &ra, host: None, fingerprint: None };
        let b = RunSide { label: "B", instructions: 55, obs: &rb, host: None, fingerprint: None };
        let d = ReportDelta::between(&a, &b);
        d.check_closure().expect("delta closes");
        assert!(!d.is_zero());
        let classes = d.classes();
        assert_eq!(classes["ReadStall"].delta(), 20);
        assert_eq!(classes["Busy"].delta(), -20);
        let class_delta: i64 = classes.values().map(|c| c.delta()).sum();
        assert_eq!(class_delta, 0, "same wall clock: class deltas cancel");
        assert_eq!(d.instructions().delta(), 5);
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
        // Shorter stream ends inside the divergent epoch: the sentence
        // names the epoch's range, which runs to the longer stream's end.
        let full = mk(vec![(1, 1), (2, 2), (3, 3)], 1400);
        let short = mk(vec![(1, 1), (2, 2), (9, 9)], 1100);
        let at = full.first_divergence(&short).expect("diverged");
        let detail = full.divergence_detail(&short);
        let s = FingerprintCompare::Diverged { at, detail }.describe();
        assert_eq!(s, "diverged: first at epoch 2 (events [1024, 1400))");

        // Same-length divergence: the same, over the whole epoch.
        let b = mk(vec![(1, 1), (7, 7), (3, 3)], 1400);
        let at = full.first_divergence(&b).expect("diverged");
        let detail = full.divergence_detail(&b);
        let d = detail.expect("epoch-shaped divergence has a detail");
        assert_eq!((d.epoch, d.event_lo, d.event_hi), (1, 512, 1024));
        let s = FingerprintCompare::Diverged { at, detail }.describe();
        assert_eq!(s, "diverged: first at epoch 1 (events [512, 1024))");

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
