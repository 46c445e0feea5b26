//! Per-cache-line coherence provenance (the "lineage" of every block).
//!
//! PR 1's observability answers *where the cycles went*; this module answers
//! the question one level lower, the one the paper's Sections 4.1–4.3 argue
//! from: *which block* generated the useless traffic, *whose write*
//! invalidated *whose copy*, and *what sharing pattern* the block exhibits
//! under the protocol that ran.
//!
//! The [`Lineage`] recorder lives inside the [`crate::Classifier`] (enabled
//! only when `MachineConfig::obs` is on) and is fed from the classifier's
//! existing choke points, so it sees exactly the event stream the Section
//! 3.2 taxonomy is computed from:
//!
//! * every home-directory state transition, with its cause (the triggering
//!   node, the message kind, and the acting node's program phase);
//! * every external invalidation as a writer→victim causal edge, memoized
//!   per (victim, block) so the victim's *next miss* carries a provenance
//!   chain ("miss on `count` at node 5 ← invalidated by node 2's write in
//!   phase `acquire`");
//! * every update-message arrival (delivery or competitive drop) with its
//!   writer edge.
//!
//! On top of the stream an online per-block **sharing-pattern classifier**
//! maintains distinct-reader/writer sets, accesses-between-writer-changes,
//! and invalidations-plus-updates-per-write, and labels each block:
//!
//! | pattern             | rule                                              |
//! |---------------------|---------------------------------------------------|
//! | `read-only`         | no write ever became globally visible             |
//! | `private`           | one writer, no other node accessed the block      |
//! | `producer-consumer` | one writer, other nodes read the block            |
//! | `migratory`         | ≥2 writers, < 2 invalidations+updates per write   |
//! | `wide-shared`       | ≥2 writers, ≥ 2 invalidations+updates per write   |
//!
//! Per-class miss/update counts are mirrored per block at the classifier's
//! single bump choke points, so the lineage totals balance against the
//! [`crate::TrafficReport`] *by construction* (checked in `tests/lineage.rs`).
//!
//! Everything is passive bookkeeping behind an `Option`: when lineage is off
//! (the default) the classifier does not even branch into this module, and
//! outputs are byte-identical to a build without it.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use sim_engine::{Cycle, FastMap, NodeId};
use sim_mem::{Addr, BlockAddr};

use crate::json::Json;
use crate::report::{MissClass, MissStats, UpdateClass, UpdateStats};

/// Cap on stored provenance events (counters keep accumulating past it;
/// only the event *list* — what the Chrome exporter draws — is bounded).
pub const LINEAGE_EVENT_CAP: usize = 1 << 14;

/// One recorded causal edge: the write that killed a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalCause {
    /// The node whose write invalidated the copy.
    pub writer: NodeId,
    /// The writer's program phase when the invalidation landed.
    pub writer_phase: u16,
    /// The word whose write triggered the invalidation.
    pub word_addr: Addr,
    /// Cycle the copy was lost.
    pub at: Cycle,
}

/// What happened to a traced block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineEventKind {
    /// The home directory entry changed stable state (`from` ≠ `to`).
    DirTransition {
        /// Outgoing [`sim_mem::DirState`] name.
        from: &'static str,
        /// Incoming state name.
        to: &'static str,
        /// The node whose request drove the transition.
        actor: NodeId,
        /// The message kind the home was processing.
        msg: &'static str,
    },
    /// `victim`'s cached copy was killed by `writer`'s write.
    Invalidation {
        /// The node that lost its copy.
        victim: NodeId,
        /// The writing node (the causal edge's source).
        writer: NodeId,
        /// The writer's phase at that moment.
        writer_phase: u16,
        /// The written word.
        word_addr: Addr,
    },
    /// `node` missed on the block; `caused_by` is the invalidation edge the
    /// miss chains back to, when the copy was lost to a remote write.
    Miss {
        /// The missing node.
        node: NodeId,
        /// The Section 3.2 class of the miss.
        class: MissClass,
        /// The provenance edge (writer, phase, word) when known.
        caused_by: Option<InvalCause>,
    },
    /// An update message from `writer` was applied at `node`'s cache.
    UpdateDelivery {
        /// The receiving sharer.
        node: NodeId,
        /// The writing node.
        writer: NodeId,
        /// The writer's phase at arrival.
        writer_phase: u16,
    },
    /// An update from `writer` tripped the competitive threshold at `node`.
    UpdateDrop {
        /// The node whose copy self-invalidated.
        node: NodeId,
        /// The writing node.
        writer: NodeId,
        /// The writer's phase at arrival.
        writer_phase: u16,
    },
}

/// One provenance event on one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineEvent {
    /// Cycle the event fired.
    pub at: Cycle,
    /// The block it concerns.
    pub block: BlockAddr,
    /// Program phase of the node the event happened *at* (victim for
    /// invalidations and update arrivals, the missing node for misses, the
    /// actor for directory transitions).
    pub phase: u16,
    /// What happened.
    pub kind: LineEventKind,
}

/// The provenance chain of one miss: who missed, and which remote write the
/// miss chains back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvenanceChain {
    /// The missing node.
    pub node: NodeId,
    /// The missed word.
    pub addr: Addr,
    /// The missing node's phase.
    pub phase: u16,
    /// Cycle of the miss.
    pub at: Cycle,
    /// The invalidation edge the miss chains back to.
    pub cause: InvalCause,
}

/// The sharing pattern a block exhibited under the protocol that ran.
///
/// Patterns are *as observed*: the same block can classify differently
/// under WI and PU because the protocols generate different invalidation
/// and update streams (which is exactly the paper's point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SharingPattern {
    /// No write to the block ever became globally visible.
    ReadOnly,
    /// One writer and no other node ever accessed the block.
    Private,
    /// One writer; other nodes read the block.
    ProducerConsumer,
    /// Several writers, but each write disturbs few copies (ownership hops
    /// node to node — lock qnodes, migratory data).
    Migratory,
    /// Several writers and each write reaches ≥ 2 remote copies on average
    /// (barrier counters, flags many nodes watch).
    WideShared,
}

impl SharingPattern {
    /// Every pattern, in declaration order.
    pub const ALL: [SharingPattern; 5] = [
        SharingPattern::ReadOnly,
        SharingPattern::Private,
        SharingPattern::ProducerConsumer,
        SharingPattern::Migratory,
        SharingPattern::WideShared,
    ];

    /// Stable name used in reports, tables, and tests.
    pub fn name(self) -> &'static str {
        match self {
            SharingPattern::ReadOnly => "read-only",
            SharingPattern::Private => "private",
            SharingPattern::ProducerConsumer => "producer-consumer",
            SharingPattern::Migratory => "migratory",
            SharingPattern::WideShared => "wide-shared",
        }
    }
}

/// Fanout (invalidations + update arrivals per write) at or above which a
/// multi-writer block counts as wide-shared rather than migratory.
pub const WIDE_SHARED_FANOUT: f64 = 2.0;

/// Per-block accumulation state.
#[derive(Debug, Clone, Default)]
struct BlockAcc {
    readers: u64,
    writers: u64,
    reads: u64,
    writes: u64,
    writer_changes: u64,
    accesses_since_change: u64,
    accesses_between_changes: u64,
    last_writer: Option<NodeId>,
    invalidations: u64,
    update_deliveries: u64,
    update_drops: u64,
    dir_transitions: u64,
    misses: MissStats,
    updates: UpdateStats,
    last_provenance: Option<ProvenanceChain>,
}

impl BlockAcc {
    fn pattern(&self) -> SharingPattern {
        if self.writes == 0 {
            return SharingPattern::ReadOnly;
        }
        if self.writers.count_ones() <= 1 {
            let w = self.last_writer.unwrap_or(0);
            let others_accessed = self.readers & !(1u64 << (w as u32 % 64)) != 0;
            return if others_accessed { SharingPattern::ProducerConsumer } else { SharingPattern::Private };
        }
        let disturbed = self.invalidations + self.update_deliveries + self.update_drops;
        if disturbed as f64 / self.writes as f64 >= WIDE_SHARED_FANOUT {
            SharingPattern::WideShared
        } else {
            SharingPattern::Migratory
        }
    }
}

/// The live per-line provenance recorder. Owned by the
/// [`crate::Classifier`]; turned into a [`LineageReport`] at the end of the
/// run.
#[derive(Debug)]
pub struct Lineage {
    /// Current program phase per node.
    phase: Vec<u16>,
    /// Bytes per cache block (for structure-label overlap tests).
    block_bytes: Addr,
    blocks: FastMap<BlockAddr, BlockAcc>,
    /// Last external invalidation per (victim, block); consumed by the
    /// victim's next miss on the block.
    last_inval: FastMap<(NodeId, BlockAddr), InvalCause>,
    events: Vec<LineEvent>,
    events_dropped: u64,
    /// Registered structure ranges `(name, lo, hi)`, in registration order.
    structures: Vec<(String, Addr, Addr)>,
}

impl Lineage {
    /// A recorder for a machine of `num_nodes` with `block_bytes` blocks.
    pub fn new(num_nodes: usize, block_bytes: Addr) -> Self {
        Lineage {
            phase: vec![0; num_nodes],
            block_bytes,
            blocks: FastMap::default(),
            last_inval: FastMap::default(),
            events: Vec::new(),
            events_dropped: 0,
            structures: Vec::new(),
        }
    }

    fn push(&mut self, ev: LineEvent) {
        if self.events.len() < LINEAGE_EVENT_CAP {
            self.events.push(ev);
        } else {
            self.events_dropped += 1;
        }
    }

    fn acc(&mut self, block: BlockAddr) -> &mut BlockAcc {
        self.blocks.entry(block).or_default()
    }

    fn phase_of(&self, node: NodeId) -> u16 {
        self.phase.get(node).copied().unwrap_or(0)
    }

    /// Mirrors [`crate::Classifier::register_structure`].
    pub fn register_structure(&mut self, name: &str, lo: Addr, hi: Addr) {
        self.structures.push((name.to_string(), lo, hi));
    }

    /// Node `node` entered program `phase`.
    pub fn set_phase(&mut self, node: NodeId, phase: u16) {
        if let Some(p) = self.phase.get_mut(node) {
            *p = phase;
        }
    }

    /// A node read a word of `block` (load, spin check, or atomic).
    pub fn note_read(&mut self, node: NodeId, block: BlockAddr) {
        let acc = self.acc(block);
        acc.reads += 1;
        acc.readers |= 1u64 << (node as u32 % 64);
        acc.accesses_since_change += 1;
    }

    /// A write by `writer` to a word of `block` became globally visible.
    pub fn note_write(&mut self, writer: NodeId, block: BlockAddr) {
        let acc = self.acc(block);
        acc.writes += 1;
        acc.writers |= 1u64 << (writer as u32 % 64);
        if acc.last_writer != Some(writer) {
            if acc.last_writer.is_some() {
                acc.writer_changes += 1;
                acc.accesses_between_changes += acc.accesses_since_change;
            }
            acc.accesses_since_change = 0;
            acc.last_writer = Some(writer);
        }
        acc.accesses_since_change += 1;
    }

    /// `victim` lost its copy of `block` to `writer`'s write of `word_addr`.
    /// Records the causal edge and memoizes it for the victim's next miss.
    pub fn invalidation(
        &mut self,
        victim: NodeId,
        block: BlockAddr,
        writer: NodeId,
        word_addr: Addr,
        at: Cycle,
    ) {
        let writer_phase = self.phase_of(writer);
        let cause = InvalCause { writer, writer_phase, word_addr, at };
        self.last_inval.insert((victim, block), cause);
        self.acc(block).invalidations += 1;
        let phase = self.phase_of(victim);
        self.push(LineEvent {
            at,
            block,
            phase,
            kind: LineEventKind::Invalidation { victim, writer, writer_phase, word_addr },
        });
    }

    /// `victim` lost its copy of `block` to an eviction or self-invalidation:
    /// any memoized external cause no longer explains the next miss.
    pub fn copy_lost_local(&mut self, victim: NodeId, block: BlockAddr) {
        self.last_inval.remove(&(victim, block));
    }

    /// `node` missed on `addr`; chains the miss to the memoized invalidation
    /// edge (consumed here) when the loss was external.
    pub fn miss(&mut self, node: NodeId, block: BlockAddr, addr: Addr, class: MissClass, at: Cycle) {
        let caused_by = self
            .last_inval
            .remove(&(node, block))
            .filter(|_| matches!(class, MissClass::TrueSharing | MissClass::FalseSharing));
        let phase = self.phase_of(node);
        if let Some(cause) = caused_by {
            self.acc(block).last_provenance = Some(ProvenanceChain { node, addr, phase, at, cause });
        }
        self.push(LineEvent { at, block, phase, kind: LineEventKind::Miss { node, class, caused_by } });
    }

    /// An update message from `writer` arrived at `node` (applied when
    /// `dropped` is false; a competitive-threshold drop otherwise).
    pub fn update_arrival(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        writer: NodeId,
        dropped: bool,
        at: Cycle,
    ) {
        let writer_phase = self.phase_of(writer);
        let acc = self.acc(block);
        let kind = if dropped {
            acc.update_drops += 1;
            LineEventKind::UpdateDrop { node, writer, writer_phase }
        } else {
            acc.update_deliveries += 1;
            LineEventKind::UpdateDelivery { node, writer, writer_phase }
        };
        let phase = self.phase_of(node);
        self.push(LineEvent { at, block, phase, kind });
    }

    /// The home directory entry for `block` changed stable state.
    #[allow(clippy::too_many_arguments)]
    pub fn dir_transition(
        &mut self,
        block: BlockAddr,
        from: &'static str,
        to: &'static str,
        actor: NodeId,
        msg: &'static str,
        at: Cycle,
    ) {
        if from == to {
            return;
        }
        self.acc(block).dir_transitions += 1;
        let phase = self.phase_of(actor);
        self.push(LineEvent {
            at,
            block,
            phase,
            kind: LineEventKind::DirTransition { from, to, actor, msg },
        });
    }

    /// Mirrors one classified miss into the block's counters (called from
    /// the classifier's single bump choke point, so lineage totals balance
    /// against the report by construction).
    pub fn mirror_miss(&mut self, block: BlockAddr, class: MissClass) {
        self.acc(block).misses.bump(class);
    }

    /// Mirrors one classified update (see [`Lineage::mirror_miss`]).
    pub fn mirror_update(&mut self, block: BlockAddr, class: UpdateClass) {
        self.acc(block).updates.bump(class);
    }

    /// Mirrors one exclusive-request (upgrade) transaction.
    pub fn mirror_exclusive(&mut self, block: BlockAddr) {
        self.acc(block).misses.exclusive_requests += 1;
    }

    /// The label of `block`: the last-registered structure overlapping it.
    fn label_of(&self, block: BlockAddr) -> Option<String> {
        let (blo, bhi) = (block.0, block.0 + self.block_bytes);
        self.structures
            .iter()
            .rev()
            .find(|(_, lo, hi)| *lo < bhi && blo < *hi)
            .map(|(name, _, _)| name.clone())
    }

    /// Freezes accumulation into the end-of-run report.
    pub fn into_report(self) -> LineageReport {
        let mut blocks: Vec<BlockProfile> = self
            .blocks
            .iter()
            .map(|(&block, acc)| {
                let changes = acc.writer_changes.max(1);
                BlockProfile {
                    block,
                    label: self.label_of(block),
                    pattern: acc.pattern(),
                    readers: acc.readers.count_ones(),
                    writers: acc.writers.count_ones(),
                    reads: acc.reads,
                    writes: acc.writes,
                    writer_changes: acc.writer_changes,
                    accesses_per_writer_change: (acc.accesses_between_changes + acc.accesses_since_change)
                        as f64
                        / changes as f64,
                    fanout_per_write: if acc.writes == 0 {
                        0.0
                    } else {
                        (acc.invalidations + acc.update_deliveries + acc.update_drops) as f64
                            / acc.writes as f64
                    },
                    invalidations: acc.invalidations,
                    update_deliveries: acc.update_deliveries,
                    update_drops: acc.update_drops,
                    dir_transitions: acc.dir_transitions,
                    misses: acc.misses,
                    updates: acc.updates,
                    provenance: acc.last_provenance,
                }
            })
            .collect();
        blocks.sort_by(|a, b| b.traffic().cmp(&a.traffic()).then(a.block.cmp(&b.block)));

        // Aggregate per structure base name (`qnode[3]` → `qnode[*]`),
        // counting member blocks per pattern. The list is traffic-sorted,
        // so a structure's first block is its hottest, and its pattern
        // seeds the row's.
        let mut by_base: BTreeMap<String, (StructureLineage, [u64; SharingPattern::ALL.len()])> =
            BTreeMap::new();
        for p in &blocks {
            let Some(label) = p.label.as_deref() else { continue };
            let base = base_name(label);
            let (s, counts) = by_base.entry(base.clone()).or_insert_with(|| {
                let row = StructureLineage {
                    name: base,
                    blocks: 0,
                    pattern: p.pattern,
                    pattern_blocks: 0,
                    misses: MissStats::default(),
                    updates: UpdateStats::default(),
                    invalidations: 0,
                    update_deliveries: 0,
                };
                (row, [0; SharingPattern::ALL.len()])
            });
            s.blocks += 1;
            s.misses.merge(&p.misses);
            s.updates.merge(&p.updates);
            s.invalidations += p.invalidations;
            s.update_deliveries += p.update_deliveries + p.update_drops;
            counts[p.pattern as usize] += 1;
        }
        // Dominant pattern per structure: the pattern shared by the most
        // member blocks; ties go to the hottest block's pattern, then to
        // the earlier pattern in declaration order.
        for (s, counts) in by_base.values_mut() {
            let hottest = s.pattern;
            let dominant = SharingPattern::ALL
                .into_iter()
                .max_by_key(|&p| (counts[p as usize], p == hottest, Reverse(p)))
                .expect("patterns exist");
            s.pattern = dominant;
            s.pattern_blocks = counts[dominant as usize];
        }
        let mut by_structure: Vec<StructureLineage> = by_base.into_values().map(|(s, _)| s).collect();
        by_structure.sort_by(|a, b| {
            let ua = a.misses.useless() + a.updates.useless();
            let ub = b.misses.useless() + b.updates.useless();
            ub.cmp(&ua).then_with(|| a.name.cmp(&b.name))
        });

        LineageReport { blocks, by_structure, events: self.events, events_dropped: self.events_dropped }
    }
}

fn base_name(name: &str) -> String {
    match name.find('[') {
        Some(i) => format!("{}[*]", &name[..i]),
        None => name.to_string(),
    }
}

/// End-of-run profile of one block.
#[derive(Debug, Clone)]
pub struct BlockProfile {
    /// The block.
    pub block: BlockAddr,
    /// The registered structure overlapping the block, if any.
    pub label: Option<String>,
    /// Observed sharing pattern.
    pub pattern: SharingPattern,
    /// Distinct nodes that read the block.
    pub readers: u32,
    /// Distinct nodes whose writes became visible.
    pub writers: u32,
    /// Read references (loads, spin checks, atomics).
    pub reads: u64,
    /// Globally visible writes.
    pub writes: u64,
    /// Times the visible writer changed.
    pub writer_changes: u64,
    /// Mean accesses between writer changes (all accesses when the writer
    /// never changed).
    pub accesses_per_writer_change: f64,
    /// Invalidations + update arrivals per visible write.
    pub fanout_per_write: f64,
    /// External invalidations of copies of this block.
    pub invalidations: u64,
    /// Update messages applied at sharer caches.
    pub update_deliveries: u64,
    /// Update messages that tripped the competitive threshold.
    pub update_drops: u64,
    /// Home-directory stable-state transitions.
    pub dir_transitions: u64,
    /// Per-class misses on the block (mirrors the classifier).
    pub misses: MissStats,
    /// Per-class updates on the block (mirrors the classifier).
    pub updates: UpdateStats,
    /// The most recent miss provenance chain, when one was recorded.
    pub provenance: Option<ProvenanceChain>,
}

impl BlockProfile {
    /// Total classified traffic on the block.
    pub fn traffic(&self) -> u64 {
        self.misses.total_misses() + self.updates.total()
    }

    /// Useless classified traffic on the block.
    pub fn useless_traffic(&self) -> u64 {
        self.misses.useless() + self.updates.useless()
    }

    /// Renders the provenance chain ("miss on `count` at node 5 ←
    /// invalidated by node 2's write in phase `acquire`"), resolving phase
    /// ids through `phase_label`.
    pub fn provenance_string(&self, phase_label: &dyn Fn(u16) -> String) -> Option<String> {
        self.provenance.map(|p| {
            let what = self.label.as_deref().unwrap_or("block");
            format!(
                "miss on `{}` at node {} in phase `{}` ← invalidated by node {}'s write of {:#x} in phase `{}`",
                what,
                p.node,
                phase_label(p.phase),
                p.cause.writer,
                p.cause.word_addr,
                phase_label(p.cause.writer_phase),
            )
        })
    }
}

/// Lineage aggregated over the blocks of one structure base name.
#[derive(Debug, Clone)]
pub struct StructureLineage {
    /// Base name (`qnode[*]` groups every `qnode[i]`).
    pub name: String,
    /// Member blocks observed.
    pub blocks: u64,
    /// Dominant member pattern.
    pub pattern: SharingPattern,
    /// How many member blocks share the dominant pattern.
    pub pattern_blocks: u64,
    /// Summed misses.
    pub misses: MissStats,
    /// Summed updates.
    pub updates: UpdateStats,
    /// Summed invalidations.
    pub invalidations: u64,
    /// Summed update arrivals (deliveries + drops).
    pub update_deliveries: u64,
}

impl StructureLineage {
    /// Useless classified traffic summed over member blocks.
    pub fn useless_traffic(&self) -> u64 {
        self.misses.useless() + self.updates.useless()
    }
}

/// The frozen per-line provenance report attached to
/// [`crate::ObsReport::lineage`].
#[derive(Debug, Clone)]
pub struct LineageReport {
    /// Per-block profiles, hottest (most classified traffic) first.
    pub blocks: Vec<BlockProfile>,
    /// Per-structure aggregation, sorted by (useless traffic desc, name).
    pub by_structure: Vec<StructureLineage>,
    /// The bounded provenance event list (first [`LINEAGE_EVENT_CAP`]).
    pub events: Vec<LineEvent>,
    /// Events not stored once the cap was reached (counters above still
    /// include them).
    pub events_dropped: u64,
}

impl LineageReport {
    /// Sum of per-block miss counters (must equal the classifier's machine
    /// totals; asserted in `tests/lineage.rs`).
    pub fn miss_totals(&self) -> MissStats {
        let mut m = MissStats::default();
        for b in &self.blocks {
            m.merge(&b.misses);
        }
        m
    }

    /// Sum of per-block update counters (see [`LineageReport::miss_totals`]).
    pub fn update_totals(&self) -> UpdateStats {
        let mut u = UpdateStats::default();
        for b in &self.blocks {
            u.merge(&b.updates);
        }
        u
    }

    /// The profile for the block overlapping a registered structure label.
    pub fn block_labeled(&self, label: &str) -> Option<&BlockProfile> {
        self.blocks.iter().find(|b| b.label.as_deref() == Some(label))
    }

    /// The aggregated row for a structure base name.
    pub fn structure(&self, base: &str) -> Option<&StructureLineage> {
        self.by_structure.iter().find(|s| s.name == base)
    }

    /// Serializes the report; phase ids resolve through `phase_label`.
    pub fn to_json(&self, phase_label: &dyn Fn(u16) -> String) -> Json {
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                let mut pairs = vec![
                    ("block".to_string(), Json::from(format!("{:#x}", b.block.0))),
                    ("label".to_string(), b.label.as_deref().map(Json::from).unwrap_or(Json::Null)),
                    ("pattern".to_string(), Json::from(b.pattern.name())),
                    ("readers".to_string(), Json::from(b.readers)),
                    ("writers".to_string(), Json::from(b.writers)),
                    ("reads".to_string(), Json::U64(b.reads)),
                    ("writes".to_string(), Json::U64(b.writes)),
                    ("writer_changes".to_string(), Json::U64(b.writer_changes)),
                    ("accesses_per_writer_change".to_string(), Json::F64(b.accesses_per_writer_change)),
                    ("fanout_per_write".to_string(), Json::F64(b.fanout_per_write)),
                    ("invalidations".to_string(), Json::U64(b.invalidations)),
                    ("update_deliveries".to_string(), Json::U64(b.update_deliveries)),
                    ("update_drops".to_string(), Json::U64(b.update_drops)),
                    ("dir_transitions".to_string(), Json::U64(b.dir_transitions)),
                    ("misses".to_string(), b.misses.to_json()),
                    ("updates".to_string(), b.updates.to_json()),
                ];
                if let Some(p) = b.provenance_string(phase_label) {
                    pairs.push(("provenance".to_string(), Json::from(p)));
                }
                Json::Obj(pairs)
            })
            .collect();
        let by_structure = self
            .by_structure
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    ("blocks", Json::U64(s.blocks)),
                    ("pattern", Json::from(s.pattern.name())),
                    ("pattern_blocks", Json::U64(s.pattern_blocks)),
                    ("misses", s.misses.to_json()),
                    ("updates", s.updates.to_json()),
                    ("invalidations", Json::U64(s.invalidations)),
                    ("update_deliveries", Json::U64(s.update_deliveries)),
                ])
            })
            .collect();
        Json::obj([
            ("blocks", Json::Arr(blocks)),
            ("by_structure", Json::Arr(by_structure)),
            ("events", Json::from(self.events.len())),
            ("events_dropped", Json::U64(self.events_dropped)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr(0x1000);

    fn lineage() -> Lineage {
        Lineage::new(8, 64)
    }

    #[test]
    fn untouched_block_is_absent_and_read_only_without_writes() {
        let mut l = lineage();
        l.note_read(0, B);
        l.note_read(1, B);
        let r = l.into_report();
        assert_eq!(r.blocks.len(), 1);
        assert_eq!(r.blocks[0].pattern, SharingPattern::ReadOnly);
        assert_eq!(r.blocks[0].readers, 2);
    }

    #[test]
    fn single_writer_patterns() {
        let mut l = lineage();
        l.note_write(3, B);
        l.note_write(3, B);
        assert_eq!(l.blocks[&B].pattern(), SharingPattern::Private);
        l.note_read(5, B);
        assert_eq!(l.blocks[&B].pattern(), SharingPattern::ProducerConsumer);
    }

    #[test]
    fn migratory_vs_wide_shared_by_fanout() {
        let mut l = lineage();
        // Two writers, one invalidation per write: migratory.
        l.note_write(0, B);
        l.invalidation(1, B, 0, 0x1000, 10);
        l.note_write(1, B);
        l.invalidation(0, B, 1, 0x1000, 20);
        assert_eq!(l.blocks[&B].pattern(), SharingPattern::Migratory);
        // Pile on update deliveries until fanout crosses the threshold.
        for n in 2..6 {
            l.update_arrival(n, B, 1, false, 30);
        }
        assert_eq!(l.blocks[&B].pattern(), SharingPattern::WideShared);
    }

    #[test]
    fn writer_changes_and_access_interval() {
        let mut l = lineage();
        l.note_write(0, B); // writer 0
        l.note_read(0, B);
        l.note_read(1, B);
        l.note_write(1, B); // change #1 after 3 accesses
        l.note_read(1, B);
        l.note_write(0, B); // change #2 after 2 accesses
        let r = l.into_report();
        let b = &r.blocks[0];
        assert_eq!(b.writer_changes, 2);
        // (3 + 2 + trailing 1) / 2 changes = 3.0
        assert!((b.accesses_per_writer_change - 3.0).abs() < 1e-12);
    }

    #[test]
    fn miss_consumes_invalidation_memo_into_provenance() {
        let mut l = lineage();
        l.register_structure("count", 0x1000, 0x1004);
        l.set_phase(2, 1);
        l.invalidation(5, B, 2, 0x1000, 100);
        l.miss(5, B, 0x1000, MissClass::TrueSharing, 120);
        let r = l.into_report();
        let p = r.blocks[0].provenance.expect("provenance recorded");
        assert_eq!(p.node, 5);
        assert_eq!(p.cause.writer, 2);
        assert_eq!(p.cause.writer_phase, 1);
        let s = r.blocks[0].provenance_string(&|ph| format!("ph{ph}")).unwrap();
        assert!(s.contains("`count` at node 5"), "{s}");
        assert!(s.contains("node 2's write"), "{s}");
        assert!(s.contains("`ph1`"), "{s}");
        // The memo was consumed: a second miss has no stale chain.
    }

    #[test]
    fn local_loss_clears_memo() {
        let mut l = lineage();
        l.invalidation(5, B, 2, 0x1000, 100);
        l.copy_lost_local(5, B); // evicted afterwards
        l.miss(5, B, 0x1000, MissClass::Eviction, 120);
        let r = l.into_report();
        assert!(r.blocks[0].provenance.is_none());
    }

    #[test]
    fn mirrors_balance_by_construction() {
        let mut l = lineage();
        l.mirror_miss(B, MissClass::Cold);
        l.mirror_miss(B, MissClass::TrueSharing);
        l.mirror_update(BlockAddr(0x2000), UpdateClass::Proliferation);
        l.mirror_exclusive(B);
        let r = l.into_report();
        let m = r.miss_totals();
        assert_eq!(m.cold, 1);
        assert_eq!(m.true_sharing, 1);
        assert_eq!(m.exclusive_requests, 1);
        assert_eq!(r.update_totals().proliferation, 1);
    }

    #[test]
    fn structure_aggregation_groups_base_names() {
        let mut l = Lineage::new(8, 64);
        l.register_structure("qnode[0]", 0x1000, 0x1008);
        l.register_structure("qnode[1]", 0x2000, 0x2008);
        l.mirror_miss(BlockAddr(0x1000), MissClass::FalseSharing);
        l.mirror_miss(BlockAddr(0x2000), MissClass::FalseSharing);
        l.note_write(0, BlockAddr(0x1000));
        l.note_write(1, BlockAddr(0x1000));
        l.note_write(1, BlockAddr(0x2000));
        l.note_write(2, BlockAddr(0x2000));
        let r = l.into_report();
        let s = r.structure("qnode[*]").expect("aggregated row");
        assert_eq!(s.blocks, 2);
        assert_eq!(s.misses.false_sharing, 2);
        assert_eq!(s.pattern, SharingPattern::Migratory);
        assert_eq!(s.pattern_blocks, 2);
    }

    /// Two patterns tie for the most member blocks and neither is the
    /// hottest block's: the earlier pattern in declaration order wins, in
    /// every report.
    #[test]
    fn dominant_pattern_ties_break_by_pattern_order() {
        let block = |i: u32| BlockAddr(0x1000 * (i + 1));
        for _ in 0..64 {
            let mut l = lineage();
            for i in 0..5 {
                l.register_structure(&format!("s[{i}]"), block(i).0, block(i).0 + 4);
            }
            // s[0]: two writers, four update arrivals per two writes —
            // wide-shared, and the hottest block.
            l.note_write(0, block(0));
            l.note_write(1, block(0));
            for n in 2..6 {
                l.update_arrival(n, block(0), 1, false, 10);
            }
            l.mirror_miss(block(0), MissClass::Cold);
            // s[1], s[2]: one writer, another reader — producer-consumer.
            for i in [1, 2] {
                l.note_write(0, block(i));
                l.note_read(1, block(i));
            }
            // s[3], s[4]: two writers, no fanout — migratory.
            for i in [3, 4] {
                l.note_write(0, block(i));
                l.note_write(1, block(i));
            }
            let r = l.into_report();
            assert_eq!(r.blocks[0].pattern, SharingPattern::WideShared, "the hottest block");
            let s = r.structure("s[*]").expect("aggregated row");
            assert_eq!(s.blocks, 5);
            assert_eq!((s.pattern, s.pattern_blocks), (SharingPattern::ProducerConsumer, 2));
        }
    }

    #[test]
    fn dir_transitions_skip_self_loops_and_cap_events() {
        let mut l = lineage();
        l.dir_transition(B, "Shared", "Shared", 0, "GetS", 5);
        assert!(l.events.is_empty());
        l.dir_transition(B, "Uncached", "Shared", 0, "GetS", 5);
        assert_eq!(l.events.len(), 1);
        assert_eq!(l.blocks[&B].dir_transitions, 1);
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut l = lineage();
        for i in 0..(LINEAGE_EVENT_CAP + 10) {
            l.update_arrival(0, B, 1, false, i as Cycle);
        }
        let r = l.into_report();
        assert_eq!(r.events.len(), LINEAGE_EVENT_CAP);
        assert_eq!(r.events_dropped, 10);
        assert_eq!(r.blocks[0].update_deliveries, (LINEAGE_EVENT_CAP + 10) as u64);
    }

    #[test]
    fn report_json_renders_and_parses() {
        let mut l = lineage();
        l.register_structure("count", 0x1000, 0x1004);
        l.note_write(0, B);
        l.invalidation(1, B, 0, 0x1000, 10);
        l.miss(1, B, 0x1000, MissClass::TrueSharing, 20);
        l.mirror_miss(B, MissClass::TrueSharing);
        let r = l.into_report();
        let json = r.to_json(&|p| format!("phase{p}"));
        let parsed = Json::parse(&json.render()).unwrap();
        let blocks = parsed.get("blocks").unwrap().as_arr().unwrap();
        assert_eq!(blocks[0].get("label").and_then(Json::as_str), Some("count"));
        assert!(blocks[0].get("provenance").is_some());
    }
}
