//! The event-driven classifier.

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_engine::{Cycle, FastMap, NodeId};
use sim_mem::{Addr, BlockAddr, Geometry};

use crate::lineage::{Lineage, LineageReport};
use crate::report::{MissClass, MissStats, TrafficReport, UpdateClass, UpdateStats};

/// Per-home-node update accounting for the network telemetry layer: which
/// home directory's traffic turned out useful vs useless, and how many
/// update deliveries each home's region generated. Indexed by home node.
#[derive(Debug, Clone, Default)]
pub struct HomeUpdates {
    /// End-of-lifetime update classification, bucketed by the updated
    /// word's home node.
    pub classified: Vec<UpdateStats>,
    /// `(applied, dropped)` update arrivals at sharer caches, bucketed by
    /// the updated word's home node.
    pub deliveries: Vec<(u64, u64)>,
}

impl HomeUpdates {
    fn new(num_nodes: usize) -> Self {
        HomeUpdates {
            classified: vec![UpdateStats::default(); num_nodes],
            deliveries: vec![(0, 0); num_nodes],
        }
    }
}

/// Why a cache copy went away — recorded when it happens, consumed when the
/// node misses on the block again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Invalidated by another processor's write; carries the written word's
    /// address and the writer so the next miss can be split into true vs
    /// false sharing.
    External { word_addr: Addr, writer: NodeId },
    /// Displaced by a direct-mapped conflict.
    Eviction,
    /// Self-invalidated: competitive-update drop or an explicit flush.
    SelfInvalidate,
}

/// History of one (node, block) copy.
#[derive(Debug, Clone, Copy, Default)]
struct CopyHistory {
    ever_cached: bool,
    lost: Option<(Cycle, LossCause)>,
}

/// The live (delivered, not yet dead) update records of one `(node,
/// block)` copy, one bit per word: bit `w` of `live` is set while the
/// update to word `w` waits to be consumed, and bit `w` of `referenced`
/// records that some *other* word of the block was touched since that
/// update arrived (the false-sharing evidence). `referenced` is always a
/// subset of `live`.
#[derive(Debug, Clone, Copy, Default)]
struct LiveWords {
    live: u16,
    referenced: u16,
}

impl LiveWords {
    /// Word indices with a live record, ascending, each with its
    /// block-referenced flag.
    fn records(self) -> impl Iterator<Item = (usize, bool)> {
        let mut bits = self.live;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let w = bits.trailing_zeros();
                bits &= bits - 1;
                (w as usize, self.referenced & (1 << w) != 0)
            })
        })
    }
}

/// Classifies every miss and update message of a run, given raw events from
/// the protocol layer.
///
/// Event order contract (enforced by the machine): for any word, the
/// `word_written` commit event is emitted no later than the invalidations
/// or update deliveries that the write causes.
#[derive(Debug)]
pub struct Classifier {
    geom: Geometry,
    /// Last globally-visible writer of each word.
    last_writer: FastMap<Addr, (NodeId, Cycle)>,
    /// Copy history per (node, block).
    copies: FastMap<(NodeId, BlockAddr), CopyHistory>,
    /// Live update records per (node, block); no entry has an empty `live`.
    live_updates: FastMap<(NodeId, BlockAddr), LiveWords>,
    /// Registered data-structure address ranges for attribution.
    structures: Vec<StructureRange>,
    report: TrafficReport,
    finished: bool,
    /// What only an observed run records; `None` — the default — keeps
    /// every code path below branch-free on the observation side, so the
    /// classifier behaves bit-identically to a build without it.
    observation: Option<Box<Observation>>,
}

/// The classifier's passive instruments, on together when observing: per-
/// line provenance, and per-home update accounting for network telemetry.
/// Both only mirror the classifications.
#[derive(Debug)]
struct Observation {
    lineage: Lineage,
    homes: HomeUpdates,
}

/// A registered address range for per-structure traffic attribution; its
/// name is in the report's [`TrafficReport::by_structure`] row of the same
/// index.
#[derive(Debug, Clone)]
struct StructureRange {
    lo: Addr,
    hi: Addr,
}

impl Classifier {
    /// Creates a classifier for a machine with the given geometry.
    pub fn new(geom: Geometry) -> Self {
        Classifier {
            geom,
            last_writer: FastMap::default(),
            copies: FastMap::default(),
            live_updates: FastMap::default(),
            structures: Vec::new(),
            report: TrafficReport::default(),
            finished: false,
            observation: None,
        }
    }

    // ------------------------------------------------------------------
    // Observation (per-line provenance, see [`crate::lineage`], and
    // per-home update accounting)
    // ------------------------------------------------------------------

    /// Switches on per-line provenance recording and per-home-node update
    /// accounting. Passive: the classified totals are unchanged; lineage
    /// only mirrors and annotates them, and the per-home buckets only
    /// mirror them.
    pub fn enable_observation(&mut self) {
        let n = self.geom.num_nodes;
        self.observation =
            Some(Box::new(Observation { lineage: Lineage::new(n), homes: HomeUpdates::new(n) }));
    }

    /// Detaches the lineage report, its blocks labelled with the registered
    /// structures, and the per-home update accounting. Call after
    /// [`Classifier::finish`] so end-of-run classifications are included.
    pub fn take_observation(&mut self) -> Option<(LineageReport, HomeUpdates)> {
        let o = self.observation.take()?;
        let block_bytes = self.geom.block_bytes;
        let label_of = |block: BlockAddr| {
            let (lo, hi) = (block.0, block.0 + block_bytes);
            let i = self.structures.iter().rposition(|r| r.lo < hi && lo < r.hi)?;
            Some(self.report.by_structure[i].name.clone())
        };
        Some((o.lineage.into_report(label_of), o.homes))
    }

    /// `node` entered program `phase` (bridged from the machine's `Phase`
    /// markers so provenance events carry the acting node's phase).
    pub fn set_phase(&mut self, node: NodeId, phase: u16) {
        if let Some(o) = self.observation.as_mut() {
            o.lineage.set_phase(node, phase);
        }
    }

    /// The home directory entry for `block` moved `from` → `to` while
    /// handling `msg` from `actor`. No-op (and no-cost) when lineage is off.
    pub fn dir_transition(
        &mut self,
        block: BlockAddr,
        from: &'static str,
        to: &'static str,
        actor: NodeId,
        msg: &'static str,
        now: Cycle,
    ) {
        if let Some(o) = self.observation.as_mut() {
            o.lineage.dir_transition(block, from, to, actor, msg, now);
        }
    }

    /// An update message from `writer` arrived at `node`'s cache (applied,
    /// or a competitive-threshold `dropped`). Record the writer→victim edge
    /// before [`Classifier::update_delivered`] / `update_caused_drop` runs.
    pub fn update_arrival(&mut self, node: NodeId, addr: Addr, writer: NodeId, dropped: bool, now: Cycle) {
        if let Some(o) = self.observation.as_mut() {
            let block = self.geom.block_of(addr);
            o.lineage.update_arrival(node, block, writer, dropped, now);
            let d = &mut o.homes.deliveries[self.geom.home_of(addr)];
            if dropped {
                d.1 += 1;
            } else {
                d.0 += 1;
            }
        }
    }

    /// Registers a named address range (a shared data structure) so the
    /// report can attribute classified traffic to it — the analysis style
    /// the paper uses ("the vast majority of this useless traffic
    /// corresponds to changes in the centralized counter"). Ranges are
    /// half-open `[addr, addr + words*4)`; later registrations win on
    /// overlap.
    pub fn register_structure(&mut self, name: &str, addr: Addr, words: u32) {
        self.structures.push(StructureRange { lo: addr, hi: addr + 4 * words });
        self.report.by_structure.push(crate::report::StructureTraffic {
            name: name.to_string(),
            misses: Default::default(),
            updates: Default::default(),
        });
    }

    /// The registration index of the structure covering `addr`, if any
    /// (later registrations win on overlap). It indexes
    /// [`TrafficReport::by_structure`].
    pub fn structure_of(&self, addr: Addr) -> Option<usize> {
        self.structures.iter().rposition(|r| (r.lo..r.hi).contains(&addr))
    }

    /// The last globally-visible writer of `addr` and the commit cycle —
    /// the causal source of a wait that ended on that word. Feeds the
    /// critical-path profiler's chain merges.
    pub fn last_writer_of(&self, addr: Addr) -> Option<(NodeId, Cycle)> {
        self.last_writer.get(&addr).copied()
    }

    fn bump_miss(&mut self, addr: Addr, class: MissClass) {
        self.report.misses.bump(class);
        if let Some(i) = self.structure_of(addr) {
            self.report.by_structure[i].misses.bump(class);
        }
        if let Some(o) = self.observation.as_mut() {
            o.lineage.mirror_miss(self.geom.block_of(addr), class);
        }
    }

    fn bump_update(&mut self, addr: Addr, class: UpdateClass) {
        self.report.updates.bump(class);
        if let Some(i) = self.structure_of(addr) {
            self.report.by_structure[i].updates.bump(class);
        }
        if let Some(o) = self.observation.as_mut() {
            o.lineage.mirror_update(self.geom.block_of(addr), class);
            o.homes.classified[self.geom.home_of(addr)].bump(class);
        }
    }

    fn copy(&mut self, node: NodeId, block: BlockAddr) -> &mut CopyHistory {
        self.copies.entry((node, block)).or_default()
    }

    // ------------------------------------------------------------------
    // Reference counting
    // ------------------------------------------------------------------

    /// A processor issued a shared read.
    pub fn count_read(&mut self) {
        self.report.shared_reads += 1;
    }

    /// A processor issued a shared write.
    pub fn count_write(&mut self) {
        self.report.shared_writes += 1;
    }

    /// A processor issued a shared atomic operation.
    pub fn count_atomic(&mut self) {
        self.report.shared_atomics += 1;
    }

    // ------------------------------------------------------------------
    // Write visibility
    // ------------------------------------------------------------------

    /// A write to `addr` by `writer` became globally visible.
    pub fn word_written(&mut self, writer: NodeId, addr: Addr, now: Cycle) {
        self.last_writer.insert(addr, (writer, now));
        if let Some(o) = self.observation.as_mut() {
            o.lineage.note_write(writer, self.geom.block_of(addr));
        }
    }

    // ------------------------------------------------------------------
    // Copy lifecycle
    // ------------------------------------------------------------------

    /// `node` installed a copy of `block` in its cache.
    pub fn copy_acquired(&mut self, node: NodeId, block: BlockAddr) {
        let c = self.copy(node, block);
        c.ever_cached = true;
        c.lost = None;
    }

    /// `node` lost its copy of `block`. For [`LossCause::Eviction`] and
    /// [`LossCause::SelfInvalidate`], any live update records die here too
    /// (replacement updates, or leftover records at a drop/flush).
    pub fn copy_lost(&mut self, node: NodeId, block: BlockAddr, cause: LossCause, now: Cycle) {
        self.copy(node, block).lost = Some((now, cause));
        if let Some(o) = self.observation.as_mut() {
            match cause {
                LossCause::External { word_addr, writer } => {
                    o.lineage.invalidation(node, block, writer, word_addr, now)
                }
                LossCause::Eviction | LossCause::SelfInvalidate => o.lineage.copy_lost_local(node, block),
            }
        }
        if let Some(records) = self.live_updates.remove(&(node, block)) {
            for (widx, block_referenced) in records.records() {
                let class = match cause {
                    LossCause::Eviction => UpdateClass::Replacement,
                    // Records still live when the block self-invalidates or
                    // is invalidated externally were never going to be
                    // consumed: useless. Active false sharing wins over
                    // proliferation, as in the paper's algorithm.
                    LossCause::SelfInvalidate | LossCause::External { .. } => {
                        if block_referenced {
                            UpdateClass::FalseSharing
                        } else {
                            UpdateClass::Proliferation
                        }
                    }
                };
                self.bump_update(block.0 + 4 * widx as Addr, class);
            }
        }
    }

    /// A write under WI hit a read-shared copy and issued an exclusive
    /// (upgrade) request.
    pub fn exclusive_request(&mut self, _node: NodeId, block: BlockAddr) {
        self.report.misses.exclusive_requests += 1;
        if let Some(i) = self.structure_of(block.0) {
            self.report.by_structure[i].misses.exclusive_requests += 1;
        }
        if let Some(o) = self.observation.as_mut() {
            o.lineage.mirror_exclusive(block);
        }
    }

    // ------------------------------------------------------------------
    // Misses
    // ------------------------------------------------------------------

    /// `node` missed on the word at `addr`; classify and count the miss.
    /// Call at miss-detection time, before the refill's `copy_acquired`.
    pub fn classify_miss(&mut self, node: NodeId, addr: Addr, now: Cycle) -> MissClass {
        let block = self.geom.block_of(addr);
        let history = *self.copy(node, block);
        let class = if !history.ever_cached {
            MissClass::Cold
        } else {
            match history.lost {
                // A refill after a protocol-initiated state change that
                // never removed the copy, or a re-miss with no recorded
                // loss: treat conservatively as cold-start-like truth is
                // unreachable; count as true sharing only with evidence.
                None => MissClass::Cold,
                Some((_, LossCause::Eviction)) => MissClass::Eviction,
                Some((_, LossCause::SelfInvalidate)) => MissClass::Drop,
                Some((lost_at, LossCause::External { word_addr, writer })) => {
                    let same_word = word_addr == addr && writer != node;
                    let later_write =
                        self.last_writer.get(&addr).is_some_and(|&(w, t)| w != node && t >= lost_at);
                    if same_word || later_write {
                        MissClass::TrueSharing
                    } else {
                        MissClass::FalseSharing
                    }
                }
            }
        };
        if let Some(o) = self.observation.as_mut() {
            o.lineage.miss(node, block, addr, class, now);
        }
        self.bump_miss(addr, class);
        class
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// An update message for `addr` was applied at `node`'s cache. Kills
    /// (and classifies) any live record for the same word, then opens a new
    /// record.
    pub fn update_delivered(&mut self, node: NodeId, addr: Addr) {
        let block = self.geom.block_of(addr);
        let bit = 1u16 << self.geom.word_index(addr);
        let records = self.live_updates.entry((node, block)).or_default();
        let old = (records.live & bit != 0).then_some(records.referenced & bit != 0);
        records.live |= bit;
        records.referenced &= !bit;
        if let Some(old_referenced) = old {
            let class = if old_referenced { UpdateClass::FalseSharing } else { UpdateClass::Proliferation };
            self.bump_update(addr, class);
        }
    }

    /// The update for `addr` arriving at `node` tripped the competitive
    /// threshold: it is a *drop* update and never opens a record.
    pub fn update_caused_drop(&mut self, _node: NodeId, addr: Addr) {
        self.bump_update(addr, UpdateClass::Drop);
    }

    /// `node`'s processor *read* the word at `addr` (plain load, spin
    /// check, or atomic — all consume the value). Consumes a live record
    /// for that word as a true-sharing update and marks sibling records'
    /// blocks as referenced.
    pub fn word_referenced(&mut self, node: NodeId, addr: Addr) {
        let block = self.geom.block_of(addr);
        let bit = 1u16 << self.geom.word_index(addr);
        if let Some(o) = self.observation.as_mut() {
            o.lineage.note_read(node, block);
        }
        let mut consumed = false;
        if let Some(records) = self.live_updates.get_mut(&(node, block)) {
            consumed = records.live & bit != 0;
            records.live &= !bit;
            records.referenced = records.live;
            if records.live == 0 {
                self.live_updates.remove(&(node, block));
            }
        }
        if consumed {
            self.bump_update(addr, UpdateClass::TrueSharing);
        }
    }

    /// `node`'s processor *wrote* the word at `addr`. A write does not
    /// consume an update's value, so a live record for the same word stays
    /// live (it will die useless); sibling records observe block activity
    /// for the false-sharing distinction.
    pub fn word_write_referenced(&mut self, node: NodeId, addr: Addr) {
        let block = self.geom.block_of(addr);
        let bit = 1u16 << self.geom.word_index(addr);
        if let Some(records) = self.live_updates.get_mut(&(node, block)) {
            records.referenced |= records.live & !bit;
        }
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    /// Ends the run: classifies all still-live update records (termination,
    /// or false sharing when the block saw unrelated references) and
    /// freezes the report.
    pub fn finish(&mut self) -> &TrafficReport {
        assert!(!self.finished, "Classifier::finish called twice");
        self.finished = true;
        for ((_, block), records) in std::mem::take(&mut self.live_updates) {
            for (widx, block_referenced) in records.records() {
                let class =
                    if block_referenced { UpdateClass::FalseSharing } else { UpdateClass::Termination };
                self.bump_update(block.0 + 4 * widx as Addr, class);
            }
        }
        &self.report
    }

    /// The report accumulated so far (final after [`Classifier::finish`]).
    pub fn report(&self) -> &TrafficReport {
        &self.report
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Serializes the mutable classification state — writer history, copy
    /// histories, live update records, and every report counter — in a
    /// deterministic (sorted) order. Structure *registrations* and the
    /// passive instruments (lineage, home stats) are not serialized: the
    /// restore target is built by the same install path, which re-registers
    /// structures identically, and instruments restart fresh (checkpoints
    /// are taken on obs-off runs; windowed replay turns instruments on
    /// after restore).
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.bool(self.finished);
        let mut lw: Vec<(Addr, NodeId, Cycle)> =
            self.last_writer.iter().map(|(&a, &(n, c))| (a, n, c)).collect();
        lw.sort_by_key(|&(a, _, _)| a);
        w.usize(lw.len());
        for (a, n, c) in lw {
            w.u32(a);
            w.usize(n);
            w.u64(c);
        }
        let mut cp: Vec<((NodeId, BlockAddr), CopyHistory)> =
            self.copies.iter().map(|(&k, &v)| (k, v)).collect();
        cp.sort_by_key(|&(k, _)| k);
        w.usize(cp.len());
        for ((n, b), h) in cp {
            w.usize(n);
            w.u32(b.0);
            w.bool(h.ever_cached);
            match h.lost {
                None => w.bool(false),
                Some((cycle, cause)) => {
                    w.bool(true);
                    w.u64(cycle);
                    match cause {
                        LossCause::External { word_addr, writer } => {
                            w.u8(0);
                            w.u32(word_addr);
                            w.usize(writer);
                        }
                        LossCause::Eviction => w.u8(1),
                        LossCause::SelfInvalidate => w.u8(2),
                    }
                }
            }
        }
        let mut lu: Vec<((NodeId, BlockAddr), LiveWords)> =
            self.live_updates.iter().map(|(&k, &recs)| (k, recs)).collect();
        lu.sort_by_key(|&(k, _)| k);
        w.usize(lu.len());
        for ((n, b), recs) in lu {
            w.usize(n);
            w.u32(b.0);
            w.usize(recs.live.count_ones() as usize);
            for (widx, block_referenced) in recs.records() {
                w.usize(widx);
                w.bool(block_referenced);
            }
        }
        encode_report(w, &self.report);
    }

    /// Restores state captured by [`Classifier::encode_state`] into a
    /// classifier built by the same install path (same geometry, same
    /// structure registrations — enforced by a `by_structure` length check).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.finished = r.bool()?;
        self.last_writer.clear();
        for _ in 0..r.usize()? {
            let a = r.u32()?;
            let n = r.usize()?;
            let c = r.u64()?;
            self.last_writer.insert(a, (n, c));
        }
        self.copies.clear();
        for _ in 0..r.usize()? {
            let n = r.usize()?;
            let b = BlockAddr(r.u32()?);
            let ever_cached = r.bool()?;
            let lost = if r.bool()? {
                let cycle = r.u64()?;
                let cause = match r.u8()? {
                    0 => LossCause::External { word_addr: r.u32()?, writer: r.usize()? },
                    1 => LossCause::Eviction,
                    2 => LossCause::SelfInvalidate,
                    _ => return Err(SnapError::Corrupt("loss-cause tag")),
                };
                Some((cycle, cause))
            } else {
                None
            };
            self.copies.insert((n, b), CopyHistory { ever_cached, lost });
        }
        self.live_updates.clear();
        for _ in 0..r.usize()? {
            let n = r.usize()?;
            let b = BlockAddr(r.u32()?);
            let mut recs = LiveWords::default();
            for _ in 0..r.usize()? {
                let widx = r.usize()?;
                if widx >= sim_mem::BLOCK_WORDS {
                    return Err(SnapError::Corrupt("live-update word index"));
                }
                let bit = 1u16 << widx;
                recs.live |= bit;
                if r.bool()? {
                    recs.referenced |= bit;
                }
            }
            if recs.live == 0 {
                return Err(SnapError::Corrupt("empty live-update row"));
            }
            self.live_updates.insert((n, b), recs);
        }
        decode_report(r, &mut self.report)
    }
}

fn encode_miss_stats(w: &mut SnapWriter, m: &MissStats) {
    for v in [m.cold, m.true_sharing, m.false_sharing, m.eviction, m.drop, m.exclusive_requests] {
        w.u64(v);
    }
}

fn decode_miss_stats(r: &mut SnapReader<'_>) -> Result<MissStats, SnapError> {
    Ok(MissStats {
        cold: r.u64()?,
        true_sharing: r.u64()?,
        false_sharing: r.u64()?,
        eviction: r.u64()?,
        drop: r.u64()?,
        exclusive_requests: r.u64()?,
    })
}

fn encode_update_stats(w: &mut SnapWriter, u: &UpdateStats) {
    for v in [u.true_sharing, u.false_sharing, u.proliferation, u.replacement, u.termination, u.drop] {
        w.u64(v);
    }
}

fn decode_update_stats(r: &mut SnapReader<'_>) -> Result<UpdateStats, SnapError> {
    Ok(UpdateStats {
        true_sharing: r.u64()?,
        false_sharing: r.u64()?,
        proliferation: r.u64()?,
        replacement: r.u64()?,
        termination: r.u64()?,
        drop: r.u64()?,
    })
}

/// Report counters travel by registration index; names come from the
/// restore target's own registrations.
fn encode_report(w: &mut SnapWriter, rep: &TrafficReport) {
    encode_miss_stats(w, &rep.misses);
    encode_update_stats(w, &rep.updates);
    w.u64(rep.shared_reads);
    w.u64(rep.shared_writes);
    w.u64(rep.shared_atomics);
    w.usize(rep.by_structure.len());
    for s in &rep.by_structure {
        encode_miss_stats(w, &s.misses);
        encode_update_stats(w, &s.updates);
    }
}

fn decode_report(r: &mut SnapReader<'_>, rep: &mut TrafficReport) -> Result<(), SnapError> {
    rep.misses = decode_miss_stats(r)?;
    rep.updates = decode_update_stats(r)?;
    rep.shared_reads = r.u64()?;
    rep.shared_writes = r.u64()?;
    rep.shared_atomics = r.u64()?;
    let n = r.usize()?;
    if n != rep.by_structure.len() {
        return Err(SnapError::Corrupt("structure registration count mismatch"));
    }
    for s in rep.by_structure.iter_mut() {
        s.misses = decode_miss_stats(r)?;
        s.updates = decode_update_stats(r)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classifier() -> Classifier {
        Classifier::new(Geometry::new(4))
    }

    const B: Addr = 0x1000; // block base
    const W0: Addr = 0x1000;
    const W1: Addr = 0x1004;

    #[test]
    fn first_touch_is_cold() {
        let mut c = classifier();
        assert_eq!(c.classify_miss(0, W0, 10), MissClass::Cold);
        assert_eq!(c.report().misses.cold, 1);
    }

    #[test]
    fn invalidation_on_same_word_is_true_sharing() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        // Node 1 writes W0; node 0's copy dies.
        c.word_written(1, W0, 100);
        c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W0, writer: 1 }, 101);
        assert_eq!(c.classify_miss(0, W0, 200), MissClass::TrueSharing);
    }

    #[test]
    fn invalidation_on_other_word_is_false_sharing() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        c.word_written(1, W1, 100);
        c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W1, writer: 1 }, 101);
        assert_eq!(c.classify_miss(0, W0, 200), MissClass::FalseSharing);
    }

    #[test]
    fn later_write_to_missed_word_upgrades_to_true_sharing() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        // Invalidated by a write to W1, but before node 0 re-reads W0,
        // node 2 also writes W0: the miss fetches genuinely new data.
        c.word_written(1, W1, 100);
        c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W1, writer: 1 }, 101);
        c.word_written(2, W0, 150);
        assert_eq!(c.classify_miss(0, W0, 200), MissClass::TrueSharing);
    }

    #[test]
    fn own_write_does_not_make_true_sharing() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        c.word_written(1, W1, 100);
        c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W1, writer: 1 }, 101);
        // Node 0's own (earlier) write to W0 is not evidence of sharing.
        c.word_written(0, W0, 150);
        assert_eq!(c.classify_miss(0, W0, 200), MissClass::FalseSharing);
    }

    #[test]
    fn eviction_and_drop_misses() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        c.copy_lost(0, BlockAddr(B), LossCause::Eviction, 10);
        assert_eq!(c.classify_miss(0, W0, 20), MissClass::Eviction);
        c.copy_acquired(0, BlockAddr(B));
        c.copy_lost(0, BlockAddr(B), LossCause::SelfInvalidate, 30);
        assert_eq!(c.classify_miss(0, W0, 40), MissClass::Drop);
    }

    #[test]
    fn update_consumed_by_reference_is_true_sharing() {
        let mut c = classifier();
        c.copy_acquired(0, BlockAddr(B));
        c.update_delivered(0, W0);
        c.word_referenced(0, W0);
        assert_eq!(c.report().updates.true_sharing, 1);
        assert_eq!(c.report().updates.total(), 1);
    }

    #[test]
    fn overwritten_unreferenced_update_is_proliferation() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        c.update_delivered(0, W0); // overwrites the first
        assert_eq!(c.report().updates.proliferation, 1);
        c.finish();
        // The second record terminates.
        assert_eq!(c.report().updates.termination, 1);
    }

    #[test]
    fn overwritten_update_with_block_activity_is_false_sharing() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        c.word_referenced(0, W1); // touches another word of the block
        c.update_delivered(0, W0);
        assert_eq!(c.report().updates.false_sharing, 1);
    }

    #[test]
    fn replaced_block_yields_replacement_updates() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        c.update_delivered(0, W1);
        c.copy_lost(0, BlockAddr(B), LossCause::Eviction, 10);
        assert_eq!(c.report().updates.replacement, 2);
    }

    #[test]
    fn drop_update_classified_directly() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        // The 4th update trips the threshold; protocol reports it directly
        // and invalidates the block.
        c.update_caused_drop(0, W1);
        c.copy_lost(0, BlockAddr(B), LossCause::SelfInvalidate, 10);
        let u = c.report().updates;
        assert_eq!(u.drop, 1);
        assert_eq!(u.proliferation, 1, "the older live record dies useless");
    }

    #[test]
    fn termination_vs_false_at_end() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        c.update_delivered(1, W0);
        c.word_referenced(1, W1);
        c.finish();
        let u = c.report().updates;
        assert_eq!(u.termination, 1, "node 0's record never saw block activity");
        assert_eq!(u.false_sharing, 1, "node 1 touched the block elsewhere");
    }

    #[test]
    fn reference_only_consumes_matching_word() {
        let mut c = classifier();
        c.update_delivered(0, W0);
        c.word_referenced(0, W1);
        assert_eq!(c.report().updates.true_sharing, 0);
        c.word_referenced(0, W0);
        assert_eq!(c.report().updates.true_sharing, 1);
        // A second reference does not double count.
        c.word_referenced(0, W0);
        assert_eq!(c.report().updates.true_sharing, 1);
    }

    #[test]
    fn refill_clears_loss_record() {
        let mut c = classifier();
        c.classify_miss(0, W0, 0);
        c.copy_acquired(0, BlockAddr(B));
        c.copy_lost(0, BlockAddr(B), LossCause::Eviction, 5);
        c.classify_miss(0, W0, 10);
        c.copy_acquired(0, BlockAddr(B));
        // Copy present again; a (hypothetical) re-miss with no loss recorded
        // falls back to cold classification.
        assert_eq!(c.classify_miss(0, W0, 20), MissClass::Cold);
    }

    #[test]
    #[should_panic(expected = "finish called twice")]
    fn finish_twice_panics() {
        let mut c = classifier();
        c.finish();
        c.finish();
    }

    #[test]
    fn state_round_trips_and_resumes_identically() {
        // Build two classifiers through the same registration path, drive
        // one partway, checkpoint it into the other, then drive both through
        // identical further events: final reports must match exactly.
        let build = || {
            let mut c = Classifier::new(Geometry::new(4));
            c.register_structure("lock", B, 2);
            c
        };
        let mut a = build();
        let mut b = build();
        a.classify_miss(0, W0, 0);
        a.copy_acquired(0, BlockAddr(B));
        a.word_written(1, W0, 100);
        a.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W0, writer: 1 }, 101);
        a.copy_lost(2, BlockAddr(B), LossCause::Eviction, 102);
        a.update_delivered(0, W1);
        a.update_delivered(3, W0);
        a.count_read();
        a.count_write();
        a.count_atomic();

        let mut w = sim_engine::SnapWriter::new();
        a.encode_state(&mut w);
        let bytes = w.into_vec();
        let mut r = sim_engine::SnapReader::new(&bytes);
        b.restore_state(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");

        // The re-encoded state is byte-identical (deterministic order).
        let mut w2 = sim_engine::SnapWriter::new();
        b.encode_state(&mut w2);
        assert_eq!(bytes, w2.into_vec(), "re-encode is byte-identical");

        for c in [&mut a, &mut b] {
            assert_eq!(c.classify_miss(0, W0, 200), MissClass::TrueSharing);
            c.word_referenced(0, W1); // consumes the live update
            c.classify_miss(2, W0, 210);
            c.finish();
        }
        assert_eq!(a.report().misses, b.report().misses);
        assert_eq!(a.report().updates, b.report().updates);
        assert_eq!(a.report().shared_reads, b.report().shared_reads);
        assert_eq!(a.report().by_structure[0].misses, b.report().by_structure[0].misses);
    }

    /// One `(node, block)` copy walked through every live-record
    /// transition — deliver, re-deliver, read-consume, sibling read and
    /// write, each [`LossCause`], and `finish` — with the counts checked
    /// after each step. Midway, with records live on several words, the
    /// checkpoint encoding must round-trip byte for byte.
    #[test]
    fn live_update_records_walk_every_transition() {
        fn counts(c: &Classifier) -> [u64; 5] {
            let u = c.report().updates;
            [u.true_sharing, u.false_sharing, u.proliferation, u.replacement, u.termination]
        }
        let (w2, w3, w5) = (B + 8, B + 12, B + 20);
        let mut c = classifier();
        // Re-delivery kills the unreferenced older record: proliferation.
        c.update_delivered(0, W0);
        c.update_delivered(0, W0);
        assert_eq!(counts(&c), [0, 0, 1, 0, 0]);
        // A sibling read marks it referenced; re-delivery is false sharing.
        c.word_referenced(0, W1);
        c.update_delivered(0, W0);
        assert_eq!(counts(&c), [0, 1, 1, 0, 0]);
        // Reading the word consumes the record once: true sharing.
        c.word_referenced(0, W0);
        c.word_referenced(0, W0);
        assert_eq!(counts(&c), [1, 1, 1, 0, 0]);
        // A write marks only sibling records; an external invalidation
        // then kills both, split by that evidence.
        c.update_delivered(0, W1);
        c.update_delivered(0, w2);
        c.word_write_referenced(0, W1);
        c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: w3, writer: 1 }, 10);
        assert_eq!(counts(&c), [1, 2, 2, 0, 0]);
        // Self-invalidation (a drop or flush) splits the same way.
        c.update_delivered(0, w3);
        c.update_delivered(0, w5);
        c.word_write_referenced(0, w5);
        c.copy_lost(0, BlockAddr(B), LossCause::SelfInvalidate, 20);
        assert_eq!(counts(&c), [1, 3, 3, 0, 0]);
        // Eviction turns every live record into a replacement update.
        c.update_delivered(0, W0);
        c.update_delivered(0, w2);
        c.word_write_referenced(0, W0);
        c.copy_lost(0, BlockAddr(B), LossCause::Eviction, 30);
        assert_eq!(counts(&c), [1, 3, 3, 2, 0]);
        // Live on several words of two copies at checkpoint time.
        c.update_delivered(0, W1);
        c.update_delivered(0, w3);
        c.update_delivered(0, w5);
        c.word_write_referenced(0, w3);
        c.update_delivered(2, w2);
        let mut w = sim_engine::SnapWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_vec();
        let mut restored = classifier();
        let mut r = sim_engine::SnapReader::new(&bytes);
        restored.restore_state(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        let mut again = sim_engine::SnapWriter::new();
        restored.encode_state(&mut again);
        assert_eq!(bytes, again.into_vec(), "encode → restore → encode is byte-identical");
        // At the end, referenced records are false sharing, the rest
        // terminate: W1 and w5 were referenced by the write to w3.
        for c in [&mut c, &mut restored] {
            c.finish();
            assert_eq!(counts(c), [1, 5, 3, 2, 2]);
        }
    }

    #[test]
    fn restore_rejects_structure_count_mismatch() {
        let mut a = Classifier::new(Geometry::new(4));
        a.register_structure("lock", B, 1);
        let mut w = sim_engine::SnapWriter::new();
        a.encode_state(&mut w);
        let bytes = w.into_vec();
        let mut plain = Classifier::new(Geometry::new(4)); // no registrations
        let mut r = sim_engine::SnapReader::new(&bytes);
        assert!(plain.restore_state(&mut r).is_err(), "registration paths differ");
    }

    #[test]
    fn lineage_is_passive_and_mirrors_balance() {
        let mut plain = classifier();
        let mut observed = classifier();
        observed.enable_observation();
        observed.register_structure("w0", W0, 1);
        for c in [&mut plain, &mut observed] {
            c.classify_miss(0, W0, 0);
            c.copy_acquired(0, BlockAddr(B));
            c.word_written(1, W0, 100);
            c.copy_lost(0, BlockAddr(B), LossCause::External { word_addr: W0, writer: 1 }, 101);
            c.classify_miss(0, W0, 200);
            c.update_delivered(0, W1);
            c.update_delivered(0, W1);
            c.exclusive_request(2, BlockAddr(B));
            c.finish();
        }
        assert_eq!(plain.report().misses, observed.report().misses);
        assert_eq!(plain.report().updates, observed.report().updates);
        let misses = observed.report().misses;
        let updates = observed.report().updates;
        let (lin, _) = observed.take_observation().expect("observation enabled");
        assert_eq!(lin.miss_totals(), misses, "per-block miss mirrors balance");
        assert_eq!(lin.update_totals(), updates, "per-block update mirrors balance");
        assert!(lin.blocks[0].provenance.is_some(), "true-sharing miss carries its chain");
        assert_eq!(
            lin.blocks[0].label.as_deref(),
            Some("w0"),
            "blocks take the classifier's structure names"
        );
    }
}

#[cfg(test)]
mod attribution_tests {
    use super::*;

    const B: Addr = 0x1000;

    #[test]
    fn traffic_attributes_to_registered_ranges() {
        let mut c = Classifier::new(Geometry::new(4));
        c.register_structure("counter", B, 1);
        c.register_structure("flag", B + 4, 1);
        // A miss on the counter word.
        c.classify_miss(0, B, 0);
        // An update on the flag word, consumed.
        c.update_delivered(1, B + 4);
        c.word_referenced(1, B + 4);
        // An update outside any range.
        c.update_delivered(1, B + 0x100);
        c.word_referenced(1, B + 0x100);
        let r = c.finish();
        assert_eq!(r.by_structure.len(), 2);
        assert_eq!(r.by_structure[0].name, "counter");
        assert_eq!(r.by_structure[0].misses.cold, 1);
        assert_eq!(r.by_structure[0].updates.total(), 0);
        assert_eq!(r.by_structure[1].name, "flag");
        assert_eq!(r.by_structure[1].updates.true_sharing, 1);
        // Global totals include the unattributed update.
        assert_eq!(r.updates.true_sharing, 2);
    }

    #[test]
    fn later_registration_wins_on_overlap() {
        let mut c = Classifier::new(Geometry::new(4));
        c.register_structure("whole-block", B, 16);
        c.register_structure("first-word", B, 1);
        c.classify_miss(0, B, 0); // first-word
        c.classify_miss(0, B + 4, 0); // whole-block
        let r = c.finish();
        assert_eq!(r.by_structure[1].misses.cold, 1, "first-word wins its overlap");
        assert_eq!(r.by_structure[0].misses.cold, 1, "rest of the block still attributed");
    }

    #[test]
    fn home_stats_mirror_update_totals() {
        let geom = Geometry::new(4);
        let mut plain = Classifier::new(geom);
        let mut observed = Classifier::new(geom);
        observed.enable_observation();
        for c in [&mut plain, &mut observed] {
            c.update_arrival(0, B, 1, false, 5);
            c.update_delivered(0, B);
            c.word_referenced(0, B);
            c.update_arrival(0, B + 4, 1, true, 6);
            c.update_caused_drop(0, B + 4);
            c.update_arrival(2, B + 8, 1, false, 7);
            c.update_delivered(2, B + 8); // survives to termination
            c.finish();
        }
        assert_eq!(plain.report().updates, observed.report().updates, "home stats are passive");
        let (_, h) = observed.take_observation().expect("observation enabled");
        let mut merged = UpdateStats::default();
        for s in &h.classified {
            merged.merge(s);
        }
        assert_eq!(merged, observed.report().updates, "per-home buckets balance the totals");
        let home = geom.home_of(B);
        assert_eq!(h.deliveries[home], (2, 1), "applied and dropped arrivals bucket by home");
        assert!(observed.take_observation().is_none(), "taking detaches");
    }

    #[test]
    fn drop_and_termination_updates_attribute_too() {
        let mut c = Classifier::new(Geometry::new(4));
        c.register_structure("s", B, 16);
        c.update_delivered(0, B);
        c.update_caused_drop(0, B + 4);
        c.copy_lost(0, BlockAddr(B), LossCause::SelfInvalidate, 1);
        c.update_delivered(2, B + 8); // survives to the end
        let r = c.finish();
        let s = &r.by_structure[0];
        assert_eq!(s.updates.drop, 1);
        assert_eq!(s.updates.proliferation, 1);
        assert_eq!(s.updates.termination, 1);
    }
}
