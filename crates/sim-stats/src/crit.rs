//! Critical-path and synchronization-episode profiling.
//!
//! Stall accounting says how many cycles each processor lost to each stall
//! class; the paper's argument (Sections 3–4) is about which of those
//! stalls *determined wall clock*: the handoff chain of a contended lock,
//! the last arriver of a barrier, the remote miss a release had to fund.
//! This module answers that question per run, with bounded memory.
//!
//! Its state lives in the one [`ObsCollector`] (built only when
//! `MachineConfig::obs` is on), and its facts are `ObsCollector` methods
//! defined here. They come from three kinds of choke points:
//!
//! * every processor state transition: the collector's one per-node
//!   cursor extends each node's chain as it charges the stall account, and
//!   yields the cumulative [`CycleAccount`]s used for windowed class
//!   deltas;
//! * the zero-cost `Instr::Sync` episode markers the kernels emit
//!   (acquire-attempt / acquired / released / barrier-arrive /
//!   barrier-depart), plus synthetic events for the magic lock/barrier
//!   family, yielding per-lock **handoff chains** (who held it, who got it
//!   next, handoff latency split into release-visibility vs. remote-miss
//!   vs. queue-wait using the existing stall classes) and per-barrier
//!   **episodes** (arrival imbalance, last-arriver identity,
//!   release-broadcast fanout latency);
//! * wait-ending causal edges (spin-loop exit, read-miss fill, atomic
//!   completion), resolved by the machine to the last writer of the
//!   spun/missed word via the classifier.
//!
//! On top of the event stream each node carries a **streaming chain
//! summary**: a decomposition of `[0, now)` into segments along the causal
//! path that ends at that node, each segment attributed to a stall class, a
//! program phase, a label (a registered structure, by the classifier's
//! index, or a lock or barrier), and the causal edge kind that started it.
//! At a wait-ending edge the waiter *adopts* the source node's chain
//! (last-to-arrive rule) plus a transfer segment covering the wait — no DAG
//! is retained; the chain is a bounded ring of recent segments plus
//! elided-cycle counters, and a whole-chain composition by class / phase /
//! label / edge. Labels get their names, merged by name, when the report is
//! built. By construction every chain's composition sums exactly to its
//! head cycle, so the final critical path reconciles against the stall
//! accounting: total chain cycles equal the wall clock and per-phase chain
//! cycles never exceed the phase's accounted wall clock (asserted in
//! `tests/crit_path.rs`).
//!
//! Everything is passive bookkeeping: obs-off runs build no collector and
//! are byte-identical.

use std::collections::{BTreeMap, VecDeque};

use sim_engine::{Cycle, NodeId};

use crate::json::Json;
use crate::obs::{CpuClass, CycleAccount, ObsCollector, CPU_CLASSES};

/// Cap on stored per-lock handoff and per-barrier episode records
/// (aggregates keep accumulating past it; only the record lists are
/// bounded).
pub const CRIT_RECORD_CAP: usize = 1 << 12;

/// Cap on the retained segment tail of one chain. Older segments are
/// compacted into the chain's elided-cycle counter; the composition
/// counters always cover the whole chain.
pub const CHAIN_SEGMENT_CAP: usize = 64;

/// The kind of wait a causal edge ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// A busy-wait spin loop observed the awaited value.
    SpinFill,
    /// A demand read miss was filled.
    ReadFill,
    /// An atomic operation completed.
    AtomicFill,
}

impl WaitKind {
    /// Stable edge name used in reports and trace arrows.
    pub fn edge(self) -> &'static str {
        match self {
            WaitKind::SpinFill => "spin-fill",
            WaitKind::ReadFill => "read-fill",
            WaitKind::AtomicFill => "atomic-fill",
        }
    }
}

/// One lock handoff: `from` released, `to` acquired next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    /// The lock id.
    pub lock: u32,
    /// The releasing (previous holder) node.
    pub from: NodeId,
    /// The acquiring node.
    pub to: NodeId,
    /// Cycle `from` released.
    pub released_at: Cycle,
    /// Cycle `to` observed itself as holder.
    pub acquired_at: Cycle,
    /// How long `from` held the lock.
    pub hold: u64,
    /// Cycles `to` waited before the release (funded by predecessors'
    /// holds, not by this handoff).
    pub queue_wait: u64,
    /// Release→acquire cycles `to` spent parked/sleeping waiting for the
    /// release to become visible (BarrierWait class).
    pub release_visibility: u64,
    /// Release→acquire cycles `to` spent in read/atomic stalls fetching the
    /// released word (ReadStall + AtomicStall classes).
    pub remote_miss: u64,
    /// Remainder of the release→acquire window (busy re-checks, local
    /// work, and — for an acquirer that only attempted after the release —
    /// the slack while the lock sat free).
    pub other: u64,
}

impl Handoff {
    /// The release→acquire latency this record splits.
    pub fn latency(&self) -> u64 {
        self.acquired_at.saturating_sub(self.released_at)
    }
}

/// One completed barrier episode (epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// The barrier id.
    pub barrier: u32,
    /// The epoch (0-based episode index).
    pub epoch: u64,
    /// First arrival cycle.
    pub first_arrive: Cycle,
    /// Last arrival cycle.
    pub last_arrive: Cycle,
    /// The node that arrived last (the one every other node waited for).
    pub last_arriver: NodeId,
    /// Last departure cycle.
    pub last_depart: Cycle,
}

impl Episode {
    /// Arrival imbalance: how long the earliest arriver waited for the
    /// latest (the paper's "barrier time is load imbalance" component).
    pub fn imbalance(&self) -> u64 {
        self.last_arrive.saturating_sub(self.first_arrive)
    }

    /// Release-broadcast fanout latency: last arrival to last departure.
    pub fn fanout(&self) -> u64 {
        self.last_depart.saturating_sub(self.last_arrive)
    }
}

/// What a chain segment is charged to besides its class and phase. Names
/// are resolved, and merged by name, when the report is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Label {
    /// A registered structure, by the classifier's registration index.
    Structure(usize),
    /// A lock (`lock<id>`).
    Lock(u32),
    /// A barrier (`barrier<id>`).
    Barrier(u32),
}

impl Label {
    fn name(self, structures: &[&str]) -> String {
        match self {
            Label::Structure(i) => structures[i].to_string(),
            Label::Lock(id) => format!("lock{id}"),
            Label::Barrier(id) => format!("barrier{id}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Seg {
    node: NodeId,
    class: CpuClass,
    start: Cycle,
    end: Cycle,
    phase: u16,
    label: Option<Label>,
    edge: Option<&'static str>,
    from: Option<NodeId>,
}

impl Seg {
    /// Node `node`'s own time `[start, end)` in `class` under `phase`.
    pub(crate) fn plain(node: NodeId, class: CpuClass, start: Cycle, end: Cycle, phase: u16) -> Self {
        Seg { node, class, start, end, phase, label: None, edge: None, from: None }
    }
}

/// A small map kept as a `Vec` sorted by key. A key stays once added,
/// even when its count drops back to 0, so reports list every key a chain
/// ever carried.
type SortedCounts<K> = Vec<(K, u64)>;

/// Adds `dt` to `key`'s count, inserting the key at 0 first when absent.
fn count_up<K: Ord + Copy>(counts: &mut SortedCounts<K>, key: K, dt: u64) {
    match counts.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(i) => counts[i].1 += dt,
        Err(i) => counts.insert(i, (key, dt)),
    }
}

/// Subtracts `dt` from `key`'s count (saturating; absent keys stay absent).
fn count_down<K: Ord + Copy>(counts: &mut SortedCounts<K>, key: K, dt: u64) {
    if let Ok(i) = counts.binary_search_by_key(&key, |&(k, _)| k) {
        counts[i].1 = counts[i].1.saturating_sub(dt);
    }
}

/// A streaming chain summary: a decomposition of `[0, head)` along one
/// causal path, with whole-chain composition counters and a bounded
/// segment tail.
#[derive(Debug)]
pub(crate) struct Chain {
    pub(crate) head: Cycle,
    by_class: CycleAccount,
    by_phase: SortedCounts<u16>,
    by_label: SortedCounts<Label>,
    by_edge: SortedCounts<&'static str>,
    segments: VecDeque<Seg>,
    elided: u64,
    cross_edges: u64,
}

impl Chain {
    pub(crate) fn new() -> Self {
        Chain {
            head: 0,
            by_class: CycleAccount::default(),
            by_phase: Vec::new(),
            by_label: Vec::new(),
            by_edge: Vec::new(),
            segments: VecDeque::new(),
            elided: 0,
            cross_edges: 0,
        }
    }

    /// Makes this chain a copy of `source` in its own buffers (`clone_from`
    /// reuses them), so adopting a chain on every causal wait allocates
    /// nothing once the buffers have grown.
    fn copy_from(&mut self, source: &Chain) {
        self.head = source.head;
        self.by_class = source.by_class;
        self.by_phase.clone_from(&source.by_phase);
        self.by_label.clone_from(&source.by_label);
        self.by_edge.clone_from(&source.by_edge);
        self.segments.clone_from(&source.segments);
        self.elided = source.elided;
        self.cross_edges = source.cross_edges;
    }

    pub(crate) fn push(&mut self, seg: Seg) {
        debug_assert!(seg.start == self.head, "chain segments must be contiguous");
        let dt = seg.end.saturating_sub(seg.start);
        if dt == 0 {
            return;
        }
        self.head = seg.end;
        self.by_class.add(seg.class, dt);
        count_up(&mut self.by_phase, seg.phase, dt);
        if let Some(l) = seg.label {
            count_up(&mut self.by_label, l, dt);
        }
        if let Some(e) = seg.edge {
            count_up(&mut self.by_edge, e, dt);
        }
        // Never extend across (or onto) an edge-carrying segment: keeping
        // edge segments unmerged means every counter contribution is
        // proportional to segment length, which `truncate` relies on.
        let extends = seg.edge.is_none()
            && self.segments.back().is_some_and(|last| {
                last.end == seg.start
                    && last.node == seg.node
                    && last.class == seg.class
                    && last.phase == seg.phase
                    && last.label == seg.label
                    && last.edge.is_none()
            });
        if extends {
            self.segments.back_mut().unwrap().end = seg.end;
        } else {
            if self.segments.len() == CHAIN_SEGMENT_CAP {
                let old = self.segments.pop_front().unwrap();
                self.elided += old.end - old.start;
            }
            self.segments.push_back(seg);
        }
    }

    /// Removes a segment's trailing `dt` cycles from the composition
    /// counters (exact because `push` never merges across class, phase,
    /// label, or edge boundaries).
    fn unaccount(&mut self, seg: &Seg, dt: u64) {
        self.by_class.sub(seg.class, dt);
        count_down(&mut self.by_phase, seg.phase, dt);
        if let Some(l) = seg.label {
            count_down(&mut self.by_label, l, dt);
        }
        if let Some(e) = seg.edge {
            count_down(&mut self.by_edge, e, dt);
        }
    }

    /// Rewinds the chain so it ends at `to`, un-accounting the truncated
    /// cycles. Returns `false` (chain unchanged) when `to` predates the
    /// retained tail — the compacted prefix cannot be restored.
    fn truncate(&mut self, to: Cycle) -> bool {
        if to >= self.head {
            return true;
        }
        let covered_from = self.segments.front().map_or(self.head, |s| s.start);
        if to < covered_from {
            return false;
        }
        while let Some(&last) = self.segments.back() {
            if last.start >= to {
                self.segments.pop_back();
                self.unaccount(&last, last.end - last.start);
                if last.from.is_some_and(|f| f != last.node) {
                    self.cross_edges -= 1;
                }
            } else {
                if last.end > to {
                    self.unaccount(&last, last.end - to);
                    self.segments.back_mut().unwrap().end = to;
                }
                break;
            }
        }
        self.head = to;
        true
    }
}

/// One lock's live state around the report it fills.
#[derive(Debug)]
struct LockState {
    holder: Option<(NodeId, Cycle)>,
    /// Attempt start + account snapshot per contending node, by node; the
    /// snapshot is re-taken at each release so Acquired can delta the
    /// release→acquire window by stall class.
    attempts: Vec<Option<(Cycle, CycleAccount)>>,
    last_release: Option<(NodeId, Cycle, u64)>,
    report: LockReport,
}

impl LockState {
    fn new(lock: u32, num_nodes: usize) -> Self {
        LockState {
            holder: None,
            attempts: vec![None; num_nodes],
            last_release: None,
            report: LockReport { lock, ..Default::default() },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct EpisodeAcc {
    arrivals: u32,
    departs: u32,
    first_arrive: Cycle,
    last_arrive: Cycle,
    last_arriver: NodeId,
    last_depart: Cycle,
}

/// One barrier's live state around the report it fills; the report's
/// `incomplete` count is the episodes still `open` at the end.
#[derive(Debug)]
struct BarrierState {
    arrive_epoch: Vec<u64>,
    depart_epoch: Vec<u64>,
    open: BTreeMap<u64, EpisodeAcc>,
    report: BarrierReport,
}

impl BarrierState {
    fn new(barrier: u32, num_nodes: usize) -> Self {
        BarrierState {
            arrive_epoch: vec![0; num_nodes],
            depart_epoch: vec![0; num_nodes],
            open: BTreeMap::new(),
            report: BarrierReport { barrier, last_arriver_counts: vec![0; num_nodes], ..Default::default() },
        }
    }
}

/// The profiler's state beyond the collector's per-node cursors and chains.
#[derive(Debug)]
pub(crate) struct CritState {
    locks: BTreeMap<u32, LockState>,
    barriers: BTreeMap<u32, BarrierState>,
    /// The chain an adopting node is assembled in before it swaps with the
    /// node's own, so adoption reuses buffers instead of cloning.
    scratch: Chain,
    last_halt: Option<(Cycle, NodeId)>,
}

impl CritState {
    pub(crate) fn new() -> Self {
        CritState {
            locks: BTreeMap::new(),
            barriers: BTreeMap::new(),
            scratch: Chain::new(),
            last_halt: None,
        }
    }

    /// Node `n` halted at `at`; the latest halt carries the critical path.
    pub(crate) fn note_halt(&mut self, n: NodeId, at: Cycle) {
        if self.last_halt.map_or(true, |(t, _)| at >= t) {
            self.last_halt = Some((at, n));
        }
    }

    fn lock(&mut self, lock: u32, num_nodes: usize) -> &mut LockState {
        self.locks.entry(lock).or_insert_with(|| LockState::new(lock, num_nodes))
    }

    fn barrier(&mut self, barrier: u32, num_nodes: usize) -> &mut BarrierState {
        self.barriers.entry(barrier).or_insert_with(|| BarrierState::new(barrier, num_nodes))
    }
}

impl ObsCollector {
    /// Replaces `n`'s chain with `src`'s chain filled to `src_at`, plus
    /// transfer segments covering `[.., now)` described by
    /// `(class, cycles)` pairs (in order; their sum is clamped to the
    /// window).
    #[allow(clippy::too_many_arguments)]
    fn merge_from(
        &mut self,
        n: NodeId,
        src: NodeId,
        src_at: Cycle,
        now: Cycle,
        splits: &[(CpuClass, u64)],
        edge: &'static str,
        label: Option<Label>,
    ) {
        self.nodes[n].attribute(n, now, true);
        let s = &self.nodes[src];
        let (src_class, src_phase) = (s.class, s.phase);
        self.crit.scratch.copy_from(&s.chain);
        let chain = &mut self.crit.scratch;
        if src_at > chain.head {
            let start = chain.head;
            chain.push(Seg::plain(src, src_class, start, src_at, src_phase));
        } else if !chain.truncate(src_at) {
            // The source ran so far past the causal event that its chain's
            // retained tail no longer reaches back to it; keep the waiter's
            // own (already contiguous) chain rather than adopt a rewind we
            // cannot account exactly.
            return;
        }
        let phase = self.nodes[n].phase;
        let mut at = chain.head;
        let mut first = true;
        for &(class, cycles) in splits {
            let end = at.saturating_add(cycles).min(now);
            if end > at {
                chain.push(Seg {
                    node: n,
                    class,
                    start: at,
                    end,
                    phase,
                    label,
                    edge: if first { Some(edge) } else { None },
                    from: if first { Some(src) } else { None },
                });
                first = false;
                at = end;
            }
        }
        if now > at {
            // Remainder not covered by the splits: the waiter's outgoing
            // class is the best attribution we have.
            let class = self.nodes[n].prev_class;
            chain.push(Seg {
                node: n,
                class,
                start: at,
                end: now,
                phase,
                label,
                edge: if first { Some(edge) } else { None },
                from: if first { Some(src) } else { None },
            });
        }
        chain.cross_edges += u64::from(src != n);
        std::mem::swap(&mut self.nodes[n].chain, &mut self.crit.scratch);
    }

    /// A wait by `n` ended at `at`: a spin loop exited, a read miss filled,
    /// or an atomic completed, on a word of the registered `structure` (the
    /// classifier's index, if any), causally after `writer`'s write at
    /// `write_at` (from the classifier's last-writer map). Call after the
    /// wait-ending `transition`.
    pub fn wait_ended(
        &mut self,
        n: NodeId,
        writer: NodeId,
        write_at: Cycle,
        structure: Option<usize>,
        kind: WaitKind,
        at: Cycle,
    ) {
        if writer == n || write_at > at {
            return;
        }
        let class = self.nodes[n].prev_class;
        let label = structure.map(Label::Structure);
        self.merge_from(n, writer, write_at, at, &[(class, u64::MAX)], kind.edge(), label);
    }

    // ------------------------------------------------------------------
    // Lock episodes
    // ------------------------------------------------------------------

    /// Node `n` starts contending for `lock` at `at`.
    pub fn lock_attempt(&mut self, n: NodeId, lock: u32, at: Cycle) {
        let snap = self.nodes[n].account_at(at);
        self.crit.lock(lock, self.nodes.len()).attempts[n] = Some((at, snap));
    }

    /// Node `n` observes itself as the holder of `lock` at `at`. Produces
    /// a handoff record (and a chain adoption from the releaser) when a
    /// release precedes this acquire.
    pub fn lock_acquired(&mut self, n: NodeId, lock: u32, at: Cycle) {
        let ls = self.crit.lock(lock, self.nodes.len());
        ls.report.acquires += 1;
        let attempt = ls.attempts[n].take();
        let release = ls.last_release.take();
        ls.holder = Some((n, at));
        let Some((from, released_at, hold)) = release else { return };
        let node = &self.nodes[n];
        let (attempt_at, snap) = attempt.unwrap_or_else(|| (at, node.account_at(released_at.min(at))));
        let end = node.account_at(at);
        let delta = |c: CpuClass| end.get(c).saturating_sub(snap.get(c));
        // The split covers the whole release→acquire window; when the
        // acquirer only showed up after the release, the pre-attempt slack
        // falls into `other` (the lock was free, nobody was waiting).
        let window = at.saturating_sub(released_at);
        let release_visibility = delta(CpuClass::BarrierWait).min(window);
        let remote_miss =
            (delta(CpuClass::ReadStall) + delta(CpuClass::AtomicStall)).min(window - release_visibility);
        let other = window - release_visibility - remote_miss;
        let rec = Handoff {
            lock,
            from,
            to: n,
            released_at,
            acquired_at: at,
            hold,
            queue_wait: released_at.saturating_sub(attempt_at),
            release_visibility,
            remote_miss,
            other,
        };
        self.merge_from(
            n,
            from,
            released_at,
            at,
            &[
                (CpuClass::BarrierWait, release_visibility),
                (CpuClass::ReadStall, remote_miss),
                (CpuClass::Busy, other),
            ],
            "handoff",
            Some(Label::Lock(lock)),
        );
        let r = &mut self.crit.lock(lock, self.nodes.len()).report;
        r.handoffs += 1;
        r.queue_wait += rec.queue_wait;
        r.release_visibility += release_visibility;
        r.remote_miss += remote_miss;
        r.other += other;
        r.max_latency = r.max_latency.max(rec.latency());
        if r.records.len() < CRIT_RECORD_CAP {
            r.records.push(rec);
        } else {
            r.records_dropped += 1;
        }
    }

    /// Node `n` gives up `lock` at `at`. Snapshots every pending
    /// contender's account so the next acquire can split the handoff
    /// window by stall class.
    pub fn lock_released(&mut self, n: NodeId, lock: u32, at: Cycle) {
        let ls = self.crit.lock(lock, self.nodes.len());
        let hold = match ls.holder.take() {
            Some((h, since)) if h == n => at.saturating_sub(since),
            other => {
                ls.holder = other;
                0
            }
        };
        ls.report.hold_cycles += hold;
        ls.last_release = Some((n, at, hold));
        for (node, attempt) in self.nodes.iter().zip(&mut ls.attempts) {
            if let Some((_, snap)) = attempt {
                *snap = node.account_at(at);
            }
        }
    }

    // ------------------------------------------------------------------
    // Barrier episodes
    // ------------------------------------------------------------------

    /// Node `n` reaches `barrier` at `at`.
    pub fn barrier_arrive(&mut self, n: NodeId, barrier: u32, at: Cycle) {
        let bs = self.crit.barrier(barrier, self.nodes.len());
        let epoch = bs.arrive_epoch[n];
        bs.arrive_epoch[n] += 1;
        let acc = bs.open.entry(epoch).or_insert(EpisodeAcc {
            arrivals: 0,
            departs: 0,
            first_arrive: at,
            last_arrive: at,
            last_arriver: n,
            last_depart: at,
        });
        acc.arrivals += 1;
        acc.first_arrive = acc.first_arrive.min(at);
        if at >= acc.last_arrive {
            acc.last_arrive = at;
            acc.last_arriver = n;
        }
    }

    /// Node `n` leaves `barrier` at `at` (saw the release). Adopts the
    /// last arriver's chain (the node everyone waited for) and closes the
    /// episode once every participant departed.
    pub fn barrier_depart(&mut self, n: NodeId, barrier: u32, at: Cycle) {
        let num_nodes = self.nodes.len();
        let bs = self.crit.barrier(barrier, num_nodes);
        let epoch = bs.depart_epoch[n];
        bs.depart_epoch[n] += 1;
        let Some(acc) = bs.open.get_mut(&epoch) else { return };
        acc.departs += 1;
        acc.last_depart = acc.last_depart.max(at);
        let complete = acc.arrivals == num_nodes as u32;
        let acc = *acc;
        let done = acc.departs == acc.arrivals && complete;
        if done {
            let rec = Episode {
                barrier,
                epoch,
                first_arrive: acc.first_arrive,
                last_arrive: acc.last_arrive,
                last_arriver: acc.last_arriver,
                last_depart: acc.last_depart,
            };
            bs.open.remove(&epoch);
            let r = &mut bs.report;
            r.episodes += 1;
            r.imbalance_cycles += rec.imbalance();
            r.fanout_cycles += rec.fanout();
            r.max_imbalance = r.max_imbalance.max(rec.imbalance());
            r.max_fanout = r.max_fanout.max(rec.fanout());
            r.last_arriver_counts[rec.last_arriver] += 1;
            if r.records.len() < CRIT_RECORD_CAP {
                r.records.push(rec);
            } else {
                r.records_dropped += 1;
            }
        }
        if complete && acc.last_arriver != n {
            self.merge_from(
                n,
                acc.last_arriver,
                acc.last_arrive,
                at,
                &[(CpuClass::BarrierWait, u64::MAX)],
                "barrier-release",
                Some(Label::Barrier(barrier)),
            );
        }
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    /// Freezes the profile once every chain is closed at `wall`, moving
    /// each lock's and barrier's report out. The critical path is the
    /// chain of the last-halting node; `structures` names the classifier's
    /// registered structures, by index.
    pub(crate) fn crit_report(&mut self, wall: Cycle, structures: &[&str]) -> CritReport {
        let crit_node = self.crit.last_halt.map(|(_, n)| n).unwrap_or(0);
        let chain = &self.nodes[crit_node].chain;
        let mut by_label: BTreeMap<String, u64> = BTreeMap::new();
        for &(label, cycles) in &chain.by_label {
            *by_label.entry(label.name(structures)).or_default() += cycles;
        }
        let critical_path = ChainReport {
            node: crit_node,
            wall,
            by_class: chain.by_class,
            by_phase: chain.by_phase.iter().copied().collect(),
            by_label,
            by_edge: chain.by_edge.iter().copied().collect(),
            cross_edges: chain.cross_edges,
            elided_cycles: chain.elided,
            segments: chain
                .segments
                .iter()
                .map(|s| ChainSegment {
                    node: s.node,
                    class: s.class,
                    start: s.start,
                    end: s.end,
                    phase: s.phase,
                    label: s.label.map(|l| l.name(structures)),
                    edge: s.edge,
                    from: s.from,
                })
                .collect(),
        };
        let locks = std::mem::take(&mut self.crit.locks).into_values().map(|ls| ls.report).collect();
        let barriers = std::mem::take(&mut self.crit.barriers)
            .into_values()
            .map(|bs| BarrierReport { incomplete: bs.open.len() as u64, ..bs.report })
            .collect();
        CritReport { wall_cycles: wall, locks, barriers, critical_path }
    }
}

/// One segment of the retained critical-path tail.
#[derive(Debug, Clone)]
pub struct ChainSegment {
    /// The node whose time the segment represents.
    pub node: NodeId,
    /// The stall class the cycles are attributed to.
    pub class: CpuClass,
    /// First cycle.
    pub start: Cycle,
    /// One past the last cycle.
    pub end: Cycle,
    /// The contributing node's program phase.
    pub phase: u16,
    /// Structure / sync-object label, when known.
    pub label: Option<String>,
    /// The causal edge kind that started the segment (cross-node arrow).
    pub edge: Option<&'static str>,
    /// The edge's source node.
    pub from: Option<NodeId>,
}

/// The run's critical path: a decomposition of `[0, wall)` along the
/// causal chain ending at the last-halting node.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// The node the chain ends at (the last to halt).
    pub node: NodeId,
    /// The wall clock the chain covers.
    pub wall: Cycle,
    /// Chain composition by stall class; sums exactly to `wall`.
    pub by_class: CycleAccount,
    /// Chain cycles per program phase; each entry is bounded by the stall
    /// accounting's phase total (asserted in `tests/crit_path.rs`).
    pub by_phase: BTreeMap<u16, u64>,
    /// Chain cycles per structure / sync-object label.
    pub by_label: BTreeMap<String, u64>,
    /// Chain cycles per causal-edge kind.
    pub by_edge: BTreeMap<&'static str, u64>,
    /// Cross-node causal edges adopted along the chain.
    pub cross_edges: u64,
    /// Cycles compacted out of the retained segment tail (still counted in
    /// every composition map).
    pub elided_cycles: u64,
    /// The retained segment tail, oldest first.
    pub segments: Vec<ChainSegment>,
}

/// Per-lock handoff analytics.
#[derive(Debug, Clone, Default)]
pub struct LockReport {
    /// The lock id.
    pub lock: u32,
    /// Successful acquires observed.
    pub acquires: u64,
    /// Handoffs (acquires preceded by another node's release).
    pub handoffs: u64,
    /// Total cycles the lock was held.
    pub hold_cycles: u64,
    /// Summed queue wait across handoffs.
    pub queue_wait: u64,
    /// Summed release-visibility cycles across handoffs.
    pub release_visibility: u64,
    /// Summed remote-miss cycles across handoffs.
    pub remote_miss: u64,
    /// Summed unclassified remainder across handoffs.
    pub other: u64,
    /// Largest single release→acquire latency.
    pub max_latency: u64,
    /// The first [`CRIT_RECORD_CAP`] handoff records.
    pub records: Vec<Handoff>,
    /// Records not stored once the cap was reached.
    pub records_dropped: u64,
}

impl LockReport {
    /// Summed release→acquire latency (the split components).
    pub fn handoff_cycles(&self) -> u64 {
        self.release_visibility + self.remote_miss + self.other
    }
}

/// Per-barrier episode analytics.
#[derive(Debug, Clone, Default)]
pub struct BarrierReport {
    /// The barrier id.
    pub barrier: u32,
    /// Completed episodes (every participant arrived and departed).
    pub episodes: u64,
    /// Episodes still open at the end of the run.
    pub incomplete: u64,
    /// Summed arrival imbalance across episodes.
    pub imbalance_cycles: u64,
    /// Summed release fanout across episodes.
    pub fanout_cycles: u64,
    /// Largest single-episode imbalance.
    pub max_imbalance: u64,
    /// Largest single-episode fanout.
    pub max_fanout: u64,
    /// How often each node was the last arriver.
    pub last_arriver_counts: Vec<u64>,
    /// The first [`CRIT_RECORD_CAP`] episode records.
    pub records: Vec<Episode>,
    /// Records not stored once the cap was reached.
    pub records_dropped: u64,
}

/// The frozen profiler output attached to [`crate::ObsReport::crit`].
#[derive(Debug, Clone)]
pub struct CritReport {
    /// Wall clock of the run.
    pub wall_cycles: Cycle,
    /// Per-lock handoff analytics, by lock id.
    pub locks: Vec<LockReport>,
    /// Per-barrier episode analytics, by barrier id.
    pub barriers: Vec<BarrierReport>,
    /// The run's critical path.
    pub critical_path: ChainReport,
}

impl CritReport {
    /// The report for a lock id.
    pub fn lock(&self, lock: u32) -> Option<&LockReport> {
        self.locks.iter().find(|l| l.lock == lock)
    }

    /// The report for a barrier id.
    pub fn barrier(&self, barrier: u32) -> Option<&BarrierReport> {
        self.barriers.iter().find(|b| b.barrier == barrier)
    }

    /// Serializes the report; phase ids resolve through `phase_label`.
    pub fn to_json(&self, phase_label: &dyn Fn(u16) -> String) -> Json {
        let locks = self
            .locks
            .iter()
            .map(|l| {
                Json::obj([
                    ("lock", Json::from(l.lock)),
                    ("acquires", Json::U64(l.acquires)),
                    ("handoffs", Json::U64(l.handoffs)),
                    ("hold_cycles", Json::U64(l.hold_cycles)),
                    ("queue_wait", Json::U64(l.queue_wait)),
                    ("release_visibility", Json::U64(l.release_visibility)),
                    ("remote_miss", Json::U64(l.remote_miss)),
                    ("other", Json::U64(l.other)),
                    ("max_latency", Json::U64(l.max_latency)),
                    ("records", Json::from(l.records.len())),
                    ("records_dropped", Json::U64(l.records_dropped)),
                ])
            })
            .collect();
        let barriers = self
            .barriers
            .iter()
            .map(|b| {
                Json::obj([
                    ("barrier", Json::from(b.barrier)),
                    ("episodes", Json::U64(b.episodes)),
                    ("incomplete", Json::U64(b.incomplete)),
                    ("imbalance_cycles", Json::U64(b.imbalance_cycles)),
                    ("fanout_cycles", Json::U64(b.fanout_cycles)),
                    ("max_imbalance", Json::U64(b.max_imbalance)),
                    ("max_fanout", Json::U64(b.max_fanout)),
                    (
                        "last_arriver_counts",
                        Json::Arr(b.last_arriver_counts.iter().map(|&c| Json::U64(c)).collect()),
                    ),
                    ("records", Json::from(b.records.len())),
                    ("records_dropped", Json::U64(b.records_dropped)),
                ])
            })
            .collect();
        let c = &self.critical_path;
        let segments = c
            .segments
            .iter()
            .map(|s| {
                let mut pairs = vec![
                    ("node".to_string(), Json::from(s.node)),
                    ("class".to_string(), Json::from(s.class.name())),
                    ("start".to_string(), Json::U64(s.start)),
                    ("end".to_string(), Json::U64(s.end)),
                    ("phase".to_string(), Json::from(phase_label(s.phase))),
                ];
                if let Some(l) = &s.label {
                    pairs.push(("label".to_string(), Json::from(l.as_str())));
                }
                if let Some(e) = s.edge {
                    pairs.push(("edge".to_string(), Json::from(e)));
                }
                if let Some(f) = s.from {
                    pairs.push(("from".to_string(), Json::from(f)));
                }
                Json::Obj(pairs)
            })
            .collect();
        let critical_path = Json::obj([
            ("node", Json::from(c.node)),
            ("wall", Json::U64(c.wall)),
            ("by_class", c.by_class.to_json()),
            ("by_phase", Json::obj(c.by_phase.iter().map(|(&p, &v)| (phase_label(p), Json::U64(v))))),
            ("by_label", Json::obj(c.by_label.iter().map(|(l, &v)| (l.clone(), Json::U64(v))))),
            ("by_edge", Json::obj(c.by_edge.iter().map(|(&e, &v)| (e, Json::U64(v))))),
            ("cross_edges", Json::U64(c.cross_edges)),
            ("elided_cycles", Json::U64(c.elided_cycles)),
            ("segments", Json::Arr(segments)),
        ]);
        Json::obj([
            ("wall_cycles", Json::U64(self.wall_cycles)),
            ("locks", Json::Arr(locks)),
            ("barriers", Json::Arr(barriers)),
            ("critical_path", critical_path),
        ])
    }
}

/// Checks the report's reconciliation invariants against a wall clock and
/// per-phase accounted totals; returns the first violation, if any. Used
/// by `tests/crit_path.rs` under all three protocols.
pub fn check_reconciliation(
    report: &CritReport,
    wall: Cycle,
    phase_totals: &BTreeMap<u16, CycleAccount>,
) -> Result<(), String> {
    let c = &report.critical_path;
    let total: u64 = CPU_CLASSES.iter().map(|&cl| c.by_class.get(cl)).sum();
    if total != wall {
        return Err(format!("chain by_class sums to {total}, wall is {wall}"));
    }
    let phase_sum: u64 = c.by_phase.values().sum();
    if phase_sum != wall {
        return Err(format!("chain by_phase sums to {phase_sum}, wall is {wall}"));
    }
    for (&p, &cycles) in &c.by_phase {
        let Some(acct) = phase_totals.get(&p) else {
            return Err(format!("chain phase {p} absent from accounting"));
        };
        if cycles > acct.total() {
            return Err(format!("chain phase {p} has {cycles} cycles, accounting saw only {}", acct.total()));
        }
    }
    let seg_sum: u64 = c.segments.iter().map(|s| s.end - s.start).sum();
    if seg_sum + c.elided_cycles != wall {
        return Err(format!(
            "segments ({seg_sum}) + elided ({}) don't cover the wall clock {wall}",
            c.elided_cycles
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crit(n: usize) -> ObsCollector {
        ObsCollector::new(sim_net::MeshShape::for_nodes(n), &[])
    }

    fn finish(c: ObsCollector, wall: Cycle) -> CritReport {
        c.finish_bare(wall).crit
    }

    #[test]
    fn chain_composition_sums_to_head() {
        let mut c = crit(1);
        c.transition(0, CpuClass::ReadStall, 10);
        c.set_phase(0, 1, 20);
        c.transition(0, CpuClass::Busy, 35);
        let r = finish(c, 50);
        let cp = &r.critical_path;
        assert_eq!(cp.by_class.total(), 50);
        assert_eq!(cp.by_class.get(CpuClass::Busy), 10 + 15);
        assert_eq!(cp.by_class.get(CpuClass::ReadStall), 25);
        assert_eq!(cp.by_phase[&0], 20);
        assert_eq!(cp.by_phase[&1], 30);
    }

    #[test]
    fn wait_ended_adopts_writer_chain() {
        let mut clf = crate::Classifier::new(sim_mem::Geometry::new(2));
        clf.enable_observation();
        clf.register_structure("flag", 0x100, 1);
        clf.register_structure("counter", 0x80, 1);
        let mut c = crit(2);
        // Node 1 spins from cycle 5; node 0 works, writes at 40.
        c.transition(1, CpuClass::BarrierWait, 5);
        c.transition(0, CpuClass::Busy, 40);
        // Spin exits at 60.
        c.transition(1, CpuClass::Busy, 60);
        c.wait_ended(1, 0, 40, clf.structure_of(0x100), WaitKind::SpinFill, 60);
        c.transition(0, CpuClass::Halted, 70);
        c.transition(1, CpuClass::Halted, 80);
        clf.finish();
        let r = c.finish(80, vec![Default::default(); 2], &mut clf).crit;
        let cp = &r.critical_path;
        assert_eq!(cp.node, 1, "last halter carries the path");
        assert_eq!(cp.by_class.total(), 80);
        // [0,40) came from node 0 (Busy), [40,60) is the adopted wait.
        assert_eq!(cp.by_class.get(CpuClass::Busy), 40 + 20);
        assert_eq!(cp.by_class.get(CpuClass::BarrierWait), 20, "transfer keeps the waiter's class");
        assert_eq!(cp.cross_edges, 1);
        assert_eq!(cp.by_edge["spin-fill"], 20);
        assert_eq!(cp.by_label.keys().collect::<Vec<_>>(), ["flag"], "labelled by the classifier's index");
        assert_eq!(cp.by_label["flag"], 20);
        let edge_seg = cp.segments.iter().find(|s| s.edge.is_some()).unwrap();
        assert_eq!(edge_seg.from, Some(0));
        assert_eq!(edge_seg.label.as_deref(), Some("flag"));
    }

    #[test]
    fn handoff_split_accounts_the_window() {
        let mut c = crit(2);
        // Node 0 holds [10,100); node 1 attempts at 20, parks at 30.
        c.lock_attempt(0, 7, 5);
        c.lock_acquired(0, 7, 10);
        c.lock_attempt(1, 7, 20);
        c.transition(1, CpuClass::BarrierWait, 30);
        c.lock_released(0, 7, 100);
        // Node 1 wakes at 120 (visibility), read-stalls to 150, holds at 160.
        c.transition(1, CpuClass::ReadStall, 120);
        c.transition(1, CpuClass::Busy, 150);
        c.lock_acquired(1, 7, 160);
        let r = finish(c, 200);
        let l = r.lock(7).expect("lock report");
        assert_eq!(l.acquires, 2);
        assert_eq!(l.handoffs, 1);
        assert_eq!(l.hold_cycles, 90);
        let h = &l.records[0];
        assert_eq!((h.from, h.to), (0, 1));
        assert_eq!(h.queue_wait, 80, "attempt 20 → release 100");
        assert_eq!(h.latency(), 60);
        assert_eq!(h.release_visibility, 20, "parked 100→120");
        assert_eq!(h.remote_miss, 30, "read stall 120→150");
        assert_eq!(h.other, 10, "busy 150→160");
    }

    /// Windowed replay aligns every cursor at the restore cycle: the
    /// chains, including one adopted from a node that has not moved since,
    /// cover the window and nothing before it.
    #[test]
    fn aligned_chains_cover_only_the_window() {
        let mut c = crit(2);
        c.align(0, CpuClass::Busy, 0, 100);
        c.align(1, CpuClass::BarrierWait, 0, 100);
        // Node 0 writes at 150 without a transition; node 1's spin exits.
        c.transition(1, CpuClass::Busy, 160);
        c.wait_ended(1, 0, 150, None, WaitKind::SpinFill, 160);
        c.transition(0, CpuClass::Halted, 170);
        c.transition(1, CpuClass::Halted, 180);
        let r = finish(c, 180);
        let cp = &r.critical_path;
        assert_eq!(cp.node, 1);
        assert_eq!(cp.by_class.total(), 80, "the window [100, 180)");
        assert_eq!(cp.segments.first().map(|s| s.start), Some(100));
        assert_eq!(cp.by_class.get(CpuClass::Busy), 50 + 20, "node 0 to the write, node 1 after the spin");
        assert_eq!(cp.by_class.get(CpuClass::BarrierWait), 10, "the adopted wait");
    }

    #[test]
    fn adopting_a_source_that_ran_ahead_rewinds_its_chain() {
        let mut c = crit(2);
        // The writer stores at 40 but keeps running: by the time the
        // waiter's spin exits at 60, the writer's chain is attributed out
        // to 100 — adoption must rewind it to the causal write.
        c.transition(1, CpuClass::BarrierWait, 5);
        c.transition(0, CpuClass::ReadStall, 70);
        c.transition(0, CpuClass::Busy, 100);
        c.transition(1, CpuClass::Busy, 60);
        c.wait_ended(1, 0, 40, None, WaitKind::SpinFill, 60);
        c.transition(0, CpuClass::Halted, 110);
        c.transition(1, CpuClass::Halted, 120);
        let r = finish(c, 120);
        let cp = &r.critical_path;
        assert_eq!(cp.node, 1);
        assert_eq!(cp.by_class.total(), 120, "rewound adoption still covers the run");
        // [0,40) writer Busy, [40,60) adopted wait, [60,120) waiter.
        assert_eq!(cp.by_class.get(CpuClass::BarrierWait), 20);
        assert_eq!(cp.by_class.get(CpuClass::ReadStall), 0, "the writer's post-write stall is cut");
        for w in cp.segments.windows(2) {
            assert_eq!(w[1].start, w[0].end, "chain stays contiguous");
        }
        assert_eq!(cp.segments.last().unwrap().end, 120);
    }

    #[test]
    fn barrier_episode_tracks_imbalance_and_last_arriver() {
        let mut c = crit(3);
        c.barrier_arrive(0, 0, 10);
        c.barrier_arrive(1, 0, 50);
        c.barrier_arrive(2, 0, 40);
        c.barrier_depart(1, 0, 55);
        c.barrier_depart(0, 0, 60);
        c.barrier_depart(2, 0, 70);
        let r = finish(c, 100);
        let b = r.barrier(0).expect("barrier report");
        assert_eq!(b.episodes, 1);
        assert_eq!(b.incomplete, 0);
        let e = &b.records[0];
        assert_eq!(e.last_arriver, 1);
        assert_eq!(e.imbalance(), 40);
        assert_eq!(e.fanout(), 20);
        assert_eq!(b.last_arriver_counts, vec![0, 1, 0]);
    }

    #[test]
    fn barrier_epochs_stay_separate_per_node() {
        let mut c = crit(2);
        for epoch in 0..3u64 {
            let t = epoch * 100;
            c.barrier_arrive(0, 0, t + 10);
            c.barrier_arrive(1, 0, t + 30);
            c.barrier_depart(0, 0, t + 40);
            c.barrier_depart(1, 0, t + 35);
        }
        let r = finish(c, 400);
        let b = r.barrier(0).unwrap();
        assert_eq!(b.episodes, 3);
        assert_eq!(b.imbalance_cycles, 3 * 20);
        assert_eq!(b.last_arriver_counts, vec![0, 3]);
    }

    #[test]
    fn segment_cap_elides_but_keeps_totals() {
        let mut c = crit(1);
        for i in 0..(CHAIN_SEGMENT_CAP as u64 + 20) {
            let t = i * 10;
            c.transition(0, CpuClass::ReadStall, t + 5);
            c.transition(0, CpuClass::Busy, t + 10);
        }
        let wall = (CHAIN_SEGMENT_CAP as u64 + 20) * 10;
        let r = finish(c, wall);
        let cp = &r.critical_path;
        assert_eq!(cp.segments.len(), CHAIN_SEGMENT_CAP);
        assert!(cp.elided_cycles > 0);
        let seg_sum: u64 = cp.segments.iter().map(|s| s.end - s.start).sum();
        assert_eq!(seg_sum + cp.elided_cycles, wall);
        assert_eq!(cp.by_class.total(), wall, "composition still covers the whole chain");
    }

    #[test]
    fn reconciliation_checker_accepts_and_rejects() {
        let mut c = crit(1);
        c.set_phase(0, 1, 30);
        c.transition(0, CpuClass::Halted, 90);
        let r = finish(c, 100);
        let mut totals: BTreeMap<u16, CycleAccount> = BTreeMap::new();
        totals.entry(0).or_default().add(CpuClass::Busy, 30);
        let mut p1 = CycleAccount::default();
        p1.add(CpuClass::Busy, 60);
        p1.add(CpuClass::Halted, 10);
        totals.insert(1, p1);
        assert_eq!(check_reconciliation(&r, 100, &totals), Ok(()));
        assert!(check_reconciliation(&r, 99, &totals).is_err());
        let mut starved = CycleAccount::default();
        starved.add(CpuClass::Busy, 1);
        totals.insert(1, starved);
        assert!(check_reconciliation(&r, 100, &totals).is_err());
    }

    #[test]
    fn report_json_renders_and_parses() {
        let mut c = crit(2);
        c.lock_attempt(1, 0, 5);
        c.lock_acquired(0, 0, 10);
        c.lock_released(0, 0, 40);
        c.lock_acquired(1, 0, 50);
        c.barrier_arrive(0, 0, 60);
        c.barrier_arrive(1, 0, 65);
        c.barrier_depart(0, 0, 70);
        c.barrier_depart(1, 0, 72);
        let r = finish(c, 100);
        let json = r.to_json(&|p| format!("ph{p}"));
        let parsed = Json::parse(&json.render()).unwrap();
        assert_eq!(
            parsed.get("locks").unwrap().as_arr().unwrap()[0].get("handoffs").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            parsed.get("barriers").unwrap().as_arr().unwrap()[0].get("episodes").and_then(Json::as_u64),
            Some(1)
        );
        let cp = parsed.get("critical_path").unwrap();
        assert_eq!(cp.get("wall").and_then(Json::as_u64), Some(100));
    }
}
