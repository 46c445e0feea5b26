//! Per-node protocol state and dispatch.

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_engine::{Cycle, NodeId};
use sim_mem::{
    Addr, BlockAddr, Cache, CacheConfig, DirEntry, DirState, Directory, Geometry, LineState, MemStore,
    SharerSet, Word,
};
use sim_stats::{Classifier, LossCause};

use crate::effects::Effects;
use crate::msg::{AtomicOp, Msg, MsgKind};
use crate::{upd, wi};

/// Moves `block`'s directory entry `e` to `to` and reports the change,
/// caused by `actor`'s `cause` message, to lineage (which skips a
/// self-loop). Every directory state write goes through here, so lineage
/// sees every stable-state change.
pub(crate) fn set_dir_state(
    e: &mut DirEntry<Msg>,
    block: BlockAddr,
    to: DirState,
    actor: NodeId,
    cause: &'static str,
    clf: &mut Classifier,
    now: Cycle,
) {
    let from = e.state;
    e.state = to;
    clf.dir_transition(block, from.name(), to.name(), actor, cause, now);
}

/// Which coherence protocol the machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// DASH-style write invalidate with release consistency.
    WriteInvalidate,
    /// Pure update (write-through with home-multicast updates).
    PureUpdate,
    /// Competitive update (pure update + per-line drop counters).
    CompetitiveUpdate,
}

impl Protocol {
    /// Whether this is one of the two update-based protocols.
    pub fn is_update_based(self) -> bool {
        matches!(self, Protocol::PureUpdate | Protocol::CompetitiveUpdate)
    }

    /// Short label used in reports ("i", "u", "c" in the paper's figures).
    pub fn label(self) -> &'static str {
        match self {
            Protocol::WriteInvalidate => "i",
            Protocol::PureUpdate => "u",
            Protocol::CompetitiveUpdate => "c",
        }
    }
}

/// Protocol parameters.
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Active protocol.
    pub protocol: Protocol,
    /// Cache sizing.
    pub cache: CacheConfig,
    /// Competitive-update drop threshold (paper: 4).
    pub cu_threshold: u32,
    /// Pure-update private-data optimization (paper: on).
    pub pu_private_opt: bool,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            protocol: Protocol::WriteInvalidate,
            cache: CacheConfig::default(),
            cu_threshold: 4,
            pu_private_opt: true,
        }
    }
}

/// An outstanding CPU read (the processor is stalled on it).
#[derive(Debug, Clone, Copy)]
pub struct PendingRead {
    /// Word being read.
    pub addr: Addr,
    /// When set, no request message was sent: the read rides on the fill of
    /// an outstanding write/atomic transaction to the same block.
    pub piggyback: bool,
}

/// The write-buffer head transaction in flight.
#[derive(Debug, Clone, Copy)]
pub struct PendingWrite {
    /// Word being written.
    pub addr: Addr,
    /// Value to store.
    pub val: Word,
}

/// An outstanding atomic operation (the processor is stalled on it).
#[derive(Debug, Clone, Copy)]
pub struct PendingAtomic {
    /// Target word.
    pub addr: Addr,
    /// Operation.
    pub op: AtomicOp,
    /// First operand.
    pub operand: Word,
    /// Second operand (CAS new value).
    pub operand2: Word,
}

/// All protocol state of one node: its cache and in-flight transactions on
/// the cache side, and the directory + memory of its home region.
#[derive(Debug)]
pub struct ProtoNode {
    /// This node's id.
    pub id: NodeId,
    /// Address-space geometry.
    pub geom: Geometry,
    /// Protocol parameters.
    pub cfg: ProtoConfig,
    /// The node's data cache.
    pub cache: Cache,
    /// Directory for blocks homed at this node.
    pub dir: Directory<Msg>,
    /// Memory for blocks homed at this node.
    pub mem: MemStore,
    /// Outstanding CPU read.
    pub pending_read: Option<PendingRead>,
    /// Outstanding write transaction (write-buffer head).
    pub pending_write: Option<PendingWrite>,
    /// Outstanding atomic operation.
    pub pending_atomic: Option<PendingAtomic>,
    /// Acks this node must eventually collect (cumulative).
    pub acks_expected: u64,
    /// Acks collected so far (cumulative).
    pub acks_received: u64,
    /// `UpdateWrite`s sent whose `UpdateInfo` has not yet arrived.
    pub update_infos_pending: u64,
}

impl ProtoNode {
    /// Creates the protocol state for node `id`.
    pub fn new(id: NodeId, geom: Geometry, cfg: ProtoConfig) -> Self {
        ProtoNode {
            id,
            geom,
            cache: Cache::new(cfg.cache),
            cfg,
            dir: Directory::new(),
            mem: MemStore::new(),
            pending_read: None,
            pending_write: None,
            pending_atomic: None,
            acks_expected: 0,
            acks_received: 0,
            update_infos_pending: 0,
        }
    }

    /// Writes the node's state to a checkpoint: cache, directory (its
    /// deferred requests as [`Msg`]s), memory, the three in-flight
    /// transactions and the ack counters. Identity, geometry and config
    /// come from the restore target.
    pub fn encode(&self, w: &mut SnapWriter) {
        self.cache.encode(w);
        self.dir.encode(w, Msg::encode);
        self.mem.encode(w);
        w.bool(self.pending_read.is_some());
        if let Some(p) = self.pending_read {
            w.u32(p.addr);
            w.bool(p.piggyback);
        }
        w.bool(self.pending_write.is_some());
        if let Some(p) = self.pending_write {
            w.u32(p.addr);
            w.u32(p.val);
        }
        w.bool(self.pending_atomic.is_some());
        if let Some(p) = self.pending_atomic {
            w.u32(p.addr);
            w.u8(p.op.tag());
            w.u32(p.operand);
            w.u32(p.operand2);
        }
        w.u64(self.acks_expected);
        w.u64(self.acks_received);
        w.u64(self.update_infos_pending);
    }

    /// Restores into this node the state [`ProtoNode::encode`] wrote.
    pub fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cache.decode(r)?;
        self.dir = Directory::decode(r, Msg::decode)?;
        self.mem = MemStore::decode(r)?;
        self.pending_read =
            if r.bool()? { Some(PendingRead { addr: r.u32()?, piggyback: r.bool()? }) } else { None };
        self.pending_write =
            if r.bool()? { Some(PendingWrite { addr: r.u32()?, val: r.u32()? }) } else { None };
        self.pending_atomic = if r.bool()? {
            Some(PendingAtomic {
                addr: r.u32()?,
                op: AtomicOp::from_tag(r.u8()?)?,
                operand: r.u32()?,
                operand2: r.u32()?,
            })
        } else {
            None
        };
        self.acks_expected = r.u64()?;
        self.acks_received = r.u64()?;
        self.update_infos_pending = r.u64()?;
        Ok(())
    }

    /// Home node of `addr`.
    pub fn home_of(&self, addr: Addr) -> NodeId {
        self.geom.home_of(addr)
    }

    /// Builds a message from this node.
    pub fn msg(&self, dst: NodeId, addr: Addr, kind: MsgKind) -> Msg {
        Msg { src: self.id, dst, addr, kind }
    }

    /// Whether a release fence may complete: no write or atomic in flight
    /// and all expected acks collected. (The machine additionally requires
    /// an empty write buffer.)
    pub fn sync_complete(&self) -> bool {
        self.pending_write.is_none()
            && self.pending_atomic.is_none()
            && self.update_infos_pending == 0
            && self.acks_expected == self.acks_received
    }

    /// Installs a copy of `data` as `block`, handling the direct-mapped
    /// victim: classification, dirty writeback, clean replacement
    /// notification.
    pub fn fill_block(
        &mut self,
        block: BlockAddr,
        data: &[Word],
        state: LineState,
        clf: &mut Classifier,
        now: Cycle,
        fx: &mut Effects,
    ) {
        if let Some(victim) = self.cache.fill(block, data, state) {
            clf.copy_lost(self.id, victim.block, LossCause::Eviction, now);
            let home = self.home_of(victim.block.0);
            let kind = match victim.state {
                LineState::Modified | LineState::PrivateUpd => {
                    MsgKind::WriteBack { data: Box::new(victim.data) }
                }
                LineState::Shared => MsgKind::SharerDrop,
            };
            fx.sends.push(self.msg(home, victim.block.0, kind));
            fx.touched_blocks.push(victim.block);
        }
        clf.copy_acquired(self.id, block);
        fx.touched_blocks.push(block);
    }

    /// Completes a piggybacked read (one that waited on this block's fill
    /// instead of sending its own request), if any.
    pub fn complete_piggyback_read(&mut self, block: BlockAddr) -> Option<Word> {
        if let Some(pr) = self.pending_read {
            if pr.piggyback && self.geom.block_of(pr.addr) == block {
                let val =
                    self.cache.read_word(&self.geom, pr.addr).expect("piggybacked read after fill must hit");
                self.pending_read = None;
                return Some(val);
            }
        }
        None
    }

    /// Whether an outstanding write or atomic targets `block` (so a read
    /// miss to it should piggyback rather than issue its own request).
    pub fn has_pending_store_on(&self, block: BlockAddr) -> bool {
        let g = &self.geom;
        self.pending_write.map(|w| g.block_of(w.addr)) == Some(block)
            || self.pending_atomic.map(|a| g.block_of(a.addr)) == Some(block)
    }

    // ------------------------------------------------------------------
    // Protocol dispatch
    // ------------------------------------------------------------------

    /// CPU issues a shared read of `addr`. Sets `read_done` on a hit;
    /// otherwise records the pending read and emits the miss request.
    /// (The machine accounts the reference in the classifier.) Every
    /// protocol reads alike: a hit also resets the line's competitive-update
    /// counter, which only CU ever raises.
    pub fn cpu_read(&mut self, addr: Addr, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
        if let Some(v) = self.cache.reference_word(&self.geom, addr) {
            fx.read_done = Some(v);
            return;
        }
        clf.classify_miss(self.id, addr, now);
        debug_assert!(self.pending_read.is_none(), "one outstanding read per CPU");
        let piggyback = self.has_pending_store_on(self.geom.block_of(addr));
        self.pending_read = Some(PendingRead { addr, piggyback });
        if !piggyback {
            fx.sends.push(self.msg(self.home_of(addr), addr, MsgKind::ReadShared));
        }
    }

    /// The write buffer issues its head write.
    pub fn issue_write(&mut self, addr: Addr, val: Word, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
        match self.cfg.protocol {
            Protocol::WriteInvalidate => wi::issue_write(self, addr, val, clf, now, fx),
            _ => upd::issue_write(self, addr, val, clf, now, fx),
        }
    }

    /// CPU issues an atomic operation (the machine has already drained the
    /// write buffer and settled acks — atomics fence first).
    #[allow(clippy::too_many_arguments)]
    pub fn cpu_atomic(
        &mut self,
        op: AtomicOp,
        addr: Addr,
        operand: Word,
        operand2: Word,
        clf: &mut Classifier,
        now: Cycle,
        fx: &mut Effects,
    ) {
        match self.cfg.protocol {
            Protocol::WriteInvalidate => wi::cpu_atomic(self, op, addr, operand, operand2, clf, now, fx),
            _ => upd::cpu_atomic(self, op, addr, operand, operand2, clf, now, fx),
        }
    }

    /// CPU issues a user-level block flush of the block containing `addr`
    /// (the PowerPC-style instruction the update-conscious MCS lock uses).
    pub fn cpu_flush(&mut self, addr: Addr, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
        let block = self.geom.block_of(addr);
        let Some((state, data)) = self.cache.invalidate(block) else {
            return;
        };
        let home = self.home_of(addr);
        clf.copy_lost(self.id, block, LossCause::SelfInvalidate, now);
        let kind = match state {
            LineState::Modified | LineState::PrivateUpd => MsgKind::WriteBack { data: Box::new(data) },
            LineState::Shared => MsgKind::SharerDrop,
        };
        fx.sends.push(self.msg(home, block.0, kind));
        fx.touched_blocks.push(block);
    }

    /// Handles a message delivered to this node (home-side messages arrive
    /// here after their memory-module service).
    pub fn handle_msg(&mut self, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
        // Messages whose handling is identical under every protocol.
        match &msg.kind {
            MsgKind::SharerDrop | MsgKind::StopUpdate => self.home_sharer_drop(msg, clf, now, fx),
            MsgKind::WriteBack { .. } => self.home_writeback(msg, clf, now, fx),
            MsgKind::Data { data } | MsgKind::DataFwd { data } => {
                let block = self.geom.block_of(msg.addr);
                self.fill_block(block, data, LineState::Shared, clf, now, fx);
                let pr = self.pending_read.take().expect("Data reply without pending read");
                debug_assert_eq!(self.geom.block_of(pr.addr), block);
                fx.read_done = Some(self.cache.read_word(&self.geom, pr.addr).expect("just filled"));
            }
            MsgKind::InvAck | MsgKind::UpdateAck => {
                self.acks_received += 1;
                fx.sync_progress = true;
            }
            _ => match self.cfg.protocol {
                Protocol::WriteInvalidate => wi::handle_msg(self, msg, clf, now, fx),
                _ => upd::handle_msg(self, msg, clf, now, fx),
            },
        }
    }

    // ------------------------------------------------------------------
    // Shared home-side handlers
    // ------------------------------------------------------------------

    fn home_sharer_drop(&mut self, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
        debug_assert_eq!(self.home_of(msg.addr), self.id);
        let block = self.geom.block_of(msg.addr);
        let cause = msg.kind.name();
        let e = self.dir.entry(block);
        e.sharers.remove(msg.src);
        if e.state == DirState::Shared && e.sharers.is_empty() {
            set_dir_state(e, block, DirState::Uncached, msg.src, cause, clf, now);
        }
        // A drop can cross a private-mode grant in flight: the home just
        // promoted the dropper to owner, but its (clean) copy is gone and
        // memory is current. Relinquish ownership — and release anything
        // waiting on that phantom owner — or later requests would wait
        // forever for a writeback that never comes.
        if e.state == DirState::Owned && e.owner == msg.src {
            e.sharers = SharerSet::empty();
            set_dir_state(e, block, DirState::Uncached, msg.src, cause, clf, now);
            if e.busy {
                e.busy = false;
                fx.requeue_home.extend(e.waiting.drain(..));
            }
        }
    }

    fn home_writeback(&mut self, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
        debug_assert_eq!(self.home_of(msg.addr), self.id);
        let block = self.geom.block_of(msg.addr);
        let MsgKind::WriteBack { data } = &msg.kind else { unreachable!() };
        self.mem.write_block(block, data);
        let e = self.dir.entry(block);
        if e.state == DirState::Owned && e.owner == msg.src {
            e.sharers = SharerSet::empty();
            set_dir_state(e, block, DirState::Uncached, msg.src, "WriteBack", clf, now);
        }
        if e.busy {
            // A recall raced this eviction; release anything the directory
            // deferred while waiting for the owner's data.
            e.busy = false;
            fx.requeue_home.extend(e.waiting.drain(..));
        }
    }

    /// Defers `msg` on the busy block `block`, to be requeued when the
    /// in-flight transaction completes. Returns `true` if deferred.
    pub fn defer_if_busy(&mut self, block: BlockAddr, msg: &Msg) -> bool {
        let e = self.dir.entry(block);
        if e.busy {
            e.waiting.push_back(msg.clone());
            true
        } else {
            false
        }
    }

    /// Marks `block` busy and stashes `msg` to retry once the block's
    /// in-flight writeback lands (owner == requester race).
    pub fn wait_for_writeback(&mut self, block: BlockAddr, msg: Msg) {
        let e = self.dir.entry(block);
        e.busy = true;
        e.waiting.push_back(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(protocol: Protocol) -> ProtoNode {
        let geom = Geometry::new(4);
        ProtoNode::new(0, geom, ProtoConfig { protocol, ..Default::default() })
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(Protocol::WriteInvalidate.label(), "i");
        assert_eq!(Protocol::PureUpdate.label(), "u");
        assert_eq!(Protocol::CompetitiveUpdate.label(), "c");
        assert!(!Protocol::WriteInvalidate.is_update_based());
        assert!(Protocol::PureUpdate.is_update_based());
        assert!(Protocol::CompetitiveUpdate.is_update_based());
    }

    #[test]
    fn sync_complete_tracks_counters() {
        let mut n = node(Protocol::PureUpdate);
        assert!(n.sync_complete());
        n.acks_expected = 2;
        assert!(!n.sync_complete());
        n.acks_received = 2;
        assert!(n.sync_complete());
        n.update_infos_pending = 1;
        assert!(!n.sync_complete());
        n.update_infos_pending = 0;
        n.pending_write = Some(PendingWrite { addr: 4, val: 1 });
        assert!(!n.sync_complete());
    }

    #[test]
    fn sharer_drop_empties_directory() {
        let mut n = node(Protocol::PureUpdate);
        let addr = n.geom.region_base(0) + 0x40;
        let block = n.geom.block_of(addr);
        {
            let e = n.dir.entry(block);
            e.state = DirState::Shared;
            e.sharers.insert(2);
        }
        let mut fx = Effects::default();
        n.handle_msg(
            Msg { src: 2, dst: 0, addr, kind: MsgKind::SharerDrop },
            &mut Classifier::new(n.geom),
            0,
            &mut fx,
        );
        assert!(fx.sends.is_empty());
        assert_eq!(n.dir.entry(block).state, DirState::Uncached);
    }

    #[test]
    fn writeback_clears_ownership_and_busy() {
        let mut n = node(Protocol::WriteInvalidate);
        let addr = n.geom.region_base(0) + 0x80;
        let block = n.geom.block_of(addr);
        {
            let e = n.dir.entry(block);
            e.state = DirState::Owned;
            e.owner = 3;
            e.busy = true;
            e.waiting.push_back(Msg { src: 1, dst: 0, addr, kind: MsgKind::ReadShared });
        }
        let data = vec![9u32; 16].into_boxed_slice();
        let mut fx = Effects::default();
        n.handle_msg(
            Msg { src: 3, dst: 0, addr, kind: MsgKind::WriteBack { data } },
            &mut Classifier::new(n.geom),
            0,
            &mut fx,
        );
        assert_eq!(n.dir.entry(block).state, DirState::Uncached);
        assert!(!n.dir.entry(block).busy);
        assert_eq!(fx.requeue_home.len(), 1);
        assert_eq!(n.mem.read_word(&n.geom, addr), 9);
    }

    #[test]
    fn flush_of_absent_block_is_noop() {
        let mut n = node(Protocol::PureUpdate);
        let mut fx = Effects::default();
        n.cpu_flush(0x123 & !3, &mut Classifier::new(n.geom), 0, &mut fx);
        assert!(fx.sends.is_empty() && fx.touched_blocks.is_empty());
    }

    #[test]
    fn flush_of_shared_block_notifies_home() {
        let mut n = node(Protocol::PureUpdate);
        let mut clf = Classifier::new(n.geom);
        let addr = n.geom.region_base(2) + 0x40; // homed at node 2
        let block = n.geom.block_of(addr);
        n.cache.fill(block, &[0; 16], LineState::Shared);
        clf.copy_acquired(0, block);
        let mut fx = Effects::default();
        n.cpu_flush(addr, &mut clf, 5, &mut fx);
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.sends[0].dst, 2);
        assert!(matches!(fx.sends[0].kind, MsgKind::SharerDrop));
        assert!(!n.cache.contains(block));
        // A later miss on the flushed block classifies as a drop miss.
        assert_eq!(clf.classify_miss(0, addr, 6), sim_stats::MissClass::Drop);
    }

    #[test]
    fn flush_of_private_block_writes_back() {
        let mut n = node(Protocol::PureUpdate);
        let mut clf = Classifier::new(n.geom);
        let addr = n.geom.region_base(1) + 0x40;
        let block = n.geom.block_of(addr);
        n.cache.fill(block, &[7; 16], LineState::PrivateUpd);
        let mut fx = Effects::default();
        n.cpu_flush(addr, &mut clf, 5, &mut fx);
        assert!(matches!(&fx.sends[0].kind, MsgKind::WriteBack { data } if data[0] == 7));
    }

    #[test]
    fn piggyback_read_completes_from_fill() {
        let mut n = node(Protocol::WriteInvalidate);
        let mut clf = Classifier::new(n.geom);
        let addr = n.geom.region_base(1) + 0x40;
        let block = n.geom.block_of(addr);
        n.pending_read = Some(PendingRead { addr: addr + 4, piggyback: true });
        n.fill_block(block, &[5; 16], LineState::Modified, &mut clf, 0, &mut Effects::default());
        assert_eq!(n.complete_piggyback_read(block), Some(5));
        assert!(n.pending_read.is_none());
    }

    #[test]
    fn fill_evicts_dirty_victim_with_writeback() {
        let mut n = node(Protocol::WriteInvalidate);
        let mut clf = Classifier::new(n.geom);
        let a1 = n.geom.region_base(1);
        let b1 = n.geom.block_of(a1);
        // Same cache index, different tag (64 KB apart).
        let a2 = a1 + 64 * 1024;
        let b2 = n.geom.block_of(a2);
        n.fill_block(b1, &[1; 16], LineState::Modified, &mut clf, 0, &mut Effects::default());
        let mut fx = Effects::default();
        n.fill_block(b2, &[2; 16], LineState::Shared, &mut clf, 1, &mut fx);
        assert!(matches!(&fx.sends[0].kind, MsgKind::WriteBack { .. }));
        assert_eq!(fx.sends[0].dst, n.geom.home_of(a1));
        assert_eq!(clf.classify_miss(0, a1, 2), sim_stats::MissClass::Eviction);
    }
}
