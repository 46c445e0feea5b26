//! The update-based protocols: pure update (PU) and competitive update (CU).
//!
//! Both are write-through-with-update: a write hits its local copy (if any)
//! and travels to the home, which applies it to memory and multicasts
//! update messages to all other sharers; sharers acknowledge the *writer*,
//! which only waits for acks at release (fence) points. CU additionally
//! self-invalidates a line after [`crate::ProtoConfig::cu_threshold`]
//! consecutive un-referenced incoming updates, telling the home to stop
//! sending (the drop). PU instead applies the private-data optimization:
//! a block whose only sharer is its writer goes into [`LineState::PrivateUpd`]
//! and generates no traffic until another node touches it.
//!
//! Write misses allocate (the writer becomes a sharer) and atomics allocate
//! too — see the crate docs for why this matters to the MCS-lock pathology
//! the paper reports.

use sim_engine::Cycle;
use sim_mem::{DirState, LineState, SharerSet, Word};
use sim_stats::{Classifier, LossCause};

use crate::effects::Effects;
use crate::msg::{AtomicOp, Msg, MsgKind};
use crate::node::{set_dir_state, PendingAtomic, PendingWrite, ProtoNode, Protocol};

/// Write-buffer head issue (see [`ProtoNode::issue_write`]).
pub fn issue_write(
    n: &mut ProtoNode,
    addr: u32,
    val: Word,
    clf: &mut Classifier,
    now: Cycle,
    fx: &mut Effects,
) {
    let block = n.geom.block_of(addr);
    match n.cache.state_of(block) {
        Some(LineState::PrivateUpd) => {
            // Private mode: the home granted local update retention.
            n.cache.write_word(&n.geom, addr, val);
            n.cache.reset_update_ctr(block);
            clf.word_written(n.id, addr, now);
            fx.write_retired = true;
            fx.touched_blocks.push(block);
        }
        Some(LineState::Shared) => {
            // Write through: update the local copy, send the word home.
            n.cache.write_word(&n.geom, addr, val);
            n.cache.reset_update_ctr(block);
            n.update_infos_pending += 1;
            let home = n.home_of(addr);
            fx.sends.push(n.msg(home, addr, MsgKind::UpdateWrite { val }));
            fx.write_retired = true;
            fx.touched_blocks.push(block);
        }
        Some(LineState::Modified) => unreachable!("Modified under update protocol"),
        None => {
            // Write-allocate miss: fetch the block and write through in one
            // transaction; the entry retires when the block arrives.
            clf.classify_miss(n.id, addr, now);
            n.pending_write = Some(PendingWrite { addr, val });
            let home = n.home_of(addr);
            fx.sends.push(n.msg(home, addr, MsgKind::UpdateWriteAlloc { val }));
        }
    }
}

/// CPU atomic operation: performed by the home memory (Section 3.1), which
/// multicasts the new value to all sharers.
#[allow(clippy::too_many_arguments)]
pub fn cpu_atomic(
    n: &mut ProtoNode,
    op: AtomicOp,
    addr: u32,
    operand: Word,
    operand2: Word,
    clf: &mut Classifier,
    now: Cycle,
    fx: &mut Effects,
) {
    let _ = (clf, now);
    debug_assert!(n.pending_atomic.is_none());
    n.pending_atomic = Some(PendingAtomic { addr, op, operand, operand2 });
    let home = n.home_of(addr);
    fx.sends.push(n.msg(home, addr, MsgKind::AtomicReq { op, operand, operand2 }));
}

/// Message handler for everything PU/CU-specific.
pub fn handle_msg(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    match msg.kind {
        // -------------------- home side --------------------
        MsgKind::ReadShared => home_read(n, msg, clf, now, fx),
        MsgKind::UpdateWrite { .. } => home_update_write(n, msg, clf, now, fx),
        MsgKind::UpdateWriteAlloc { .. } => home_update_write_alloc(n, msg, clf, now, fx),
        MsgKind::AtomicReq { .. } => home_atomic(n, msg, clf, now, fx),
        MsgKind::RecallReply { .. } => home_recall_reply(n, msg, clf, now, fx),
        // -------------------- cache side --------------------
        MsgKind::UpdateMsg { val, writer } => cache_update_msg(n, msg.addr, val, writer, clf, now, fx),
        MsgKind::UpdateInfo { acks, go_private } => {
            let block = n.geom.block_of(msg.addr);
            debug_assert!(n.update_infos_pending > 0);
            n.update_infos_pending -= 1;
            n.acks_expected += acks as u64;
            if go_private && n.cache.state_of(block) == Some(LineState::Shared) {
                n.cache.set_state(block, LineState::PrivateUpd);
            }
            fx.sync_progress = true;
        }
        MsgKind::DataUpd { data, acks } => {
            // Reply to an allocating write-through: the block (already
            // containing our write) plus the ack count for the multicast.
            let block = n.geom.block_of(msg.addr);
            n.acks_expected += acks as u64;
            n.fill_block(block, &data, LineState::Shared, clf, now, fx);
            fx.sync_progress = true;
            let pw = n.pending_write.take().expect("DataUpd without pending write");
            debug_assert_eq!(n.geom.block_of(pw.addr), block);
            fx.write_retired = true;
            if let Some(v) = n.complete_piggyback_read(block) {
                fx.read_done = Some(v);
            }
        }
        MsgKind::AtomicReply { old, data, acks } => {
            let block = n.geom.block_of(msg.addr);
            n.acks_expected += acks as u64;
            let pa = n.pending_atomic.take().expect("AtomicReply without pending atomic");
            debug_assert_eq!(pa.addr, msg.addr);
            fx.sync_progress = true;
            if let Some(data) = data {
                n.fill_block(block, &data, LineState::Shared, clf, now, fx);
            } else if n.cache.contains(block) {
                // We were already a sharer: the home's multicast excluded
                // us, so apply the operation's result to our copy directly.
                let (new, wrote) = pa.op.apply(old, pa.operand, pa.operand2);
                if wrote {
                    n.cache.write_word(&n.geom, pa.addr, new);
                }
                n.cache.reset_update_ctr(block);
                fx.touched_blocks.push(block);
            }
            fx.atomic_done = Some(old);
            if let Some(v) = n.complete_piggyback_read(block) {
                fx.read_done = Some(v);
            }
        }
        MsgKind::RecallUpd => {
            // Home recalls our private-update block to shared write-through.
            // If the block was evicted or flushed instead, its WriteBack is
            // in flight and will release the home's busy state.
            let block = n.geom.block_of(msg.addr);
            if n.cache.state_of(block) == Some(LineState::PrivateUpd) {
                n.cache.set_state(block, LineState::Shared);
                let data = Box::new(n.cache.block_data(block).expect("present"));
                let home = n.home_of(msg.addr);
                fx.sends.push(n.msg(home, msg.addr, MsgKind::RecallReply { data }));
            }
        }
        other => unreachable!("update-protocol node {} got unexpected message {:?}", n.id, other),
    }
}

/// Applies an incoming multicast update at a sharer cache.
fn cache_update_msg(
    n: &mut ProtoNode,
    addr: u32,
    val: Word,
    writer: sim_engine::NodeId,
    clf: &mut Classifier,
    now: Cycle,
    fx: &mut Effects,
) {
    let block = n.geom.block_of(addr);
    if n.cache.contains(block) {
        let drop = if n.cfg.protocol == Protocol::CompetitiveUpdate {
            n.cache.bump_update_ctr(block) >= n.cfg.cu_threshold
        } else {
            false
        };
        clf.update_arrival(n.id, addr, writer, drop, now);
        if drop {
            clf.update_caused_drop(addr);
            n.cache.invalidate(block);
            clf.copy_lost(n.id, block, LossCause::SelfInvalidate, now);
            fx.sends.push(n.msg(n.home_of(addr), addr, MsgKind::StopUpdate));
        } else {
            n.cache.write_word(&n.geom, addr, val);
            clf.update_delivered(n.id, addr);
        }
        fx.touched_blocks.push(block);
    }
    // Always ack the writer: it counts acks against the home's UpdateInfo.
    fx.sends.push(n.msg(writer, addr, MsgKind::UpdateAck));
}

// ----------------------------------------------------------------------
// Home-side handlers
// ----------------------------------------------------------------------

fn home_read(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    debug_assert_eq!(n.home_of(msg.addr), n.id);
    let block = n.geom.block_of(msg.addr);
    if n.defer_if_busy(block, &msg) {
        return;
    }
    let r = msg.src;
    let e = n.dir.entry(block);
    match e.state {
        DirState::Uncached | DirState::Shared => {
            e.sharers.insert(r);
            set_dir_state(e, block, DirState::Shared, r, "ReadShared", clf, now);
            let data = n.mem.read_block(block);
            fx.sends.push(n.msg(r, msg.addr, MsgKind::Data { data }));
        }
        DirState::Owned if e.owner == r => n.wait_for_writeback(block, msg),
        DirState::Owned => recall_private(n, block, msg, fx),
    }
}

/// Starts a recall of a private-update block, deferring `msg` until the
/// owner's data arrives.
fn recall_private(n: &mut ProtoNode, block: sim_mem::BlockAddr, msg: Msg, fx: &mut Effects) {
    let e = n.dir.entry(block);
    debug_assert_eq!(e.state, DirState::Owned);
    let owner = e.owner;
    e.busy = true;
    let addr = msg.addr;
    e.waiting.push_back(msg);
    fx.sends.push(n.msg(owner, addr, MsgKind::RecallUpd));
}

fn home_recall_reply(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    let block = n.geom.block_of(msg.addr);
    let MsgKind::RecallReply { data } = msg.kind else { unreachable!() };
    n.mem.write_block(block, &data);
    let e = n.dir.entry(block);
    e.sharers = SharerSet::only(msg.src);
    e.busy = false;
    set_dir_state(e, block, DirState::Shared, msg.src, "RecallReply", clf, now);
    fx.requeue_home.extend(e.waiting.drain(..));
}

fn home_update_write(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    debug_assert_eq!(n.home_of(msg.addr), n.id);
    let block = n.geom.block_of(msg.addr);
    let MsgKind::UpdateWrite { val } = msg.kind else { unreachable!() };
    if n.defer_if_busy(block, &msg) {
        return;
    }
    let w = msg.src;
    // The writer held a Shared copy when it issued this; if the directory
    // meanwhile granted it private mode (a crossing in flight), stay
    // consistent by reaffirming the grant.
    let e = n.dir.entry(block);
    if e.state == DirState::Owned {
        debug_assert_eq!(e.owner, w, "foreign write-through to privately owned block");
        n.mem.write_word(&n.geom, msg.addr, val);
        clf.word_written(w, msg.addr, now);
        fx.sends.push(n.msg(w, msg.addr, MsgKind::UpdateInfo { acks: 0, go_private: true }));
        return;
    }
    n.mem.write_word(&n.geom, msg.addr, val);
    clf.word_written(w, msg.addr, now);
    let e = n.dir.entry(block);
    let mut others = e.sharers;
    others.remove(w);
    if others.is_empty() {
        let go_private = n.cfg.pu_private_opt
            && n.cfg.protocol == Protocol::PureUpdate
            && e.state == DirState::Shared
            && e.sharers.contains(w)
            && e.sharers.len() == 1;
        if go_private {
            e.owner = w;
            e.sharers = SharerSet::empty();
            set_dir_state(e, block, DirState::Owned, w, "UpdateWrite", clf, now);
        }
        fx.sends.push(n.msg(w, msg.addr, MsgKind::UpdateInfo { acks: 0, go_private }));
    } else {
        fx.sends.push(n.msg(
            w,
            msg.addr,
            MsgKind::UpdateInfo { acks: others.len() as u32, go_private: false },
        ));
        for s in others.iter() {
            fx.sends.push(n.msg(s, msg.addr, MsgKind::UpdateMsg { val, writer: w }));
        }
    }
}

fn home_update_write_alloc(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    debug_assert_eq!(n.home_of(msg.addr), n.id);
    let block = n.geom.block_of(msg.addr);
    let MsgKind::UpdateWriteAlloc { val } = msg.kind else { unreachable!() };
    if n.defer_if_busy(block, &msg) {
        return;
    }
    let w = msg.src;
    let e = n.dir.entry(block);
    match e.state {
        DirState::Owned if e.owner == w => n.wait_for_writeback(block, msg),
        DirState::Owned => recall_private(n, block, msg, fx),
        DirState::Uncached | DirState::Shared => {
            n.mem.write_word(&n.geom, msg.addr, val);
            clf.word_written(w, msg.addr, now);
            let e = n.dir.entry(block);
            let mut others = e.sharers;
            others.remove(w);
            e.sharers.insert(w);
            set_dir_state(e, block, DirState::Shared, w, "UpdateWriteAlloc", clf, now);
            let acks = others.len() as u32;
            let data = n.mem.read_block(block);
            fx.sends.push(n.msg(w, msg.addr, MsgKind::DataUpd { data, acks }));
            for s in others.iter() {
                fx.sends.push(n.msg(s, msg.addr, MsgKind::UpdateMsg { val, writer: w }));
            }
        }
    }
}

fn home_atomic(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    debug_assert_eq!(n.home_of(msg.addr), n.id);
    let block = n.geom.block_of(msg.addr);
    let MsgKind::AtomicReq { op, operand, operand2 } = msg.kind else { unreachable!() };
    if n.defer_if_busy(block, &msg) {
        return;
    }
    let r = msg.src;
    let e = n.dir.entry(block);
    if e.state == DirState::Owned {
        // Memory is stale while a private owner exists (even if it is the
        // requester itself): recall first, then retry the atomic.
        return recall_private(n, block, msg, fx);
    }
    let old = n.mem.read_word(&n.geom, msg.addr);
    let (new, wrote) = op.apply(old, operand, operand2);
    if wrote {
        n.mem.write_word(&n.geom, msg.addr, new);
        clf.word_written(r, msg.addr, now);
    }
    let e = n.dir.entry(block);
    let mut others = e.sharers;
    others.remove(r);
    let was_sharer = e.sharers.contains(r);
    e.sharers.insert(r);
    set_dir_state(e, block, DirState::Shared, r, "AtomicReq", clf, now);
    let acks = if wrote { others.len() as u32 } else { 0 };
    let data = if was_sharer { None } else { Some(n.mem.read_block(block)) };
    fx.sends.push(n.msg(r, msg.addr, MsgKind::AtomicReply { old, data, acks }));
    if wrote {
        for s in others.iter() {
            fx.sends.push(n.msg(s, msg.addr, MsgKind::UpdateMsg { val: new, writer: r }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;
    use crate::node::ProtoConfig;
    use sim_mem::Geometry;
    use sim_stats::Classifier;

    fn node(id: usize, protocol: Protocol) -> (ProtoNode, Classifier) {
        let geom = Geometry::new(4);
        let cfg = ProtoConfig { protocol, ..Default::default() };
        (ProtoNode::new(id, geom, cfg), Classifier::new(geom))
    }

    fn addr_on(geom: &Geometry, h: usize) -> u32 {
        geom.region_base(h) + 0x40
    }

    fn fill_shared(n: &mut ProtoNode, clf: &mut Classifier, addr: u32, val: u32) {
        let block = n.geom.block_of(addr);
        let mut data = vec![0u32; 16].into_boxed_slice();
        data[n.geom.word_index(addr)] = val;
        n.cache.fill(block, &data, LineState::Shared);
        clf.copy_acquired(n.id, block);
    }

    #[test]
    fn write_hit_goes_through_to_home_and_retires() {
        let (mut n, mut clf) = node(1, Protocol::PureUpdate);
        let a = addr_on(&n.geom, 2);
        fill_shared(&mut n, &mut clf, a, 0);
        let mut fx = Effects::default();
        n.issue_write(a, 9, &mut clf, 0, &mut fx);
        assert!(fx.write_retired, "write-through retires on send");
        assert_eq!(n.cache.read_word(&n.geom, a), Some(9), "local copy updated");
        assert!(matches!(fx.sends[0].kind, MsgKind::UpdateWrite { val: 9 }));
        assert_eq!(n.update_infos_pending, 1);
    }

    #[test]
    fn write_miss_allocates() {
        let (mut n, mut clf) = node(1, Protocol::PureUpdate);
        let a = addr_on(&n.geom, 2);
        let mut fx = Effects::default();
        n.issue_write(a, 9, &mut clf, 0, &mut fx);
        assert!(!fx.write_retired, "allocating write waits for the block");
        assert!(matches!(fx.sends[0].kind, MsgKind::UpdateWriteAlloc { val: 9 }));
        assert!(n.pending_write.is_some());
    }

    #[test]
    fn home_multicasts_update_to_other_sharers() {
        let (mut home, mut clf) = node(0, Protocol::PureUpdate);
        let a = addr_on(&home.geom, 0);
        let block = home.geom.block_of(a);
        {
            let e = home.dir.entry(block);
            e.state = DirState::Shared;
            e.sharers.insert(1);
            e.sharers.insert(2);
            e.sharers.insert(3);
        }
        let mut fx = Effects::default();
        home.handle_msg(
            Msg { src: 1, dst: 0, addr: a, kind: MsgKind::UpdateWrite { val: 5 } },
            &mut clf,
            0,
            &mut fx,
        );
        assert_eq!(home.mem.read_word(&home.geom, a), 5, "memory updated");
        let infos: Vec<_> =
            fx.sends.iter().filter(|m| matches!(m.kind, MsgKind::UpdateInfo { .. })).collect();
        let upds: Vec<_> = fx.sends.iter().filter(|m| matches!(m.kind, MsgKind::UpdateMsg { .. })).collect();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].dst, 1);
        let MsgKind::UpdateInfo { acks, go_private } = infos[0].kind else { panic!() };
        assert_eq!((acks, go_private), (2, false));
        let mut dsts: Vec<_> = upds.iter().map(|m| m.dst).collect();
        dsts.sort();
        assert_eq!(dsts, vec![2, 3], "writer excluded from its own multicast");
    }

    #[test]
    fn sole_sharer_writer_goes_private_under_pu() {
        let (mut home, mut clf) = node(0, Protocol::PureUpdate);
        let a = addr_on(&home.geom, 0);
        let block = home.geom.block_of(a);
        {
            let e = home.dir.entry(block);
            e.state = DirState::Shared;
            e.sharers.insert(1);
        }
        let mut fx = Effects::default();
        home.handle_msg(
            Msg { src: 1, dst: 0, addr: a, kind: MsgKind::UpdateWrite { val: 5 } },
            &mut clf,
            0,
            &mut fx,
        );
        let MsgKind::UpdateInfo { acks, go_private } = fx.sends[0].kind else { panic!() };
        assert_eq!((acks, go_private), (0, true));
        let e = home.dir.get(block).unwrap();
        assert_eq!(e.state, DirState::Owned);
        assert_eq!(e.owner, 1);
    }

    #[test]
    fn cu_never_grants_private_mode() {
        let (mut home, mut clf) = node(0, Protocol::CompetitiveUpdate);
        let a = addr_on(&home.geom, 0);
        let block = home.geom.block_of(a);
        {
            let e = home.dir.entry(block);
            e.state = DirState::Shared;
            e.sharers.insert(1);
        }
        let mut fx = Effects::default();
        home.handle_msg(
            Msg { src: 1, dst: 0, addr: a, kind: MsgKind::UpdateWrite { val: 5 } },
            &mut clf,
            0,
            &mut fx,
        );
        let MsgKind::UpdateInfo { go_private, .. } = fx.sends[0].kind else { panic!() };
        assert!(!go_private, "the private-data optimization is a PU feature");
    }

    #[test]
    fn private_grant_applied_and_later_writes_stay_local() {
        let (mut n, mut clf) = node(1, Protocol::PureUpdate);
        let a = addr_on(&n.geom, 0);
        let block = n.geom.block_of(a);
        fill_shared(&mut n, &mut clf, a, 0);
        n.update_infos_pending = 1;
        n.handle_msg(
            Msg { src: 0, dst: 1, addr: a, kind: MsgKind::UpdateInfo { acks: 0, go_private: true } },
            &mut clf,
            0,
            &mut Effects::default(),
        );
        assert_eq!(n.cache.state_of(block), Some(LineState::PrivateUpd));
        let mut fx = Effects::default();
        n.issue_write(a, 7, &mut clf, 1, &mut fx);
        assert!(fx.write_retired);
        assert!(fx.sends.is_empty(), "private-mode writes generate no traffic");
    }

    #[test]
    fn arriving_update_applies_and_acks_the_writer() {
        let (mut n, mut clf) = node(2, Protocol::PureUpdate);
        let a = addr_on(&n.geom, 0);
        fill_shared(&mut n, &mut clf, a, 0);
        let mut fx = Effects::default();
        n.handle_msg(
            Msg { src: 0, dst: 2, addr: a, kind: MsgKind::UpdateMsg { val: 5, writer: 1 } },
            &mut clf,
            0,
            &mut fx,
        );
        assert_eq!(n.cache.read_word(&n.geom, a), Some(5));
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.sends[0].dst, 1);
        assert!(matches!(fx.sends[0].kind, MsgKind::UpdateAck));
        assert_eq!(clf.report().updates.total(), 0, "record still live");
    }

    #[test]
    fn cu_drops_at_threshold_and_tells_home_to_stop() {
        let (mut n, mut clf) = node(2, Protocol::CompetitiveUpdate);
        let a = addr_on(&n.geom, 0);
        let block = n.geom.block_of(a);
        fill_shared(&mut n, &mut clf, a, 0);
        for i in 0..4 {
            let mut fx = Effects::default();
            n.handle_msg(
                Msg { src: 0, dst: 2, addr: a, kind: MsgKind::UpdateMsg { val: i, writer: 1 } },
                &mut clf,
                i as u64,
                &mut fx,
            );
            if i < 3 {
                assert!(n.cache.contains(block), "update {i}");
                assert_eq!(fx.sends.len(), 1, "just the ack");
            } else {
                // Fourth consecutive update: drop.
                assert!(!n.cache.contains(block));
                assert!(fx.sends.iter().any(|m| matches!(m.kind, MsgKind::StopUpdate)));
                assert!(
                    fx.sends.iter().any(|m| matches!(m.kind, MsgKind::UpdateAck)),
                    "the writer still gets its ack"
                );
            }
        }
        assert_eq!(clf.report().updates.drop, 1);
    }

    #[test]
    fn local_reference_resets_cu_counter() {
        let (mut n, mut clf) = node(2, Protocol::CompetitiveUpdate);
        let a = addr_on(&n.geom, 0);
        let block = n.geom.block_of(a);
        fill_shared(&mut n, &mut clf, a, 0);
        for i in 0..10 {
            n.handle_msg(
                Msg { src: 0, dst: 2, addr: a, kind: MsgKind::UpdateMsg { val: i, writer: 1 } },
                &mut clf,
                i as u64,
                &mut Effects::default(),
            );
            // The processor reads the word between updates.
            let mut fx = Effects::default();
            n.cpu_read(a, &mut clf, i as u64, &mut fx);
            assert_eq!(fx.read_done, Some(i));
        }
        assert!(n.cache.contains(block), "references kept the line alive");
    }

    #[test]
    fn update_to_absent_block_still_acks() {
        let (mut n, mut clf) = node(2, Protocol::PureUpdate);
        let a = addr_on(&n.geom, 0);
        let mut fx = Effects::default();
        n.handle_msg(
            Msg { src: 0, dst: 2, addr: a, kind: MsgKind::UpdateMsg { val: 5, writer: 1 } },
            &mut clf,
            0,
            &mut fx,
        );
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0].kind, MsgKind::UpdateAck));
        assert_eq!(clf.report().updates.total(), 0, "not delivered to a cache");
    }

    #[test]
    fn home_atomic_applies_and_allocates_for_new_sharer() {
        let (mut home, mut clf) = node(0, Protocol::PureUpdate);
        let a = addr_on(&home.geom, 0);
        let block = home.geom.block_of(a);
        home.mem.write_word(&home.geom.clone(), a, 10);
        {
            let e = home.dir.entry(block);
            e.state = DirState::Shared;
            e.sharers.insert(2);
        }
        let mut fx = Effects::default();
        home.handle_msg(
            Msg {
                src: 1,
                dst: 0,
                addr: a,
                kind: MsgKind::AtomicReq { op: AtomicOp::FetchAdd, operand: 3, operand2: 0 },
            },
            &mut clf,
            0,
            &mut fx,
        );
        assert_eq!(home.mem.read_word(&home.geom, a), 13);
        let reply = fx.sends.iter().find(|m| m.dst == 1).unwrap();
        let MsgKind::AtomicReply { old, ref data, acks } = reply.kind else { panic!() };
        assert_eq!(old, 10);
        assert!(data.is_some(), "requester was not a sharer: block included");
        assert_eq!(acks, 1, "one other sharer to ack");
        assert!(fx.sends.iter().any(|m| m.dst == 2 && matches!(m.kind, MsgKind::UpdateMsg { val: 13, .. })));
        assert!(home.dir.get(block).unwrap().sharers.contains(1), "atomics allocate");
    }

    #[test]
    fn home_failed_cas_multicasts_nothing() {
        let (mut home, mut clf) = node(0, Protocol::PureUpdate);
        let a = addr_on(&home.geom, 0);
        let block = home.geom.block_of(a);
        home.mem.write_word(&home.geom.clone(), a, 10);
        home.dir.entry(block).state = DirState::Shared;
        home.dir.entry(block).sharers.insert(2);
        let mut fx = Effects::default();
        home.handle_msg(
            Msg {
                src: 1,
                dst: 0,
                addr: a,
                kind: MsgKind::AtomicReq { op: AtomicOp::CompareAndSwap, operand: 99, operand2: 1 },
            },
            &mut clf,
            0,
            &mut fx,
        );
        assert_eq!(home.mem.read_word(&home.geom, a), 10, "swap must not happen");
        assert!(!fx.sends.iter().any(|m| matches!(m.kind, MsgKind::UpdateMsg { .. })));
        let MsgKind::AtomicReply { old, acks, .. } =
            fx.sends.iter().find(|m| m.dst == 1).unwrap().kind.clone()
        else {
            panic!()
        };
        assert_eq!((old, acks), (10, 0));
    }

    #[test]
    fn read_of_private_block_recalls_owner() {
        let (mut home, mut clf) = node(0, Protocol::PureUpdate);
        let a = addr_on(&home.geom, 0);
        let block = home.geom.block_of(a);
        {
            let e = home.dir.entry(block);
            e.state = DirState::Owned;
            e.owner = 3;
        }
        let mut fx = Effects::default();
        home.handle_msg(Msg { src: 1, dst: 0, addr: a, kind: MsgKind::ReadShared }, &mut clf, 0, &mut fx);
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.sends[0].dst, 3);
        assert!(matches!(fx.sends[0].kind, MsgKind::RecallUpd));
        assert!(home.dir.get(block).unwrap().busy);

        // Owner demotes and replies with its data.
        let (mut owner, mut clf2) = node(3, Protocol::PureUpdate);
        let mut data = vec![0u32; 16].into_boxed_slice();
        data[owner.geom.word_index(a)] = 42;
        owner.cache.fill(block, &data, LineState::PrivateUpd);
        clf2.copy_acquired(3, block);
        let mut fx2 = Effects::default();
        owner.handle_msg(fx.sends[0].clone(), &mut clf2, 1, &mut fx2);
        assert_eq!(owner.cache.state_of(block), Some(LineState::Shared));
        let MsgKind::RecallReply { ref data, .. } = fx2.sends[0].kind else { panic!() };
        assert_eq!(data[owner.geom.word_index(a)], 42);

        // Home absorbs the reply, unblocks, and requeues the read.
        let mut fx3 = Effects::default();
        home.handle_msg(
            Msg { src: 3, dst: 0, addr: a, kind: fx2.sends[0].kind.clone() },
            &mut clf,
            2,
            &mut fx3,
        );
        assert_eq!(home.mem.read_word(&home.geom, a), 42);
        assert!(!home.dir.get(block).unwrap().busy);
        assert_eq!(fx3.requeue_home.len(), 1);
        assert!(matches!(fx3.requeue_home[0].kind, MsgKind::ReadShared));
    }

    #[test]
    fn data_upd_completes_allocating_write() {
        let (mut n, mut clf) = node(1, Protocol::PureUpdate);
        let a = addr_on(&n.geom, 2);
        n.issue_write(a, 9, &mut clf, 0, &mut Effects::default());
        let mut data = vec![0u32; 16].into_boxed_slice();
        data[n.geom.word_index(a)] = 9; // home already applied our write
        let mut fx = Effects::default();
        n.handle_msg(
            Msg { src: 2, dst: 1, addr: a, kind: MsgKind::DataUpd { data, acks: 2 } },
            &mut clf,
            5,
            &mut fx,
        );
        assert!(fx.write_retired);
        assert!(n.pending_write.is_none());
        assert_eq!(n.acks_expected, 2);
        assert_eq!(n.cache.read_word(&n.geom, a), Some(9));
    }

    #[test]
    fn atomic_reply_updates_existing_sharer_copy() {
        let (mut n, mut clf) = node(1, Protocol::PureUpdate);
        let a = addr_on(&n.geom, 0);
        fill_shared(&mut n, &mut clf, a, 10);
        n.cpu_atomic(AtomicOp::FetchAdd, a, 3, 0, &mut clf, 0, &mut Effects::default());
        let mut fx = Effects::default();
        n.handle_msg(
            Msg { src: 0, dst: 1, addr: a, kind: MsgKind::AtomicReply { old: 10, data: None, acks: 0 } },
            &mut clf,
            1,
            &mut fx,
        );
        assert_eq!(fx.atomic_done, Some(10));
        assert_eq!(n.cache.read_word(&n.geom, a), Some(13), "local copy got the result");
    }
}
