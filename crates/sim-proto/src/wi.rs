//! The write-invalidate protocol (DASH-style, release consistency).

use sim_engine::Cycle;
use sim_mem::{DirState, LineState, SharerSet, Word};
use sim_stats::{Classifier, LossCause};

use crate::effects::Effects;
use crate::msg::{AtomicOp, Msg, MsgKind};
use crate::node::{set_dir_state, PendingAtomic, PendingWrite, ProtoNode};

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
        Some(LineState::Modified) => {
            n.cache.write_word(&n.geom, addr, val);
            clf.word_written(n.id, addr, now);
            fx.write_retired = true;
            fx.touched_blocks.push(block);
        }
        Some(LineState::Shared) => {
            clf.exclusive_request(block);
            n.pending_write = Some(PendingWrite { addr, val });
            let home = n.home_of(addr);
            fx.sends.push(n.msg(home, addr, MsgKind::Upgrade));
        }
        Some(LineState::PrivateUpd) => unreachable!("PrivateUpd under WI"),
        None => {
            clf.classify_miss(n.id, addr, now);
            n.pending_write = Some(PendingWrite { addr, val });
            let home = n.home_of(addr);
            fx.sends.push(n.msg(home, addr, MsgKind::GetX));
        }
    }
}

/// CPU atomic operation: executed by the cache controller on an exclusively
/// held block (Section 3.1: "the computational power of the atomic
/// instructions is placed in the cache controllers when the coherence
/// protocol is WI").
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
    let block = n.geom.block_of(addr);
    match n.cache.state_of(block) {
        Some(LineState::Modified) => {
            let old = n.cache.read_word(&n.geom, addr).expect("present");
            let (new, wrote) = op.apply(old, operand, operand2);
            if wrote {
                n.cache.write_word(&n.geom, addr, new);
                clf.word_written(n.id, addr, now);
            }
            fx.atomic_done = Some(old);
            fx.touched_blocks.push(block);
        }
        Some(LineState::Shared) => {
            clf.exclusive_request(block);
            n.pending_atomic = Some(PendingAtomic { addr, op, operand, operand2 });
            let home = n.home_of(addr);
            fx.sends.push(n.msg(home, addr, MsgKind::Upgrade));
        }
        Some(LineState::PrivateUpd) => unreachable!("PrivateUpd under WI"),
        None => {
            clf.classify_miss(n.id, addr, now);
            n.pending_atomic = Some(PendingAtomic { addr, op, operand, operand2 });
            let home = n.home_of(addr);
            fx.sends.push(n.msg(home, addr, MsgKind::GetX));
        }
    }
}

/// Message handler for everything WI-specific.
pub fn handle_msg(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    match msg.kind {
        // -------------------- home side --------------------
        MsgKind::ReadShared => home_read(n, msg, clf, now, fx),
        MsgKind::GetX => home_getx(n, msg, clf, now, fx),
        MsgKind::Upgrade => home_upgrade(n, msg, clf, now, fx),
        MsgKind::SharingWB { .. } => home_sharing_wb(n, msg, clf, now, fx),
        MsgKind::OwnershipXfer { .. } => home_ownership_xfer(n, msg, clf, now, fx),
        MsgKind::FetchMiss { .. } => home_fetch_miss(n, msg, fx),
        // -------------------- cache side --------------------
        MsgKind::Inval { requester } => {
            let block = n.geom.block_of(msg.addr);
            if n.cache.invalidate(block).is_some() {
                let cause = LossCause::External { word_addr: msg.addr, writer: requester };
                clf.copy_lost(n.id, block, cause, now);
                fx.touched_blocks.push(block);
            }
            fx.sends.push(n.msg(requester, msg.addr, MsgKind::InvAck));
        }
        MsgKind::Fetch { requester } => {
            let block = n.geom.block_of(msg.addr);
            let home = n.home_of(msg.addr);
            match n.cache.block_data(block) {
                Some(data) => {
                    n.cache.set_state(block, LineState::Shared);
                    fx.sends.push(n.msg(requester, msg.addr, MsgKind::DataFwd { data: Box::new(data) }));
                    fx.sends.push(n.msg(
                        home,
                        msg.addr,
                        MsgKind::SharingWB { data: Box::new(data), requester },
                    ));
                }
                None => {
                    let original =
                        Msg { src: requester, dst: home, addr: msg.addr, kind: MsgKind::ReadShared };
                    fx.sends.push(n.msg(home, msg.addr, MsgKind::FetchMiss { original: Box::new(original) }));
                }
            }
        }
        MsgKind::FetchInv { requester } => {
            let block = n.geom.block_of(msg.addr);
            let home = n.home_of(msg.addr);
            match n.cache.invalidate(block) {
                Some((_, data)) => {
                    let cause = LossCause::External { word_addr: msg.addr, writer: requester };
                    clf.copy_lost(n.id, block, cause, now);
                    fx.sends.push(n.msg(requester, msg.addr, MsgKind::DataXFwd { data: Box::new(data) }));
                    fx.sends.push(n.msg(home, msg.addr, MsgKind::OwnershipXfer { to: requester }));
                    fx.touched_blocks.push(block);
                }
                None => {
                    let original = Msg { src: requester, dst: home, addr: msg.addr, kind: MsgKind::GetX };
                    fx.sends.push(n.msg(home, msg.addr, MsgKind::FetchMiss { original: Box::new(original) }));
                }
            }
        }
        MsgKind::DataX { data, acks } => {
            let block = n.geom.block_of(msg.addr);
            n.acks_expected += acks as u64;
            n.fill_block(block, &data, LineState::Modified, clf, now, fx);
            fx.sync_progress = true;
            complete_store(n, block, clf, now, fx);
        }
        // DataXFwd carries no ack obligation: ownership came whole from the
        // previous (sole) owner, so there are no sharers to invalidate.
        MsgKind::DataXFwd { data } => {
            let block = n.geom.block_of(msg.addr);
            n.fill_block(block, &data, LineState::Modified, clf, now, fx);
            complete_store(n, block, clf, now, fx);
        }
        MsgKind::UpgradeAck { acks } => {
            let block = n.geom.block_of(msg.addr);
            n.acks_expected += acks as u64;
            n.cache.set_state(block, LineState::Modified);
            fx.sync_progress = true;
            fx.touched_blocks.push(block);
            complete_store(n, block, clf, now, fx);
        }
        other => unreachable!("WI node {} got unexpected message {:?}", n.id, other),
    }
}

/// Completes the pending write or atomic after exclusive ownership of
/// `block` arrived, and finishes a piggybacked read if one waited.
fn complete_store(
    n: &mut ProtoNode,
    block: sim_mem::BlockAddr,
    clf: &mut Classifier,
    now: Cycle,
    fx: &mut Effects,
) {
    if let Some(pw) = n.pending_write {
        if n.geom.block_of(pw.addr) == block {
            n.cache.write_word(&n.geom, pw.addr, pw.val);
            clf.word_written(n.id, pw.addr, now);
            n.pending_write = None;
            fx.write_retired = true;
        }
    }
    if let Some(pa) = n.pending_atomic {
        if n.geom.block_of(pa.addr) == block {
            let old = n.cache.read_word(&n.geom, pa.addr).expect("present");
            let (new, wrote) = pa.op.apply(old, pa.operand, pa.operand2);
            if wrote {
                n.cache.write_word(&n.geom, pa.addr, new);
                clf.word_written(n.id, pa.addr, now);
            }
            n.pending_atomic = None;
            fx.atomic_done = Some(old);
        }
    }
    if let Some(v) = n.complete_piggyback_read(block) {
        fx.read_done = Some(v);
    }
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
        DirState::Owned if e.owner == r => {
            // Requester is the registered owner: its eviction writeback is
            // still in flight. Park the request until it lands.
            n.wait_for_writeback(block, msg);
        }
        DirState::Owned => {
            let owner = e.owner;
            e.busy = true;
            fx.sends.push(n.msg(owner, msg.addr, MsgKind::Fetch { requester: r }));
        }
    }
}

fn home_getx(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    debug_assert_eq!(n.home_of(msg.addr), n.id);
    let block = n.geom.block_of(msg.addr);
    if n.defer_if_busy(block, &msg) {
        return;
    }
    let r = msg.src;
    let e = n.dir.entry(block);
    match e.state {
        DirState::Uncached | DirState::Shared => {
            let mut others = e.sharers;
            others.remove(r);
            e.owner = r;
            e.sharers = SharerSet::empty();
            set_dir_state(e, block, DirState::Owned, r, "GetX", clf, now);
            let data = n.mem.read_block(block);
            fx.sends.push(n.msg(r, msg.addr, MsgKind::DataX { data, acks: others.len() as u32 }));
            for s in others.iter() {
                fx.sends.push(n.msg(s, msg.addr, MsgKind::Inval { requester: r }));
            }
        }
        DirState::Owned if e.owner == r => {
            n.wait_for_writeback(block, msg);
        }
        DirState::Owned => {
            let owner = e.owner;
            e.busy = true;
            fx.sends.push(n.msg(owner, msg.addr, MsgKind::FetchInv { requester: r }));
        }
    }
}

fn home_upgrade(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    debug_assert_eq!(n.home_of(msg.addr), n.id);
    let block = n.geom.block_of(msg.addr);
    if n.defer_if_busy(block, &msg) {
        return;
    }
    let r = msg.src;
    let e = n.dir.entry(block);
    if e.state == DirState::Shared && e.sharers.contains(r) {
        let mut others = e.sharers;
        others.remove(r);
        e.owner = r;
        e.sharers = SharerSet::empty();
        set_dir_state(e, block, DirState::Owned, r, "Upgrade", clf, now);
        fx.sends.push(n.msg(r, msg.addr, MsgKind::UpgradeAck { acks: others.len() as u32 }));
        for s in others.iter() {
            fx.sends.push(n.msg(s, msg.addr, MsgKind::Inval { requester: r }));
        }
    } else {
        // The requester's copy was invalidated while the upgrade was in
        // flight; serve it as a full GetX instead.
        home_getx(n, Msg { kind: MsgKind::GetX, ..msg }, clf, now, fx);
    }
}

fn home_sharing_wb(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    let block = n.geom.block_of(msg.addr);
    let MsgKind::SharingWB { data, requester } = msg.kind else { unreachable!() };
    n.mem.write_block(block, &data);
    let e = n.dir.entry(block);
    debug_assert!(e.busy);
    e.sharers = SharerSet::empty();
    e.sharers.insert(msg.src); // previous owner keeps a shared copy
    e.sharers.insert(requester);
    e.busy = false;
    set_dir_state(e, block, DirState::Shared, requester, "SharingWB", clf, now);
    fx.requeue_home.extend(e.waiting.drain(..));
}

fn home_ownership_xfer(n: &mut ProtoNode, msg: Msg, clf: &mut Classifier, now: Cycle, fx: &mut Effects) {
    let block = n.geom.block_of(msg.addr);
    let MsgKind::OwnershipXfer { to } = msg.kind else { unreachable!() };
    let e = n.dir.entry(block);
    debug_assert!(e.busy);
    e.owner = to;
    e.sharers = SharerSet::empty();
    e.busy = false;
    // The recall kept the block Owned, so lineage sees no transition.
    set_dir_state(e, block, DirState::Owned, to, "OwnershipXfer", clf, now);
    fx.requeue_home.extend(e.waiting.drain(..));
}

fn home_fetch_miss(n: &mut ProtoNode, msg: Msg, fx: &mut Effects) {
    let block = n.geom.block_of(msg.addr);
    let MsgKind::FetchMiss { original } = msg.kind else { unreachable!() };
    let e = n.dir.entry(block);
    e.busy = false;
    fx.requeue_home.push(*original);
    fx.requeue_home.extend(e.waiting.drain(..));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;
    use crate::node::{ProtoConfig, ProtoNode, Protocol};
    use sim_mem::Geometry;
    use sim_stats::Classifier;

    fn node(id: usize) -> (ProtoNode, Classifier) {
        let geom = Geometry::new(4);
        let cfg = ProtoConfig { protocol: Protocol::WriteInvalidate, ..Default::default() };
        (ProtoNode::new(id, geom, cfg), Classifier::new(geom))
    }

    /// A word address homed at node `h`.
    fn addr_on(geom: &Geometry, h: usize) -> u32 {
        geom.region_base(h) + 0x40
    }

    #[test]
    fn read_miss_sends_read_shared_to_home() {
        let (mut n, mut clf) = node(1);
        let a = addr_on(&n.geom, 2);
        let mut fx = Effects::default();
        n.cpu_read(a, &mut clf, 0, &mut fx);
        assert!(fx.read_done.is_none());
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.sends[0].dst, 2);
        assert!(matches!(fx.sends[0].kind, MsgKind::ReadShared));
        assert!(n.pending_read.is_some());
    }

    #[test]
    fn home_serves_uncached_read_from_memory() {
        let (mut home, mut clf) = node(2);
        let a = addr_on(&home.geom, 2);
        home.mem.write_word(&home.geom.clone(), a, 77);
        let mut fx = Effects::default();
        home.handle_msg(Msg { src: 1, dst: 2, addr: a, kind: MsgKind::ReadShared }, &mut clf, 0, &mut fx);
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.sends[0].dst, 1);
        let MsgKind::Data { ref data } = fx.sends[0].kind else { panic!() };
        assert_eq!(data[home.geom.word_index(a)], 77);
        let e = home.dir.get(home.geom.block_of(a)).unwrap();
        assert_eq!(e.state, DirState::Shared);
        assert!(e.sharers.contains(1));
    }

    #[test]
    fn home_getx_invalidates_sharers_and_grants_ownership() {
        let (mut home, mut clf) = node(0);
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
        home.handle_msg(Msg { src: 1, dst: 0, addr: a, kind: MsgKind::GetX }, &mut clf, 0, &mut fx);
        // DataX to the requester + invals to the two other sharers.
        let mut dx = 0;
        let mut inv = vec![];
        for m in &fx.sends {
            match &m.kind {
                MsgKind::DataX { acks, .. } => {
                    dx += 1;
                    assert_eq!(*acks, 2);
                    assert_eq!(m.dst, 1);
                }
                MsgKind::Inval { requester } => {
                    assert_eq!(*requester, 1);
                    inv.push(m.dst);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        inv.sort();
        assert_eq!((dx, inv), (1, vec![2, 3]));
        let e = home.dir.get(block).unwrap();
        assert_eq!(e.state, DirState::Owned);
        assert_eq!(e.owner, 1);
    }

    #[test]
    fn upgrade_falls_back_to_getx_when_copy_lost() {
        let (mut home, mut clf) = node(0);
        let a = addr_on(&home.geom, 0);
        let block = home.geom.block_of(a);
        {
            let e = home.dir.entry(block);
            e.state = DirState::Shared;
            e.sharers.insert(2); // requester 1 is NOT a sharer anymore
        }
        let mut fx = Effects::default();
        home.handle_msg(Msg { src: 1, dst: 0, addr: a, kind: MsgKind::Upgrade }, &mut clf, 0, &mut fx);
        assert!(
            fx.sends.iter().any(|m| matches!(m.kind, MsgKind::DataX { .. })),
            "served as a full GetX: {:?}",
            fx.sends
        );
    }

    #[test]
    fn home_read_of_owned_block_recalls_owner() {
        let (mut home, mut clf) = node(0);
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
        assert!(matches!(fx.sends[0].kind, MsgKind::Fetch { requester: 1 }));
        assert!(home.dir.get(block).unwrap().busy);
        // A second request while busy is deferred.
        let mut fx2 = Effects::default();
        home.handle_msg(Msg { src: 2, dst: 0, addr: a, kind: MsgKind::ReadShared }, &mut clf, 1, &mut fx2);
        assert!(fx2.sends.is_empty());
        assert_eq!(home.dir.get(block).unwrap().waiting.len(), 1);
    }

    #[test]
    fn owner_fetch_demotes_and_forwards() {
        let (mut owner, mut clf) = node(3);
        let a = addr_on(&owner.geom, 0);
        let block = owner.geom.block_of(a);
        owner.cache.fill(block, &[9; 16], LineState::Modified);
        clf.copy_acquired(3, block);
        let mut fx = Effects::default();
        owner.handle_msg(
            Msg { src: 0, dst: 3, addr: a, kind: MsgKind::Fetch { requester: 1 } },
            &mut clf,
            0,
            &mut fx,
        );
        assert_eq!(owner.cache.state_of(block), Some(LineState::Shared));
        assert!(fx.sends.iter().any(|m| m.dst == 1 && matches!(m.kind, MsgKind::DataFwd { .. })));
        assert!(fx
            .sends
            .iter()
            .any(|m| m.dst == 0 && matches!(m.kind, MsgKind::SharingWB { requester: 1, .. })));
    }

    #[test]
    fn owner_fetch_miss_bounces_original_request() {
        let (mut owner, mut clf) = node(3);
        let a = addr_on(&owner.geom, 0);
        // Owner no longer caches the block (eviction raced the recall).
        let mut fx = Effects::default();
        owner.handle_msg(
            Msg { src: 0, dst: 3, addr: a, kind: MsgKind::FetchInv { requester: 1 } },
            &mut clf,
            0,
            &mut fx,
        );
        assert_eq!(fx.sends.len(), 1);
        let MsgKind::FetchMiss { ref original } = fx.sends[0].kind else { panic!() };
        assert!(matches!(original.kind, MsgKind::GetX));
        assert_eq!(original.src, 1);
    }

    #[test]
    fn sharer_invalidation_acks_the_requester_even_without_copy() {
        let (mut sharer, mut clf) = node(2);
        let a = addr_on(&sharer.geom, 0);
        let mut fx = Effects::default();
        sharer.handle_msg(
            Msg { src: 0, dst: 2, addr: a, kind: MsgKind::Inval { requester: 1 } },
            &mut clf,
            0,
            &mut fx,
        );
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.sends[0].dst, 1);
        assert!(matches!(fx.sends[0].kind, MsgKind::InvAck));
    }

    #[test]
    fn data_reply_completes_pending_read_and_write_path_acks() {
        let (mut n, mut clf) = node(1);
        let a = addr_on(&n.geom, 2);
        n.cpu_read(a, &mut clf, 0, &mut Effects::default());
        let mut data = vec![0u32; 16].into_boxed_slice();
        data[n.geom.word_index(a)] = 55;
        let mut fx = Effects::default();
        n.handle_msg(Msg { src: 2, dst: 1, addr: a, kind: MsgKind::Data { data } }, &mut clf, 5, &mut fx);
        assert_eq!(fx.read_done, Some(55));
        assert!(n.pending_read.is_none());
        // Ack bookkeeping via InvAck.
        n.acks_expected += 1;
        assert!(!n.sync_complete());
        let mut fx = Effects::default();
        n.handle_msg(Msg { src: 3, dst: 1, addr: a, kind: MsgKind::InvAck }, &mut clf, 6, &mut fx);
        assert!(fx.sync_progress);
        assert!(n.sync_complete());
    }

    #[test]
    fn write_hit_on_modified_retires_immediately() {
        let (mut n, mut clf) = node(1);
        let a = addr_on(&n.geom, 2);
        let block = n.geom.block_of(a);
        n.cache.fill(block, &[0; 16], LineState::Modified);
        clf.copy_acquired(1, block);
        let mut fx = Effects::default();
        n.issue_write(a, 42, &mut clf, 0, &mut fx);
        assert!(fx.write_retired);
        assert!(fx.sends.is_empty());
        assert_eq!(n.cache.read_word(&n.geom, a), Some(42));
    }

    #[test]
    fn write_hit_on_shared_upgrades_and_counts_exclusive_request() {
        let (mut n, mut clf) = node(1);
        let a = addr_on(&n.geom, 2);
        let block = n.geom.block_of(a);
        n.cache.fill(block, &[0; 16], LineState::Shared);
        clf.copy_acquired(1, block);
        let mut fx = Effects::default();
        n.issue_write(a, 42, &mut clf, 0, &mut fx);
        assert!(!fx.write_retired);
        assert!(matches!(fx.sends[0].kind, MsgKind::Upgrade));
        assert_eq!(clf.report().misses.exclusive_requests, 1);
    }

    #[test]
    fn atomic_on_modified_block_executes_locally() {
        let (mut n, mut clf) = node(1);
        let a = addr_on(&n.geom, 2);
        let block = n.geom.block_of(a);
        let mut data = vec![0u32; 16].into_boxed_slice();
        data[n.geom.word_index(a)] = 10;
        n.cache.fill(block, &data, LineState::Modified);
        clf.copy_acquired(1, block);
        let mut fx = Effects::default();
        n.cpu_atomic(AtomicOp::FetchAdd, a, 5, 0, &mut clf, 0, &mut fx);
        assert_eq!(fx.atomic_done, Some(10));
        assert_eq!(n.cache.read_word(&n.geom, a), Some(15));
        assert!(fx.sends.is_empty(), "no traffic for a local atomic");
    }

    #[test]
    fn failed_cas_does_not_write() {
        let (mut n, mut clf) = node(1);
        let a = addr_on(&n.geom, 2);
        let block = n.geom.block_of(a);
        let mut data = vec![0u32; 16].into_boxed_slice();
        data[n.geom.word_index(a)] = 10;
        n.cache.fill(block, &data, LineState::Modified);
        clf.copy_acquired(1, block);
        let mut fx = Effects::default();
        n.cpu_atomic(AtomicOp::CompareAndSwap, a, 99, 1, &mut clf, 0, &mut fx);
        assert_eq!(fx.atomic_done, Some(10));
        assert_eq!(n.cache.read_word(&n.geom, a), Some(10), "swap must not happen");
    }
}
