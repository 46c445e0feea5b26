//! Spin-lock kernels (Section 2.1) and the Section 4.1 synthetic program.
//!
//! Data placement follows the paper ("shared data are mapped to the
//! processors that use them most frequently"): the centralized lock's two
//! counters live together in one cache block on node 0 (one record,
//! Figure 1 — which is what makes WI "constantly re-load the ticket and
//! now counters" and makes most ticket updates useless, as Figures 9-10
//! report); each processor's MCS queue node lives in its own cache block
//! homed at that processor; the MCS tail pointer has its own block on
//! node 0.

use sim_isa::{AluOp, Program, ProgramBuilder, SyncOp};
use sim_machine::Machine;
use sim_mem::Addr;

use crate::regs::*;
use crate::workloads::{LockKind, LockWorkload, PostRelease};
use crate::{emit_epilogue, phase};

/// The sync-object id every lock kernel reports its episodes under (each
/// kernel has a single lock; the per-lock analytics key on this).
pub const LOCK_ID: u32 = 0;

/// Addresses of the lock structures, for post-run verification.
#[derive(Debug, Clone)]
pub struct LockLayout {
    /// Ticket lock: the `next_ticket` counter (ticket lock only).
    pub next_ticket: Addr,
    /// Ticket lock: the `now_serving` counter (ticket lock only).
    pub now_serving: Addr,
    /// MCS tail pointer / TAS lock word / Anderson slot counter.
    pub tail: Addr,
    /// Anderson queue lock: base of the P block-padded slots.
    pub anderson_slots: Addr,
    /// Per-processor completion counters (each processor stores its
    /// executed iteration count here before halting).
    pub done: Vec<Addr>,
    /// Iterations assigned to each processor.
    pub iters: Vec<u32>,
}

/// Which neighbor queue nodes the MCS release/acquire paths flush.
#[derive(Debug, Clone, Copy, Default)]
pub struct McsFlush {
    /// Flush the predecessor's queue node after linking behind it.
    pub pred: bool,
    /// Flush the successor's queue node after handing the lock to it.
    pub succ: bool,
}

/// The flush sides of an MCS kind: none for plain MCS, both for the
/// paper's update-conscious MCS, one for each of the two variants the
/// `all_figures ablation_uc_flush` table measures. `None` for the kinds
/// that are not MCS.
pub fn mcs_flush(kind: LockKind) -> Option<McsFlush> {
    let (pred, succ) = match kind {
        LockKind::Mcs => (false, false),
        LockKind::McsFlushPred => (true, false),
        LockKind::McsFlushSucc => (false, true),
        LockKind::McsUpdateConscious => (true, true),
        LockKind::Ticket
        | LockKind::TicketPadded
        | LockKind::TestAndSet
        | LockKind::TestAndTestAndSet
        | LockKind::AndersonQueue => return None,
    };
    Some(McsFlush { pred, succ })
}

/// Lays out lock data and installs the Section 4.1 synthetic program on
/// every processor of `m`. The ticket lock's `next_ticket` and
/// `now_serving` share one cache block: they are one record in Figure 1,
/// and the paper's Figure 9 discussion of WI "constantly re-loading the
/// ticket and now counters" implies they do. [`LockKind::TicketPadded`]
/// gives each its own block instead, and each MCS kind flushes the queue
/// nodes [`mcs_flush`] names; the `all_figures ablation_counter_layout`
/// and `ablation_uc_flush` tables compare them.
pub fn install(m: &mut Machine, w: &LockWorkload) -> LockLayout {
    let p = m.config().num_procs;
    let (next_ticket, now_serving) = if w.kind == LockKind::TicketPadded {
        (m.alloc().alloc_block_on(0, 1), m.alloc().alloc_block_on(0, 1))
    } else {
        let base = m.alloc().alloc_block_on(0, 2);
        (base, base + 4)
    };
    let tail = m.alloc().alloc_block_on(0, 1);
    // Anderson slots: P contiguous blocks on node 0, one flag per block.
    let slots = m.alloc().alloc_block_on(0, 16 * p as u32);
    let qnodes: Vec<Addr> = (0..p).map(|i| m.alloc().alloc_block_on(i, 2)).collect();
    let done: Vec<Addr> = (0..p).map(|i| m.alloc().alloc_block_on(i, 1)).collect();
    // Attribution ranges for TrafficReport::by_structure.
    m.register_structure("next_ticket", next_ticket, 1);
    m.register_structure("now_serving", now_serving, 1);
    m.register_structure("lock/tail", tail, 1);
    m.register_structure("anderson_slots", slots, 16 * p as u32);
    if w.kind == LockKind::AndersonQueue {
        m.poke_word(slots, 1); // slot 0 starts with the lock
    }
    for (i, &q) in qnodes.iter().enumerate() {
        m.register_structure(&format!("qnode[{i}]"), q, 2);
    }
    // 32000/P iterations per processor; distribute any remainder so the
    // machine-wide total is exact.
    let iters: Vec<u32> = (0..p)
        .map(|i| w.total_acquires / p as u32 + u32::from((i as u32) < w.total_acquires % p as u32))
        .collect();
    let flush = mcs_flush(w.kind).unwrap_or_default();
    for i in 0..p {
        let prog = match w.kind {
            LockKind::Ticket | LockKind::TicketPadded => {
                ticket_program(w, next_ticket, now_serving, iters[i], done[i])
            }
            LockKind::TestAndSet => tas_program(w, tail, iters[i], done[i], false),
            LockKind::TestAndTestAndSet => tas_program(w, tail, iters[i], done[i], true),
            LockKind::AndersonQueue => anderson_program(w, tail, slots, p as u32, iters[i], done[i]),
            LockKind::Mcs
            | LockKind::McsFlushPred
            | LockKind::McsFlushSucc
            | LockKind::McsUpdateConscious => mcs_program(w, tail, qnodes[i], iters[i], done[i], flush),
        };
        m.set_program(i, prog);
    }
    LockLayout { next_ticket, now_serving, tail, anderson_slots: slots, done, iters }
}

/// Emits the post-release behavior of the Section 4.1 variants.
fn emit_post_release(b: &mut ProgramBuilder, w: &LockWorkload) {
    match w.post_release {
        PostRelease::None => {}
        PostRelease::Random { bound } => {
            b.rand_delay(bound.max(1));
        }
        PostRelease::Proportional { ratio } => {
            // outside ≈ ratio × inside, jittered ±10%.
            let base = w.cs_cycles * ratio;
            let fixed = base * 9 / 10;
            let jitter = (base / 5).max(1);
            b.delay(fixed.max(1));
            b.rand_delay(jitter);
        }
    }
}

/// The centralized ticket lock (Figure 1) in the synthetic loop.
///
/// ```text
/// loop: my = fetch_and_add(next_ticket, 1)
///       spin until now_serving == my
///       <cs_cycles of work>
///       fence; now_serving = my + 1        // release
/// ```
fn ticket_program(w: &LockWorkload, next_ticket: Addr, now_serving: Addr, iters: u32, done: Addr) -> Program {
    let mut b = ProgramBuilder::new();
    if iters == 0 {
        emit_epilogue(&mut b, done, 0);
        return b.build();
    }
    emit_ticket_prologue(&mut b, next_ticket, now_serving);
    b.imm(ITER, iters);
    b.label("loop");
    b.phase(phase::ACQUIRE);
    emit_ticket_acquire(&mut b);
    b.phase(phase::HOLD);
    b.delay(w.cs_cycles);
    b.phase(phase::RELEASE);
    emit_ticket_release(&mut b);
    b.phase(phase::OUTSIDE);
    emit_post_release(&mut b, w);
    b.alui(AluOp::Sub, ITER, ITER, 1);
    b.bnz(ITER, "loop");
    emit_epilogue(&mut b, done, iters);
    b.build()
}

/// The MCS list-based queuing lock (Figure 2) in the synthetic loop, with
/// the update-conscious flushes when `uc` is set.
fn mcs_program(
    w: &LockWorkload,
    tail: Addr,
    qnode: Addr,
    iters: u32,
    done: Addr,
    flush: McsFlush,
) -> Program {
    let mut b = ProgramBuilder::new();
    if iters == 0 {
        emit_epilogue(&mut b, done, 0);
        return b.build();
    }
    emit_mcs_prologue(&mut b, tail, qnode);
    b.imm(ITER, iters);
    b.label("loop");
    b.phase(phase::ACQUIRE);
    emit_mcs_acquire(&mut b, flush, "m");
    b.phase(phase::HOLD);
    b.delay(w.cs_cycles);
    b.phase(phase::RELEASE);
    emit_mcs_release(&mut b, flush, "m");
    b.phase(phase::OUTSIDE);
    emit_post_release(&mut b, w);
    b.alui(AluOp::Sub, ITER, ITER, 1);
    b.bnz(ITER, "loop");
    emit_epilogue(&mut b, done, iters);
    b.build()
}

/// Emits register setup for the ticket-lock emitters: the two counter
/// addresses in `BASE`/`BASE2` and the constant 1 in `ONE`. Kernels that
/// compose the lock with other code must leave those registers (and
/// `T0`/`T1`) to the lock.
pub fn emit_ticket_prologue(b: &mut ProgramBuilder, next_ticket: Addr, now_serving: Addr) {
    b.imm(BASE, next_ticket);
    b.imm(BASE2, now_serving);
    b.imm(ONE, 1);
}

/// Emits a ticket-lock acquire (Figure 1): takes a ticket, spins until
/// served. The ticket stays in `T0` for the matching release.
pub fn emit_ticket_acquire(b: &mut ProgramBuilder) {
    b.sync(SyncOp::AcquireAttempt, LOCK_ID);
    b.fetch_add(T0, BASE, ONE); // my ticket
    b.spin_while_ne(BASE2, T0); // until now_serving == my
    b.sync(SyncOp::Acquired, LOCK_ID);
}

/// Emits a ticket-lock release: fence (release semantics), then hand off.
pub fn emit_ticket_release(b: &mut ProgramBuilder) {
    b.alui(AluOp::Add, T1, T0, 1);
    b.fence(); // prior work drains before the hand-off store
    b.store(BASE2, 0, T1);
    b.sync(SyncOp::Released, LOCK_ID);
}

/// Emits register setup for the MCS emitters: tail pointer in `BASE`, this
/// processor's queue node in `BASE2`, its flag address in `K0`, constants
/// in `ONE`/`ZERO`. Composing kernels must leave those plus `T0`-`T3` to
/// the lock.
pub fn emit_mcs_prologue(b: &mut ProgramBuilder, tail: Addr, qnode: Addr) {
    b.imm(BASE, tail);
    b.imm(BASE2, qnode); // &I->next; I->locked at +4
    b.imm(K0, qnode + 4); // &I->locked (spin target register)
    b.imm(ONE, 1);
    b.imm(ZERO, 0);
}

/// Emits an MCS acquire (Figure 2). `tag` disambiguates labels when the
/// sequence is emitted more than once in a program.
pub fn emit_mcs_acquire(b: &mut ProgramBuilder, flush: McsFlush, tag: &str) {
    b.sync(SyncOp::AcquireAttempt, LOCK_ID);
    b.store(BASE2, 0, ZERO); // I->next := nil
    b.fetch_store(T0, BASE, BASE2); // predecessor := swap(L, I)
    b.bez(T0, &format!("got_{tag}"));
    b.store(BASE2, 4, ONE); // I->locked := true
    b.store(T0, 0, BASE2); // predecessor->next := I
    if flush.pred {
        b.flush(T0); // flush *pred (update-conscious MCS)
    }
    b.spin_while_eq(K0, ONE); // repeat while I->locked
    b.label(&format!("got_{tag}"));
    b.sync(SyncOp::Acquired, LOCK_ID);
}

/// Emits an MCS release (Figure 2), tagged like [`emit_mcs_acquire`].
pub fn emit_mcs_release(b: &mut ProgramBuilder, flush: McsFlush, tag: &str) {
    b.load(T1, BASE2, 0); // successor := I->next
    b.bnz(T1, &format!("have_succ_{tag}"));
    b.cas(T2, BASE, BASE2, ZERO); // if compare_and_swap(L, I, nil) return
    b.alu(AluOp::Eq, T3, T2, BASE2);
    b.bnz(T3, &format!("released_{tag}"));
    b.spin_while_eq(BASE2, ZERO); // repeat while I->next = nil
    b.load(T1, BASE2, 0);
    b.label(&format!("have_succ_{tag}"));
    b.fence(); // release: critical-section work drains first
    b.store(T1, 4, ZERO); // I->next->locked := false
    if flush.succ {
        b.flush(T1); // flush *(I->next) (update-conscious MCS)
    }
    b.label(&format!("released_{tag}"));
    b.sync(SyncOp::Released, LOCK_ID);
}

/// Test-and-set (and test-and-test-and-set) with bounded exponential
/// backoff, in the synthetic loop. These are the classic baselines from
/// Mellor-Crummey & Scott's study; the lock word reuses the `tail` slot.
///
/// ```text
/// acquire: [ttas: spin until L == 0]
///          if fetch_and_store(L, 1) == 0 -> got
///          wait(backoff); backoff = min(2*backoff, 1024); retry
/// release: fence; L := 0
/// ```
fn tas_program(w: &LockWorkload, lock: Addr, iters: u32, done: Addr, test_first: bool) -> Program {
    let mut b = ProgramBuilder::new();
    if iters == 0 {
        emit_epilogue(&mut b, done, 0);
        return b.build();
    }
    b.imm(BASE, lock);
    b.imm(ONE, 1);
    b.imm(ZERO, 0);
    b.imm(K2, 1024); // backoff cap
    b.imm(ITER, iters);
    b.label("loop");
    b.phase(phase::ACQUIRE);
    b.sync(SyncOp::AcquireAttempt, LOCK_ID);
    b.imm(K1, 4); // reset backoff each acquire
    b.label("try");
    if test_first {
        b.spin_while_ne(BASE, ZERO); // wait until the lock looks free
    }
    b.fetch_store(T0, BASE, ONE);
    b.bez(T0, "got");
    b.delay_reg(K1); // exponential backoff
    b.alu(AluOp::Add, K1, K1, K1);
    b.alu(AluOp::Lt, T1, K2, K1); // cap < backoff?
    b.bez(T1, "try");
    b.mov(K1, K2);
    b.jmp("try");
    b.label("got");
    b.sync(SyncOp::Acquired, LOCK_ID);
    b.phase(phase::HOLD);
    b.delay(w.cs_cycles);
    b.phase(phase::RELEASE);
    b.fence(); // release
    b.store(BASE, 0, ZERO);
    b.sync(SyncOp::Released, LOCK_ID);
    b.phase(phase::OUTSIDE);
    emit_post_release(&mut b, w);
    b.alui(AluOp::Sub, ITER, ITER, 1);
    b.bnz(ITER, "loop");
    emit_epilogue(&mut b, done, iters);
    b.build()
}

/// Anderson's array-based queue lock in the synthetic loop. `counter`
/// (the shared slot counter) reuses the `tail` slot; `slots` is the base
/// of P contiguous block-padded flag slots (flag = word 0 of each block;
/// 1 = has-lock, 0 = must-wait).
fn anderson_program(w: &LockWorkload, counter: Addr, slots: Addr, p: u32, iters: u32, done: Addr) -> Program {
    let mut b = ProgramBuilder::new();
    if iters == 0 {
        emit_epilogue(&mut b, done, 0);
        return b.build();
    }
    b.imm(BASE, counter);
    b.imm(BASE2, slots);
    b.imm(ONE, 1);
    b.imm(ZERO, 0);
    b.imm(K1, p);
    b.imm(ITER, iters);
    b.label("loop");
    b.phase(phase::ACQUIRE);
    b.sync(SyncOp::AcquireAttempt, LOCK_ID);
    // my slot = fetch_and_add(counter) mod P
    b.fetch_add(T0, BASE, ONE);
    b.alu(AluOp::Mod, T0, T0, K1);
    b.alui(AluOp::Shl, T1, T0, 6); // * 64-byte stride
    b.alu(AluOp::Add, T1, T1, BASE2);
    b.spin_while_eq(T1, ZERO); // while must_wait
    b.sync(SyncOp::Acquired, LOCK_ID);
    b.phase(phase::HOLD);
    b.delay(w.cs_cycles);
    b.phase(phase::RELEASE);
    // release: my flag back to must_wait, hand the lock to the next slot
    b.fence();
    b.store(T1, 0, ZERO);
    b.alui(AluOp::Add, T2, T0, 1);
    b.alu(AluOp::Mod, T2, T2, K1);
    b.alui(AluOp::Shl, T2, T2, 6);
    b.alu(AluOp::Add, T2, T2, BASE2);
    b.store(T2, 0, ONE);
    b.sync(SyncOp::Released, LOCK_ID);
    b.phase(phase::OUTSIDE);
    emit_post_release(&mut b, w);
    b.alui(AluOp::Sub, ITER, ITER, 1);
    b.bnz(ITER, "loop");
    emit_epilogue(&mut b, done, iters);
    b.build()
}

/// Verifies lock-kernel postconditions on the finished machine: every
/// processor completed its iterations, and the lock data structures are in
/// their quiescent state.
pub fn verify(m: &mut Machine, w: &LockWorkload, layout: &LockLayout) {
    let p = layout.done.len();
    for i in 0..p {
        assert_eq!(m.read_word(layout.done[i]), layout.iters[i], "processor {i} completed");
    }
    match w.kind {
        LockKind::Ticket | LockKind::TicketPadded => {
            assert_eq!(m.read_word(layout.next_ticket), w.total_acquires, "every ticket was taken");
            assert_eq!(m.read_word(layout.now_serving), w.total_acquires, "every ticket was served");
        }
        LockKind::Mcs | LockKind::McsFlushPred | LockKind::McsFlushSucc | LockKind::McsUpdateConscious => {
            // The final release must have found no successor and swung the
            // tail back to nil. (Queue nodes keep stale `next` values by
            // design — acquire resets them.)
            assert_eq!(m.read_word(layout.tail), 0, "queue drained");
        }
        LockKind::TestAndSet | LockKind::TestAndTestAndSet => {
            assert_eq!(m.read_word(layout.tail), 0, "lock released");
        }
        LockKind::AndersonQueue => {
            // The counter took exactly total_acquires increments and the
            // flag rests on slot (total % P).
            assert_eq!(m.read_word(layout.tail), w.total_acquires, "every slot was taken");
            let p = layout.done.len() as u32;
            for slot in 0..p {
                let addr = layout.anderson_slots + 64 * slot;
                let expect = u32::from(slot == w.total_acquires % p);
                assert_eq!(m.read_word(addr), expect, "slot {slot} flag");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_machine::MachineConfig;
    use sim_proto::Protocol;

    fn run(kind: LockKind, protocol: Protocol, procs: usize, total: u32) -> (u64, sim_stats::TrafficReport) {
        let w = LockWorkload { kind, total_acquires: total, cs_cycles: 20, post_release: PostRelease::None };
        let mut m = Machine::new(MachineConfig::paper(procs, protocol));
        let layout = install(&mut m, &w);
        let r = m.run();
        verify(&mut m, &w, &layout);
        (r.cycles, r.traffic)
    }

    #[test]
    fn ticket_lock_all_protocols() {
        for kind in [LockKind::Ticket, LockKind::TicketPadded] {
            for p in [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate] {
                let (cycles, _) = run(kind, p, 4, 64);
                assert!(cycles > 64 * 20, "{kind:?} {p:?}: at least the critical sections");
            }
        }
    }

    #[test]
    fn mcs_lock_all_protocols() {
        for p in [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate] {
            let (cycles, _) = run(LockKind::Mcs, p, 4, 64);
            assert!(cycles > 64 * 20, "{p:?}");
        }
    }

    #[test]
    fn update_conscious_mcs_all_protocols() {
        for kind in [LockKind::McsUpdateConscious, LockKind::McsFlushPred, LockKind::McsFlushSucc] {
            for p in [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate] {
                let (cycles, _) = run(kind, p, 4, 64);
                assert!(cycles > 64 * 20, "{kind:?} {p:?}");
            }
        }
    }

    #[test]
    fn the_kind_fixes_flush_sides_and_counter_layout() {
        // Under PU only a flush drops a line, so each one-sided variant
        // shows drop misses and plain MCS shows none.
        let drops = |kind| run(kind, Protocol::PureUpdate, 4, 256).1.misses.drop;
        assert_eq!(drops(LockKind::Mcs), 0);
        assert!(drops(LockKind::McsFlushPred) > 0);
        assert!(drops(LockKind::McsFlushSucc) > 0);

        let block = |kind| {
            let w = LockWorkload { kind, total_acquires: 4, cs_cycles: 1, post_release: PostRelease::None };
            let mut m = Machine::new(MachineConfig::paper(2, Protocol::WriteInvalidate));
            let l = install(&mut m, &w);
            (l.next_ticket / 64, l.now_serving / 64)
        };
        let (next, now) = block(LockKind::Ticket);
        assert_eq!(next, now, "Figure 1's record: one block");
        let (next, now) = block(LockKind::TicketPadded);
        assert_ne!(next, now, "padded: one block each");
    }

    #[test]
    fn single_processor_degenerates_gracefully() {
        for kind in [LockKind::Ticket, LockKind::Mcs, LockKind::McsUpdateConscious] {
            let (cycles, traffic) = run(kind, Protocol::WriteInvalidate, 1, 16);
            assert!(cycles >= 16 * 20, "{kind:?}");
            // Uncontended: no sharing misses at all.
            assert_eq!(traffic.misses.true_sharing, 0, "{kind:?}");
            assert_eq!(traffic.misses.false_sharing, 0, "{kind:?}");
        }
    }

    #[test]
    fn uneven_iteration_split_still_exact() {
        // 3 processors, 32 acquires: 11 + 11 + 10.
        let (_c, _t) = run(LockKind::Ticket, Protocol::PureUpdate, 3, 32);
    }

    #[test]
    fn mcs_generates_more_update_traffic_than_ticket_under_pu() {
        // The paper's central MCS/PU pathology, at miniature scale.
        let (_, tk) = run(LockKind::Ticket, Protocol::PureUpdate, 4, 128);
        let (_, mcs) = run(LockKind::Mcs, Protocol::PureUpdate, 4, 128);
        assert!(
            mcs.updates.total() > tk.updates.total(),
            "MCS updates {} should exceed ticket updates {}",
            mcs.updates.total(),
            tk.updates.total()
        );
    }

    #[test]
    fn uc_mcs_reduces_updates_but_adds_misses_under_pu() {
        let (_, mcs) = run(LockKind::Mcs, Protocol::PureUpdate, 4, 256);
        let (_, uc) = run(LockKind::McsUpdateConscious, Protocol::PureUpdate, 4, 256);
        assert!(
            uc.updates.total() < mcs.updates.total(),
            "flushing should cut updates: uc {} vs mcs {}",
            uc.updates.total(),
            mcs.updates.total()
        );
        assert!(
            uc.misses.total_misses() > mcs.misses.total_misses(),
            "flushing should add (drop) misses: uc {} vs mcs {}",
            uc.misses.total_misses(),
            mcs.misses.total_misses()
        );
        assert!(uc.misses.drop > 0, "flush-induced misses classify as drops");
    }

    #[test]
    fn anderson_queue_all_protocols_and_sizes() {
        for p in [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate] {
            for procs in [1usize, 3, 4, 8] {
                let (cycles, _) = run(LockKind::AndersonQueue, p, procs, 64);
                assert!(cycles > 0, "{p:?} x{procs}");
            }
        }
    }

    #[test]
    fn anderson_spins_locally_like_mcs_under_wi() {
        // Each waiter spins on its own padded slot, so (like MCS) Anderson
        // avoids the ticket lock's spin-refetch storm under WI.
        let (_, tk) = run(LockKind::Ticket, Protocol::WriteInvalidate, 8, 512);
        let (_, and) = run(LockKind::AndersonQueue, Protocol::WriteInvalidate, 8, 512);
        assert!(
            and.misses.total_misses() < tk.misses.total_misses() / 2,
            "anderson {} ≪ ticket {}",
            and.misses.total_misses(),
            tk.misses.total_misses()
        );
    }

    #[test]
    fn tas_and_ttas_all_protocols() {
        for kind in [LockKind::TestAndSet, LockKind::TestAndTestAndSet] {
            for p in [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate] {
                let (cycles, _) = run(kind, p, 4, 64);
                assert!(cycles > 64 * 20, "{kind:?} {p:?}");
            }
        }
    }

    #[test]
    fn ttas_attempts_fewer_atomics_than_tas_under_wi() {
        // The test-first read keeps waiters from hammering the lock word
        // with doomed atomics — the classic TTAS improvement. (Miss counts
        // go the other way here because our TAS already backs off
        // exponentially, trading misses for idle waiting.)
        let (_, tas) = run(LockKind::TestAndSet, Protocol::WriteInvalidate, 4, 256);
        let (_, ttas) = run(LockKind::TestAndTestAndSet, Protocol::WriteInvalidate, 4, 256);
        assert!(
            ttas.shared_atomics < tas.shared_atomics,
            "ttas {} < tas {}",
            ttas.shared_atomics,
            tas.shared_atomics
        );
    }

    #[test]
    fn random_post_release_still_correct() {
        let w = LockWorkload {
            kind: LockKind::Mcs,
            total_acquires: 64,
            cs_cycles: 10,
            post_release: PostRelease::Random { bound: 100 },
        };
        let mut m = Machine::new(MachineConfig::paper(4, Protocol::CompetitiveUpdate));
        let layout = install(&mut m, &w);
        m.run();
        verify(&mut m, &w, &layout);
    }

    #[test]
    fn proportional_post_release_still_correct() {
        let w = LockWorkload {
            kind: LockKind::Ticket,
            total_acquires: 64,
            cs_cycles: 10,
            post_release: PostRelease::Proportional { ratio: 4 },
        };
        let mut m = Machine::new(MachineConfig::paper(4, Protocol::WriteInvalidate));
        let layout = install(&mut m, &w);
        m.run();
        verify(&mut m, &w, &layout);
    }
}
