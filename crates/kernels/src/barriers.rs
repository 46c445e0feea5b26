//! Barrier kernels (Section 2.2) and the Section 4.2 synthetic program.
//!
//! Placement: the centralized barrier's counters live on node 0 (in
//! separate blocks — see `install`); each processor's dissemination flags
//! and tree child-flags live at that processor with **one flag per cache
//! block**; the tree barrier's global wake-up flag has its own block on
//! node 0.
//!
//! The per-flag padding is load-bearing for reproducing the paper: each
//! dissemination flag (and each tree child slot) has exactly one writer
//! and one reader, so under the update protocols every flag update is a
//! true-sharing (useful) message — the paper's Figure 13 shows the
//! scalable barriers generating *no* useless updates, which is impossible
//! if unrelated writers share a block and accumulate stale sharers.

use sim_isa::{AluOp, Program, ProgramBuilder, SyncOp};
use sim_machine::Machine;
use sim_mem::Addr;

use crate::emit_epilogue;
use crate::regs::*;
use crate::workloads::{BarrierKind, BarrierWorkload};

/// The sync-object id every barrier kernel reports its episodes under.
pub const BARRIER_ID: u32 = 0;

/// Addresses of the barrier structures, for post-run verification.
#[derive(Debug, Clone)]
pub struct BarrierLayout {
    /// Centralized: the arrival counter.
    pub count: Addr,
    /// Centralized: the shared sense flag.
    pub sense: Addr,
    /// Dissemination: `flags[i][parity * rounds + k]` is processor `i`'s
    /// flag for round `k` of the given parity, one cache block per flag.
    pub flags: Vec<Vec<Addr>>,
    /// Tree: `tree_nodes[i][j]` is processor `i`'s `childnotready[j]`
    /// slot, one cache block per slot.
    pub tree_nodes: Vec<Vec<Addr>>,
    /// Per-processor completion counters.
    pub done: Vec<Addr>,
    /// Episodes each processor runs.
    pub episodes: u32,
}

/// Number of dissemination rounds for `p` processors.
pub fn log2_ceil(p: usize) -> u32 {
    (usize::BITS - (p - 1).leading_zeros()).min(31)
}

/// Lays out barrier data and installs the Section 4.2 synthetic program
/// (a tight loop of `episodes` barrier episodes) on every processor.
pub fn install(m: &mut Machine, w: &BarrierWorkload) -> BarrierLayout {
    let p = m.config().num_procs;
    // `count` and `sense` get separate blocks: colocating them would make
    // every arrival's fetch-and-decrement invalidate all processors
    // spinning on `sense` under WI — false sharing a protocol-conscious
    // implementation avoids (and the paper's WI-wins-at-scale result for
    // the centralized barrier requires).
    let count = m.alloc().alloc_block_on(0, 1);
    let sense = m.alloc().alloc_block_on(0, 1);
    let rounds = if p > 1 { log2_ceil(p) } else { 0 };
    let flags: Vec<Vec<Addr>> = (0..p)
        .map(|i| {
            if w.kind == BarrierKind::Dissemination {
                (0..2 * rounds.max(1)).map(|_| m.alloc().alloc_block_on(i, 1)).collect()
            } else {
                Vec::new()
            }
        })
        .collect();
    let tree_nodes: Vec<Vec<Addr>> = (0..p)
        .map(|i| {
            if w.kind == BarrierKind::Tree {
                (0..4).map(|_| m.alloc().alloc_block_on(i, 1)).collect()
            } else {
                Vec::new()
            }
        })
        .collect();
    let global_sense = m.alloc().alloc_block_on(0, 1);
    let done: Vec<Addr> = (0..p).map(|i| m.alloc().alloc_block_on(i, 1)).collect();

    // Attribution ranges for TrafficReport::by_structure.
    m.register_structure("count", count, 1);
    m.register_structure("sense", sense, 1);
    m.register_structure("globalsense", global_sense, 1);
    for (i, f) in flags.iter().enumerate() {
        for (k, &a) in f.iter().enumerate() {
            m.register_structure(&format!("myflags[{i}][{k}]"), a, 1);
        }
    }
    for (i, node) in tree_nodes.iter().enumerate() {
        for (j, &a) in node.iter().enumerate() {
            m.register_structure(&format!("childnotready[{i}][{j}]"), a, 1);
        }
    }

    // Initial values (Figures 3-5).
    m.poke_word(count, p as u32);
    m.poke_word(sense, 1);
    // Dissemination flags start false; tree childnotready starts at
    // havechild (true for slots with an existing child).
    for (i, node) in tree_nodes.iter().enumerate() {
        for (j, &slot) in node.iter().enumerate() {
            let child = 4 * i + j + 1;
            m.poke_word(slot, u32::from(child < p));
        }
    }
    // global_sense starts false; per-processor sense starts true.

    for (i, &done_i) in done.iter().enumerate() {
        let prog = match w.kind {
            BarrierKind::Centralized => central_program(w, count, sense, p as u32, done_i),
            BarrierKind::Dissemination => dissemination_program(w, &flags, i, rounds, done_i),
            BarrierKind::Tree => tree_program(w, &tree_nodes, global_sense, i, p, done_i),
        };
        m.set_program(i, prog);
    }
    BarrierLayout { count, sense, flags, tree_nodes, done, episodes: w.episodes }
}

/// The sense-reversing centralized barrier (Figure 3).
fn central_program(w: &BarrierWorkload, count: Addr, sense: Addr, p: u32, done: Addr) -> Program {
    let mut b = ProgramBuilder::new();
    b.imm(BASE, count);
    b.imm(BASE2, sense);
    b.imm(ONE, 1);
    b.imm(K0, 1); // local_sense (starts true)
    b.imm(K1, p); // reset value
    b.imm(K2, u32::MAX); // fetch_and_decrement addend
    b.imm(ITER, w.episodes);
    b.label("loop");
    b.alu(AluOp::Sub, K0, ONE, K0); // local_sense := not local_sense
    b.sync(SyncOp::BarrierArrive, BARRIER_ID);
    b.fetch_add(T0, BASE, K2); // old count
    b.alu(AluOp::Eq, T1, T0, ONE);
    b.bnz(T1, "last");
    b.spin_while_ne(BASE2, K0); // repeat until sense = local_sense
    b.jmp("next");
    b.label("last");
    b.store(BASE, 0, K1); // count := P
    b.fence(); // the reset must be ordered before the wake-up
    b.store(BASE2, 0, K0); // sense := local_sense
    b.label("next");
    b.sync(SyncOp::BarrierDepart, BARRIER_ID);
    b.alui(AluOp::Sub, ITER, ITER, 1);
    b.bnz(ITER, "loop");
    emit_epilogue(&mut b, done, w.episodes);
    b.build()
}

/// The dissemination barrier (Figure 4). Partner addresses are resolved at
/// build time: in round `k`, processor `i` signals `(i + 2^k) mod P`.
fn dissemination_program(
    w: &BarrierWorkload,
    flags: &[Vec<Addr>],
    i: usize,
    rounds: u32,
    done: Addr,
) -> Program {
    let mut b = ProgramBuilder::new();
    emit_dissemination_prologue(&mut b);
    b.imm(ITER, w.episodes);
    b.label("loop");
    emit_dissemination_episode(&mut b, flags, i, rounds, "d");
    b.alui(AluOp::Sub, ITER, ITER, 1);
    b.bnz(ITER, "loop");
    emit_epilogue(&mut b, done, w.episodes);
    b.build()
}

/// Emits register setup for [`emit_dissemination_episode`]: sense in `K0`,
/// parity in `K1`, constant 1 in `ONE`. Composing kernels must leave
/// those plus `T0`/`T1` to the barrier.
pub fn emit_dissemination_prologue(b: &mut ProgramBuilder) {
    b.imm(ONE, 1);
    b.imm(K0, 1); // sense (starts true)
    b.imm(K1, 0); // parity
}

/// Emits one dissemination-barrier episode (Figure 4) for processor `i`
/// over the padded flag layout `flags` (see [`install`]). `tag`
/// disambiguates labels when emitted more than once per program.
pub fn emit_dissemination_episode(
    b: &mut ProgramBuilder,
    flags: &[Vec<Addr>],
    i: usize,
    rounds: u32,
    tag: &str,
) {
    let p = flags.len();
    let my = |parity: u32, k: u32| flags[i][(parity * rounds + k) as usize];
    let partner = |parity: u32, k: u32| {
        let j = (i + (1usize << k)) % p;
        flags[j][(parity * rounds + k) as usize]
    };
    if rounds == 0 {
        // Single processor: a barrier episode is a no-op.
        b.sync(SyncOp::BarrierArrive, BARRIER_ID);
        b.delay(1);
        b.sync(SyncOp::BarrierDepart, BARRIER_ID);
        return;
    }
    b.sync(SyncOp::BarrierArrive, BARRIER_ID);
    b.bnz(K1, &format!("parity1_{tag}"));
    for k in 0..rounds {
        b.imm(T0, partner(0, k));
        b.store(T0, 0, K0);
        b.imm(T1, my(0, k));
        b.spin_while_ne(T1, K0);
    }
    b.jmp(&format!("join_{tag}"));
    b.label(&format!("parity1_{tag}"));
    for k in 0..rounds {
        b.imm(T0, partner(1, k));
        b.store(T0, 0, K0);
        b.imm(T1, my(1, k));
        b.spin_while_ne(T1, K0);
    }
    b.alu(AluOp::Sub, K0, ONE, K0); // if parity = 1 { sense := not sense }
    b.label(&format!("join_{tag}"));
    b.sync(SyncOp::BarrierDepart, BARRIER_ID);
    b.alu(AluOp::Sub, K1, ONE, K1); // parity := 1 - parity
}

/// The 4-ary arrival-tree barrier with a global wake-up flag (Figure 5).
fn tree_program(
    w: &BarrierWorkload,
    tree_nodes: &[Vec<Addr>],
    global_sense: Addr,
    i: usize,
    p: usize,
    done: Addr,
) -> Program {
    let children: Vec<usize> = (0..4).map(|j| 4 * i + j + 1).filter(|&c| c < p).collect();
    let parent_slot = if i > 0 { Some(tree_nodes[(i - 1) / 4][(i - 1) % 4]) } else { None };
    let mut b = ProgramBuilder::new();
    b.imm(BASE2, global_sense);
    b.imm(ONE, 1);
    b.imm(ZERO, 0);
    b.imm(K0, 1); // sense (starts true); global_sense starts false
    b.imm(ITER, w.episodes);
    b.label("loop");
    b.sync(SyncOp::BarrierArrive, BARRIER_ID);
    // repeat until childnotready = {false, false, false, false}
    for &slot in &tree_nodes[i][..children.len()] {
        b.imm(T0, slot);
        b.spin_while_ne(T0, ZERO);
    }
    // childnotready := havechild (slots without a child never change)
    for &slot in &tree_nodes[i][..children.len()] {
        b.imm(T0, slot);
        b.store(T0, 0, ONE);
    }
    match parent_slot {
        Some(slot) => {
            b.imm(T1, slot);
            b.store(T1, 0, ZERO); // parentpointer^ := false
            b.spin_while_ne(BASE2, K0); // repeat until globalsense = sense
        }
        None => {
            b.fence(); // root: order the resets before the wake-up
            b.store(BASE2, 0, K0); // globalsense := sense
        }
    }
    b.sync(SyncOp::BarrierDepart, BARRIER_ID);
    b.alu(AluOp::Sub, K0, ONE, K0); // sense := not sense
    b.alui(AluOp::Sub, ITER, ITER, 1);
    b.bnz(ITER, "loop");
    emit_epilogue(&mut b, done, w.episodes);
    b.build()
}

/// Verifies barrier-kernel postconditions: every processor completed every
/// episode, and the structures are quiescent.
pub fn verify(m: &mut Machine, w: &BarrierWorkload, layout: &BarrierLayout) {
    let p = layout.done.len();
    for i in 0..p {
        assert_eq!(m.read_word(layout.done[i]), w.episodes, "processor {i} completed");
    }
    if w.kind == BarrierKind::Centralized {
        assert_eq!(m.read_word(layout.count), p as u32, "count reset for the next episode");
    }
    if w.kind == BarrierKind::Tree {
        for (i, node) in layout.tree_nodes.clone().iter().enumerate() {
            for (j, &slot) in node.iter().enumerate() {
                let child = 4 * i + j + 1;
                assert_eq!(m.read_word(slot), u32::from(child < p), "tree node {i} slot {j} reset");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_machine::MachineConfig;
    use sim_proto::Protocol;

    const PROTOCOLS: [Protocol; 3] =
        [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate];

    fn run(
        kind: BarrierKind,
        protocol: Protocol,
        procs: usize,
        episodes: u32,
    ) -> (u64, sim_stats::TrafficReport) {
        let w = BarrierWorkload { kind, episodes };
        let mut m = Machine::new(MachineConfig::paper(procs, protocol));
        let layout = install(&mut m, &w);
        let r = m.run();
        verify(&mut m, &w, &layout);
        (r.cycles, r.traffic)
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(32), 5);
    }

    #[test]
    fn centralized_all_protocols() {
        for p in PROTOCOLS {
            let (cycles, _) = run(BarrierKind::Centralized, p, 4, 20);
            assert!(cycles > 0, "{p:?}");
        }
    }

    #[test]
    fn dissemination_all_protocols() {
        for p in PROTOCOLS {
            let (cycles, _) = run(BarrierKind::Dissemination, p, 4, 20);
            assert!(cycles > 0, "{p:?}");
        }
    }

    #[test]
    fn tree_all_protocols() {
        for p in PROTOCOLS {
            let (cycles, _) = run(BarrierKind::Tree, p, 4, 20);
            assert!(cycles > 0, "{p:?}");
        }
    }

    #[test]
    fn all_barriers_work_on_odd_and_single_processor_counts() {
        for kind in [BarrierKind::Centralized, BarrierKind::Dissemination, BarrierKind::Tree] {
            for procs in [1, 2, 3, 5, 8] {
                let (cycles, _) = run(kind, Protocol::WriteInvalidate, procs, 5);
                assert!(cycles > 0, "{kind:?} x{procs}");
            }
        }
    }

    #[test]
    fn dissemination_has_no_useless_updates_under_pu() {
        // The paper's headline barrier result: dissemination update traffic
        // is entirely useful (Figure 13).
        let (_, t) = run(BarrierKind::Dissemination, Protocol::PureUpdate, 8, 30);
        assert!(t.updates.total() > 0, "updates flow");
        assert_eq!(t.updates.proliferation, 0, "no proliferation");
        assert_eq!(t.updates.drop, 0, "no drops under PU");
    }

    #[test]
    fn centralized_generates_mostly_useless_updates_under_pu() {
        let (_, t) = run(BarrierKind::Centralized, Protocol::PureUpdate, 8, 30);
        assert!(t.updates.useless() > t.updates.useful(), "counter churn dominates: {:?}", t.updates);
    }

    #[test]
    fn barriers_under_wi_miss_more_than_under_pu() {
        for kind in [BarrierKind::Dissemination, BarrierKind::Tree] {
            let (_, wi) = run(kind, Protocol::WriteInvalidate, 8, 30);
            let (_, pu) = run(kind, Protocol::PureUpdate, 8, 30);
            assert!(
                wi.misses.total_misses() > pu.misses.total_misses(),
                "{kind:?}: WI misses {} vs PU misses {}",
                wi.misses.total_misses(),
                pu.misses.total_misses()
            );
        }
    }
}
