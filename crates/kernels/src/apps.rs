//! Application-style workloads composing the paper's constructs.
//!
//! The paper studies locks, barriers, and reductions in isolation; its
//! introduction motivates them through real applications (the parallel
//! reduction "can be found in the Barnes-Hut application from the Splash2
//! suite"). This module provides small but complete application kernels
//! that *compose* the constructs, so the protocol/implementation
//! interaction can be observed end to end:
//!
//! * [`GridApp`] — a 1-D ring relaxation: each processor owns a strip,
//!   exchanges boundary cells with both neighbors every iteration, and
//!   synchronizes with a real (emitted, traffic-generating) dissemination
//!   barrier. The neighbor exchange is the classic producer-consumer
//!   pattern update protocols excel at.
//! * [`TaskFarmApp`] — a self-scheduling task farm: processors draw task
//!   ids from a shared `fetch_and_add` counter, "execute" the task
//!   (deterministic per-task work), and fold the result into a shared
//!   accumulator under a real ticket or MCS lock.
//!
//! Both verify exact functional postconditions, so they double as
//! whole-machine stress tests of the protocols.

use sim_isa::{AluOp, ProgramBuilder};
use sim_machine::Machine;
use sim_mem::Addr;

use crate::barriers::{emit_dissemination_episode, emit_dissemination_prologue, log2_ceil};
use crate::locks::{
    emit_mcs_acquire, emit_mcs_prologue, emit_mcs_release, emit_ticket_acquire, emit_ticket_prologue,
    emit_ticket_release, mcs_flush,
};
use crate::regs::*;
use crate::workloads::LockKind;

/// Registers used by app-specific state (disjoint from the sync helpers'
/// register window documented on the emitters).
const A0: usize = 4;
const A1: usize = 5;
const A2: usize = 6;

// ---------------------------------------------------------------------
// Grid relaxation
// ---------------------------------------------------------------------

/// Configuration of the ring-relaxation app.
#[derive(Debug, Clone, Copy)]
pub struct GridApp {
    /// Relaxation sweeps.
    pub iters: u32,
    /// Cycles of interior compute per processor per sweep.
    pub interior_work: u32,
    /// Give each boundary cell its own cache block. With both cells in one
    /// block, each neighbor receives the *other* neighbor's cell as a
    /// false-sharing update — the protocol-conscious layout lesson of the
    /// paper, observable here per structure.
    pub pad_boundaries: bool,
}

/// Addresses for post-run verification of [`GridApp`].
#[derive(Debug, Clone)]
pub struct GridLayout {
    /// `cells[i]`: processor `i`'s (left, right) boundary cells, homed at
    /// their owner — in one block, or one each under `pad_boundaries`.
    pub cells: Vec<(Addr, Addr)>,
    /// Per-processor completion counters.
    pub done: Vec<Addr>,
}

/// Installs the grid app: every iteration, processor `i` reads its left
/// neighbor's right cell and right neighbor's left cell, does
/// `interior_work` cycles of local compute, publishes `iteration` into its
/// own two boundary cells, and crosses a dissemination barrier.
pub fn install_grid(m: &mut Machine, app: &GridApp) -> GridLayout {
    let p = m.config().num_procs;
    let rounds = if p > 1 { log2_ceil(p) } else { 0 };
    let cells: Vec<(Addr, Addr)> = (0..p)
        .map(|i| {
            if app.pad_boundaries {
                (m.alloc().alloc_block_on(i, 1), m.alloc().alloc_block_on(i, 1))
            } else {
                let base = m.alloc().alloc_block_on(i, 2);
                (base, base + 4)
            }
        })
        .collect();
    let flags: Vec<Vec<Addr>> =
        (0..p).map(|i| (0..2 * rounds.max(1)).map(|_| m.alloc().alloc_block_on(i, 1)).collect()).collect();
    let done: Vec<Addr> = (0..p).map(|i| m.alloc().alloc_block_on(i, 1)).collect();
    for (i, &(l, r)) in cells.iter().enumerate() {
        m.register_structure(&format!("cells[{i}].left"), l, 1);
        m.register_structure(&format!("cells[{i}].right"), r, 1);
    }

    for i in 0..p {
        let left = cells[(i + p - 1) % p].1; // left neighbor's right cell
        let right = cells[(i + 1) % p].0; // right neighbor's left cell
        let mut b = ProgramBuilder::new();
        emit_dissemination_prologue(&mut b);
        b.imm(ITER, app.iters);
        b.imm(A2, 0); // current iteration number
        b.label("loop");
        // Read both neighbor boundaries (values from the previous sweep).
        b.imm(A0, left);
        b.load(A0, A0, 0);
        b.imm(A1, right);
        b.load(A1, A1, 0);
        if app.interior_work > 0 {
            b.delay(app.interior_work);
        }
        // Publish this sweep's value into my own boundary cells.
        b.alui(AluOp::Add, A2, A2, 1);
        b.imm(A0, cells[i].0);
        b.store(A0, 0, A2);
        b.imm(A0, cells[i].1);
        b.store(A0, 0, A2);
        b.fence(); // neighbors must see this sweep before the barrier opens
        emit_dissemination_episode(&mut b, &flags, i, rounds, "g");
        b.alui(AluOp::Sub, ITER, ITER, 1);
        b.bnz(ITER, "loop");
        // Epilogue: publish completion.
        b.imm(A0, done[i]);
        b.imm(A1, app.iters);
        b.store(A0, 0, A1);
        b.fence();
        b.halt();
        m.set_program(i, b.build());
    }
    GridLayout { cells, done }
}

/// Verifies the grid app: every processor completed every sweep and every
/// boundary cell carries the final iteration number.
pub fn verify_grid(m: &mut Machine, app: &GridApp, layout: &GridLayout) {
    for (i, &d) in layout.done.iter().enumerate() {
        assert_eq!(m.read_word(d), app.iters, "processor {i} completed");
    }
    for (i, &(l, r)) in layout.cells.iter().enumerate() {
        assert_eq!(m.read_word(l), app.iters, "left cell of {i}");
        assert_eq!(m.read_word(r), app.iters, "right cell of {i}");
    }
}

// ---------------------------------------------------------------------
// Task farm
// ---------------------------------------------------------------------

/// Configuration of the self-scheduling task farm.
#[derive(Debug, Clone, Copy)]
pub struct TaskFarmApp {
    /// Total tasks to execute.
    pub tasks: u32,
    /// Which lock protects the shared accumulator: the MCS kinds run MCS
    /// with their flush sides ([`crate::locks::mcs_flush`]); every other
    /// kind falls back to the ticket lock with its counters in one block.
    pub lock: LockKind,
    /// Upper bound on per-task work cycles (task `t` costs
    /// `(t * 2654435761) >> 24` capped to this bound).
    pub work_bound: u32,
}

/// Addresses for post-run verification of [`TaskFarmApp`].
#[derive(Debug, Clone)]
pub struct TaskFarmLayout {
    /// The shared task counter.
    pub next_task: Addr,
    /// The lock-protected accumulator.
    pub sum: Addr,
    /// Per-processor completion flags.
    pub done: Vec<Addr>,
}

/// Deterministic per-task contribution folded into the accumulator
/// (mirrors the emitted code).
pub fn task_value(task: u32) -> u32 {
    task.wrapping_mul(2654435761) >> 20
}

/// Expected final accumulator value for `tasks` tasks.
pub fn expected_sum(tasks: u32) -> u32 {
    (0..tasks).fold(0u32, |acc, t| acc.wrapping_add(task_value(t)))
}

/// Installs the task farm: processors loop `{ t = fetch_add(next_task);
/// if t >= tasks halt; work(t); lock; sum += value(t); unlock }`.
pub fn install_task_farm(m: &mut Machine, app: &TaskFarmApp) -> TaskFarmLayout {
    let p = m.config().num_procs;
    let next_task = m.alloc().alloc_block_on(0, 1);
    let sum = m.alloc().alloc_block_on(0, 1);
    // Lock structures.
    let tkt_next = m.alloc().alloc_block_on(0, 2);
    let mcs_tail = m.alloc().alloc_block_on(0, 1);
    let qnodes: Vec<Addr> = (0..p).map(|i| m.alloc().alloc_block_on(i, 2)).collect();
    let done: Vec<Addr> = (0..p).map(|i| m.alloc().alloc_block_on(i, 1)).collect();
    m.register_structure("next_task", next_task, 1);
    m.register_structure("sum", sum, 1);

    let mcs = mcs_flush(app.lock);
    for i in 0..p {
        let mut b = ProgramBuilder::new();
        if mcs.is_some() {
            emit_mcs_prologue(&mut b, mcs_tail, qnodes[i]);
        } else {
            emit_ticket_prologue(&mut b, tkt_next, tkt_next + 4);
        }
        b.imm(K2, next_task); // K2 is free: neither lock emitter uses it
        b.label("loop");
        b.fetch_add(A0, K2, ONE); // my task id
        b.imm(A1, app.tasks);
        b.alu(AluOp::Lt, A1, A0, A1); // task < tasks?
        b.bez(A1, "finish");
        // Deterministic task work: value = (t * K) >> 20, bounded work.
        b.alui(AluOp::Mul, A1, A0, 2654435761);
        b.alui(AluOp::Shr, A1, A1, 20); // the task's contribution
        b.alui(AluOp::And, A2, A1, app.work_bound.next_power_of_two() - 1);
        b.delay_reg(A2); // simulate the task
                         // Fold into the shared accumulator under the lock.
        if let Some(flush) = mcs {
            emit_mcs_acquire(&mut b, flush, "t");
        } else {
            emit_ticket_acquire(&mut b);
        }
        b.imm(A2, sum);
        b.load(A0, A2, 0);
        b.alu(AluOp::Add, A0, A0, A1);
        b.store(A2, 0, A0);
        if let Some(flush) = mcs {
            emit_mcs_release(&mut b, flush, "t");
        } else {
            emit_ticket_release(&mut b);
        }
        b.jmp("loop");
        b.label("finish");
        b.imm(A0, done[i]);
        b.store(A0, 0, ONE);
        b.fence();
        b.halt();
        m.set_program(i, b.build());
    }
    TaskFarmLayout { next_task, sum, done }
}

/// Verifies the task farm: every task was claimed exactly once and the
/// accumulator holds the exact expected sum (mutual exclusion held).
pub fn verify_task_farm(m: &mut Machine, app: &TaskFarmApp, layout: &TaskFarmLayout) {
    for (i, &d) in layout.done.iter().enumerate() {
        assert_eq!(m.read_word(d), 1, "processor {i} completed");
    }
    let claimed = m.read_word(layout.next_task);
    let p = layout.done.len() as u32;
    assert!(
        claimed >= app.tasks && claimed <= app.tasks + p,
        "each processor overshoots at most once: {claimed}"
    );
    assert_eq!(m.read_word(layout.sum), expected_sum(app.tasks), "exact accumulator");
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_machine::MachineConfig;
    use sim_proto::Protocol;

    const PROTOCOLS: [Protocol; 3] =
        [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate];

    #[test]
    fn grid_app_all_protocols_and_sizes() {
        for protocol in PROTOCOLS {
            for procs in [1usize, 2, 5, 8] {
                let app = GridApp { iters: 20, interior_work: 30, pad_boundaries: false };
                let mut m = Machine::new(MachineConfig::paper(procs, protocol));
                let layout = install_grid(&mut m, &app);
                m.run();
                verify_grid(&mut m, &app, &layout);
                m.assert_coherent();
            }
        }
    }

    fn cell_updates(protocol: Protocol, pad: bool) -> sim_stats::UpdateStats {
        let app = GridApp { iters: 30, interior_work: 10, pad_boundaries: pad };
        let mut m = Machine::new(MachineConfig::paper(8, protocol));
        let layout = install_grid(&mut m, &app);
        let r = m.run();
        verify_grid(&mut m, &app, &layout);
        r.traffic.by_structure.iter().filter(|s| s.name.starts_with("cells")).fold(
            sim_stats::UpdateStats::default(),
            |mut acc, s| {
                acc.merge(&s.updates);
                acc
            },
        )
    }

    #[test]
    fn padded_grid_updates_are_useful_under_pu() {
        // With one boundary cell per block, the exchange is pure
        // producer-consumer: every cell update is consumed by its reader.
        let u = cell_updates(Protocol::PureUpdate, true);
        assert!(u.total() > 0);
        assert!(u.useful() * 10 >= u.total() * 9, "≥90% of boundary updates consumed: {u:?}");
    }

    #[test]
    fn unpadded_grid_suffers_false_sharing_under_pu() {
        // With both cells in one block, each neighbor also receives the
        // *other* neighbor's cell — half the updates are false sharing.
        let u = cell_updates(Protocol::PureUpdate, false);
        assert!(u.false_sharing * 3 >= u.total(), "substantial false sharing expected: {u:?}");
    }

    #[test]
    fn grid_faster_under_update_protocols() {
        let run = |protocol| {
            let app = GridApp { iters: 40, interior_work: 20, pad_boundaries: true };
            let mut m = Machine::new(MachineConfig::paper(8, protocol));
            let layout = install_grid(&mut m, &app);
            let r = m.run();
            verify_grid(&mut m, &app, &layout);
            r.cycles
        };
        let wi = run(Protocol::WriteInvalidate);
        let pu = run(Protocol::PureUpdate);
        assert!(pu < wi, "PU {pu} < WI {wi}: barrier + boundary exchange favor updates");
    }

    #[test]
    fn task_farm_exact_sum_all_protocols_and_locks() {
        for protocol in PROTOCOLS {
            for lock in [LockKind::Ticket, LockKind::Mcs] {
                let app = TaskFarmApp { tasks: 60, lock, work_bound: 64 };
                let mut m = Machine::new(MachineConfig::paper(4, protocol));
                let layout = install_task_farm(&mut m, &app);
                m.run();
                verify_task_farm(&mut m, &app, &layout);
                m.assert_coherent();
            }
        }
    }

    #[test]
    fn task_farm_single_processor_degenerates() {
        let app = TaskFarmApp { tasks: 25, lock: LockKind::Ticket, work_bound: 16 };
        let mut m = Machine::new(MachineConfig::paper(1, Protocol::WriteInvalidate));
        let layout = install_task_farm(&mut m, &app);
        m.run();
        verify_task_farm(&mut m, &app, &layout);
    }

    #[test]
    fn expected_sum_matches_emitted_arithmetic() {
        // task_value mirrors the Mul/Shr sequence emitted into the program.
        assert_eq!(task_value(0), 0);
        assert_eq!(task_value(1), 2654435761u32 >> 20);
        let e = expected_sum(10);
        assert_eq!(e, (0..10).map(task_value).fold(0u32, u32::wrapping_add));
    }
}
