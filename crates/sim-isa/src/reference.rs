//! Timing-free reference executor.
//!
//! Runs a set of per-processor programs under sequential consistency with a
//! deterministic (seeded, uniformly random) interleaving and a flat shared
//! memory. No caches, no protocol, no timing: this is the functional
//! semantics oracle. Integration tests run kernels here and on the full
//! simulator and compare final shared-memory contents.

use std::collections::HashMap;

use sim_engine::SplitMix64;

use crate::instr::{Instr, Program, NUM_REGS};

/// Outcome of a reference run.
#[derive(Debug)]
pub struct RefResult {
    /// Final shared memory (word address → value, zero if absent).
    pub memory: HashMap<u32, u32>,
    /// Final register files.
    pub regs: Vec<[u32; NUM_REGS]>,
    /// Whether every thread reached `Halt`.
    pub all_halted: bool,
    /// Interpreted instructions (spin re-checks included).
    pub steps: u64,
}

impl RefResult {
    /// Final value of a shared word (0 if never written).
    pub fn word(&self, addr: u32) -> u32 {
        *self.memory.get(&addr).unwrap_or(&0)
    }
}

struct Thread {
    prog: Program,
    pc: usize,
    regs: [u32; NUM_REGS],
    halted: bool,
    blocked_in_barrier: bool,
    waiting_lock: Option<u32>,
}

/// The reference machine.
pub struct RefMachine {
    threads: Vec<Thread>,
    memory: HashMap<u32, u32>,
    rng: SplitMix64,
    barrier_count: usize,
    /// lock id → holder thread (None = free).
    locks: HashMap<u32, Option<usize>>,
}

impl RefMachine {
    /// Creates a machine with one thread per program. `seed` drives the
    /// interleaving (and nothing else; `RandDelay` is a no-op here).
    pub fn new(programs: Vec<Program>, seed: u64) -> Self {
        RefMachine {
            threads: programs
                .into_iter()
                .map(|prog| Thread {
                    prog,
                    pc: 0,
                    regs: [0; NUM_REGS],
                    halted: false,
                    blocked_in_barrier: false,
                    waiting_lock: None,
                })
                .collect(),
            memory: HashMap::new(),
            rng: SplitMix64::new(seed),
            barrier_count: 0,
            locks: HashMap::new(),
        }
    }

    /// Pre-initializes a shared word (mirrors kernel setup done through the
    /// simulator's memory API).
    pub fn poke(&mut self, addr: u32, val: u32) {
        self.memory.insert(addr, val);
    }

    fn read(&self, addr: u32) -> u32 {
        *self.memory.get(&addr).unwrap_or(&0)
    }

    /// Runs until every thread halts or `max_steps` is exceeded.
    pub fn run(mut self, max_steps: u64) -> RefResult {
        let n = self.threads.len();
        let mut steps = 0;
        while steps < max_steps {
            if self.threads.iter().all(|t| t.halted) {
                break;
            }
            // Pick a random runnable thread.
            let runnable: Vec<usize> = (0..n)
                .filter(|&i| {
                    let t = &self.threads[i];
                    !t.halted && !t.blocked_in_barrier && t.waiting_lock.is_none()
                })
                .collect();
            if runnable.is_empty() {
                // Deadlock (or everyone waiting in a barrier that cannot
                // fill because some threads halted): stop.
                break;
            }
            let tid = runnable[self.rng.next_below(runnable.len() as u64) as usize];
            self.step(tid);
            steps += 1;
        }
        RefResult {
            memory: self.memory,
            regs: self.threads.iter().map(|t| t.regs).collect(),
            all_halted: self.threads.iter().all(|t| t.halted),
            steps,
        }
    }

    fn step(&mut self, tid: usize) {
        let instr = {
            let t = &self.threads[tid];
            t.prog.code.get(t.pc).cloned().unwrap_or(Instr::Halt)
        };
        // Default: advance pc; branches and spins override.
        let mut next_pc = self.threads[tid].pc + 1;
        match instr {
            Instr::Imm(rd, v) => self.threads[tid].regs[rd] = v,
            Instr::Mov(rd, rs) => self.threads[tid].regs[rd] = self.threads[tid].regs[rs],
            Instr::Alu(op, rd, ra, rb) => {
                let t = &mut self.threads[tid];
                t.regs[rd] = op.apply(t.regs[ra], t.regs[rb]);
            }
            Instr::AluI(op, rd, ra, imm) => {
                let t = &mut self.threads[tid];
                t.regs[rd] = op.apply(t.regs[ra], imm);
            }
            Instr::Load(rd, ra, off) => {
                let addr = self.threads[tid].regs[ra].wrapping_add(off);
                self.threads[tid].regs[rd] = self.read(addr);
            }
            Instr::Store(ra, off, rs) => {
                let addr = self.threads[tid].regs[ra].wrapping_add(off);
                let val = self.threads[tid].regs[rs];
                self.memory.insert(addr, val);
            }
            Instr::FetchAdd(rd, ra, rb) => {
                let addr = self.threads[tid].regs[ra];
                let old = self.read(addr);
                let add = self.threads[tid].regs[rb];
                self.memory.insert(addr, old.wrapping_add(add));
                self.threads[tid].regs[rd] = old;
            }
            Instr::FetchStore(rd, ra, rb) => {
                let addr = self.threads[tid].regs[ra];
                let old = self.read(addr);
                let new = self.threads[tid].regs[rb];
                self.memory.insert(addr, new);
                self.threads[tid].regs[rd] = old;
            }
            Instr::Cas(rd, ra, rb, rc) => {
                let addr = self.threads[tid].regs[ra];
                let old = self.read(addr);
                let expected = self.threads[tid].regs[rb];
                if old == expected {
                    let new = self.threads[tid].regs[rc];
                    self.memory.insert(addr, new);
                }
                self.threads[tid].regs[rd] = old;
            }
            Instr::Flush(_) | Instr::Fence | Instr::Delay(_) | Instr::DelayReg(_) | Instr::RandDelay(_) => {}
            Instr::SpinWhileEq(ra, rb) => {
                let t = &self.threads[tid];
                if self.read(t.regs[ra]) == t.regs[rb] {
                    next_pc = t.pc; // keep spinning
                }
            }
            Instr::SpinWhileNe(ra, rb) => {
                let t = &self.threads[tid];
                if self.read(t.regs[ra]) != t.regs[rb] {
                    next_pc = t.pc;
                }
            }
            Instr::Jmp(t) => next_pc = t,
            Instr::Bez(rs, t) => {
                if self.threads[tid].regs[rs] == 0 {
                    next_pc = t;
                }
            }
            Instr::Bnz(rs, t) => {
                if self.threads[tid].regs[rs] != 0 {
                    next_pc = t;
                }
            }
            Instr::MagicBarrier => {
                self.threads[tid].blocked_in_barrier = true;
                self.barrier_count += 1;
                let alive = self.threads.iter().filter(|t| !t.halted).count();
                if self.barrier_count == alive {
                    self.barrier_count = 0;
                    for t in &mut self.threads {
                        t.blocked_in_barrier = false;
                    }
                } else {
                    // Stay on this instruction until released; pc advances
                    // for everyone when the barrier opens, so record ours.
                }
                // pc advances now; blocked threads simply are not scheduled
                // until the barrier opens.
            }
            Instr::MagicAcquire(l) => {
                let slot = self.locks.entry(l).or_insert(None);
                match slot {
                    None => *slot = Some(tid),
                    Some(_) => {
                        // Retry this instruction when the lock frees.
                        self.threads[tid].waiting_lock = Some(l);
                        next_pc = self.threads[tid].pc;
                    }
                }
            }
            Instr::MagicRelease(l) => {
                let slot = self.locks.entry(l).or_insert(None);
                assert_eq!(*slot, Some(tid), "release of a lock not held");
                *slot = None;
                // Wake one waiter (lowest id for determinism).
                if let Some(w) = (0..self.threads.len()).find(|&i| self.threads[i].waiting_lock == Some(l)) {
                    self.threads[w].waiting_lock = None;
                }
            }
            Instr::Phase(_) | Instr::Sync(..) => {} // observability markers: no semantic effect
            Instr::Halt => {
                self.threads[tid].halted = true;
                next_pc = self.threads[tid].pc;
                // A halting thread can complete a pending barrier.
                let alive = self.threads.iter().filter(|t| !t.halted).count();
                if alive > 0 && self.barrier_count == alive {
                    self.barrier_count = 0;
                    for t in &mut self.threads {
                        t.blocked_in_barrier = false;
                    }
                }
            }
        }
        self.threads[tid].pc = next_pc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::AluOp;

    #[test]
    fn single_thread_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.imm(0, 6).imm(1, 7).alu(AluOp::Mul, 2, 0, 1);
        b.imm(3, 0x100).store(3, 0, 2).halt();
        let r = RefMachine::new(vec![b.build()], 1).run(1000);
        assert!(r.all_halted);
        assert_eq!(r.word(0x100), 42);
    }

    #[test]
    fn fetch_add_is_atomic_across_threads() {
        // 4 threads each fetch_add 100 times; final counter is 400 and
        // every thread saw distinct tickets.
        let progs: Vec<_> = (0..4)
            .map(|_| {
                let mut b = ProgramBuilder::new();
                b.imm(0, 0x200); // counter address
                b.imm(1, 1); // addend
                b.imm(2, 100); // iterations
                b.label("loop");
                b.fetch_add(3, 0, 1);
                b.alui(AluOp::Sub, 2, 2, 1);
                b.bnz(2, "loop");
                b.halt();
                b.build()
            })
            .collect();
        let r = RefMachine::new(progs, 42).run(1_000_000);
        assert!(r.all_halted);
        assert_eq!(r.word(0x200), 400);
    }

    #[test]
    fn cas_swaps_only_on_match() {
        let mut b = ProgramBuilder::new();
        b.imm(0, 0x80).imm(1, 0).imm(2, 5);
        b.cas(3, 0, 1, 2); // mem[0x80]: 0 -> 5, old = 0
        b.cas(4, 0, 1, 2); // fails: old = 5
        b.halt();
        let r = RefMachine::new(vec![b.build()], 0).run(100);
        assert_eq!(r.word(0x80), 5);
        assert_eq!(r.regs[0][3], 0);
        assert_eq!(r.regs[0][4], 5);
    }

    #[test]
    fn spin_released_by_other_thread() {
        // Thread 0 spins until mem[0x40] == 1; thread 1 sets it.
        let mut b0 = ProgramBuilder::new();
        b0.imm(0, 0x40).imm(1, 1);
        b0.spin_while_ne(0, 1);
        b0.imm(2, 0x44).imm(3, 9).store(2, 0, 3);
        b0.halt();
        let mut b1 = ProgramBuilder::new();
        b1.delay(1);
        b1.imm(0, 0x40).imm(1, 1).store(0, 0, 1);
        b1.halt();
        let r = RefMachine::new(vec![b0.build(), b1.build()], 7).run(100_000);
        assert!(r.all_halted);
        assert_eq!(r.word(0x44), 9);
    }

    #[test]
    fn magic_lock_mutual_exclusion() {
        // Each thread does non-atomic read-modify-write under the lock;
        // mutual exclusion makes the final count exact.
        let progs: Vec<_> = (0..4)
            .map(|_| {
                let mut b = ProgramBuilder::new();
                b.imm(0, 0x300).imm(2, 50);
                b.label("loop");
                b.magic_acquire(0);
                b.load(1, 0, 0);
                b.alui(AluOp::Add, 1, 1, 1);
                b.store(0, 0, 1);
                b.magic_release(0);
                b.alui(AluOp::Sub, 2, 2, 1);
                b.bnz(2, "loop");
                b.halt();
                b.build()
            })
            .collect();
        let r = RefMachine::new(progs, 3).run(1_000_000);
        assert!(r.all_halted);
        assert_eq!(r.word(0x300), 200);
    }

    #[test]
    fn magic_barrier_rendezvous() {
        // Thread 0 writes before the barrier; thread 1 reads after it.
        let mut b0 = ProgramBuilder::new();
        b0.imm(0, 0x10).imm(1, 77).store(0, 0, 1);
        b0.magic_barrier();
        b0.halt();
        let mut b1 = ProgramBuilder::new();
        b1.magic_barrier();
        b1.imm(0, 0x10).load(2, 0, 0);
        b1.imm(3, 0x14).store(3, 0, 2);
        b1.halt();
        let r = RefMachine::new(vec![b0.build(), b1.build()], 9).run(100_000);
        assert!(r.all_halted);
        assert_eq!(r.word(0x14), 77);
    }

    #[test]
    fn deadlock_detected_by_stall() {
        // A thread spinning on a flag nobody sets: run() returns without
        // all_halted.
        let mut b = ProgramBuilder::new();
        b.imm(0, 0x40).imm(1, 1);
        b.spin_while_ne(0, 1);
        b.halt();
        let r = RefMachine::new(vec![b.build()], 0).run(10_000);
        assert!(!r.all_halted);
    }
}
