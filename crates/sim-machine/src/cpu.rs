//! Per-processor execution state.

use sim_engine::{Cycle, SplitMix64};
use sim_isa::{Program, Reg, NUM_REGS};
use sim_mem::{Addr, Word};
use sim_proto::AtomicOp;

/// An atomic operation waiting for its implicit write-buffer flush.
#[derive(Debug, Clone, Copy)]
pub struct PendingAtomicIssue {
    /// Destination register for the old value.
    pub rd: Reg,
    /// Target address.
    pub addr: Addr,
    /// Operation.
    pub op: AtomicOp,
    /// First operand.
    pub operand: Word,
    /// Second operand (CAS new value).
    pub operand2: Word,
}

/// What a processor is doing right now.
#[derive(Debug, Clone, Copy)]
pub enum CpuState {
    /// Executing (a `CpuStep` event is scheduled or being handled).
    Ready,
    /// Stalled on a read miss; the value lands in `rd`.
    StallRead {
        /// Destination register.
        rd: Reg,
    },
    /// A busy-wait check missed; when the fill arrives the spin instruction
    /// re-executes (the re-check is a hit).
    StallSpinRead,
    /// Stalled on an atomic in flight; the old value lands in `rd`.
    StallAtomic {
        /// Destination register.
        rd: Reg,
    },
    /// Stalled on a full write buffer, holding the write to retry.
    StallWbFull {
        /// Word address of the blocked store.
        addr: Addr,
        /// Its value.
        val: Word,
    },
    /// Stalled at a release fence (and optionally an atomic's implicit
    /// flush); resumes when the write buffer drains and acks settle.
    StallFence {
        /// The atomic to issue once the flush completes, if any.
        atomic: Option<PendingAtomicIssue>,
    },
    /// Stalled on a block flush until queued writes to that block drain
    /// (the flush is ordered after the processor's own prior stores, as on
    /// the PowerPC-style flush the paper invokes).
    StallFlush {
        /// Address whose block is being flushed.
        addr: Addr,
    },
    /// Spin-parked: the watched line is cached and quiet; any coherence
    /// event on it wakes the processor.
    SpinParked {
        /// Watched word.
        addr: Addr,
        /// Comparison value.
        cmp: Word,
        /// `true` for `SpinWhileNe` (spin while `mem != cmp`).
        spin_while_ne: bool,
        /// Cycle of the first check, anchoring the re-check grid.
        start: Cycle,
    },
    /// A spin re-check event is scheduled; coherence events are ignored
    /// until it fires.
    SpinSleep,
    /// Blocked in the zero-traffic magic barrier.
    InBarrier,
    /// Waiting in a magic lock's FIFO queue.
    WaitLock(u32),
    /// Finished.
    Halted,
}

/// One simulated processor.
#[derive(Debug)]
pub struct Cpu {
    /// Program counter.
    pub pc: usize,
    /// Register file.
    pub regs: [Word; NUM_REGS],
    /// Execution state.
    pub state: CpuState,
    /// The program this processor runs.
    pub program: Program,
    /// Deterministic stream for `RandDelay`.
    pub rng: SplitMix64,
    /// Instructions retired (spin checks count once per check).
    pub instructions: u64,
    /// Cycle at which the current read/atomic stall began (latency stats).
    pub stall_since: Cycle,
    /// Address the current read/spin/atomic stall is waiting on (only
    /// meaningful while stalled; consumed by critical-path causality).
    pub stall_addr: Addr,
    /// Last writer of the atomic's target, captured at issue time — by
    /// completion the atomic itself has become the last writer.
    pub stall_writer: Option<(usize, Cycle)>,
    /// Whether the spin loop currently being executed has actually waited
    /// (missed, parked, or slept) rather than exiting on its first check.
    pub spin_waited: bool,
    /// Program phase set by the latest `Instr::Phase` marker (0 before
    /// the first), saved in checkpoints so a restored run's observation
    /// resumes in it.
    pub phase: u16,
}

impl Cpu {
    /// Creates a processor with `program` and a derived random stream.
    pub fn new(program: Program, seed: u64, id: usize) -> Self {
        Cpu {
            pc: 0,
            regs: [0; NUM_REGS],
            state: CpuState::Ready,
            program,
            rng: SplitMix64::derive(seed, id as u64),
            instructions: 0,
            stall_since: 0,
            stall_addr: 0,
            stall_writer: None,
            spin_waited: false,
            phase: 0,
        }
    }

    /// Whether the processor has halted.
    pub fn is_halted(&self) -> bool {
        matches!(self.state, CpuState::Halted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cpu_is_ready_at_zero() {
        let cpu = Cpu::new(Program::default(), 1, 0);
        assert_eq!(cpu.pc, 0);
        assert!(matches!(cpu.state, CpuState::Ready));
        assert!(!cpu.is_halted());
    }

    #[test]
    fn rng_streams_differ_per_cpu() {
        let mut a = Cpu::new(Program::default(), 1, 0);
        let mut b = Cpu::new(Program::default(), 1, 1);
        assert_ne!(a.rng.next_u64(), b.rng.next_u64());
    }
}
