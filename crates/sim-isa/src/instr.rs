//! Instruction definitions.

/// A register index (processors have [`NUM_REGS`] general registers).
pub type Reg = usize;

/// Number of general-purpose registers per processor.
pub const NUM_REGS: usize = 16;

/// ALU operations. Comparisons produce 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by rb & 31).
    Shl,
    /// Logical shift right (by rb & 31).
    Shr,
    /// Unsigned less-than (0/1).
    Lt,
    /// Equality (0/1).
    Eq,
    /// Inequality (0/1).
    Ne,
    /// Unsigned modulo (rb must be nonzero).
    Mod,
}

impl AluOp {
    /// Applies the operation.
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b),
            AluOp::Shr => a.wrapping_shr(b),
            AluOp::Lt => (a < b) as u32,
            AluOp::Eq => (a == b) as u32,
            AluOp::Ne => (a != b) as u32,
            AluOp::Mod => a % b,
        }
    }
}

/// A synchronization-episode event carried by the zero-cost [`Instr::Sync`]
/// marker. Lock kernels emit the attempt/acquired/released triple around
/// their real spin-based acquire and release paths; barrier kernels bracket
/// each episode with arrive/depart. The machine's critical-path profiler
/// turns the stream into per-lock handoff chains and per-barrier episodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyncOp {
    /// The processor starts contending for a lock.
    AcquireAttempt,
    /// The processor now holds the lock.
    Acquired,
    /// The processor gave the lock up (handoff point).
    Released,
    /// The processor reached a barrier.
    BarrierArrive,
    /// The processor left the barrier (saw the release).
    BarrierDepart,
}

/// One instruction. All instructions execute in one cycle unless they touch
/// shared memory or explicitly consume time (`Delay*`, `Spin*`, `Fence`,
/// magic synchronization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `rd ← imm`.
    Imm(Reg, u32),
    /// `rd ← rs`.
    Mov(Reg, Reg),
    /// `rd ← ra ⊕ rb`.
    Alu(AluOp, Reg, Reg, Reg),
    /// `rd ← ra ⊕ imm`.
    AluI(AluOp, Reg, Reg, u32),
    /// Shared load: `rd ← mem[ra + off]` (byte offset, word aligned).
    Load(Reg, Reg, u32),
    /// Shared store: `mem[ra + off] ← rs` (through the write buffer).
    Store(Reg, u32, Reg),
    /// `rd ← fetch_and_add(mem[ra], rb)` — returns the old value.
    FetchAdd(Reg, Reg, Reg),
    /// `rd ← fetch_and_store(mem[ra], rb)` — returns the old value.
    FetchStore(Reg, Reg, Reg),
    /// `rd ← compare_and_swap(mem[ra], expected = rb, new = rc)` — returns
    /// the old value; the swap happened iff `rd == rb`.
    Cas(Reg, Reg, Reg, Reg),
    /// User-level block flush of the block containing `mem[ra]`.
    Flush(Reg),
    /// Release fence: stalls until the write buffer drains and all
    /// outstanding invalidation/update acks arrive.
    Fence,
    /// Spin while `mem[ra] == rb` (the pseudo-code's `repeat while`).
    SpinWhileEq(Reg, Reg),
    /// Spin while `mem[ra] != rb` (the pseudo-code's `repeat until`).
    SpinWhileNe(Reg, Reg),
    /// Consume `imm` cycles of local work.
    Delay(u32),
    /// Consume `reg` cycles of local work.
    DelayReg(Reg),
    /// Consume a uniformly distributed `[0, imm)` cycles of local work from
    /// the per-processor deterministic PRNG stream.
    RandDelay(u32),
    /// Unconditional jump to instruction index.
    Jmp(usize),
    /// Branch to index if `rs == 0`.
    Bez(Reg, usize),
    /// Branch to index if `rs != 0`.
    Bnz(Reg, usize),
    /// Zero-traffic machine-wide barrier (the reduction study's
    /// "synchronize without generating any communication traffic").
    MagicBarrier,
    /// Zero-traffic FIFO lock acquire (lock id `imm`).
    MagicAcquire(u32),
    /// Zero-traffic lock release (lock id `imm`).
    MagicRelease(u32),
    /// Observability marker: the processor enters program phase `imm`.
    /// Costs zero cycles, retires no instruction, and generates no traffic —
    /// annotated and unannotated programs behave identically.
    Phase(u16),
    /// Observability marker: synchronization-episode event `op` on sync
    /// object `imm` (lock or barrier id). Zero-cost like [`Instr::Phase`].
    Sync(SyncOp, u32),
    /// Stop this processor.
    Halt,
}

/// An executable program: straight-line instruction array; branches hold
/// resolved indices (see [`crate::ProgramBuilder`]).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The instructions.
    pub code: Vec<Instr>,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Validates that all branch targets and register indices are in range.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.code.len();
        let ck_target = |i: usize, t: usize| {
            if t >= n {
                Err(format!("instruction {i}: branch target {t} out of range ({n} instrs)"))
            } else {
                Ok(())
            }
        };
        let ck_reg = |i: usize, r: Reg| {
            if r >= NUM_REGS {
                Err(format!("instruction {i}: register r{r} out of range"))
            } else {
                Ok(())
            }
        };
        for (i, ins) in self.code.iter().enumerate() {
            match *ins {
                Instr::Jmp(t) => ck_target(i, t)?,
                Instr::Bez(r, t) | Instr::Bnz(r, t) => {
                    ck_reg(i, r)?;
                    ck_target(i, t)?;
                }
                Instr::Imm(r, _) | Instr::Flush(r) | Instr::DelayReg(r) => ck_reg(i, r)?,
                Instr::Mov(a, b)
                | Instr::SpinWhileEq(a, b)
                | Instr::SpinWhileNe(a, b)
                | Instr::Load(a, b, _)
                | Instr::Store(a, _, b)
                | Instr::AluI(_, a, b, _) => {
                    ck_reg(i, a)?;
                    ck_reg(i, b)?;
                }
                Instr::Alu(_, a, b, c) | Instr::FetchAdd(a, b, c) | Instr::FetchStore(a, b, c) => {
                    ck_reg(i, a)?;
                    ck_reg(i, b)?;
                    ck_reg(i, c)?;
                }
                Instr::Cas(a, b, c, d) => {
                    ck_reg(i, a)?;
                    ck_reg(i, b)?;
                    ck_reg(i, c)?;
                    ck_reg(i, d)?;
                }
                Instr::Delay(_)
                | Instr::RandDelay(_)
                | Instr::Fence
                | Instr::MagicBarrier
                | Instr::MagicAcquire(_)
                | Instr::MagicRelease(_)
                | Instr::Phase(_)
                | Instr::Sync(..)
                | Instr::Halt => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Add.apply(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u32::MAX);
        assert_eq!(AluOp::Mul.apply(5, 6), 30);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.apply(1, 4), 16);
        assert_eq!(AluOp::Shr.apply(16, 4), 1);
        assert_eq!(AluOp::Lt.apply(1, 2), 1);
        assert_eq!(AluOp::Lt.apply(2, 1), 0);
        assert_eq!(AluOp::Eq.apply(7, 7), 1);
        assert_eq!(AluOp::Ne.apply(7, 7), 0);
        assert_eq!(AluOp::Mod.apply(10, 3), 1);
    }

    #[test]
    fn validate_catches_bad_target() {
        let p = Program { code: vec![Instr::Jmp(5)] };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_register() {
        let p = Program { code: vec![Instr::Imm(99, 0)] };
        assert!(p.validate().is_err());
        let p = Program { code: vec![Instr::Cas(0, 1, 2, NUM_REGS)] };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_accepts_good_program() {
        let p = Program {
            code: vec![Instr::Imm(0, 5), Instr::AluI(AluOp::Sub, 0, 0, 1), Instr::Bnz(0, 1), Instr::Halt],
        };
        assert!(p.validate().is_ok());
    }
}
