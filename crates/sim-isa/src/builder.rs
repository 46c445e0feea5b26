//! Assembler-style program construction with symbolic labels.

use std::collections::HashMap;

use crate::instr::{AluOp, Instr, Program, Reg, SyncOp};

/// Builds a [`Program`] with forward-referencing labels.
///
/// ```
/// use sim_isa::{AluOp, ProgramBuilder};
///
/// // r0 = 3; do { r0 -= 1 } while r0 != 0; halt
/// let mut b = ProgramBuilder::new();
/// b.imm(0, 3);
/// b.label("loop");
/// b.alui(AluOp::Sub, 0, 0, 1);
/// b.bnz(0, "loop");
/// b.halt();
/// let prog = b.build();
/// assert_eq!(prog.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    code: Vec<Instr>,
    labels: HashMap<String, usize>,
    /// (instruction index, label) pairs patched at build time.
    fixups: Vec<(usize, String)>,
}

impl ProgramBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines `name` at the current position.
    ///
    /// # Panics
    ///
    /// Panics on duplicate definition.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let prev = self.labels.insert(name.to_string(), self.code.len());
        assert!(prev.is_none(), "duplicate label {name:?}");
        self
    }

    fn push_branch(&mut self, instr: Instr, target: &str) -> &mut Self {
        self.fixups.push((self.code.len(), target.to_string()));
        self.code.push(instr);
        self
    }

    /// Emits a raw instruction (no label resolution).
    pub fn raw(&mut self, instr: Instr) -> &mut Self {
        self.code.push(instr);
        self
    }

    /// `rd ← imm`.
    pub fn imm(&mut self, rd: Reg, v: u32) -> &mut Self {
        self.raw(Instr::Imm(rd, v))
    }

    /// `rd ← rs`.
    pub fn mov(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.raw(Instr::Mov(rd, rs))
    }

    /// `rd ← ra ⊕ rb`.
    pub fn alu(&mut self, op: AluOp, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.raw(Instr::Alu(op, rd, ra, rb))
    }

    /// `rd ← ra ⊕ imm`.
    pub fn alui(&mut self, op: AluOp, rd: Reg, ra: Reg, imm: u32) -> &mut Self {
        self.raw(Instr::AluI(op, rd, ra, imm))
    }

    /// Shared load `rd ← mem[ra + off]`.
    pub fn load(&mut self, rd: Reg, ra: Reg, off: u32) -> &mut Self {
        self.raw(Instr::Load(rd, ra, off))
    }

    /// Shared store `mem[ra + off] ← rs`.
    pub fn store(&mut self, ra: Reg, off: u32, rs: Reg) -> &mut Self {
        self.raw(Instr::Store(ra, off, rs))
    }

    /// `rd ← fetch_and_add(mem[ra], rb)`.
    pub fn fetch_add(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.raw(Instr::FetchAdd(rd, ra, rb))
    }

    /// `rd ← fetch_and_store(mem[ra], rb)`.
    pub fn fetch_store(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.raw(Instr::FetchStore(rd, ra, rb))
    }

    /// `rd ← compare_and_swap(mem[ra], rb, rc)`.
    pub fn cas(&mut self, rd: Reg, ra: Reg, rb: Reg, rc: Reg) -> &mut Self {
        self.raw(Instr::Cas(rd, ra, rb, rc))
    }

    /// Block flush of `mem[ra]`'s block.
    pub fn flush(&mut self, ra: Reg) -> &mut Self {
        self.raw(Instr::Flush(ra))
    }

    /// Release fence.
    pub fn fence(&mut self) -> &mut Self {
        self.raw(Instr::Fence)
    }

    /// Spin while `mem[ra] == rb`.
    pub fn spin_while_eq(&mut self, ra: Reg, rb: Reg) -> &mut Self {
        self.raw(Instr::SpinWhileEq(ra, rb))
    }

    /// Spin while `mem[ra] != rb`.
    pub fn spin_while_ne(&mut self, ra: Reg, rb: Reg) -> &mut Self {
        self.raw(Instr::SpinWhileNe(ra, rb))
    }

    /// Consume `cycles` of local work.
    pub fn delay(&mut self, cycles: u32) -> &mut Self {
        self.raw(Instr::Delay(cycles))
    }

    /// Consume `reg` cycles of local work.
    pub fn delay_reg(&mut self, r: Reg) -> &mut Self {
        self.raw(Instr::DelayReg(r))
    }

    /// Consume `[0, bound)` random cycles.
    pub fn rand_delay(&mut self, bound: u32) -> &mut Self {
        self.raw(Instr::RandDelay(bound))
    }

    /// Unconditional jump to `target`.
    pub fn jmp(&mut self, target: &str) -> &mut Self {
        self.push_branch(Instr::Jmp(usize::MAX), target)
    }

    /// Branch to `target` if `rs == 0`.
    pub fn bez(&mut self, rs: Reg, target: &str) -> &mut Self {
        self.push_branch(Instr::Bez(rs, usize::MAX), target)
    }

    /// Branch to `target` if `rs != 0`.
    pub fn bnz(&mut self, rs: Reg, target: &str) -> &mut Self {
        self.push_branch(Instr::Bnz(rs, usize::MAX), target)
    }

    /// Zero-traffic machine barrier.
    pub fn magic_barrier(&mut self) -> &mut Self {
        self.raw(Instr::MagicBarrier)
    }

    /// Zero-traffic lock acquire.
    pub fn magic_acquire(&mut self, lock: u32) -> &mut Self {
        self.raw(Instr::MagicAcquire(lock))
    }

    /// Zero-traffic lock release.
    pub fn magic_release(&mut self, lock: u32) -> &mut Self {
        self.raw(Instr::MagicRelease(lock))
    }

    /// Zero-cost observability marker: enter program phase `id`.
    pub fn phase(&mut self, id: u16) -> &mut Self {
        self.raw(Instr::Phase(id))
    }

    /// Zero-cost observability marker: sync-episode event `op` on object `id`.
    pub fn sync(&mut self, op: SyncOp, id: u32) -> &mut Self {
        self.raw(Instr::Sync(op, id))
    }

    /// Stop the processor.
    pub fn halt(&mut self) -> &mut Self {
        self.raw(Instr::Halt)
    }

    /// Resolves labels and returns the validated program.
    ///
    /// # Panics
    ///
    /// Panics on undefined labels or invalid register/target indices.
    pub fn build(mut self) -> Program {
        for (idx, name) in std::mem::take(&mut self.fixups) {
            let &target = self.labels.get(&name).unwrap_or_else(|| panic!("undefined label {name:?}"));
            match &mut self.code[idx] {
                Instr::Jmp(t) | Instr::Bez(_, t) | Instr::Bnz(_, t) => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        let prog = Program { code: self.code };
        if let Err(e) = prog.validate() {
            panic!("invalid program: {e}");
        }
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        b.imm(0, 2);
        b.label("top");
        b.bez(0, "done"); // forward reference
        b.alui(AluOp::Sub, 0, 0, 1);
        b.jmp("top"); // backward reference
        b.label("done");
        b.halt();
        let p = b.build();
        assert_eq!(p.code[1], Instr::Bez(0, 4));
        assert_eq!(p.code[3], Instr::Jmp(1));
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut b = ProgramBuilder::new();
        b.jmp("nowhere");
        b.build();
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut b = ProgramBuilder::new();
        b.label("x");
        b.label("x");
    }

    #[test]
    fn label_at_end_is_valid_only_if_instruction_follows() {
        let mut b = ProgramBuilder::new();
        b.label("start");
        b.jmp("start");
        assert_eq!(b.build().code[0], Instr::Jmp(0));
    }

    #[test]
    fn fluent_chaining() {
        let mut b = ProgramBuilder::new();
        b.imm(1, 10).imm(2, 20).alu(AluOp::Add, 3, 1, 2).halt();
        let p = b.build();
        assert_eq!(p.len(), 4);
    }
}
