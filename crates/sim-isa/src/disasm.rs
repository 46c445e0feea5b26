//! Disassembly: instructions and whole programs as text.

use std::fmt;

use crate::instr::{AluOp, Instr, Program};

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Lt => "lt",
            AluOp::Eq => "eq",
            AluOp::Ne => "ne",
            AluOp::Mod => "mod",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Imm(rd, v) => write!(f, "imm   r{rd}, {v:#x}"),
            Instr::Mov(rd, rs) => write!(f, "mov   r{rd}, r{rs}"),
            Instr::Alu(op, rd, ra, rb) => write!(f, "{op:<5} r{rd}, r{ra}, r{rb}"),
            Instr::AluI(op, rd, ra, imm) => write!(f, "{op:<5} r{rd}, r{ra}, {imm:#x}"),
            Instr::Load(rd, ra, off) => write!(f, "load  r{rd}, [r{ra}+{off:#x}]"),
            Instr::Store(ra, off, rs) => write!(f, "store [r{ra}+{off:#x}], r{rs}"),
            Instr::FetchAdd(rd, ra, rb) => write!(f, "fetch_add r{rd}, [r{ra}], r{rb}"),
            Instr::FetchStore(rd, ra, rb) => write!(f, "fetch_store r{rd}, [r{ra}], r{rb}"),
            Instr::Cas(rd, ra, rb, rc) => write!(f, "cas   r{rd}, [r{ra}], r{rb}, r{rc}"),
            Instr::Flush(ra) => write!(f, "flush [r{ra}]"),
            Instr::Fence => write!(f, "fence"),
            Instr::SpinWhileEq(ra, rb) => write!(f, "spin_while_eq [r{ra}], r{rb}"),
            Instr::SpinWhileNe(ra, rb) => write!(f, "spin_while_ne [r{ra}], r{rb}"),
            Instr::Delay(c) => write!(f, "delay {c}"),
            Instr::DelayReg(r) => write!(f, "delay r{r}"),
            Instr::RandDelay(b) => write!(f, "rand_delay {b}"),
            Instr::Jmp(t) => write!(f, "jmp   {t}"),
            Instr::Bez(rs, t) => write!(f, "bez   r{rs}, {t}"),
            Instr::Bnz(rs, t) => write!(f, "bnz   r{rs}, {t}"),
            Instr::MagicBarrier => write!(f, "magic_barrier"),
            Instr::MagicAcquire(l) => write!(f, "magic_acquire {l}"),
            Instr::MagicRelease(l) => write!(f, "magic_release {l}"),
            Instr::Phase(p) => write!(f, "phase {p}"),
            Instr::Sync(op, id) => write!(f, "sync  {} {id}", op.name()),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

impl Program {
    /// Renders the whole program, one numbered instruction per line.
    pub fn disassemble(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for (i, ins) in self.code.iter().enumerate() {
            let _ = writeln!(out, "{i:>4}: {ins}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.imm(0, 0x40).imm(1, 1).imm(15, 3);
        b.label("loop");
        b.fetch_add(2, 0, 1);
        b.spin_while_ne(0, 2);
        b.store(0, 4, 2);
        b.fence();
        b.flush(0);
        b.alui(AluOp::Sub, 15, 15, 1);
        b.bnz(15, "loop");
        b.magic_barrier();
        b.halt();
        b.build()
    }

    #[test]
    fn disassembly_is_one_line_per_instruction() {
        let p = sample();
        let d = p.disassemble();
        assert_eq!(d.lines().count(), p.len());
        assert!(d.contains("fetch_add"));
        assert!(d.contains("spin_while_ne"));
        assert!(d.contains("halt"));
    }

    #[test]
    fn alu_ops_render() {
        assert_eq!(AluOp::Add.to_string(), "add");
        assert_eq!(AluOp::Mod.to_string(), "mod");
    }
}
