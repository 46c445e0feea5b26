//! The mini-ISA interpreted by the simulated processors.
//!
//! The paper drives its simulator with MINT, executing real MIPS binaries.
//! Our substitute is a small register machine whose instruction set covers
//! exactly what the Section 2 pseudo-code needs: loads/stores to shared
//! memory, the three atomic primitives, a release fence, a user-level block
//! flush, busy-wait spins, bounded delays (for critical-section work), and
//! ordinary ALU/branch instructions. Synchronization kernels are built as
//! per-processor [`Program`]s with the assembler-style [`ProgramBuilder`].
//!
//! The crate also ships a timing-free [`reference::RefMachine`] that executes
//! programs under sequential consistency with a configurable interleaving;
//! integration tests diff its final memory against the cycle-accurate
//! simulator to validate kernel logic independently of protocol timing.

pub mod builder;
pub mod instr;
pub mod reference;

pub use builder::ProgramBuilder;
pub use instr::{AluOp, Instr, Program, Reg, SyncOp, NUM_REGS};
