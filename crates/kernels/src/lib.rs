//! The paper's parallel programming constructs, as programs for the
//! simulated multiprocessor.
//!
//! This is the core crate of the reproduction: it implements every
//! algorithm of Section 2 —
//!
//! * **Spin locks** ([`locks`]): the centralized ticket lock, the MCS
//!   list-based queuing lock, and the paper's *update-conscious* MCS
//!   variant that flushes its neighbors' queue nodes;
//! * **Barriers** ([`barriers`]): the sense-reversing centralized barrier,
//!   the dissemination barrier, and the 4-ary arrival-tree barrier with a
//!   global wake-up flag;
//! * **Reductions** ([`reductions`]): the lock-based parallel reduction and
//!   the one-processor sequential reduction, synchronized by the
//!   simulator's zero-traffic magic lock/barrier exactly as in Section 4.3;
//!
//! — plus the synthetic workloads of Section 4 that exercise them
//! ([`workloads`]), including the text's reduced-contention and
//! load-imbalance variants, a uniform experiment [`runner`], and
//! application-style kernels composing the constructs ([`apps`]).
//!
//! Every builder lays shared data out the way the paper requires ("shared
//! data are mapped to the processors that use them most frequently"):
//! per-processor queue nodes and flags live on their processor's home node
//! in their own cache blocks; centralized structures live on node 0 (the
//! ticket counters share one block as in Figure 1; the barrier counters
//! are padded apart — see DESIGN.md §4b for the rationale behind each
//! choice).

pub mod apps;
pub mod barriers;
pub mod locks;
pub mod phase;
pub mod reductions;
pub mod runner;
pub mod workloads;

pub use runner::{run_experiment, ExperimentOutcome, ExperimentSpec, KernelSpec};
pub use workloads::{BarrierKind, LockKind, PostRelease, ReductionKind};

use sim_isa::ProgramBuilder;
use sim_mem::Addr;

/// Register allocation conventions shared by the kernel builders.
///
/// Builders use registers from the top down for long-lived values (loop
/// counters, base addresses) and the bottom up for scratch; the constants
/// here just name the common ones to keep the builders readable.
pub(crate) mod regs {
    /// Scratch register 0.
    pub const T0: usize = 0;
    /// Scratch register 1.
    pub const T1: usize = 1;
    /// Scratch register 2.
    pub const T2: usize = 2;
    /// Scratch register 3.
    pub const T3: usize = 3;
    /// Loop (iteration) counter.
    pub const ITER: usize = 15;
    /// Constant 1.
    pub const ONE: usize = 14;
    /// Constant 0.
    pub const ZERO: usize = 13;
    /// Primary base address.
    pub const BASE: usize = 12;
    /// Secondary base address.
    pub const BASE2: usize = 11;
    /// Kernel-specific long-lived value.
    pub const K0: usize = 10;
    /// Kernel-specific long-lived value.
    pub const K1: usize = 9;
    /// Kernel-specific long-lived value.
    pub const K2: usize = 8;
}

/// Emits the tail every lock, barrier and reduction program ends with:
/// store `count` (the iterations or episodes run) to `done`, fence so the
/// verifier sees it, halt. Clobbers `T0` and `T1`.
pub(crate) fn emit_epilogue(b: &mut ProgramBuilder, done: Addr, count: u32) {
    b.imm(regs::T0, done);
    b.imm(regs::T1, count);
    b.store(regs::T0, 0, regs::T1);
    b.fence();
    b.halt();
}
