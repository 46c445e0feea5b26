//! Reduction kernels (Section 2.3) and the Section 4.3 synthetic program.
//!
//! Both strategies compute, 5000 times, the machine-wide maximum of
//! per-processor values. Synchronization uses the simulator's zero-traffic
//! magic lock and barrier, exactly as the paper prescribes ("we simulated
//! locks and barriers that synchronize without generating any communication
//! traffic"), so the measured traffic is the reduction's own.
//!
//! Per-episode structure (both kinds use two magic barriers, as in
//! Figures 6 and 7, so their synchronization overhead is identical):
//!
//! * **parallel** (Figure 6): compute a local value; under the magic lock,
//!   `if max < local { max := local }`; barrier; *use* `max` (every
//!   processor loads it); barrier.
//! * **sequential** (Figure 7): store the local value to `local_max[pid]`;
//!   barrier; processor 0 scans `local_max[]`, accumulating the running
//!   maximum in a register and storing each improvement to `max` (the
//!   figure's `max := local_max[i]`); barrier; use `max`.
//!
//! As in the paper's figures, `max` is never reset: it is monotone over
//! the whole run, so after a warm-up most parallel-reduction critical
//! sections only *read* it — which is exactly what makes the parallel
//! strategy cheap under WI (few misses on `max`) and the sum-of-critical-
//! sections serialization the dominant cost under the update protocols.
//!
//! Placement: `max` has its own block on node 0; `local_max[i]` has its own
//! block homed at processor `i` ("shared data are mapped to the processors
//! that use them most frequently") — which also isolates each element from
//! false sharing, as a tuned implementation would.
//!
//! Per-processor values come from a deterministic per-(pid, episode) LCG so
//! runs are reproducible and both strategies reduce identical inputs.

use sim_isa::{AluOp, Program, ProgramBuilder};
use sim_machine::Machine;
use sim_mem::Addr;

use crate::emit_epilogue;
use crate::regs::*;
use crate::workloads::{ReductionKind, ReductionWorkload};

/// LCG multiplier (glibc's `rand`).
const LCG_A: u32 = 1103515245;
/// LCG increment.
const LCG_C: u32 = 12345;

/// Addresses of the reduction structures, for post-run verification.
#[derive(Debug, Clone)]
pub struct ReductionLayout {
    /// The global result.
    pub max: Addr,
    /// Per-processor argument slots (sequential variant).
    pub local_max: Vec<Addr>,
    /// Per-processor completion counters.
    pub done: Vec<Addr>,
}

/// Processor `pid`'s LCG seed (the emitted prologue loads the same).
fn lcg_seed(pid: usize) -> u32 {
    (pid as u32).wrapping_mul(2654435761).wrapping_add(12345)
}

/// Reference computation of the value processor `pid` contributes in a
/// given episode (mirrors the emitted LCG code).
pub fn value_of(pid: usize, episode: u32) -> u32 {
    let mut s = lcg_seed(pid);
    for _ in 0..=episode {
        s = s.wrapping_mul(LCG_A).wrapping_add(LCG_C);
    }
    (s >> 16) & 0x7fff
}

/// The values processor `pid` contributes, episode by episode: one LCG
/// step per item, where [`value_of`] replays the stream from episode 0.
fn values(pid: usize) -> impl Iterator<Item = u32> {
    let mut s = lcg_seed(pid);
    std::iter::repeat_with(move || {
        s = s.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        (s >> 16) & 0x7fff
    })
}

/// Lays out reduction data and installs the Section 4.3 synthetic program.
pub fn install(m: &mut Machine, w: &ReductionWorkload) -> ReductionLayout {
    let p = m.config().num_procs;
    let max = m.alloc().alloc_block_on(0, 1);
    let local_max: Vec<Addr> = (0..p).map(|i| m.alloc().alloc_block_on(i, 1)).collect();
    let done: Vec<Addr> = (0..p).map(|i| m.alloc().alloc_block_on(i, 1)).collect();
    // Attribution ranges for TrafficReport::by_structure.
    m.register_structure("max", max, 1);
    for (i, &a) in local_max.iter().enumerate() {
        m.register_structure(&format!("local_max[{i}]"), a, 1);
    }
    for (i, &done_i) in done.iter().enumerate() {
        let prog = match w.kind {
            ReductionKind::Parallel => parallel_program(w, max, i, done_i),
            ReductionKind::Sequential => sequential_program(w, max, &local_max, i, done_i),
        };
        m.set_program(i, prog);
    }
    ReductionLayout { max, local_max, done }
}

/// Emits `T0 := next per-episode value` from the LCG state in `K2`.
fn emit_value(b: &mut ProgramBuilder) {
    b.alui(AluOp::Mul, K2, K2, LCG_A);
    b.alui(AluOp::Add, K2, K2, LCG_C);
    b.alui(AluOp::Shr, T0, K2, 16);
    b.alui(AluOp::And, T0, T0, 0x7fff);
}

fn emit_prologue(b: &mut ProgramBuilder, w: &ReductionWorkload, max: Addr, pid: usize) {
    b.imm(BASE, max);
    b.imm(ONE, 1);
    b.imm(ZERO, 0);
    b.imm(K2, lcg_seed(pid));
    b.imm(ITER, w.episodes);
    b.label("loop");
    if w.skew > 0 {
        // The text's load-imbalance variant: stagger episode starts.
        b.rand_delay(w.skew);
    }
    emit_value(b);
}

/// Closes the episode loop [`emit_prologue`] opened, then ends the program.
fn emit_loop_close(b: &mut ProgramBuilder, done: Addr, episodes: u32) {
    b.alui(AluOp::Sub, ITER, ITER, 1);
    b.bnz(ITER, "loop");
    emit_epilogue(b, done, episodes);
}

/// The parallel reduction (Figure 6).
fn parallel_program(w: &ReductionWorkload, max: Addr, pid: usize, done: Addr) -> Program {
    let mut b = ProgramBuilder::new();
    emit_prologue(&mut b, w, max, pid);
    // LOCK; if max < local_max { max := local_max }; UNLOCK
    b.magic_acquire(0);
    b.load(T1, BASE, 0);
    b.alu(AluOp::Lt, T2, T1, T0);
    b.bez(T2, "skip");
    b.store(BASE, 0, T0);
    b.label("skip");
    b.fence(); // release semantics before the unlock
    b.magic_release(0);
    // BARRIER; code that uses max; BARRIER
    b.magic_barrier();
    b.load(T3, BASE, 0);
    b.magic_barrier();
    emit_loop_close(&mut b, done, w.episodes);
    b.build()
}

/// The sequential reduction (Figure 7).
fn sequential_program(
    w: &ReductionWorkload,
    max: Addr,
    local_max: &[Addr],
    pid: usize,
    done: Addr,
) -> Program {
    let mut b = ProgramBuilder::new();
    emit_prologue(&mut b, w, max, pid);
    // local_max[pid] := value
    b.imm(T1, local_max[pid]);
    b.store(T1, 0, T0);
    b.fence();
    b.magic_barrier();
    if pid == 0 {
        // for i := 0 until P-1: if max < local_max[i] { max := local_max[i] }
        // The current max is loaded once into K1 (as -O2 code generation
        // would); improvements are stored through to `max`.
        b.load(K1, BASE, 0);
        for &slot in local_max {
            b.imm(T1, slot);
            b.load(T2, T1, 0);
            b.alu(AluOp::Lt, T3, K1, T2);
            let skip = format!("skip{slot:x}");
            b.bez(T3, &skip);
            b.mov(K1, T2);
            b.store(BASE, 0, K1); // max := local_max[i]
            b.label(&skip);
        }
        b.fence();
    }
    b.magic_barrier();
    b.load(T3, BASE, 0); // code that uses max
    emit_loop_close(&mut b, done, w.episodes);
    b.build()
}

/// Verifies reduction postconditions: everyone finished, and the published
/// maximum equals the running maximum over every processor and episode
/// (`max` is monotone — never reset — as in the paper's figures).
pub fn verify(m: &mut Machine, w: &ReductionWorkload, layout: &ReductionLayout) {
    let p = layout.done.len();
    for i in 0..p {
        assert_eq!(m.read_word(layout.done[i]), w.episodes, "processor {i} completed");
    }
    // One pass per processor stream, O(P·E); calling `value_of` per
    // episode is O(P·E²) and outweighs a full-scale run's simulation.
    let mut expected = 0;
    let mut last = vec![0; p];
    for (i, last) in last.iter_mut().enumerate() {
        for v in values(i).take(w.episodes as usize) {
            expected = expected.max(v);
            *last = v;
        }
    }
    assert_eq!(m.read_word(layout.max), expected, "final reduction value");
    if w.kind == ReductionKind::Sequential {
        for (i, &v) in last.iter().enumerate() {
            assert_eq!(m.read_word(layout.local_max[i]), v, "slot {i}");
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
        kind: ReductionKind,
        protocol: Protocol,
        procs: usize,
        episodes: u32,
    ) -> (u64, sim_stats::TrafficReport) {
        let w = ReductionWorkload { kind, episodes, skew: 0 };
        let mut m = Machine::new(MachineConfig::paper(procs, protocol));
        let layout = install(&mut m, &w);
        let r = m.run();
        verify(&mut m, &w, &layout);
        (r.cycles, r.traffic)
    }

    #[test]
    fn value_of_is_stable_and_bounded() {
        for pid in 0..8 {
            for ep in 0..8 {
                let v = value_of(pid, ep);
                assert!(v < 0x8000);
                assert_eq!(v, value_of(pid, ep), "deterministic");
            }
        }
        // Different processors contribute different streams.
        assert_ne!(value_of(0, 3), value_of(1, 3));
    }

    #[test]
    fn streamed_values_match_the_reference() {
        for pid in [0, 1, 7, 31] {
            let streamed: Vec<u32> = values(pid).take(200).collect();
            for ep in [0u32, 1, 2, 17, 199] {
                assert_eq!(streamed[ep as usize], value_of(pid, ep), "pid {pid} episode {ep}");
            }
        }
    }

    #[test]
    fn parallel_reduction_all_protocols() {
        for p in PROTOCOLS {
            let (cycles, _) = run(ReductionKind::Parallel, p, 4, 10);
            assert!(cycles > 0, "{p:?}");
        }
    }

    #[test]
    fn sequential_reduction_all_protocols() {
        for p in PROTOCOLS {
            let (cycles, _) = run(ReductionKind::Sequential, p, 4, 10);
            assert!(cycles > 0, "{p:?}");
        }
    }

    #[test]
    fn reductions_work_at_odd_processor_counts() {
        for kind in [ReductionKind::Parallel, ReductionKind::Sequential] {
            for procs in [1, 3, 5] {
                let (cycles, _) = run(kind, Protocol::PureUpdate, procs, 6);
                assert!(cycles > 0, "{kind:?} x{procs}");
            }
        }
    }

    #[test]
    fn no_lock_or_barrier_traffic_leaks_into_measurements() {
        // Magic synchronization must keep traffic to reduction data only:
        // under PU the sequential reduction's updates all target max (read
        // by everyone) and local_max (read by processor 0) — useful.
        let (_, t) = run(ReductionKind::Sequential, Protocol::PureUpdate, 8, 20);
        assert!(t.updates.useful() > 0);
    }

    #[test]
    fn sequential_updates_mostly_useful_under_pu() {
        // Figure 16's shape: reductions are update-friendly.
        let (_, t) = run(ReductionKind::Sequential, Protocol::PureUpdate, 8, 20);
        assert!(t.updates.useful() * 2 >= t.updates.total(), "at least half useful: {:?}", t.updates);
    }

    #[test]
    fn sequential_beats_parallel_under_pu_when_tight() {
        // Figure 14's headline: under update protocols the sequential
        // reduction wins for tightly synchronized processes. The win grows
        // with the processor count (the parallel critical path is the sum
        // of P critical sections); at small P the two are within noise, so
        // test at 16 processors.
        let (seq, _) = run(ReductionKind::Sequential, Protocol::PureUpdate, 16, 60);
        let (par, _) = run(ReductionKind::Parallel, Protocol::PureUpdate, 16, 60);
        assert!(seq < par, "sequential {seq} should beat parallel {par} under PU");
    }

    #[test]
    fn skewed_variant_still_verifies() {
        let w = ReductionWorkload { kind: ReductionKind::Parallel, episodes: 10, skew: 200 };
        let mut m = Machine::new(MachineConfig::paper(4, Protocol::WriteInvalidate));
        let layout = install(&mut m, &w);
        m.run();
        verify(&mut m, &w, &layout);
    }
}
