//! The paper's §4.1 and §4.3 text variants, which it reports as
//! qualitatively unchanged, and the lock-family extension.

use kernels::runner::KernelSpec;
use kernels::workloads::{LockKind, PostRelease, ReductionKind};
use ppc_bench::sweep::{self, RunSpec, SweepOptions};
use ppc_bench::{lock_workload, reduction_workload, PROC_SWEEP, PROTOCOLS};

use crate::Rows;

/// The three lock kinds the paper evaluates.
const PAPER_LOCKS: [LockKind; 3] = [LockKind::Ticket, LockKind::Mcs, LockKind::McsUpdateConscious];

/// One `<kind> <protocol>` row per kernel and protocol, kernel-major.
fn rows(kernels: impl IntoIterator<Item = (&'static str, KernelSpec)>) -> Rows {
    kernels
        .into_iter()
        .flat_map(|(kind, kernel)| {
            PROTOCOLS.map(|proto| (format!("{kind} {}", proto.label()), kernel, proto))
        })
        .collect()
}

/// §4.1: instead of re-acquiring immediately after a release, processors
/// waste a pseudo-random (bounded) amount of time, reducing lock
/// contention.
pub fn random_delay_rows() -> Rows {
    rows(PAPER_LOCKS.map(|kind| {
        let mut w = lock_workload(kind);
        w.post_release = PostRelease::Random { bound: 2 * w.cs_cycles };
        (kind.label(), KernelSpec::Lock(w))
    }))
}

/// §4.3: load imbalance staggers processors' arrivals at the reduction,
/// reducing lock contention. The paper reports that parallel reductions
/// become more efficient than sequential ones, but update-based parallel
/// reductions still beat WI parallel reductions.
pub fn imbalance_rows() -> Rows {
    rows([ReductionKind::Sequential, ReductionKind::Parallel].map(|kind| {
        let mut w = reduction_workload(kind);
        w.skew = 2000; // up to ~2000 cycles of per-episode imbalance
        (kind.label(), KernelSpec::Reduction(w))
    }))
}

/// Extension: the full lock family including the TAS/TTAS and Anderson
/// array-queue baselines from Mellor-Crummey & Scott's study.
pub fn lock_family_rows() -> Rows {
    rows(
        [
            LockKind::TestAndSet,
            LockKind::TestAndTestAndSet,
            LockKind::Ticket,
            LockKind::AndersonQueue,
            LockKind::Mcs,
            LockKind::McsUpdateConscious,
        ]
        .map(|kind| (kind.label(), KernelSpec::Lock(lock_workload(kind)))),
    )
}

/// §4.1: the ratio of work outside and inside the critical section
/// equals the number of processors (±10%), a controlled contention
/// level.
///
/// The workload varies per machine size (the ratio tracks P), so this
/// table cannot be a row-builder latency table; it submits its own
/// [`RunSpec`] batch to the sweep harness instead.
pub fn proportional(opts: &SweepOptions) {
    let mut labels = Vec::new();
    let mut specs = Vec::new();
    for kind in PAPER_LOCKS {
        for proto in PROTOCOLS {
            labels.push(format!("{} {}", kind.label(), proto.label()));
            for procs in PROC_SWEEP {
                let mut w = lock_workload(kind);
                w.post_release = PostRelease::Proportional { ratio: procs as u32 };
                specs.push(RunSpec::paper(procs, proto, KernelSpec::Lock(w)));
            }
        }
    }
    let outs = sweep::run_specs_with(&specs, opts).0;
    println!("\nSection 4.1 variant: outside/inside work ratio = P (±10%)");
    print!("{:<10}", "combo");
    for p in PROC_SWEEP {
        print!("{p:>10}");
    }
    println!();
    for (label, outs) in labels.iter().zip(outs.chunks(PROC_SWEEP.len())) {
        print!("{label:<10}");
        for out in outs {
            print!("{:>10.1}", out.avg_latency);
        }
        println!();
    }
}
