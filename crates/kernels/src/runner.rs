//! Uniform experiment runner: spec in, paper-style measurements out.

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_machine::{Machine, MachineConfig};
use sim_net::NetCounters;
use sim_proto::Protocol;
use sim_stats::{FingerprintChain, LatencyHist, StructureTraffic, TrafficReport};

use crate::workloads::{BarrierWorkload, LockWorkload, ReductionWorkload};
use crate::{barriers, locks, reductions};

/// Which kernel an experiment runs.
#[derive(Debug, Clone, Copy)]
pub enum KernelSpec {
    /// The Section 4.1 lock program.
    Lock(LockWorkload),
    /// The Section 4.2 barrier program.
    Barrier(BarrierWorkload),
    /// The Section 4.3 reduction program.
    Reduction(ReductionWorkload),
}

/// One experiment: a kernel on a machine size under a protocol.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Number of processors.
    pub procs: usize,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// The kernel and its parameters.
    pub kernel: KernelSpec,
}

/// Measurements from one experiment, in the paper's units.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutcome {
    /// Total execution time in cycles.
    pub cycles: u64,
    /// The figure's y-axis value: average acquire–release latency
    /// (Figure 8), barrier episode latency (Figure 11), or reduction
    /// latency (Figure 14), in processor cycles.
    pub avg_latency: f64,
    /// Classified traffic (Figures 9/10, 12/13, 15/16).
    pub traffic: TrafficReport,
    /// Raw network counters.
    pub net: NetCounters,
    /// Distribution of shared-read miss stall times.
    pub read_latency: LatencyHist,
    /// Distribution of atomic-operation stall times.
    pub atomic_latency: LatencyHist,
    /// Determinism fingerprint of the run; `None` unless the machine ran
    /// with `hostobs.fingerprint` set.
    pub fingerprint: Option<FingerprintChain>,
}

impl ExperimentOutcome {
    /// Writes every field, the latency as its IEEE-754 bits so it reads
    /// back exactly: cycles, latency, the structure names, the traffic
    /// counters, the network counters, both histograms, and the
    /// fingerprint behind a presence flag.
    pub fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.cycles);
        w.u64(self.avg_latency.to_bits());
        w.usize(self.traffic.by_structure.len());
        for s in &self.traffic.by_structure {
            w.str(&s.name);
        }
        self.traffic.encode(w);
        self.net.encode(w);
        self.read_latency.encode(w);
        self.atomic_latency.encode(w);
        w.bool(self.fingerprint.is_some());
        if let Some(fp) = &self.fingerprint {
            fp.encode(w);
        }
    }

    /// Reads an outcome written by [`ExperimentOutcome::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cycles = r.u64()?;
        let avg_latency = f64::from_bits(r.u64()?);
        let by_structure = (0..r.usize()?)
            .map(|_| Ok(StructureTraffic { name: r.str()?.to_string(), ..Default::default() }))
            .collect::<Result<_, SnapError>>()?;
        let mut traffic = TrafficReport { by_structure, ..Default::default() };
        traffic.decode(r)?;
        Ok(ExperimentOutcome {
            cycles,
            avg_latency,
            traffic,
            net: NetCounters::decode(r)?,
            read_latency: LatencyHist::decode(r)?,
            atomic_latency: LatencyHist::decode(r)?,
            fingerprint: if r.bool()? { Some(FingerprintChain::decode(r)?) } else { None },
        })
    }
}

/// Builds the machine, installs the kernel, runs it, verifies kernel
/// postconditions, and reduces the measurements to the paper's metrics.
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentOutcome {
    run_experiment_configured(spec, MachineConfig::paper(spec.procs, spec.protocol))
}

/// [`run_experiment`] with an explicit machine configuration (used by the
/// ablation benches to vary thresholds, buffer depths, and optimizations).
pub fn run_experiment_configured(spec: &ExperimentSpec, cfg: MachineConfig) -> ExperimentOutcome {
    assert_eq!(cfg.num_procs, spec.procs);
    assert_eq!(cfg.protocol, spec.protocol);
    let r = install_run_verify(&mut Machine::new(cfg), &spec.kernel, true, Machine::run);
    // The figures' y-axis: execution time per episode, less the lock's
    // critical-section work (Figure 8: execution time / 32000 − 50;
    // Figures 11 and 14: execution time / 5000).
    let (episodes, work) = match spec.kernel {
        KernelSpec::Lock(w) => (w.total_acquires, w.cs_cycles),
        KernelSpec::Barrier(w) => (w.episodes, 0),
        KernelSpec::Reduction(w) => (w.episodes, 0),
    };
    ExperimentOutcome {
        cycles: r.cycles,
        avg_latency: r.avg_latency(episodes as u64, work as u64),
        traffic: r.traffic,
        net: r.net,
        read_latency: r.read_latency,
        atomic_latency: r.atomic_latency,
        fingerprint: r.fingerprint,
    }
}

/// Installs `kernel` on `m`, hands the installed machine to `run`, and,
/// when `verify` is set, checks the kernel's postconditions on the final
/// memory image. `run` may restore a checkpoint before it runs (the
/// installed programs are what a checkpoint restores into); a `run` that
/// stops short of the end — a cycle window, or no run at all — passes
/// `verify: false`, since there is no final image to check.
pub fn install_run_verify<T>(
    m: &mut Machine,
    kernel: &KernelSpec,
    verify: bool,
    run: impl FnOnce(&mut Machine) -> T,
) -> T {
    match kernel {
        KernelSpec::Lock(w) => {
            let layout = locks::install(m, w);
            let out = run(m);
            if verify {
                locks::verify(m, w, &layout);
            }
            out
        }
        KernelSpec::Barrier(w) => {
            let layout = barriers::install(m, w);
            let out = run(m);
            if verify {
                barriers::verify(m, w, &layout);
            }
            out
        }
        KernelSpec::Reduction(w) => {
            let layout = reductions::install(m, w);
            let out = run(m);
            if verify {
                reductions::verify(m, w, &layout);
            }
            out
        }
    }
}

/// A stable digest of the programs this experiment would install — built
/// by laying the kernel out on a fresh machine *without running it*. The
/// sweep harness folds this into its memoization key so that editing one
/// kernel's code generation re-simulates only that kernel's cells, while
/// the other kernels keep hitting the cache. (Changes below the program
/// level — protocol, memory, network — do not move this digest; see
/// docs/HARNESS.md for the cache-invalidation rules.)
pub fn kernel_fingerprint(spec: &ExperimentSpec, cfg: &MachineConfig) -> u64 {
    install_run_verify(&mut Machine::new(cfg.clone()), &spec.kernel, false, |m| m.program_digest())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{BarrierKind, LockKind, PostRelease, ReductionKind};

    #[test]
    fn lock_latency_metric_subtracts_work() {
        let spec = ExperimentSpec {
            procs: 1,
            protocol: Protocol::WriteInvalidate,
            kernel: KernelSpec::Lock(LockWorkload {
                kind: LockKind::Ticket,
                total_acquires: 100,
                cs_cycles: 50,
                post_release: PostRelease::None,
            }),
        };
        let out = run_experiment(&spec);
        assert!(out.avg_latency > 0.0);
        // Uncontended single-processor latency is small: well under the
        // cost of one remote miss round trip.
        assert!(out.avg_latency < 100.0, "got {}", out.avg_latency);
    }

    #[test]
    fn barrier_latency_metric_is_per_episode() {
        let spec = ExperimentSpec {
            procs: 4,
            protocol: Protocol::PureUpdate,
            kernel: KernelSpec::Barrier(BarrierWorkload { kind: BarrierKind::Dissemination, episodes: 25 }),
        };
        let out = run_experiment(&spec);
        assert!((out.avg_latency - out.cycles as f64 / 25.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_runs_through_runner() {
        let spec = ExperimentSpec {
            procs: 2,
            protocol: Protocol::CompetitiveUpdate,
            kernel: KernelSpec::Reduction(ReductionWorkload {
                kind: ReductionKind::Parallel,
                episodes: 8,
                skew: 0,
            }),
        };
        let out = run_experiment(&spec);
        assert!(out.cycles > 0);
    }
}
