//! One simulation cell timed call by call, its outcome in canonical form,
//! the stored references, and the failure accounting every run shares.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use kernels::runner::{ExperimentOutcome, ExperimentSpec, KernelSpec};
use kernels::workloads::{BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease};
use kernels::{barriers, locks, reductions};
use ppc_bench::sweep::RunSpec;
use sim_machine::{Machine, MachineConfig, RunResult};
use sim_proto::Protocol;
use sim_stats::{LatencyHist, ObsConfig};

use crate::alloc;
use crate::spans::Spans;

/// References for the single-cell workloads: `<cell> <seed|*> <instructions>
/// <canonical outcome>`; `*` marks a cell whose program draws no random
/// input, so one reference holds for every seed.
const REFERENCES: &str = include_str!("../references.txt");

/// A single-cell workload: which cell, and whether it runs observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellWorkload {
    /// Name the cell's references are filed under.
    pub cell: &'static str,
    /// `MachineConfig::obs` on (stall accounting, lineage, critical path,
    /// network journeys).
    pub observed: bool,
}

impl CellWorkload {
    /// The cell under `seed`, which feeds `MachineConfig::seed`.
    pub fn spec(self, seed: u64) -> RunSpec {
        let (protocol, kernel) = match self.cell {
            // Figure 1's ticket lock under write-invalidate, with the §4.1
            // random post-release delay, at a tenth of the paper's count.
            "wi-ticket" => (
                Protocol::WriteInvalidate,
                KernelSpec::Lock(LockWorkload {
                    kind: LockKind::Ticket,
                    total_acquires: 3_200,
                    cs_cycles: 50,
                    post_release: PostRelease::Random { bound: 100 },
                }),
            ),
            // Figure 3's centralized barrier under pure-update (Figure 13).
            "pu-central-barrier" => (
                Protocol::PureUpdate,
                KernelSpec::Barrier(BarrierWorkload { kind: BarrierKind::Centralized, episodes: 500 }),
            ),
            other => unreachable!("unknown cell {other}"),
        };
        let mut cfg = MachineConfig::paper(32, protocol);
        cfg.seed = seed;
        if self.observed {
            cfg.obs = ObsConfig::enabled();
        }
        RunSpec::with_config(ExperimentSpec { procs: 32, protocol, kernel }, cfg)
    }

    /// Whether the cell's program draws random input from the seed.
    fn seeded(self) -> bool {
        self.cell == "wi-ticket"
    }

    /// The stored reference outcome for `seed`, if there is one.
    pub fn reference(self, seed: u64) -> Option<Outcome> {
        let key = if self.seeded() { seed.to_string() } else { "*".to_string() };
        REFERENCES.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()).find_map(|line| {
            let mut parts = line.splitn(4, ' ');
            let (cell, seed, instructions, exp) =
                (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
            (cell == self.cell && seed == key).then(|| Outcome {
                instructions: instructions.parse().expect("references.txt: instruction count"),
                exp: exp.to_string(),
            })
        })
    }

    /// The reference line for `outcome` under `seed` (`--print-reference`).
    pub fn reference_line(self, seed: u64, outcome: &Outcome) -> String {
        let key = if self.seeded() { seed.to_string() } else { "*".to_string() };
        format!("{} {key} {} {}", self.cell, outcome.instructions, outcome.exp)
    }
}

/// A simulated outcome: everything the model fixes except events
/// dispatched, which a simulator change may legitimately reduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Instructions retired, summed over processors.
    pub instructions: u64,
    /// [`canonical`] of the experiment outcome.
    pub exp: String,
}

/// The experiment outcome as one line: cycles, latency, the classified
/// traffic report, network counters and both latency histograms. Floats
/// are written as bit patterns, so equal lines mean identical results.
pub fn canonical(o: &ExperimentOutcome) -> String {
    let m = &o.traffic.misses;
    let u = &o.traffic.updates;
    let t = &o.traffic;
    let n = &o.net;
    let structs: Vec<String> = t
        .by_structure
        .iter()
        .map(|s| {
            let (m, u) = (&s.misses, &s.updates);
            format!(
                "{}:{},{},{},{},{},{}:{},{},{},{},{},{}",
                s.name,
                m.cold,
                m.true_sharing,
                m.false_sharing,
                m.eviction,
                m.drop,
                m.exclusive_requests,
                u.true_sharing,
                u.false_sharing,
                u.proliferation,
                u.replacement,
                u.termination,
                u.drop
            )
        })
        .collect();
    format!(
        "cycles={} latency={:016x} miss={},{},{},{},{},{} upd={},{},{},{},{},{} shared={},{},{} \
         net={},{},{},{} read={} atomic={} structs={}",
        o.cycles,
        o.avg_latency.to_bits(),
        m.cold,
        m.true_sharing,
        m.false_sharing,
        m.eviction,
        m.drop,
        m.exclusive_requests,
        u.true_sharing,
        u.false_sharing,
        u.proliferation,
        u.replacement,
        u.termination,
        u.drop,
        t.shared_reads,
        t.shared_writes,
        t.shared_atomics,
        n.messages,
        n.local_messages,
        n.flits,
        n.total_hops,
        hist(&o.read_latency),
        hist(&o.atomic_latency),
        structs.join(";")
    )
}

fn hist(h: &LatencyHist) -> String {
    let (_, count, sum, max) = h.to_raw_parts();
    let buckets: Vec<String> = h.nonempty_buckets().map(|(lo, n)| format!("{lo}:{n}")).collect();
    format!("{count}/{sum}/{max}/{}", buckets.join(","))
}

/// One repetition of a cell: build, install, run, verify, each timed.
pub struct Rep {
    pub new_s: f64,
    pub install_s: f64,
    pub run_s: f64,
    pub verify_s: f64,
    pub outcome: Outcome,
    pub events: u64,
    pub result: RunResult,
    /// Allocations made by `Machine::new` plus the kernel's `install`
    /// (zero unless the counting allocator is active).
    pub setup_allocs: u64,
    /// Allocations and bytes requested during `Machine::run`.
    pub run_allocs: (u64, u64),
}

impl Rep {
    /// Host seconds spent building the machine and installing programs.
    pub fn setup_s(&self) -> f64 {
        self.new_s + self.install_s
    }

    /// Host seconds for the whole repetition.
    pub fn wall_s(&self) -> f64 {
        self.new_s + self.install_s + self.run_s + self.verify_s
    }
}

enum Layout {
    Lock(locks::LockLayout),
    Barrier(barriers::BarrierLayout),
    Reduction(reductions::ReductionLayout),
}

/// Runs `rs` once through the crates' public entry points. A failed
/// kernel `verify` panics; callers run this under [`guarded`].
pub fn run_rep(rs: &RunSpec, spans: &mut Spans) -> Rep {
    let t0 = Instant::now();
    let a0 = alloc::totals();

    spans.begin("machine.new");
    let mut m = Machine::new(rs.cfg.clone());
    spans.end();
    let t1 = Instant::now();

    spans.begin("kernels.install");
    let layout = match &rs.spec.kernel {
        KernelSpec::Lock(w) => Layout::Lock(locks::install(&mut m, w)),
        KernelSpec::Barrier(w) => Layout::Barrier(barriers::install(&mut m, w)),
        KernelSpec::Reduction(w) => Layout::Reduction(reductions::install(&mut m, w)),
    };
    spans.end();
    let t2 = Instant::now();
    let a2 = alloc::totals();

    spans.begin("machine.run");
    let result = m.run();
    spans.end();
    let t3 = Instant::now();
    let a3 = alloc::totals();

    spans.begin("kernels.verify");
    match (&rs.spec.kernel, &layout) {
        (KernelSpec::Lock(w), Layout::Lock(l)) => locks::verify(&mut m, w, l),
        (KernelSpec::Barrier(w), Layout::Barrier(l)) => barriers::verify(&mut m, w, l),
        (KernelSpec::Reduction(w), Layout::Reduction(l)) => reductions::verify(&mut m, w, l),
        _ => unreachable!("layout follows the kernel"),
    }
    spans.end();
    let t4 = Instant::now();

    // The figures' y-axis values, as `kernels::runner` computes them.
    let avg_latency = match &rs.spec.kernel {
        KernelSpec::Lock(w) => result.avg_latency(w.total_acquires as u64, w.cs_cycles as u64),
        KernelSpec::Barrier(w) => result.avg_latency(w.episodes as u64, 0),
        KernelSpec::Reduction(w) => result.avg_latency(w.episodes as u64, 0),
    };
    let exp = ExperimentOutcome {
        cycles: result.cycles,
        avg_latency,
        traffic: result.traffic.clone(),
        net: result.net.clone(),
        read_latency: result.read_latency.clone(),
        atomic_latency: result.atomic_latency.clone(),
        fingerprint: None,
    };
    Rep {
        new_s: (t1 - t0).as_secs_f64(),
        install_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        verify_s: (t4 - t3).as_secs_f64(),
        outcome: Outcome { instructions: result.instructions, exp: canonical(&exp) },
        events: m.events_dispatched(),
        result,
        setup_allocs: a2.0 - a0.0,
        run_allocs: (a3.0 - a2.0, a3.1 - a2.1),
    }
}

/// Runs `f`, turning a panic (a failed `verify`, a simulator deadlock)
/// into an error message instead of ending the benchmark.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failure is reported on stderr.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }
}

/// `Ok` when `got` equals `want`, else an error naming the first field
/// that differs.
pub fn compare(got: &Outcome, want: &Outcome) -> Result<(), String> {
    if got.instructions != want.instructions {
        return Err(format!("instructions {} != reference {}", got.instructions, want.instructions));
    }
    compare_exp(&got.exp, &want.exp)
}

/// [`compare`] on the experiment outcome alone.
pub fn compare_exp(got: &str, want: &str) -> Result<(), String> {
    match got.split(' ').zip(want.split(' ')).find(|(g, w)| g != w) {
        None if got == want => Ok(()),
        None => Err("outcome lengths differ from the reference".to_string()),
        Some((g, w)) => Err(format!("{g} != reference {w}")),
    }
}

/// A 4-processor, 64-acquire version of the `wi-ticket` cell.
#[cfg(test)]
pub fn tiny_spec() -> RunSpec {
    let mut rs = CellWorkload { cell: "wi-ticket", observed: false }.spec(7);
    rs.cfg = MachineConfig { num_procs: 4, ..rs.cfg };
    rs.spec.procs = 4;
    if let KernelSpec::Lock(w) = &mut rs.spec.kernel {
        w.total_acquires = 64;
    }
    rs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_names_the_first_differing_field() {
        let rep = run_rep(&tiny_spec(), &mut Spans::off());
        assert_eq!(compare(&rep.outcome, &rep.outcome), Ok(()));
        let mut perturbed = rep.outcome.clone();
        perturbed.exp = perturbed.exp.replacen("cycles=", "cycles=1", 1);
        let err = compare(&rep.outcome, &perturbed).unwrap_err();
        assert!(err.starts_with("cycles="), "{err}");
        perturbed = Outcome { instructions: rep.outcome.instructions + 1, ..rep.outcome.clone() };
        assert!(compare(&rep.outcome, &perturbed).unwrap_err().starts_with("instructions"));
    }

    #[test]
    fn a_panicking_rep_is_caught_and_its_spans_closed() {
        let mut spans = Spans::on();
        let r = guarded(|| {
            spans.begin("rep");
            spans.begin("kernels.verify");
            panic!("verify failed")
        });
        assert_eq!(r.err().as_deref(), Some("verify failed"));
        spans.unwind_to(0);
        assert_eq!(spans.depth(), 0);
        assert_eq!(spans.self_times().len(), 2);
    }

    #[test]
    fn every_reference_line_names_a_cell_and_parses() {
        for cell in ["wi-ticket", "pu-central-barrier"] {
            let w = CellWorkload { cell, observed: false };
            let seed = if w.seeded() { 0 } else { 12345 };
            let r = w.reference(seed).unwrap_or_else(|| panic!("{cell} has a reference for seed {seed}"));
            assert_eq!(w.reference_line(seed, &r).split(' ').count(), r.exp.split(' ').count() + 3);
        }
    }
}
