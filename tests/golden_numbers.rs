//! Golden-number regression tests.
//!
//! The simulator is fully deterministic, so these fixed-scale runs must
//! reproduce their recorded measurements *exactly*. Any intentional change
//! to timing, protocol behavior, or classification shows up here first:
//! `golden_measurements_are_stable` then prints the re-recorded `GOLDEN`
//! array, ready to paste once its diff is audited against EXPERIMENTS.md.

use kernels::runner::{install_run_verify, run_experiment, ExperimentSpec, KernelSpec};
use kernels::workloads::{
    BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease, ReductionKind, ReductionWorkload,
};
use sim_engine::stable_hash64;
use sim_machine::{Machine, MachineConfig};
use sim_proto::Protocol;

/// (name, cycles, total misses, total updates, network messages)
const GOLDEN: [(&str, u64, u64, u64, u64); 8] = [
    ("tk_wi_8", 292578, 4140, 0, 18751),
    ("mcs_pu_8", 48539, 32, 7612, 16695),
    ("uc_cu_8", 57706, 1038, 3063, 9644),
    ("db_pu_8", 13145, 104, 2400, 7200),
    ("cb_wi_8", 95623, 1417, 0, 5513),
    ("tb_cu_8", 29692, 30, 2095, 4909),
    ("sr_pu_8", 15569, 31, 721, 1470),
    ("pr_wi_8", 17957, 46, 0, 141),
];

fn spec_of(name: &str) -> ExperimentSpec {
    let lock = |kind| {
        KernelSpec::Lock(LockWorkload {
            kind,
            total_acquires: 512,
            cs_cycles: 50,
            post_release: PostRelease::None,
        })
    };
    let barrier = |kind| KernelSpec::Barrier(BarrierWorkload { kind, episodes: 100 });
    let reduction = |kind| KernelSpec::Reduction(ReductionWorkload { kind, episodes: 100, skew: 0 });
    let (protocol, kernel) = match name {
        "tk_wi_8" => (Protocol::WriteInvalidate, lock(LockKind::Ticket)),
        "mcs_pu_8" => (Protocol::PureUpdate, lock(LockKind::Mcs)),
        "uc_cu_8" => (Protocol::CompetitiveUpdate, lock(LockKind::McsUpdateConscious)),
        "db_pu_8" => (Protocol::PureUpdate, barrier(BarrierKind::Dissemination)),
        "cb_wi_8" => (Protocol::WriteInvalidate, barrier(BarrierKind::Centralized)),
        "tb_cu_8" => (Protocol::CompetitiveUpdate, barrier(BarrierKind::Tree)),
        "sr_pu_8" => (Protocol::PureUpdate, reduction(ReductionKind::Sequential)),
        "pr_wi_8" => (Protocol::WriteInvalidate, reduction(ReductionKind::Parallel)),
        other => panic!("unknown golden case {other}"),
    };
    ExperimentSpec { procs: 8, protocol, kernel }
}

#[test]
fn golden_measurements_are_stable() {
    let measured = GOLDEN.map(|(name, ..)| {
        let out = run_experiment(&spec_of(name));
        (name, out.cycles, out.traffic.misses.total_misses(), out.traffic.updates.total(), out.net.messages)
    });
    if measured != GOLDEN {
        let rows: String = measured
            .iter()
            .map(|(name, cycles, misses, updates, messages)| {
                format!("    (\"{name}\", {cycles}, {misses}, {updates}, {messages}),\n")
            })
            .collect();
        panic!(
            "golden measurements moved; audit the change against EXPERIMENTS.md, then paste:\n\
             const GOLDEN: [(&str, u64, u64, u64, u64); 8] = [\n{rows}];"
        );
    }
}

/// The MCS lock on 8 processors at 640 acquires (the paper workload at
/// `PPC_SCALE=0.02`): cycles and instructions per protocol, exactly. These
/// six numbers were the exact metrics of the retired CI performance gate.
#[test]
fn mcs_lock_8_proc_cycles_and_instructions_are_stable() {
    let kernel = KernelSpec::Lock(LockWorkload { total_acquires: 640, ..LockWorkload::paper(LockKind::Mcs) });
    for (protocol, cycles, instructions) in [
        (Protocol::WriteInvalidate, 128_777, 10_966),
        (Protocol::PureUpdate, 60_491, 9_689),
        (Protocol::CompetitiveUpdate, 61_326, 9_689),
    ] {
        let r = install_run_verify(
            &mut Machine::new(MachineConfig::paper(8, protocol)),
            &kernel,
            true,
            Machine::run,
        );
        assert_eq!(r.cycles, cycles, "{protocol:?}: cycles");
        assert_eq!(r.instructions, instructions, "{protocol:?}: instructions");
    }
}

/// The checkpoint bytes of a contended 4-processor MCS-lock run with a
/// checkpoint every 256 events, per protocol: the first blob's length and
/// `stable_hash64`, and the `stable_hash64` of all the run's blobs in
/// order (later blobs hold deferred directory requests and write-buffer
/// entries the first may lack).
const CHECKPOINT_PINS: [(Protocol, usize, u64, u64); 3] = [
    (Protocol::WriteInvalidate, 4767, 0x2e0a8b43dd52b965, 0x18cbf66e89ea4264),
    (Protocol::PureUpdate, 5630, 0x67c88d775959a42b, 0x2076391ccc6cc87e),
    (Protocol::CompetitiveUpdate, 5580, 0x167bddaa63ddd74f, 0x84358c7706e32768),
];

#[test]
fn checkpoint_bytes_are_pinned() {
    let kernel = KernelSpec::Lock(LockWorkload {
        kind: LockKind::Mcs,
        total_acquires: 96,
        cs_cycles: 5,
        post_release: PostRelease::None,
    });
    let measured = CHECKPOINT_PINS.map(|(protocol, ..)| {
        let mut cfg = MachineConfig::paper(4, protocol).with_checkpoints(256);
        cfg.hostobs.fingerprint_epoch = 256;
        let mut m = Machine::new(cfg);
        install_run_verify(&mut m, &kernel, true, Machine::run);
        let checkpoints = m.take_checkpoints();
        let first = &checkpoints[0].blob;
        let all: Vec<u8> = checkpoints.iter().flat_map(|ck| ck.blob.iter().copied()).collect();
        (protocol, first.len(), stable_hash64(first), stable_hash64(&all))
    });
    if measured != CHECKPOINT_PINS {
        let rows: String = measured
            .iter()
            .map(|(p, len, first, all)| {
                format!("    (Protocol::{p:?}, {len}, {first:#018x}, {all:#018x}),\n")
            })
            .collect();
        panic!(
            "checkpoint bytes moved. If the simulated run moved, the goldens moved with it; otherwise \
             the snapshot format changed, so bump SNAPSHOT_VERSION (sim-machine) and re-pin:\n\
             const CHECKPOINT_PINS: [(Protocol, usize, u64, u64); 3] = [\n{rows}];"
        );
    }
}

/// Full-scale golden rows: one row per published figure, transcribed from
/// the committed `figures_full.txt`. These pin the *paper-scale* numbers
/// (32000 acquires, 5000 episodes), unlike the small-scale tuples above,
/// so a regression that only manifests under real contention levels still
/// trips a test. Full scale is too slow for debug builds; the release CI
/// pass (`cargo test --release`) runs them.
#[cfg(not(debug_assertions))]
mod full_scale {
    use super::*;

    fn paper_lock(kind: LockKind) -> KernelSpec {
        KernelSpec::Lock(LockWorkload { total_acquires: 32_000, ..LockWorkload::paper(kind) })
    }

    fn paper_barrier(kind: BarrierKind) -> KernelSpec {
        KernelSpec::Barrier(BarrierWorkload { episodes: 5_000, ..BarrierWorkload::paper(kind) })
    }

    fn paper_reduction(kind: ReductionKind) -> KernelSpec {
        KernelSpec::Reduction(ReductionWorkload { episodes: 5_000, ..ReductionWorkload::paper(kind) })
    }

    /// Asserts one latency-figure row: `avg_latency` at each machine size,
    /// compared at the figures' printed precision (one decimal place).
    fn assert_latency_row(figure: &str, protocol: Protocol, kernel: KernelSpec, want: [&str; 6]) {
        for (procs, want) in [1usize, 2, 4, 8, 16, 32].into_iter().zip(want) {
            let out = run_experiment(&ExperimentSpec { procs, protocol, kernel });
            assert_eq!(format!("{:.1}", out.avg_latency), want, "{figure}: P={procs}");
        }
    }

    /// Asserts one miss-figure row at 32 processors.
    fn assert_miss_row(figure: &str, protocol: Protocol, kernel: KernelSpec, want: [u64; 7]) {
        let out = run_experiment(&ExperimentSpec { procs: 32, protocol, kernel });
        let m = out.traffic.misses;
        let got = [
            m.total_misses(),
            m.cold,
            m.true_sharing,
            m.false_sharing,
            m.eviction,
            m.drop,
            m.exclusive_requests,
        ];
        assert_eq!(got, want, "{figure}");
    }

    /// Asserts one update-figure row at 32 processors.
    fn assert_update_row(figure: &str, protocol: Protocol, kernel: KernelSpec, want: [u64; 7]) {
        let out = run_experiment(&ExperimentSpec { procs: 32, protocol, kernel });
        let u = out.traffic.updates;
        let got = [
            u.total(),
            u.true_sharing,
            u.false_sharing,
            u.proliferation,
            u.replacement,
            u.termination,
            u.drop,
        ];
        assert_eq!(got, want, "{figure}");
    }

    #[test]
    fn figure_08_ticket_invalidate_row() {
        assert_latency_row(
            "fig08 tk i",
            Protocol::WriteInvalidate,
            paper_lock(LockKind::Ticket),
            ["9.0", "123.0", "239.6", "524.5", "1085.7", "2205.2"],
        );
    }

    #[test]
    fn figure_09_ticket_invalidate_row() {
        assert_miss_row(
            "fig09 tk i",
            Protocol::WriteInvalidate,
            paper_lock(LockKind::Ticket),
            [1026527, 64, 126428, 900035, 0, 0, 60967],
        );
    }

    #[test]
    fn figure_10_ticket_update_row() {
        assert_update_row(
            "fig10 tk u",
            Protocol::PureUpdate,
            paper_lock(LockKind::Ticket),
            [1983484, 1019405, 924452, 39592, 0, 35, 0],
        );
    }

    #[test]
    fn figure_11_centralized_invalidate_row() {
        assert_latency_row(
            "fig11 cb i",
            Protocol::WriteInvalidate,
            paper_barrier(BarrierKind::Centralized),
            ["9.0", "212.5", "412.1", "951.6", "2151.7", "4745.3"],
        );
    }

    #[test]
    fn figure_12_centralized_invalidate_row() {
        assert_miss_row(
            "fig12 cb i",
            Protocol::WriteInvalidate,
            paper_barrier(BarrierKind::Centralized),
            [310065, 96, 309969, 0, 0, 0, 4999],
        );
    }

    #[test]
    fn figure_13_centralized_update_row() {
        assert_update_row(
            "fig13 cb u",
            Protocol::PureUpdate,
            paper_barrier(BarrierKind::Centralized),
            [5269504, 314967, 0, 4954505, 0, 32, 0],
        );
    }

    #[test]
    fn figure_14_sequential_invalidate_row() {
        assert_latency_row(
            "fig14 sr i",
            Protocol::WriteInvalidate,
            paper_reduction(ReductionKind::Sequential),
            ["36.0", "153.2", "335.3", "724.0", "1528.2", "3330.3"],
        );
    }

    #[test]
    fn figure_15_sequential_invalidate_row() {
        assert_miss_row(
            "fig15 sr i",
            Protocol::WriteInvalidate,
            paper_reduction(ReductionKind::Sequential),
            [155406, 127, 155279, 0, 0, 0, 154980],
        );
    }

    #[test]
    fn figure_16_sequential_update_row() {
        assert_update_row(
            "fig16 sr u",
            Protocol::PureUpdate,
            paper_reduction(ReductionKind::Sequential),
            [155279, 155279, 0, 0, 0, 0, 0],
        );
    }

    /// §4.1 text variant (random post-release delay), ticket/invalidate at
    /// 32 processors — the `tk i` row at P=32 of `all_figures
    /// text_lock_random_delay`.
    #[test]
    fn text_variant_lock_random_delay_row() {
        let kernel = KernelSpec::Lock(LockWorkload {
            total_acquires: 32_000,
            post_release: PostRelease::Random { bound: 100 },
            ..LockWorkload::paper(LockKind::Ticket)
        });
        let out = run_experiment(&ExperimentSpec { procs: 32, protocol: Protocol::WriteInvalidate, kernel });
        assert_eq!(format!("{:.1}", out.avg_latency), TEXT_RANDOM_DELAY_TK_I_32, "text random-delay tk i");
    }

    /// §4.1 text variant (outside/inside work ratio = P), ticket/invalidate
    /// at 32 processors — the `tk i` row at P=32 of `all_figures
    /// text_lock_proportional`.
    #[test]
    fn text_variant_lock_proportional_row() {
        let kernel = KernelSpec::Lock(LockWorkload {
            total_acquires: 32_000,
            post_release: PostRelease::Proportional { ratio: 32 },
            ..LockWorkload::paper(LockKind::Ticket)
        });
        let out = run_experiment(&ExperimentSpec { procs: 32, protocol: Protocol::WriteInvalidate, kernel });
        assert_eq!(format!("{:.1}", out.avg_latency), TEXT_PROPORTIONAL_TK_I_32, "text proportional tk i");
    }

    /// §4.3 text variant (load imbalance), sequential reduction under
    /// invalidate at 32 processors — the `sr i` row at P=32 of
    /// `all_figures text_reduction_imbalance`.
    #[test]
    fn text_variant_reduction_imbalance_row() {
        let kernel = KernelSpec::Reduction(ReductionWorkload {
            episodes: 5_000,
            skew: TEXT_IMBALANCE_SKEW,
            ..ReductionWorkload::paper(ReductionKind::Sequential)
        });
        let out = run_experiment(&ExperimentSpec { procs: 32, protocol: Protocol::WriteInvalidate, kernel });
        assert_eq!(format!("{:.1}", out.avg_latency), TEXT_IMBALANCE_SR_I_32, "text imbalance sr i");
    }

    // At full contention the post-release delay hides under the handoff
    // chain, so the random-delay value coincides with Figure 8's — which
    // is itself the paper's point about these variants.
    const TEXT_RANDOM_DELAY_TK_I_32: &str = "2205.2";
    const TEXT_PROPORTIONAL_TK_I_32: &str = "2207.5";
    const TEXT_IMBALANCE_SKEW: u32 = 2000;
    const TEXT_IMBALANCE_SR_I_32: &str = "5148.4";
}
