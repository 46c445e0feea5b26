//! End-to-end checks of the cache-line provenance layer: the online
//! sharing-pattern classifier reproduces the paper's qualitative story
//! (MCS qnodes are migratory, the centralized barrier counter is
//! wide-shared and mostly useless under pure update), provenance chains
//! explain coherence misses, and the per-block ledger balances exactly
//! against the Section 3.2 traffic classifier.

use kernels::workloads::{BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease};
use kernels::{barriers, locks};
use sim_machine::{Machine, MachineConfig, RunResult};
use sim_proto::Protocol;
use sim_stats::{LineageReport, SharingPattern};

const PROTOCOLS: [Protocol; 3] =
    [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate];

fn run_mcs(procs: usize, protocol: Protocol) -> RunResult {
    // The paper workload at PPC_SCALE=0.02 — the scale the `ppc lines`
    // quick start documents. Long enough that the cold-start transient
    // (first fills create extra short-lived sharers) stops dominating the
    // per-write fanout, and with the paper's 50-cycle critical section so
    // the contention pattern matches the figures.
    let w = LockWorkload {
        kind: LockKind::Mcs,
        total_acquires: 640,
        cs_cycles: 50,
        post_release: PostRelease::None,
    };
    let mut m = Machine::new(MachineConfig::paper_observed(procs, protocol));
    let layout = locks::install(&mut m, &w);
    let r = m.run();
    locks::verify(&mut m, &w, &layout);
    r
}

fn run_central_barrier(procs: usize, protocol: Protocol) -> RunResult {
    let w = BarrierWorkload { kind: BarrierKind::Centralized, episodes: 32 };
    let mut m = Machine::new(MachineConfig::paper_observed(procs, protocol));
    let layout = barriers::install(&mut m, &w);
    let r = m.run();
    barriers::verify(&mut m, &w, &layout);
    r
}

fn lineage(r: &RunResult) -> &LineageReport {
    &r.obs.as_ref().expect("observed config").lineage
}

#[test]
fn plain_runs_carry_no_lineage() {
    let w = LockWorkload {
        kind: LockKind::Mcs,
        total_acquires: 16,
        cs_cycles: 20,
        post_release: PostRelease::None,
    };
    let mut m = Machine::new(MachineConfig::paper(4, Protocol::WriteInvalidate));
    locks::install(&mut m, &w);
    let r = m.run();
    assert!(r.obs.is_none(), "plain config records nothing");
}

/// Section 4.1: MCS qnodes hop from releaser to next acquirer — a single
/// reader/writer at a time. Under WI every qnode block must classify
/// migratory (each write disturbs exactly the previous holder's copy);
/// under the update protocols copies of a few qnodes proliferate (the
/// very effect update-conscious MCS exists to curb), but migratory stays
/// the dominant pattern of the structure.
#[test]
fn mcs_qnodes_classify_migratory() {
    for protocol in PROTOCOLS {
        let r = run_mcs(8, protocol);
        let lin = lineage(&r);
        let qnodes: Vec<_> = lin
            .blocks
            .iter()
            .filter(|b| b.label.as_deref().is_some_and(|l| l.starts_with("qnode[")))
            .collect();
        assert!(!qnodes.is_empty(), "{protocol:?}: qnode blocks were touched and labeled");
        if protocol == Protocol::WriteInvalidate {
            for b in &qnodes {
                assert_eq!(
                    b.pattern,
                    SharingPattern::Migratory,
                    "{protocol:?}: {} (fanout {:.2})",
                    b.label.as_deref().unwrap(),
                    b.fanout_per_write
                );
            }
        }
        let agg = lin.structure("qnode[*]").expect("per-structure aggregation");
        assert_eq!(agg.pattern, SharingPattern::Migratory, "{protocol:?}: dominant pattern");
        assert!(agg.blocks as usize >= qnodes.len());
    }
}

/// Section 4.2: every arrival writes the centralized counter while the
/// whole spin crowd caches it, so under pure update it classifies
/// wide-shared and the bulk of its update traffic is useless.
#[test]
fn central_barrier_counter_is_wide_shared_and_mostly_useless_under_pu() {
    let r = run_central_barrier(8, Protocol::PureUpdate);
    let lin = lineage(&r);
    let count = lin.block_labeled("count").expect("counter block is traced");
    assert_eq!(count.pattern, SharingPattern::WideShared, "fanout {:.2}", count.fanout_per_write);
    assert!(
        count.fanout_per_write >= 2.0,
        "each counter write reaches several sharers (got {:.2})",
        count.fanout_per_write
    );
    let useless = count.useless_traffic();
    let traffic = count.traffic();
    assert!(2 * useless > traffic, "useless share is the majority: {useless}/{traffic}");
    // The structure row tells the same story under its own name.
    let row = lin.structure("count").expect("structure aggregation");
    assert_eq!(row.pattern, SharingPattern::WideShared);
    assert!(row.updates.useless() > row.updates.useful());
}

/// Under write-invalidate the spin crowd's reloads of `count` are
/// coherence misses, and each one must carry a provenance chain naming
/// the writer whose invalidation evicted the copy.
#[test]
fn coherence_misses_carry_invalidation_provenance_under_wi() {
    let r = run_central_barrier(8, Protocol::WriteInvalidate);
    let lin = lineage(&r);
    let count = lin.block_labeled("count").expect("counter block is traced");
    let chain = count.provenance.as_ref().expect("spin reloads leave a chain");
    assert_ne!(chain.node, chain.cause.writer, "a node never invalidates itself");
    assert!(count.invalidations > 0, "WI invalidates the spin crowd");
    assert_eq!(count.update_deliveries, 0, "WI never delivers updates");
}

/// Conservation: every miss and update the Section 3.2 classifier counts
/// is attributed to exactly one block, so the per-block ledger sums back
/// to the classifier's totals — per class, not just in aggregate.
#[test]
fn lineage_ledger_balances_against_classifier_totals() {
    for protocol in PROTOCOLS {
        for r in [run_mcs(8, protocol), run_central_barrier(8, protocol)] {
            let lin = lineage(&r);
            assert_eq!(lin.miss_totals(), r.traffic.misses, "{protocol:?}: misses conserve");
            assert_eq!(lin.update_totals(), r.traffic.updates, "{protocol:?}: updates conserve");
        }
    }
}

/// Lineage is a passive observer: traced runs must report the same cycle
/// count and classified traffic as unobserved ones (the byte-identical
/// figure-output guarantee is `tests/observability.rs`'s job; this pins
/// the simulation itself).
#[test]
fn lineage_capture_does_not_perturb_the_run() {
    for protocol in PROTOCOLS {
        let w = BarrierWorkload { kind: BarrierKind::Centralized, episodes: 32 };
        let mut plain = Machine::new(MachineConfig::paper(8, protocol));
        barriers::install(&mut plain, &w);
        let rp = plain.run();
        let ro = run_central_barrier(8, protocol);
        assert_eq!(rp.cycles, ro.cycles, "{protocol:?}");
        assert_eq!(rp.traffic.misses, ro.traffic.misses, "{protocol:?}");
        assert_eq!(rp.traffic.updates, ro.traffic.updates, "{protocol:?}");
    }
}

/// The report serializes and the serialized form keeps the conservation
/// property visible (block rows sum to the classifier totals).
#[test]
fn lineage_report_json_parses() {
    let r = run_mcs(4, Protocol::CompetitiveUpdate);
    let lin = lineage(&r);
    let rendered = lin.to_json(&|p| format!("phase{p}")).render_pretty();
    let parsed = sim_stats::Json::parse(&rendered).expect("lineage report parses");
    let blocks = parsed.get("blocks").unwrap().as_arr().unwrap();
    assert_eq!(blocks.len(), lin.blocks.len());
    assert!(blocks.iter().any(|b| b.get("pattern").is_some()));
}
