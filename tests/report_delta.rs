//! Differential-observability closure properties.
//!
//! The single-run instruments reconcile to exact closure; `ReportDelta`
//! must carry that discipline over to pairs of runs:
//!
//! * for random seeded run pairs across WI/PU/CU, every section's deltas
//!   sum to that section's total-cycle delta (the crit chain's class
//!   deltas sum *exactly* to the wall-clock delta);
//! * a run diffed against an identical re-run is all-zeros with
//!   `first_divergence == None` (the fingerprint chains are identical);
//! * sides of different machine sizes pair over the union of their homes
//!   and links, the smaller side reading 0 where it has none.
//!
//! Workload sizes are built directly (small, fixed) so the tests do not
//! depend on `PPC_SCALE`.

use kernels::runner::KernelSpec;
use kernels::workloads::{
    BarrierKind, BarrierWorkload, LockKind, LockWorkload, ReductionKind, ReductionWorkload,
};
use ppc_bench::diff::{checked_delta, run_diff};
use ppc_bench::PROTOCOLS;
use sim_engine::SplitMix64;
use sim_stats::{FingerprintCompare, Json};

/// Draws a small kernel workload (kind and iteration count randomized).
fn random_kernel(rng: &mut SplitMix64) -> KernelSpec {
    match rng.next_below(3) {
        0 => {
            let kind =
                [LockKind::Ticket, LockKind::Mcs, LockKind::McsUpdateConscious][rng.next_below(3) as usize];
            KernelSpec::Lock(LockWorkload {
                total_acquires: rng.next_range(80, 240) as u32,
                ..LockWorkload::paper(kind)
            })
        }
        1 => {
            let kind = [BarrierKind::Centralized, BarrierKind::Dissemination, BarrierKind::Tree]
                [rng.next_below(3) as usize];
            KernelSpec::Barrier(BarrierWorkload {
                episodes: rng.next_range(20, 60) as u32,
                ..BarrierWorkload::paper(kind)
            })
        }
        _ => {
            let kind = [ReductionKind::Sequential, ReductionKind::Parallel][rng.next_below(2) as usize];
            KernelSpec::Reduction(ReductionWorkload {
                episodes: rng.next_range(20, 60) as u32,
                ..ReductionWorkload::paper(kind)
            })
        }
    }
}

#[test]
fn random_seeded_pairs_close_to_the_total_cycle_delta() {
    let mut rng = SplitMix64::new(0xd1ff_c105);
    for case in 0..6 {
        let kernel = random_kernel(&mut rng);
        let procs = [2usize, 4, 8][rng.next_below(3) as usize];
        let proto_a = PROTOCOLS[rng.next_below(3) as usize];
        let proto_b = PROTOCOLS[rng.next_below(3) as usize];
        let a = run_diff(procs, proto_a, &kernel);
        let b = run_diff(procs, proto_b, &kernel);
        // checked_delta panics if any closure equation fails.
        let delta = checked_delta(&a, "A", &b, "B");
        // The headline equation, asserted explicitly as well: the crit
        // chain's class deltas sum to the wall-clock (total-cycle) delta.
        let chain_sum: i64 = delta.chain_classes().values().map(|c| c.delta()).sum();
        assert_eq!(
            chain_sum,
            delta.wall().delta(),
            "case {case} ({kernel:?}, {procs} procs): chain deltas != wall delta"
        );
        // And the stall-class deltas sum to the node-cycle delta.
        let class_sum: i64 = delta.classes().values().map(|c| c.delta()).sum();
        let (procs, wall) = (delta.procs(), delta.wall());
        let node_delta = (procs.b * wall.b) as i64 - (procs.a * wall.a) as i64;
        assert_eq!(class_sum, node_delta, "case {case}: class deltas != node-cycle delta");
        // Sides with hostobs on always compare fingerprints.
        assert_ne!(delta.fingerprint, FingerprintCompare::Absent, "case {case}");
    }
}

#[test]
fn self_diff_is_all_zeros_with_no_divergence() {
    let mut rng = SplitMix64::new(0xd1ff_5e1f);
    for protocol in PROTOCOLS {
        let kernel = random_kernel(&mut rng);
        let procs = [2usize, 4][rng.next_below(2) as usize];
        // Two *separate* runs of the same spec: determinism makes the
        // diff empty and the fingerprint chains identical.
        let a = run_diff(procs, protocol, &kernel);
        let b = run_diff(procs, protocol, &kernel);
        let delta = checked_delta(&a, "run1", &b, "run2");
        assert!(delta.is_zero(), "{kernel:?} under {protocol:?}: re-run diff must be empty");
        assert_eq!(
            delta.fingerprint,
            FingerprintCompare::Identical,
            "{kernel:?} under {protocol:?}: first_divergence must be None"
        );
        assert!(delta.attribution(16).is_empty(), "no cycles moved, nothing to attribute");
    }
}

#[test]
fn sides_of_different_sizes_pair_homes_and_links_by_zero_fill() {
    let kernel = KernelSpec::Barrier(BarrierWorkload {
        episodes: 20,
        ..BarrierWorkload::paper(BarrierKind::Centralized)
    });
    let a = run_diff(2, PROTOCOLS[0], &kernel);
    let b = run_diff(4, PROTOCOLS[0], &kernel);
    let delta = checked_delta(&a, "2p", &b, "4p");
    assert_eq!((delta.procs().a, delta.procs().b), (2, 4));

    let doc = delta.to_json();
    let net = doc.get("netobs").unwrap();
    let side = |counter: &Json, side| counter.get(side).and_then(Json::as_u64).unwrap();
    let homes = net.get("homes").and_then(Json::as_arr).unwrap();
    assert_eq!(homes.len(), 4, "the union of both sides' homes");
    for home in &homes[2..] {
        let Json::Obj(fields) = home else { panic!("a home row is an object") };
        for (field, counter) in fields.iter().filter(|(field, _)| field != "node") {
            assert_eq!(side(counter, "a"), 0, "home {:?} {field} on the 2-node side", home.get("node"));
        }
    }

    // Links touching node 2 or 3 exist on the 4-node mesh only.
    let links = net.get("links").and_then(Json::as_arr).unwrap();
    let end = |link: &Json, key| link.get(key).and_then(Json::as_u64).unwrap();
    let only_at_4: Vec<&Json> = links.iter().filter(|l| end(l, "src") >= 2 || end(l, "dst") >= 2).collect();
    assert!(only_at_4.iter().any(|l| side(l.get("flits").unwrap(), "b") > 0), "the 4-node side uses them");
    for link in only_at_4 {
        assert_eq!(side(link.get("flits").unwrap(), "a"), 0, "link {link:?} on the 2-node side");
    }
}
