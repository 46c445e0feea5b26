//! End-to-end checks of the network-telemetry layer: journey stage sums
//! close exactly against delivery times for random raw-network traffic,
//! the full journey/link/home accounting reconciles against the
//! observability layer's network bookkeeping under every protocol, and
//! the hot-home analytics mechanically reproduce the paper's Section 4.2
//! claim — under pure update the centralized barrier counter's home node
//! is the machine's traffic hot spot with a majority-useless update mix,
//! and competitive update cuts the useless updates homed there.

use kernels::workloads::{BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease};
use kernels::{barriers, locks};
use sim_engine::SplitMix64;
use sim_machine::{Machine, MachineConfig, RunResult};
use sim_mem::Geometry;
use sim_net::{MeshShape, Network};
use sim_proto::Protocol;
use sim_stats::{check_net_reconciliation, Classifier, NetObsReport, NodeGauges, ObsCollector, UpdateStats};

const PROTOCOLS: [Protocol; 3] =
    [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate];

/// Journey invariants on the raw network under random traffic: every
/// send's stage decomposition reproduces `delivered − inject` exactly, the
/// mesh journeys' flit totals match `NetCounters::flits`, and, filed into a
/// collector, the per-physical-link sums match their flit·hop totals.
#[test]
fn random_traffic_journeys_decompose_and_reconcile() {
    for nodes in [2, 7, 12, 16] {
        let mut net = Network::new(nodes);
        let mut collector = ObsCollector::new(net.shape(), &["Msg"]);
        let shape = MeshShape::for_nodes(nodes);
        let mut rng = SplitMix64::new(0xC0FF_EE00 + nodes as u64);
        let (mut flits, mut flit_hops, mut remote) = (0u64, 0u64, 0u64);
        let mut now = 0;
        for _ in 0..500 {
            now += rng.next_u64() % 7;
            let src = (rng.next_u64() % nodes as u64) as usize;
            let dst = (rng.next_u64() % nodes as u64) as usize;
            let payload = (rng.next_u64() % 65) as u32;
            let j = net.send(now, src, dst, payload);
            assert!(
                j.closes(),
                "journey {src}->{dst} at {now}: {} + {} + {} + {} != {}",
                j.tx_wait,
                j.tx_service(),
                j.wire,
                j.rx_wait,
                j.total()
            );
            assert_eq!(j.inject, now);
            assert_eq!(j.hops, shape.hops(src, dst) as u64);
            collector.message_sent(0, &j, || (dst, None));
            if src == dst {
                assert_eq!((j.flits, j.total()), (0, 1), "a local send carries no flit");
                continue;
            }
            remote += 1;
            flits += j.flits;
            flit_hops += j.flits * j.hops;
        }
        let c = net.counters();
        assert_eq!(c.messages, remote, "{nodes} nodes");
        assert_eq!(c.flits, flits, "{nodes} nodes: journey flits match the run counters");
        let mut clf = Classifier::new(Geometry::new(nodes));
        clf.enable_observation();
        clf.finish();
        let report = collector.finish(now, vec![NodeGauges::default(); nodes], &mut clf);
        let phys: u64 = report.netobs.phys_links.iter().map(|l| l.flits).sum();
        assert_eq!(phys, flit_hops, "{nodes} nodes: each flit is counted once per hop");
    }
}

fn central_barrier(episodes: u32) -> BarrierWorkload {
    BarrierWorkload { kind: BarrierKind::Centralized, episodes }
}

fn run_barrier(procs: usize, protocol: Protocol, w: BarrierWorkload) -> RunResult {
    let mut m = Machine::new(MachineConfig::paper_observed(procs, protocol));
    let layout = barriers::install(&mut m, &w);
    let r = m.run();
    barriers::verify(&mut m, &w, &layout);
    r
}

fn run_mcs(procs: usize, protocol: Protocol, total_acquires: u32) -> RunResult {
    let w =
        LockWorkload { kind: LockKind::Mcs, total_acquires, cs_cycles: 20, post_release: PostRelease::None };
    let mut m = Machine::new(MachineConfig::paper_observed(procs, protocol));
    let layout = locks::install(&mut m, &w);
    let r = m.run();
    locks::verify(&mut m, &w, &layout);
    r
}

fn netobs(r: &RunResult) -> &NetObsReport {
    &r.obs.as_ref().expect("observed run").netobs
}

/// The homes' update columns, summed from lineage's blocks, balance: the
/// homes' classes merge to the classified totals, and their arrivals to
/// the blocks' arrivals. Under the update protocols both are nonzero.
fn assert_home_updates_balance(r: &RunResult, protocol: Protocol, what: &str) {
    let obs = r.obs.as_ref().unwrap();
    let mut merged = UpdateStats::default();
    for h in &obs.netobs.homes {
        merged.merge(&h.updates);
    }
    assert_eq!(merged, r.traffic.updates, "{what} under {protocol:?}: homes' updates merge to the totals");
    let home_arrivals: u64 = obs.netobs.homes.iter().map(|h| h.update_deliveries + h.update_drops).sum();
    let block_arrivals: u64 = obs.lineage.blocks.iter().map(|b| b.update_deliveries + b.update_drops).sum();
    assert_eq!(home_arrivals, block_arrivals, "{what} under {protocol:?}: homes' arrivals are the blocks'");
    if protocol != Protocol::WriteInvalidate {
        assert!(merged.total() > 0 && home_arrivals > 0, "{what} under {protocol:?}: updates flowed");
    }
}

/// The reconciliation check (journey stage sums, message/flit/cycle
/// totals, physical-link and per-home partitions) holds exactly under
/// every protocol for both a barrier and a lock kernel, and the homes'
/// update columns balance.
#[test]
fn journey_accounting_reconciles_under_every_protocol() {
    for protocol in PROTOCOLS {
        let r = run_barrier(8, protocol, central_barrier(24));
        check_net_reconciliation(netobs(&r), r.obs.as_ref().unwrap())
            .unwrap_or_else(|e| panic!("central-barrier under {protocol:?}: {e}"));
        assert_home_updates_balance(&r, protocol, "central-barrier");
        let r = run_mcs(8, protocol, 64);
        check_net_reconciliation(netobs(&r), r.obs.as_ref().unwrap())
            .unwrap_or_else(|e| panic!("mcs-lock under {protocol:?}: {e}"));
        assert_home_updates_balance(&r, protocol, "mcs-lock");
    }
}

/// The paper's hot-spot story, mechanically: under PU the centralized
/// barrier counter's home node (node 0 — the workload allocates the
/// counter and sense words there) attracts the machine's peak rx-port
/// traffic, its update mix is majority-useless (counter proliferation),
/// and its memory module is the busiest. CU cuts the useless updates
/// homed at that node.
#[test]
fn pu_concentrates_useless_flits_on_the_barrier_home_and_cu_cuts_them() {
    let pu = run_barrier(16, Protocol::PureUpdate, central_barrier(24));
    let net_pu = netobs(&pu);

    let hot = net_pu.homes.iter().max_by_key(|h| h.homed_rx_flits).expect("homes reported");
    assert_eq!(hot.node, 0, "the counter's home node is the traffic hot spot");
    let total_flits = net_pu.totals().flits;
    assert!(
        hot.homed_rx_flits * 2 > total_flits,
        "the hot home dominates rx-port traffic: {} of {total_flits} flits",
        hot.homed_rx_flits
    );
    let share = hot.useless_share().expect("updates were classified at the hot home");
    assert!(share > 0.5, "majority-useless update mix under PU: {share:.3}");
    assert!(
        net_pu.homes.iter().all(|h| h.mem_busy <= net_pu.homes[0].mem_busy),
        "the hot home's memory module is the busiest"
    );
    assert_eq!(
        net_pu.homes.iter().map(|h| h.update_deliveries).max().unwrap(),
        net_pu.homes[0].update_deliveries,
        "update deliveries concentrate on the hot home's addresses"
    );

    let cu = run_barrier(16, Protocol::CompetitiveUpdate, central_barrier(24));
    let net_cu = netobs(&cu);
    assert!(
        net_cu.homes[0].updates.useless() < net_pu.homes[0].updates.useless(),
        "CU cuts the useless updates homed at the hot node: {} vs {}",
        net_cu.homes[0].updates.useless(),
        net_pu.homes[0].updates.useless()
    );
    assert!(net_cu.homes[0].update_drops > 0, "the competitive threshold actually dropped copies");
}

/// Journey aggregates tag messages with the structure labels the kernels
/// register, and the per-class × per-structure tables partition the same
/// traffic.
#[test]
fn journeys_are_attributed_to_registered_structures() {
    let r = run_barrier(8, Protocol::PureUpdate, central_barrier(24));
    let net = netobs(&r);
    assert!(net.by_structure.contains_key("count"), "barrier counter labeled: {:?}", net.by_structure.keys());
    assert!(net.by_structure.contains_key("sense"), "sense flag labeled");
    let class_msgs: u64 = net.by_class.values().map(|t| t.count).sum();
    let struct_msgs: u64 = net.by_structure.values().map(|t| t.count).sum();
    assert_eq!(class_msgs, struct_msgs, "both breakdowns cover every remote message");
    assert!(net.by_class.keys().any(|k| k.starts_with("Update")), "PU run carries update messages");
}

/// The physical-link layer sees real traffic: the canonical link
/// enumeration matches the mesh, totals equal the journeys' flit·hop
/// products, and the heatmap mentions every node.
#[test]
fn phys_links_and_heatmap_cover_the_mesh() {
    let r = run_barrier(16, Protocol::PureUpdate, central_barrier(24));
    let net = netobs(&r);
    let shape = net.shape();
    assert_eq!(net.phys_links.len(), shape.links().len());
    let phys: u64 = net.phys_links.iter().map(|l| l.flits).sum();
    assert_eq!(phys, net.totals().flit_hops);
    assert!(phys > 0, "the barrier generated mesh traffic");
    let map = net.heatmap();
    for n in 0..shape.nodes() {
        assert!(map.contains(&format!("n{n:02}")), "node {n} missing from heatmap:\n{map}");
    }
    let worst = net.worst_links(4);
    assert!(worst[0].flits >= worst[1].flits, "worst links sorted descending");
}
