//! Eviction stress: the paper's kernels never overflow the 64 KB cache
//! (they see no eviction misses and no replacement updates — footnote 1),
//! so these tests shrink the cache until conflict evictions, writeback
//! races, and fetch-miss retries fire constantly, and check that the
//! protocols stay correct and the classifier reports the new categories.

use kernels::workloads::{BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease};
use kernels::{barriers, locks};
use sim_isa::{AluOp, ProgramBuilder};
use sim_machine::{Machine, MachineConfig};
use sim_mem::CacheConfig;
use sim_proto::Protocol;

const PROTOCOLS: [Protocol; 3] =
    [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate];

/// A machine whose caches hold only `lines` blocks.
fn tiny_cache_machine(procs: usize, protocol: Protocol, lines: u32) -> Machine {
    let mut cfg = MachineConfig::paper(procs, protocol);
    cfg.cache = CacheConfig { capacity_bytes: 64 * lines };
    Machine::new(cfg)
}

/// Each CPU sweeps a working set much larger than the cache, reading and
/// writing every slot, then publishes a checksum.
fn sweep_program(slots: &[u32], rounds: u32, out: u32) -> sim_isa::Program {
    let mut b = ProgramBuilder::new();
    b.imm(15, rounds);
    b.imm(5, 0); // checksum
    b.label("round");
    for &s in slots {
        b.imm(0, s);
        b.load(1, 0, 0);
        b.alu(AluOp::Add, 5, 5, 1);
        b.alui(AluOp::Add, 1, 1, 1);
        b.store(0, 0, 1);
    }
    b.fence();
    b.alui(AluOp::Sub, 15, 15, 1);
    b.bnz(15, "round");
    b.imm(0, out);
    b.store(0, 0, 5);
    b.fence();
    b.halt();
    b.build()
}

#[test]
fn private_sweeps_evict_and_stay_correct() {
    // Each CPU owns its slots: no sharing, but constant conflict misses.
    for protocol in PROTOCOLS {
        let mut m = tiny_cache_machine(2, protocol, 4);
        let rounds = 5u32;
        let mut outs = Vec::new();
        let mut all_slots = Vec::new();
        for cpu in 0..2 {
            // 12 slots > 4 lines: guaranteed conflicts.
            let slots: Vec<u32> = (0..12).map(|_| m.alloc().alloc_block_on(cpu, 1)).collect();
            let out = m.alloc().alloc_block_on(cpu, 1);
            m.set_program(cpu, sweep_program(&slots, rounds, out));
            outs.push(out);
            all_slots.push(slots);
        }
        let r = m.run();
        m.assert_coherent();
        assert!(r.traffic.misses.eviction > 0, "{protocol:?}: evictions observed");
        // Every slot was incremented `rounds` times; the checksum is the
        // sum of the values read (0 + 1 + ... + rounds-1 per slot).
        let expected_sum: u32 = (0..rounds).sum::<u32>() * 12;
        for (cpu, &out) in outs.iter().enumerate() {
            assert_eq!(m.read_word(out), expected_sum, "{protocol:?} cpu {cpu} checksum");
            for &s in &all_slots[cpu] {
                assert_eq!(m.read_word(s), rounds, "{protocol:?} slot {s:#x}");
            }
        }
    }
}

#[test]
fn shared_sweeps_race_evictions_against_coherence() {
    // Both CPUs hammer the same oversized working set with atomics, so
    // recalls (Fetch/FetchInv/RecallUpd) constantly race writebacks.
    for protocol in PROTOCOLS {
        let mut m = tiny_cache_machine(2, protocol, 2);
        let slots: Vec<u32> = (0..8).map(|i| m.alloc().alloc_block_on(i % 2, 1)).collect();
        for cpu in 0..2 {
            let mut b = ProgramBuilder::new();
            b.imm(15, 6);
            b.imm(2, 1);
            b.label("round");
            for &s in &slots {
                b.imm(0, s);
                b.fetch_add(1, 0, 2);
            }
            b.alui(AluOp::Sub, 15, 15, 1);
            b.bnz(15, "round");
            b.halt();
            m.set_program(cpu, b.build());
        }
        let r = m.run();
        m.assert_coherent();
        assert!(r.cycles > 0);
        for &s in &slots {
            assert_eq!(m.read_word(s), 12, "{protocol:?}: 2 CPUs x 6 rounds");
        }
    }
}

#[test]
fn lock_kernel_survives_tiny_cache() {
    // The paper's own lock kernel under a 4-line cache: queue nodes and
    // counters now evict mid-transaction.
    for protocol in PROTOCOLS {
        for kind in [LockKind::Ticket, LockKind::Mcs] {
            let w = LockWorkload { kind, total_acquires: 96, cs_cycles: 10, post_release: PostRelease::None };
            let mut m = tiny_cache_machine(4, protocol, 4);
            let layout = locks::install(&mut m, &w);
            m.run();
            locks::verify(&mut m, &w, &layout);
            m.assert_coherent();
        }
    }
}

#[test]
fn barrier_kernel_survives_tiny_cache() {
    for protocol in PROTOCOLS {
        for kind in [BarrierKind::Centralized, BarrierKind::Dissemination, BarrierKind::Tree] {
            let w = BarrierWorkload { kind, episodes: 15 };
            let mut m = tiny_cache_machine(5, protocol, 2);
            let layout = barriers::install(&mut m, &w);
            m.run();
            barriers::verify(&mut m, &w, &layout);
            m.assert_coherent();
        }
    }
}

#[test]
fn replacement_updates_appear_under_tiny_caches() {
    // A sharer that keeps evicting a block it receives updates for should
    // eventually register replacement updates... unless the eviction
    // notifies the home first (our caches send replacement hints, so the
    // common case is the record dying as a replacement update exactly
    // when an update is in flight). Construct it directly: CPU 1 caches a
    // hot word, CPU 0 updates it while CPU 1 thrashes its cache.
    let mut m = tiny_cache_machine(2, Protocol::PureUpdate, 2);
    let hot = m.alloc().alloc_block_on(0, 1);
    let thrash: Vec<u32> = (0..6).map(|_| m.alloc().alloc_block_on(1, 1)).collect();

    // CPU 0: write the hot word repeatedly.
    let mut b0 = ProgramBuilder::new();
    b0.imm(0, hot).imm(15, 40).imm(2, 0);
    b0.label("loop");
    b0.alui(AluOp::Add, 2, 2, 1);
    b0.store(0, 0, 2);
    b0.fence();
    b0.delay(30);
    b0.alui(AluOp::Sub, 15, 15, 1);
    b0.bnz(15, "loop");
    b0.halt();
    m.set_program(0, b0.build());

    // CPU 1: read the hot word once (becoming a sharer), then thrash.
    let mut b1 = ProgramBuilder::new();
    b1.imm(0, hot).load(1, 0, 0);
    b1.imm(15, 30);
    b1.label("loop");
    for &t in &thrash {
        b1.imm(0, t);
        b1.load(1, 0, 0);
    }
    // Re-read the hot word so CPU 1 re-joins the sharer set.
    b1.imm(0, hot);
    b1.load(1, 0, 0);
    b1.alui(AluOp::Sub, 15, 15, 1);
    b1.bnz(15, "loop");
    b1.halt();
    m.set_program(1, b1.build());

    let r = m.run();
    m.assert_coherent();
    // The hot block gets evicted by the thrash set whenever it maps onto
    // the same line; updates in flight at those moments classify as
    // replacement updates.
    assert!(
        r.traffic.updates.replacement > 0 || r.traffic.misses.eviction > 0,
        "thrashing must produce replacement-class traffic: {:?} / {:?}",
        r.traffic.updates,
        r.traffic.misses
    );
}
