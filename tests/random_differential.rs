//! Property-based differential testing: random programs whose final
//! shared-memory state is schedule-independent must produce *identical*
//! results on the cycle-accurate machine (under every protocol) and on the
//! timing-free sequentially-consistent reference executor.
//!
//! Schedule independence is guaranteed by construction: cross-processor
//! mutation happens only through commutative `fetch_and_add`s, and plain
//! stores target per-processor slots no one else writes.

use sim_engine::SplitMix64;
use sim_isa::reference::RefMachine;
use sim_isa::{AluOp, Program, ProgramBuilder};
use sim_machine::{Machine, MachineConfig};
use sim_proto::Protocol;

/// One random operation in a generated program.
#[derive(Debug, Clone)]
enum Op {
    /// `counters[idx] += amount` (atomic, commutative).
    Add { idx: usize, amount: u32 },
    /// `my_slots[slot] = val` (only this processor writes it).
    StoreMine { slot: usize, val: u32 },
    /// Read a counter (no effect on the final state).
    LoadCounter { idx: usize },
    /// Local work.
    Work { cycles: u32 },
}

const COUNTERS: usize = 3;
const SLOTS: usize = 2;

/// Draws one random operation from the same distribution the proptest
/// strategy used (uniform over the four op shapes).
fn random_op(rng: &mut SplitMix64) -> Op {
    match rng.next_below(4) {
        0 => Op::Add { idx: rng.next_below(COUNTERS as u64) as usize, amount: rng.next_range(1, 99) as u32 },
        1 => Op::StoreMine { slot: rng.next_below(SLOTS as u64) as usize, val: rng.next_below(1000) as u32 },
        2 => Op::LoadCounter { idx: rng.next_below(COUNTERS as u64) as usize },
        _ => Op::Work { cycles: rng.next_range(1, 39) as u32 },
    }
}

/// Generates 2–3 processors' worth of 0–23 random ops each.
fn random_case(rng: &mut SplitMix64) -> Vec<Vec<Op>> {
    let cpus = rng.next_range(2, 3) as usize;
    (0..cpus)
        .map(|_| {
            let n = rng.next_below(24) as usize;
            (0..n).map(|_| random_op(rng)).collect()
        })
        .collect()
}

fn build_program(ops: &[Op], counters: &[u32], my_slots: &[u32]) -> Program {
    let mut b = ProgramBuilder::new();
    for op in ops {
        match *op {
            Op::Add { idx, amount } => {
                b.imm(0, counters[idx]);
                b.imm(1, amount);
                b.fetch_add(2, 0, 1);
            }
            Op::StoreMine { slot, val } => {
                b.imm(0, my_slots[slot]);
                b.imm(1, val);
                b.store(0, 0, 1);
            }
            Op::LoadCounter { idx } => {
                b.imm(0, counters[idx]);
                b.load(3, 0, 0);
                // Fold the loaded value so the read is not dead code.
                b.alu(AluOp::Xor, 4, 4, 3);
            }
            Op::Work { cycles } => {
                b.delay(cycles);
            }
        }
    }
    b.fence();
    b.halt();
    b.build()
}

/// Expected final value of each counter and slot, computed directly.
fn expected_state(per_cpu_ops: &[Vec<Op>]) -> (Vec<u32>, Vec<Vec<Option<u32>>>) {
    let mut counters = vec![0u32; COUNTERS];
    let mut slots = vec![vec![None; SLOTS]; per_cpu_ops.len()];
    for (cpu, ops) in per_cpu_ops.iter().enumerate() {
        for op in ops {
            match *op {
                Op::Add { idx, amount } => counters[idx] = counters[idx].wrapping_add(amount),
                Op::StoreMine { slot, val } => slots[cpu][slot] = Some(val),
                _ => {}
            }
        }
    }
    (counters, slots)
}

fn run_case(per_cpu_ops: &[Vec<Op>], protocol: Protocol) {
    let cpus = per_cpu_ops.len();
    let mut m = Machine::new(MachineConfig::paper(cpus, protocol));
    let counter_addrs: Vec<u32> = (0..COUNTERS).map(|i| m.alloc().alloc_block_on(i % cpus, 1)).collect();
    let slot_addrs: Vec<Vec<u32>> =
        (0..cpus).map(|c| (0..SLOTS).map(|_| m.alloc().alloc_block_on(c, 1)).collect()).collect();
    for (cpu, ops) in per_cpu_ops.iter().enumerate() {
        m.set_program(cpu, build_program(ops, &counter_addrs, &slot_addrs[cpu]));
    }
    let r = m.run();
    m.assert_coherent();
    assert!(r.cycles > 0 || per_cpu_ops.iter().all(|o| o.is_empty()));

    // Against direct computation.
    let (exp_counters, exp_slots) = expected_state(per_cpu_ops);
    for (i, &a) in counter_addrs.iter().enumerate() {
        assert_eq!(m.read_word(a), exp_counters[i], "{protocol:?} counter {i}");
    }
    for (cpu, slots) in exp_slots.iter().enumerate() {
        for (s, v) in slots.iter().enumerate() {
            if let Some(v) = v {
                assert_eq!(m.read_word(slot_addrs[cpu][s]), *v, "{protocol:?} cpu {cpu} slot {s}");
            }
        }
    }

    // Against the reference executor (same programs, same addresses).
    let progs: Vec<Program> = per_cpu_ops
        .iter()
        .enumerate()
        .map(|(cpu, ops)| build_program(ops, &counter_addrs, &slot_addrs[cpu]))
        .collect();
    let reference = RefMachine::new(progs, 7).run(10_000_000);
    assert!(reference.all_halted);
    for (i, &a) in counter_addrs.iter().enumerate() {
        assert_eq!(reference.word(a), exp_counters[i], "reference counter {i}");
    }
}

const PROTOCOLS: [Protocol; 3] =
    [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate];

/// Builds the machine for `per_cpu_ops` (same allocation order and
/// programs every call, so snapshots restore across instances), returning
/// it with the list of observable shared addresses.
fn build_case_machine(
    per_cpu_ops: &[Vec<Op>],
    protocol: Protocol,
    checkpoint_every: Option<u64>,
) -> (Machine, Vec<u32>) {
    let cpus = per_cpu_ops.len();
    let mut cfg = MachineConfig::paper(cpus, protocol);
    // A tiny epoch keeps the epoch-aligned checkpoint grid fine enough
    // for these short random programs.
    cfg.hostobs.fingerprint_epoch = 32;
    cfg.checkpoint_every = checkpoint_every;
    let mut m = Machine::new(cfg);
    let counter_addrs: Vec<u32> = (0..COUNTERS).map(|i| m.alloc().alloc_block_on(i % cpus, 1)).collect();
    let slot_addrs: Vec<Vec<u32>> =
        (0..cpus).map(|c| (0..SLOTS).map(|_| m.alloc().alloc_block_on(c, 1)).collect()).collect();
    for (cpu, ops) in per_cpu_ops.iter().enumerate() {
        m.set_program(cpu, build_program(ops, &counter_addrs, &slot_addrs[cpu]));
    }
    let addrs = counter_addrs.into_iter().chain(slot_addrs.into_iter().flatten()).collect();
    (m, addrs)
}

/// Full observable outcome of a finished machine: figures + final memory.
fn outcome(r: &sim_machine::RunResult, m: &mut Machine, addrs: &[u32]) -> String {
    let words: Vec<u32> = addrs.iter().map(|&a| m.read_word(a)).collect();
    format!("{:?} {:?} {:?} {} {words:?}", r.cycles, r.traffic, r.net, r.instructions)
}

/// Snapshot→restore round trip on a random program: when the run is long
/// enough to cross a checkpoint boundary, restoring the deepest mid-run
/// checkpoint must replay to the exact figures and final memory of an
/// uninterrupted run. Returns whether a checkpoint fired (restores are
/// only possible from mid-run snapshots — a machine restored before any
/// event was queued would have nothing to dispatch).
fn run_case_round_trip(per_cpu_ops: &[Vec<Op>], protocol: Protocol) -> bool {
    let (mut full_m, addrs) = build_case_machine(per_cpu_ops, protocol, None);
    let full_r = full_m.run();
    full_m.assert_coherent();
    let full = outcome(&full_r, &mut full_m, &addrs);

    let (mut ck_m, _) = build_case_machine(per_cpu_ops, protocol, Some(32));
    let ck_r = ck_m.run();
    assert_eq!(outcome(&ck_r, &mut ck_m, &addrs), full, "{protocol:?}: checkpointing perturbed");
    let Some(ck) = ck_m.take_checkpoints().pop() else { return false };
    let (mut m, _) = build_case_machine(per_cpu_ops, protocol, None);
    m.restore(&ck.blob).expect("checkpoint restores");
    let r = m.run();
    assert_eq!(outcome(&r, &mut m, &addrs), full, "{protocol:?}: restore at event {} diverged", ck.events);
    true
}

#[test]
fn snapshot_round_trip_is_exact_for_random_programs() {
    let mut rng = SplitMix64::new(0xd1ff_0004);
    let mut restored = 0;
    for i in 0..12 {
        let case = random_case(&mut rng);
        if run_case_round_trip(&case, PROTOCOLS[i % 3]) {
            restored += 1;
        }
    }
    assert!(restored >= 6, "only {restored}/12 random cases crossed a checkpoint boundary");
}

#[test]
fn snapshot_restore_rejects_corruption_and_wrong_identity() {
    let mut rng = SplitMix64::new(0xd1ff_0005);
    let case = random_case(&mut rng);
    let (m, _) = build_case_machine(&case, Protocol::WriteInvalidate, None);
    let blob = m.snapshot();

    // Bit flip anywhere in the sealed frame.
    let mut bad = blob.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x08;
    let (mut r, _) = build_case_machine(&case, Protocol::WriteInvalidate, None);
    assert!(r.restore(&bad).is_err(), "corrupted snapshot must not restore");

    // Truncation.
    let (mut r, _) = build_case_machine(&case, Protocol::WriteInvalidate, None);
    assert!(r.restore(&blob[..blob.len() - 7]).is_err(), "truncated snapshot must not restore");

    // Wrong machine identity: different protocol.
    let (mut r, _) = build_case_machine(&case, Protocol::PureUpdate, None);
    assert!(r.restore(&blob).is_err(), "protocol mismatch must not restore");

    // The original blob still restores fine afterwards.
    let (mut r, _) = build_case_machine(&case, Protocol::WriteInvalidate, None);
    assert!(r.restore(&blob).is_ok(), "pristine snapshot restores");
}

#[test]
fn machine_matches_oracle_under_wi() {
    let mut rng = SplitMix64::new(0xd1ff_0001);
    for _ in 0..24 {
        run_case(&random_case(&mut rng), Protocol::WriteInvalidate);
    }
}

#[test]
fn machine_matches_oracle_under_pu() {
    let mut rng = SplitMix64::new(0xd1ff_0002);
    for _ in 0..24 {
        run_case(&random_case(&mut rng), Protocol::PureUpdate);
    }
}

#[test]
fn machine_matches_oracle_under_cu() {
    let mut rng = SplitMix64::new(0xd1ff_0003);
    for _ in 0..24 {
        run_case(&random_case(&mut rng), Protocol::CompetitiveUpdate);
    }
}
