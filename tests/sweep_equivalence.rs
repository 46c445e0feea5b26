//! Equivalence layer for the sweep harness.
//!
//! The harness promises that parallel execution and memoization are pure
//! plumbing: the rendered figure tables are byte-identical whether cells
//! are simulated serially, by competing worker threads, or replayed from
//! the on-disk cache — and a poisoned cache entry is detected and the
//! cell re-simulated rather than served wrong. These tests are the
//! enforcement of that promise.
//!
//! Workloads are deliberately small (hundreds of acquires/episodes, not
//! the paper's thousands) so the whole file runs in a debug-mode tier-1
//! pass; byte-identity does not depend on scale.

use std::sync::{Mutex, MutexGuard};

use kernels::runner::KernelSpec;
use kernels::workloads::{BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease};
use ppc_bench::sweep::{self, RunSpec, SweepOptions};
use ppc_bench::{render_latency_table, render_miss_table, render_update_table};
use sim_proto::Protocol;

const PROCS: [usize; 3] = [1, 2, 4];

/// The memo table is process-wide and every test here clears it, so the
/// tests take turns: run concurrently, one test's cells can come from
/// another's memo entries and never reach the disk cache under test.
static MEMO_TURN: Mutex<()> = Mutex::new(());

fn memo_turn() -> MutexGuard<'static, ()> {
    MEMO_TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
const TRAFFIC_AT: usize = 4;

fn small_lock(kind: LockKind) -> KernelSpec {
    KernelSpec::Lock(LockWorkload {
        kind,
        total_acquires: 256,
        cs_cycles: 50,
        post_release: PostRelease::None,
    })
}

fn small_barrier(kind: BarrierKind) -> KernelSpec {
    KernelSpec::Barrier(BarrierWorkload { kind, episodes: 50 })
}

/// A miniature all_figures row set: every kernel family and protocol is
/// represented, so the equivalence check exercises the same code paths as
/// the real figure tables.
fn rows() -> Vec<(String, KernelSpec, Protocol)> {
    vec![
        ("tk i".into(), small_lock(LockKind::Ticket), Protocol::WriteInvalidate),
        ("tk u".into(), small_lock(LockKind::Ticket), Protocol::PureUpdate),
        ("MCS c".into(), small_lock(LockKind::Mcs), Protocol::CompetitiveUpdate),
        ("cb u".into(), small_barrier(BarrierKind::Centralized), Protocol::PureUpdate),
        ("db c".into(), small_barrier(BarrierKind::Dissemination), Protocol::CompetitiveUpdate),
    ]
}

/// Renders all three table kinds under one option set, concatenated.
fn render_all(opts: &SweepOptions) -> String {
    let (latency, csv) = render_latency_table("latency", &rows(), &PROCS, opts);
    // The CSV mirror must stay in lockstep with the table body.
    assert_eq!(csv.len(), rows().len() + 1);
    let miss = render_miss_table("misses", &rows(), TRAFFIC_AT, opts);
    let update = render_update_table("updates", &rows(), TRAFFIC_AT, opts);
    format!("{latency}{miss}{update}")
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ppc-sweep-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn worker_count_does_not_change_a_single_byte() {
    let _turn = memo_turn();
    let reference = render_all(&SweepOptions::serial_uncached());
    for workers in [2, 8] {
        sweep::clear_memo();
        let got = render_all(&SweepOptions { workers, disk_cache: None });
        assert_eq!(got, reference, "{workers}-worker sweep diverged from serial output");
    }
}

#[test]
fn warm_disk_cache_replays_byte_identical_tables() {
    let _turn = memo_turn();
    let reference = render_all(&SweepOptions::serial_uncached());
    let dir = scratch_dir("warm");
    let opts = SweepOptions { workers: 4, disk_cache: Some(dir.clone()) };
    sweep::clear_memo();
    assert_eq!(render_all(&opts), reference, "cold cached sweep diverged");
    sweep::clear_memo();
    assert_eq!(render_all(&opts), reference, "warm cached sweep diverged");

    // The warm pass must actually have come from disk, not re-simulation.
    sweep::clear_memo();
    let spec = RunSpec::paper(TRAFFIC_AT, Protocol::WriteInvalidate, small_lock(LockKind::Ticket));
    let (_, stats) = sweep::run_specs_with(std::slice::from_ref(&spec), &opts);
    assert_eq!(stats.from_disk, 1, "expected a disk hit, got {stats:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cache entry whose payload verifies but whose key belongs to a
/// different cell (a stale hash — e.g. written by an older binary whose
/// key derivation differed) must be treated as a miss and re-simulated,
/// never served as the other cell's result.
#[test]
fn poisoned_entry_under_stale_key_is_resimulated() {
    let _turn = memo_turn();
    let dir = scratch_dir("poison");
    let opts = SweepOptions { workers: 1, disk_cache: Some(dir.clone()) };
    let victim = RunSpec::paper(2, Protocol::WriteInvalidate, small_lock(LockKind::Ticket));
    let donor = RunSpec::paper(2, Protocol::WriteInvalidate, small_barrier(BarrierKind::Centralized));

    sweep::clear_memo();
    let (outs, _) = sweep::run_specs_with(&[victim.clone(), donor.clone()], &opts);
    let honest_cycles = outs[0].cycles;
    assert_ne!(honest_cycles, outs[1].cycles, "test needs distinguishable cells");

    // Poison: the donor's (internally self-consistent) entry body lands
    // in the victim's slot, as a stale key-derivation change would do.
    let entry = |key: &str| dir.join(format!("{key}.run"));
    std::fs::copy(entry(&donor.cache_key()), entry(&victim.cache_key())).unwrap();

    sweep::clear_memo();
    let (outs, stats) = sweep::run_specs_with(std::slice::from_ref(&victim), &opts);
    assert_eq!(outs[0].cycles, honest_cycles, "poisoned entry was served");
    assert_eq!(stats.simulated, 1, "poisoned entry must force re-simulation, got {stats:?}");

    // And the re-simulation healed the cache: next read is a disk hit.
    sweep::clear_memo();
    let (_, stats) = sweep::run_specs_with(std::slice::from_ref(&victim), &opts);
    assert_eq!(stats.from_disk, 1, "rewritten entry should hit, got {stats:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A corrupted payload (checksum no longer matches) is likewise a miss.
#[test]
fn corrupted_payload_is_resimulated() {
    let _turn = memo_turn();
    let dir = scratch_dir("corrupt");
    let opts = SweepOptions { workers: 1, disk_cache: Some(dir.clone()) };
    let spec = RunSpec::paper(2, Protocol::PureUpdate, small_lock(LockKind::Mcs));

    sweep::clear_memo();
    let (outs, _) = sweep::run_specs_with(std::slice::from_ref(&spec), &opts);
    let honest_cycles = outs[0].cycles;

    // Flip one byte inside the sealed payload: past the 12-byte frame
    // header (magic and version), short of the 16-byte trailing digest.
    let path = dir.join(format!("{}.run", spec.cache_key()));
    let mut body = std::fs::read(&path).unwrap();
    let at = body.len() / 2;
    assert!(12 < at && at < body.len() - 16);
    body[at] ^= 0x01;
    std::fs::write(&path, body).unwrap();

    sweep::clear_memo();
    let (outs, stats) = sweep::run_specs_with(std::slice::from_ref(&spec), &opts);
    assert_eq!(outs[0].cycles, honest_cycles);
    assert_eq!(stats.simulated, 1, "tampered entry must force re-simulation, got {stats:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
