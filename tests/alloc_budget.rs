//! Exact allocation budgets for the simulator's event path.
//!
//! Building the paper's 32-node machine must cost fewer than a thousand
//! heap allocations, and a run must allocate nothing per event except the
//! boxed payload of each message that carries a block. With observation on
//! (stall accounting, lineage, critical path, network journeys) the
//! collectors may add at most one allocation per hundred events. All are
//! checked by counting: this test binary installs its own global
//! allocator, which counts each thread's allocations separately so that
//! tests running on parallel threads do not mix their counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kernels::workloads::{BarrierKind, BarrierWorkload, LockKind, LockWorkload};
use kernels::{barriers, locks};
use sim_machine::trace::{Trace, TraceEvent};
use sim_machine::{Machine, MachineConfig};
use sim_proto::Protocol;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, plus a per-thread count of allocations and
/// reallocations.
struct PerThreadCounting;

fn note() {
    // `try_with` fails only while the thread tears down its locals; those
    // allocations are nobody's to count.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`. The counter
// is a const-initialised thread-local `Cell`, which never allocates, so
// counting cannot re-enter the allocator.
unsafe impl GlobalAlloc for PerThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PerThreadCounting = PerThreadCounting;

/// Allocations `f` makes on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn building_the_paper_machine_makes_fewer_than_a_thousand_allocations() {
    let (allocs, machine) = counted(|| Machine::new(MachineConfig::paper(32, Protocol::WriteInvalidate)));
    drop(machine);
    assert!(allocs < 1000, "Machine::new made {allocs} allocations");
}

/// `Machine::run` allocations for the centralized barrier under pure
/// update: 16 processors, `episodes` episodes.
fn pu_barrier_run_allocs(episodes: u32) -> u64 {
    let w = BarrierWorkload { kind: BarrierKind::Centralized, episodes };
    let mut m = Machine::new(MachineConfig::paper(16, Protocol::PureUpdate));
    let layout = barriers::install(&mut m, &w);
    let (allocs, _) = counted(|| m.run());
    barriers::verify(&mut m, &w, &layout);
    allocs
}

/// Under pure update the barrier's blocks stay cached, so no message
/// carries a block once the first episode has filled the caches: doubling
/// the episodes must not add a single allocation.
#[test]
fn pu_barrier_run_allocations_do_not_grow_with_episodes() {
    let (short, long) = (pu_barrier_run_allocs(100), pu_barrier_run_allocs(200));
    assert_eq!(short, long, "100 episodes: {short} run allocations, 200 episodes: {long}");
}

/// The message kinds that carry a boxed block payload under WI.
const BLOCK_SENDS: [&str; 6] = ["Data", "DataX", "DataFwd", "DataXFwd", "WriteBack", "SharingWB"];

/// The ticket lock under write-invalidate, 16 processors, `acquires`
/// acquires machine-wide, on the paper machine or its observed twin.
fn wi_ticket_machine(acquires: u32, observed: bool) -> (Machine, LockWorkload, locks::LockLayout) {
    let w = LockWorkload { total_acquires: acquires, ..LockWorkload::paper(LockKind::Ticket) };
    let cfg = if observed {
        MachineConfig::paper_observed(16, Protocol::WriteInvalidate)
    } else {
        MachineConfig::paper(16, Protocol::WriteInvalidate)
    };
    let mut m = Machine::new(cfg);
    let layout = locks::install(&mut m, &w);
    (m, w, layout)
}

/// One untraced `Machine::run`: its allocations, its events, and the
/// block-carrying sends that a traced plain twin of the same
/// (deterministic) run counts.
struct TicketRun {
    allocs: u64,
    events: u64,
    block_sends: u64,
}

fn wi_ticket_run(acquires: u32, observed: bool) -> TicketRun {
    let (mut m, w, layout) = wi_ticket_machine(acquires, observed);
    let (allocs, plain) = counted(|| m.run());
    locks::verify(&mut m, &w, &layout);
    let events = m.events_dispatched();

    let (mut twin, _, _) = wi_ticket_machine(acquires, false);
    twin.enable_trace(Trace::new(Trace::MAX_CAPACITY));
    let traced = twin.run();
    assert_eq!(traced.cycles, plain.cycles, "the traced twin replays the measured run");
    let trace = twin.take_trace().expect("tracing was enabled");
    assert_eq!(trace.dropped(), 0, "the trace holds the whole run");
    let block_sends = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Send { kind, .. } if BLOCK_SENDS.contains(kind)))
        .count() as u64;
    TicketRun { allocs, events, block_sends }
}

/// Every extra allocation of a longer run is the payload box of an extra
/// block-carrying message, and nothing else.
#[test]
fn wi_ticket_run_allocates_once_per_block_carrying_message() {
    let short = wi_ticket_run(400, false);
    let long = wi_ticket_run(800, false);
    assert!(long.block_sends > short.block_sends, "the longer run moves more blocks");
    assert_eq!(
        long.allocs - short.allocs,
        long.block_sends - short.block_sends,
        "400 acquires: {} allocations, {} block sends; 800 acquires: {} allocations, {} block sends",
        short.allocs,
        short.block_sends,
        long.allocs,
        long.block_sends
    );
}

/// Observed, a longer run may allocate beyond its extra block payloads
/// only as the collectors' buffers grow: at most one allocation per
/// hundred extra events.
#[test]
fn observed_wi_ticket_run_allocates_at_most_once_per_hundred_extra_events() {
    let short = wi_ticket_run(400, true);
    let long = wi_ticket_run(800, true);
    let extra_events = long.events - short.events;
    let extra_allocs = (long.allocs - short.allocs).saturating_sub(long.block_sends - short.block_sends);
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event <= 0.01,
        "{extra_allocs} allocations beyond the extra block payloads over {extra_events} extra events \
         ({per_event:.4} per event); 400 acquires: {} allocations, 800 acquires: {}",
        short.allocs,
        long.allocs
    );
}
