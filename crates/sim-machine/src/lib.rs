//! The simulated multiprocessor: 32 nodes of processor + write buffer +
//! cache + directory/memory + network interface, glued to the mesh network
//! and driven by a deterministic event loop.
//!
//! This crate owns *time*: protocol handlers in `sim-proto` return effects,
//! and the machine schedules them — network latencies via `sim-net`, memory
//! occupancy via per-node FIFO servers, processor execution via the mini-ISA
//! interpreter over `sim-isa` programs.
//!
//! Processor model (Section 3.1 of the paper): in-order, all instructions
//! and read hits take 1 cycle; read misses stall; writes retire into a
//! 4-entry write buffer in 1 cycle unless it is full; reads bypass (and
//! forward from) queued writes; atomic instructions force write-buffer
//! flushes; a release fence stalls until all outstanding
//! invalidation/update acknowledgements arrive.
//!
//! Busy-wait loops are first-class: the `SpinWhile*` instructions re-check
//! every 3 cycles (a load, a compare and a branch), and — when
//! [`MachineConfig::spin_parking`] is on — a spinner whose watched line is
//! cached and quiet is *parked* and woken by the next coherence event on
//! that line, then re-checks on its original period grid. Parking is a pure
//! simulator speedup; `tests/spin_parking_equivalence.rs` checks it does not
//! change results.

pub mod chrome_export;
pub mod config;
pub mod cpu;
pub mod machine;
pub mod result;
pub mod trace;

pub use chrome_export::{
    export_run, ExportStats, CRIT_TRACK_BASE, LINE_TRACK_BASE, NET_TRACKS_MAX, NET_TRACK_BASE,
};
pub use config::MachineConfig;
pub use cpu::{Cpu, CpuState};
pub use machine::{Checkpoint, Machine, RecordedEvent, SNAPSHOT_VERSION};
pub use result::RunResult;
pub use trace::{Trace, TraceEvent};
