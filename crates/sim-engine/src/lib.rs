//! Deterministic discrete-event simulation engine.
//!
//! This crate provides the time base shared by every component of the
//! `ppc-coherence` multiprocessor simulator:
//!
//! * [`Cycle`] — the simulated processor-cycle clock (network and memory run
//!   at the same clock, as in the paper's methodology section).
//! * [`EventQueue`] — a bucket-wheel event queue over one reused slab of
//!   event nodes, with a small far-future heap of node indices; events
//!   scheduled for the same cycle fire in insertion order, so a simulation
//!   run is a pure function of its configuration.
//! * [`FifoServer`] — an earliest-free-time resource model used for memory
//!   modules and network-interface ports, which are the only contention
//!   points the paper models.
//! * [`SplitMix64`] — a tiny deterministic PRNG for the workload variants
//!   that need bounded pseudo-random delays.
//! * [`FastMap`] — a `HashMap` with the unkeyed [`FxHasher`], for the
//!   protocol maps probed on every event.

pub mod fast_hash;
pub mod queue;
pub mod rng;
pub mod server;
pub mod snapshot;
pub mod stable_hash;

pub use fast_hash::{FastMap, FxHasher};
pub use queue::{EventQueue, QueueSnapshot, QueueStats};
pub use rng::SplitMix64;
pub use server::FifoServer;
pub use snapshot::{SnapError, SnapReader, SnapWriter, SNAP_MAGIC};
pub use stable_hash::{stable_hash64, StableHasher};

/// A point in simulated time, measured in processor cycles.
///
/// The simulated machine is fully synchronous: the network and the memory
/// modules are clocked at the processor frequency (Section 3.1 of the
/// paper), so a single `u64` cycle count suffices for every component.
pub type Cycle = u64;

/// Identifier of a node (processor + cache + memory + network interface).
pub type NodeId = usize;
