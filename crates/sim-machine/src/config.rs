//! Machine configuration.

use sim_engine::Cycle;
use sim_mem::CacheConfig;
use sim_proto::{ProtoConfig, Protocol};
use sim_stats::{HostObsConfig, ObsConfig};

/// Cycles per busy-wait re-check (load + compare + branch).
pub(crate) const SPIN_CHECK_PERIOD: Cycle = 3;

/// Local cost of a zero-traffic magic lock acquire/release, modeling the
/// lock-manipulation instructions the paper's Section 2.3 analysis counts
/// without generating coherence traffic.
pub(crate) const MAGIC_LOCK_CYCLES: Cycle = 10;

/// Local cost of a zero-traffic magic barrier.
pub(crate) const MAGIC_BARRIER_CYCLES: Cycle = 10;

/// A run aborts if the clock passes this (deadlock/livelock guard).
pub(crate) const MAX_CYCLES: Cycle = 2_000_000_000;

/// Full configuration of a simulated machine. Defaults reproduce the
/// paper's 32-node DASH-like multiprocessor (Section 3.1); its memory and
/// network timings are the constants of `sim_mem::dram` and `sim_net`.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of nodes/processors (paper experiments: 1–32).
    pub num_procs: usize,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Cache sizing (64 KB direct-mapped; blocks are always 64 bytes).
    pub cache: CacheConfig,
    /// Write-buffer entries (paper: 4).
    pub wb_entries: usize,
    /// Competitive-update drop threshold (paper: 4).
    pub cu_threshold: u32,
    /// Pure-update private-data optimization (paper: on).
    pub pu_private_opt: bool,
    /// Park quiescent spinners (simulator fast-forward; no result change).
    pub spin_parking: bool,
    /// Seed for per-processor `RandDelay` streams.
    pub seed: u64,
    /// Observability switches (cycle accounting, sampling, timelines).
    /// Disabled by default: the default path performs no accounting and
    /// produces bit-identical results to a build without the subsystem.
    pub obs: ObsConfig,
    /// Host-observability switches (self-profiling of the simulator
    /// process and determinism fingerprints). Disabled by default; like
    /// `obs`, enabling it never changes simulated results.
    pub hostobs: HostObsConfig,
    /// Periodic deterministic checkpoints: snapshot the complete machine
    /// state after every this many dispatched events. The cadence must be a
    /// positive multiple of `hostobs.fingerprint_epoch` ([`crate::Machine::new`]
    /// panics otherwise), so each checkpoint sits on an exact epoch seam
    /// where a fingerprint chain can resume. `None` — the default — takes
    /// no checkpoints and pays nothing on the event path. `ppc replay` sets
    /// it to one fingerprint epoch and `ppc overhead` times a few
    /// cadences; collect with [`crate::Machine::take_checkpoints`].
    pub checkpoint_every: Option<u64>,
}

impl MachineConfig {
    /// The paper's machine with `num_procs` processors under `protocol`.
    pub fn paper(num_procs: usize, protocol: Protocol) -> Self {
        MachineConfig {
            num_procs,
            protocol,
            cache: CacheConfig::default(),
            wb_entries: 4,
            cu_threshold: 4,
            pu_private_opt: true,
            spin_parking: true,
            seed: 0x5eed,
            obs: ObsConfig::default(),
            hostobs: HostObsConfig::default(),
            checkpoint_every: None,
        }
    }

    /// The same configuration taking a checkpoint every `events`
    /// dispatched events (a multiple of the fingerprint epoch; see
    /// [`MachineConfig::checkpoint_every`]).
    pub fn with_checkpoints(mut self, events: u64) -> Self {
        self.checkpoint_every = Some(events);
        self
    }

    /// The paper machine with observability enabled (cycle accounting,
    /// periodic sampling, and state timelines).
    pub fn paper_observed(num_procs: usize, protocol: Protocol) -> Self {
        MachineConfig { obs: ObsConfig::enabled(), ..Self::paper(num_procs, protocol) }
    }

    /// The paper machine with host observability enabled (dispatch-time
    /// profiling, event-queue analytics, determinism fingerprints).
    pub fn paper_hostobs(num_procs: usize, protocol: Protocol) -> Self {
        MachineConfig { hostobs: HostObsConfig::enabled(), ..Self::paper(num_procs, protocol) }
    }

    /// Protocol-layer slice of this configuration.
    pub fn proto_config(&self) -> ProtoConfig {
        ProtoConfig {
            protocol: self.protocol,
            cache: self.cache,
            cu_threshold: self.cu_threshold,
            pu_private_opt: self.pu_private_opt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = MachineConfig::paper(32, Protocol::WriteInvalidate);
        assert_eq!(c.num_procs, 32);
        assert_eq!(c.wb_entries, 4);
        assert_eq!(c.cache.capacity_bytes, 64 * 1024);
        assert_eq!(c.cu_threshold, 4);
        assert!(!c.obs.enabled, "observability is opt-in");
        assert!(!c.hostobs.enabled && !c.hostobs.fingerprint, "host observability is opt-in");
        assert_eq!(c.checkpoint_every, None, "checkpoints are opt-in");
    }

    #[test]
    fn with_checkpoints_flips_only_the_cadence() {
        let c = MachineConfig::paper(8, Protocol::PureUpdate).with_checkpoints(16_384);
        assert_eq!(c.checkpoint_every, Some(16_384));
        assert_eq!(c.seed, MachineConfig::paper(8, Protocol::PureUpdate).seed);
        assert!(!c.obs.enabled && !c.hostobs.enabled);
    }

    #[test]
    fn hostobs_variant_flips_only_hostobs() {
        let c = MachineConfig::paper_hostobs(8, Protocol::CompetitiveUpdate);
        assert!(c.hostobs.enabled && c.hostobs.fingerprint);
        assert!(!c.obs.enabled);
        assert_eq!(c.seed, MachineConfig::paper(8, Protocol::CompetitiveUpdate).seed);
    }

    #[test]
    fn observed_variant_flips_only_obs() {
        let c = MachineConfig::paper_observed(8, Protocol::PureUpdate);
        assert!(c.obs.enabled);
        assert_eq!(c.num_procs, 8);
        assert_eq!(c.seed, MachineConfig::paper(8, Protocol::PureUpdate).seed);
    }
}
