//! Machine configuration.

use sim_engine::Cycle;
use sim_mem::{CacheConfig, MemTiming};
use sim_net::NetConfig;
use sim_proto::{ProtoConfig, Protocol};
use sim_stats::{HostObsConfig, ObsConfig};

/// Full configuration of a simulated machine. Defaults reproduce the
/// paper's 32-node DASH-like multiprocessor (Section 3.1).
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
    /// Memory-module timing (20 cycles to the first word, 1/word after).
    pub mem: MemTiming,
    /// Network parameters (2-cycle switches, 16-bit datapath).
    pub net: NetConfig,
    /// Competitive-update drop threshold (paper: 4).
    pub cu_threshold: u32,
    /// Pure-update private-data optimization (paper: on).
    pub pu_private_opt: bool,
    /// Cycles per busy-wait re-check (load + compare + branch).
    pub spin_check_period: Cycle,
    /// Park quiescent spinners (simulator fast-forward; no result change).
    pub spin_parking: bool,
    /// Local cost of a zero-traffic magic lock acquire/release, modeling
    /// the lock-manipulation instructions the paper's Section 2.3 analysis
    /// counts without generating coherence traffic.
    pub magic_lock_cycles: Cycle,
    /// Local cost of a zero-traffic magic barrier.
    pub magic_barrier_cycles: Cycle,
    /// Seed for per-processor `RandDelay` streams.
    pub seed: u64,
    /// Abort the run if the clock passes this (deadlock/livelock guard).
    pub max_cycles: Cycle,
    /// Observability switches (cycle accounting, sampling, timelines).
    /// Disabled by default: the default path performs no accounting and
    /// produces bit-identical results to a build without the subsystem.
    pub obs: ObsConfig,
    /// Host-observability switches (self-profiling of the simulator
    /// process and determinism fingerprints). Disabled by default; like
    /// `obs`, enabling it never changes simulated results.
    pub hostobs: HostObsConfig,
    /// Periodic deterministic checkpoints: snapshot the complete machine
    /// state roughly every this many dispatched events (rounded up to the
    /// next `hostobs.fingerprint_epoch` boundary so fingerprint chains can
    /// resume at an exact epoch seam). `None` — the default — takes no
    /// checkpoints and pays nothing on the event path. Set via
    /// `PPC_CHECKPOINT_EVERY` for the harness binaries; collect with
    /// [`crate::Machine::take_checkpoints`].
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
            mem: MemTiming::default(),
            net: NetConfig::default(),
            cu_threshold: 4,
            pu_private_opt: true,
            spin_check_period: 3,
            spin_parking: true,
            magic_lock_cycles: 10,
            magic_barrier_cycles: 10,
            seed: 0x5eed,
            max_cycles: 2_000_000_000,
            obs: ObsConfig::default(),
            hostobs: HostObsConfig::default(),
            checkpoint_every: None,
        }
    }

    /// The same configuration taking a checkpoint roughly every `events`
    /// dispatched events (epoch-aligned; see
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
        assert_eq!(c.mem.first_word, 20);
        assert_eq!(c.net.switch_delay, 2);
        assert_eq!(c.cu_threshold, 4);
        assert!(!c.obs.enabled, "observability is opt-in");
        assert!(!c.hostobs.enabled && !c.hostobs.fingerprint, "host observability is opt-in");
        assert_eq!(c.checkpoint_every, None, "checkpoints are opt-in");
    }

    #[test]
    fn with_checkpoints_flips_only_the_cadence() {
        let c = MachineConfig::paper(8, Protocol::PureUpdate).with_checkpoints(10_000);
        assert_eq!(c.checkpoint_every, Some(10_000));
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
