//! Run results.

use sim_engine::Cycle;
use sim_net::NetCounters;
use sim_stats::TrafficReport;

/// Everything measured over one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total execution time in processor cycles (the cycle the last
    /// processor halted).
    pub cycles: Cycle,
    /// Classified miss and update traffic.
    pub traffic: TrafficReport,
    /// Network-level counters.
    pub net: NetCounters,
    /// Instructions retired, summed over processors.
    pub instructions: u64,
    /// Distribution of shared-read miss stall times.
    pub read_latency: sim_stats::LatencyHist,
    /// Distribution of atomic-operation stall times (issue to completion,
    /// excluding the implicit write-buffer flush wait).
    pub atomic_latency: sim_stats::LatencyHist,
    /// The full observability report (cycle accounting, timelines, samples);
    /// `None` unless `MachineConfig::obs.enabled` was set.
    pub obs: Option<sim_stats::ObsReport>,
    /// Host self-profile of this run (dispatch-time breakdown, event-queue
    /// analytics); `None` unless `MachineConfig::hostobs.enabled` was set.
    pub host: Option<Box<sim_stats::HostObsReport>>,
    /// Determinism fingerprint of this run's event stream and final state;
    /// `None` unless `MachineConfig::hostobs.fingerprint` was set.
    pub fingerprint: Option<sim_stats::FingerprintChain>,
}

impl RunResult {
    /// Average latency helper used by the paper's synthetic programs:
    /// total cycles divided by `episodes`, minus `work` cycles of
    /// per-episode local work (e.g. `32000` acquire/release pairs with 50
    /// cycles held, Figure 8).
    pub fn avg_latency(&self, episodes: u64, work: Cycle) -> f64 {
        self.cycles as f64 / episodes as f64 - work as f64
    }

    /// This run as one side of a differential comparison
    /// ([`sim_stats::ReportDelta::between`]). `None` when the run was not
    /// observed (`MachineConfig::obs` off) — there is nothing to diff
    /// without a report. The host profile and fingerprint chain ride
    /// along when the run carried them.
    pub fn delta_side<'a>(&'a self, label: &'a str) -> Option<sim_stats::RunSide<'a>> {
        self.obs.as_ref().map(|obs| sim_stats::RunSide {
            label,
            instructions: self.instructions,
            obs,
            host: self.host.as_deref(),
            fingerprint: self.fingerprint.as_ref(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_latency_matches_paper_formula() {
        let r = RunResult {
            cycles: 3_200_000,
            traffic: TrafficReport::default(),
            net: NetCounters::default(),
            instructions: 0,
            read_latency: Default::default(),
            atomic_latency: Default::default(),
            obs: None,
            host: None,
            fingerprint: None,
        };
        // 32000 episodes of (50 work + 50 latency) = 3.2M cycles.
        assert!((r.avg_latency(32_000, 50) - 50.0).abs() < 1e-9);
    }
}
