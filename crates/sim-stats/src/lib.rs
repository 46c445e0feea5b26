//! Communication-traffic classification.
//!
//! Implements the miss- and update-classification algorithms the paper uses
//! as its core performance metric (Section 3.2):
//!
//! * **Cache misses** are classified as *cold start*, *true sharing*,
//!   *false sharing*, *eviction*, or *drop* misses, following Dubois et
//!   al. \[5\] as extended by Bianchini & Kontothanassis \[2\]. A sixth
//!   category counts *exclusive request* (upgrade) transactions, which are
//!   not misses but do generate traffic.
//! * **Update messages** are classified at the end of their lifetime as
//!   *true sharing*, *false sharing*, *proliferation*, *replacement*,
//!   *termination*, or *drop* updates, following \[2\].
//!
//! Cold-start and true-sharing misses, and true-sharing updates, are
//! *useful* traffic; everything else is useless and could in principle be
//! eliminated.
//!
//! The [`Classifier`] is driven by raw events emitted from the protocol
//! layer (word writes becoming globally visible, copies acquired and lost,
//! updates delivered, CPU references). It holds all cross-node knowledge —
//! per-word last writers, per-copy loss causes, live update records — so the
//! protocol code stays free of bookkeeping.
//!
//! The crate also hosts the machine-independent half of the observability
//! subsystem. `MachineConfig::obs` builds one collector, [`ObsCollector`],
//! that the machine calls once per fact; its finished [`ObsReport`]
//! carries per-processor cycle accounting and phase breakdowns ([`obs`]),
//! periodic gauge samples ([`sampler`]), the critical path and sync
//! episodes ([`crit`]), and network and memory-back-end telemetry —
//! message journeys, physical-link traffic, hot-home profiles
//! ([`netobs`]). Per-cache-line provenance and sharing-pattern
//! classification ([`lineage`]) ride in the classifier, whose registered
//! structures label all of them. Alongside sit Chrome `trace_event` export
//! ([`chrome`]), host-side self-profiling and streaming determinism
//! fingerprints ([`hostobs`]), and the dependency-free JSON value they all
//! serialize through ([`json`]).

pub mod chrome;
pub mod classify;
pub mod crit;
pub mod diffobs;
pub mod hist;
pub mod hostobs;
pub mod json;
pub mod lineage;
pub mod netobs;
pub mod obs;
pub mod report;
pub mod sampler;

pub use chrome::{ChromeTrace, FlowPairer};
pub use classify::{Classifier, HomeUpdates, LossCause};
pub use crit::{
    check_reconciliation, BarrierReport, ChainReport, ChainSegment, CritReport, Episode, Handoff, LockReport,
    WaitKind,
};
pub use diffobs::{
    Attribution, Counter, CritDelta, FingerprintCompare, HostDelta, LineageDelta, LockDelta, NetDelta,
    ReportDelta, RunSide, StageDelta,
};
pub use hist::LatencyHist;
pub use hostobs::{
    DivergenceDetail, FingerprintChain, FingerprintDivergence, FingerprintRecorder, HostCat, HostCatReport,
    HostObsConfig, HostObsReport, HostProfiler, QueueReport, HOST_CATS, QUEUE_SAMPLE_EVERY,
};
pub use json::Json;
pub use lineage::{
    BlockProfile, InvalCause, LineEvent, LineEventKind, Lineage, LineageReport, ProvenanceChain,
    SharingPattern, StructureLineage,
};
pub use netobs::{
    check_net_reconciliation, HomeProfile, JourneyRec, JourneyTotals, NetObsReport, PhysLinkFlits,
    JOURNEY_RECORD_CAP, LINK_SAMPLE_CAP, UNATTRIBUTED,
};
pub use obs::{
    CpuClass, CycleAccount, EndpointPairFlits, NodeGauges, NodeObs, ObsCollector, ObsConfig, ObsReport,
    StateSlice, CPU_CLASSES, SAMPLE_INTERVAL,
};
pub use report::{MissClass, MissStats, StructureTraffic, TrafficReport, UpdateClass, UpdateStats};
pub use sampler::{NodeSample, Sample, SampleRows, TimeSeries};
