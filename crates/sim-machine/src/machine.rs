//! The machine: nodes, network, event loop.

use std::collections::{HashMap, VecDeque};

use sim_engine::{Cycle, EventQueue, FifoServer, NodeId};
use sim_isa::{Instr, Program, SyncOp};
use sim_mem::{Addr, Geometry, SharedAlloc, SharerSet, Word, WriteBuffer};
use sim_net::Network;
use sim_proto::{AtomicOp, Effects, MemService, Msg, MsgKind, ProtoNode};
use sim_stats::{
    Classifier, CpuClass, FingerprintRecorder, HostCat, HostProfiler, NodeGauges, NodeSample, ObsCollector,
    WaitKind, SAMPLE_INTERVAL,
};

use crate::config::MachineConfig;
use crate::cpu::{Cpu, CpuState, PendingAtomicIssue};
use crate::result::RunResult;

/// Events driving the machine.
// `Clone` serves exactly one purpose: non-destructive event-queue capture
// in [`Machine::snapshot`].
#[derive(Debug, Clone)]
enum Ev {
    /// Resume interpreting processor `n`.
    CpuStep(NodeId),
    /// A message finished its network journey and reached its destination.
    Deliver(Msg),
    /// A home-side message finished its memory-module service.
    HomeHandle(Msg),
    /// Try to issue the head of node `n`'s write buffer.
    WbIssue(NodeId),
    /// Take a periodic observability sample (only when `obs` is enabled).
    Sample,
}

/// The observability class a processor state's cycles are charged to.
fn class_of(state: &CpuState) -> CpuClass {
    match state {
        CpuState::Ready => CpuClass::Busy,
        CpuState::StallRead { .. } | CpuState::StallSpinRead => CpuClass::ReadStall,
        // Fence and flush stalls wait for the write pipeline, same as a
        // full buffer.
        CpuState::StallWbFull { .. } | CpuState::StallFence { .. } | CpuState::StallFlush { .. } => {
            CpuClass::WbFullStall
        }
        CpuState::StallAtomic { .. } => CpuClass::AtomicStall,
        CpuState::SpinParked { .. } | CpuState::SpinSleep | CpuState::InBarrier | CpuState::WaitLock(_) => {
            CpuClass::BarrierWait
        }
        CpuState::Halted => CpuClass::Halted,
    }
}

/// Synthetic sync-object ids for the magic (zero-traffic) primitives, kept
/// clear of the small ids kernels put in explicit [`Instr::Sync`] markers so
/// a program mixing both never aliases episodes. Magic lock `l` reports as
/// sync object `MAGIC_SYNC_BASE + l`; the magic barrier as `MAGIC_SYNC_BASE`.
const MAGIC_SYNC_BASE: u32 = 0x100;

/// State of one zero-traffic magic lock.
#[derive(Debug, Default)]
struct MagicLock {
    holder: Option<NodeId>,
    queue: VecDeque<NodeId>,
}

/// A fully assembled simulated multiprocessor.
///
/// Typical use: build with [`Machine::new`], lay out shared data with
/// [`Machine::alloc`] and [`Machine::poke_word`], install per-processor
/// programs with [`Machine::set_program`], then [`Machine::run`].
pub struct Machine {
    cfg: MachineConfig,
    geom: Geometry,
    queue: EventQueue<Ev>,
    net: Network,
    mem_srv: Vec<FifoServer>,
    nodes: Vec<ProtoNode>,
    cpus: Vec<Cpu>,
    wbs: Vec<WriteBuffer>,
    clf: Classifier,
    alloc: SharedAlloc,
    barrier_waiting: Vec<NodeId>,
    magic_locks: HashMap<u32, MagicLock>,
    halted: usize,
    last_halt: Cycle,
    trace: Option<crate::trace::Trace>,
    read_latency: sim_stats::LatencyHist,
    atomic_latency: sim_stats::LatencyHist,
    /// The observability collector (stall accounts, critical path and sync
    /// episodes, network journeys); `Some` only when `cfg.obs.enabled`, so
    /// the default path pays nothing beyond a `None` check per fact.
    obs: Option<ObsCollector>,
    /// Host self-profiler (dispatch-category wall timers, queue-analytics
    /// sampling); `Some` only when `cfg.hostobs.enabled`. Host time never
    /// feeds back into simulated time, so results are unchanged.
    hostprof: Option<Box<HostProfiler>>,
    /// Determinism-fingerprint recorder; `Some` only when
    /// `cfg.hostobs.fingerprint`.
    fp: Option<Box<FingerprintRecorder>>,
    /// Guards against a second `run` call.
    ran: bool,
    /// Set by [`Machine::restore`]: the machine resumes mid-run, so `run`
    /// must not re-create write buffers or schedule the initial events.
    restored: bool,
    /// Events dispatched so far — the global `(cycle, seq)` pop index that
    /// checkpoints and the event recorder are keyed by. Restored from
    /// snapshots so indices line up with the original run.
    popped: u64,
    /// Next `popped` value at (or after) which a checkpoint is due; `u64::MAX`
    /// when checkpointing is off.
    next_checkpoint: u64,
    /// Checkpoints taken so far (collect with [`Machine::take_checkpoints`]).
    checkpoints: Vec<Checkpoint>,
    /// Bounded recorder of decoded popped events within a window; `Some`
    /// only after [`Machine::record_events`].
    recorder: Option<EventRecorder>,
    /// Drained [`Effects`] buffers awaiting reuse. A handler fills one
    /// taken from here and [`Machine::process_effects`] drains it and puts
    /// it back, so their vectors keep their capacity across events. More
    /// than one is out only while effects nest (a flush after a write
    /// retires, an atomic issued once a fence clears).
    fx_pool: Vec<Effects>,
}

/// Bounded window recorder of decoded popped events (see
/// [`Machine::record_events`]).
struct EventRecorder {
    /// Window over the global pop index, `from..to`.
    from: u64,
    to: u64,
    cap: usize,
    dropped: u64,
    events: Vec<RecordedEvent>,
}

/// One decoded event captured by [`Machine::record_events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Global pop index of the event (0-based, counts every dispatch).
    pub index: u64,
    /// Cycle the event committed at.
    pub cycle: Cycle,
    /// Human-readable decoded payload, e.g. `"Deliver Data 3->5 addr=0x1040"`.
    pub label: String,
}

/// One periodic checkpoint: the complete machine state as a sealed snapshot
/// blob (see [`Machine::snapshot`]) plus the pop index and cycle it was
/// taken at.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Events dispatched before the snapshot was taken (the global pop
    /// index the resumed run continues from).
    pub events: u64,
    /// Simulated cycle of the snapshot.
    pub cycle: Cycle,
    /// Sealed snapshot blob; feed to [`Machine::restore`].
    pub blob: Vec<u8>,
}

/// Decoded label for a popped event (the event recorder's payload).
fn ev_label(ev: &Ev) -> String {
    match ev {
        Ev::CpuStep(n) => format!("CpuStep cpu={n}"),
        Ev::Deliver(m) => {
            format!("Deliver {} {}->{} addr=0x{:x}", m.kind.name(), m.src, m.dst, m.addr)
        }
        Ev::HomeHandle(m) => {
            format!("HomeHandle {} {}->{} addr=0x{:x}", m.kind.name(), m.src, m.dst, m.addr)
        }
        Ev::WbIssue(n) => format!("WbIssue cpu={n}"),
        Ev::Sample => "Sample".into(),
    }
}

impl Machine {
    /// Builds a machine; every processor starts with an empty (immediately
    /// halting) program.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_procs` exceeds [`SharerSet::CAPACITY`]: the
    /// directory's sharer bitmap could not tell the extra nodes apart.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(
            cfg.num_procs <= SharerSet::CAPACITY,
            "{} processors exceed the {}-node limit of the directory's sharer bitmap",
            cfg.num_procs,
            SharerSet::CAPACITY
        );
        let geom = Geometry::new(cfg.num_procs);
        let proto_cfg = cfg.proto_config();
        let mut net = Network::new(cfg.num_procs, cfg.net.clone());
        let mut clf = Classifier::new(geom);
        let obs = cfg.obs.enabled.then(|| {
            // Observing also turns on the network's endpoint-pair and
            // per-physical-link flits and per-message journeys, and the
            // classifier's line provenance and per-home update buckets.
            net.enable_observation();
            clf.enable_observation();
            ObsCollector::new(net.shape(), &MsgKind::NAMES)
        });
        Machine {
            geom,
            queue: EventQueue::new(),
            net,
            mem_srv: vec![FifoServer::new(); cfg.num_procs],
            nodes: (0..cfg.num_procs).map(|i| ProtoNode::new(i, geom, proto_cfg.clone())).collect(),
            cpus: (0..cfg.num_procs).map(|i| Cpu::new(Program::default(), cfg.seed, i, 4096)).collect(),
            wbs: vec![],
            clf,
            alloc: SharedAlloc::new(geom),
            barrier_waiting: Vec::new(),
            magic_locks: HashMap::new(),
            halted: 0,
            last_halt: 0,
            trace: None,
            read_latency: sim_stats::LatencyHist::new(),
            atomic_latency: sim_stats::LatencyHist::new(),
            obs,
            hostprof: cfg.hostobs.enabled.then(|| Box::new(HostProfiler::new())),
            fp: cfg
                .hostobs
                .fingerprint
                .then(|| Box::new(FingerprintRecorder::new(cfg.hostobs.fingerprint_epoch))),
            ran: false,
            restored: false,
            popped: 0,
            next_checkpoint: cfg.checkpoint_every.unwrap_or(u64::MAX),
            checkpoints: Vec::new(),
            recorder: None,
            fx_pool: Vec::new(),
            cfg,
        }
    }

    /// Moves processor `n` into `state` at cycle `at`, attributing the
    /// elapsed interval to the outgoing state's class when observability is
    /// on. Every CPU state change during a run goes through here.
    fn set_state(&mut self, n: NodeId, state: CpuState, at: Cycle) {
        if let Some(obs) = self.obs.as_mut() {
            obs.transition(n, class_of(&state), at);
        }
        self.cpus[n].state = state;
    }

    /// Enables message-level tracing into a buffer of `capacity` events
    /// (see [`crate::trace`]). Call before [`Machine::run`]; collect with
    /// [`Machine::take_trace`].
    pub fn enable_trace(&mut self, trace: crate::trace::Trace) {
        self.trace = Some(trace);
    }

    /// Takes the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<crate::trace::Trace> {
        self.trace.take()
    }

    /// The machine's address-space geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The shared-memory allocator (use before [`Machine::run`]).
    pub fn alloc(&mut self) -> &mut SharedAlloc {
        &mut self.alloc
    }

    /// Installs processor `n`'s program.
    pub fn set_program(&mut self, n: NodeId, program: Program) {
        program.validate().expect("invalid program");
        self.cpus[n].program = program;
    }

    /// Registers a named shared-data structure (an address range) for
    /// per-structure traffic attribution in the final report; an observed
    /// run also labels critical-path segments, lineage blocks and journeys
    /// by it. Call before [`Machine::run`]; see
    /// `TrafficReport::by_structure`.
    pub fn register_structure(&mut self, name: &str, addr: Addr, words: u32) {
        self.clf.register_structure(name, addr, words);
    }

    /// Writes `val` directly into `addr`'s home memory (initialization).
    pub fn poke_word(&mut self, addr: Addr, val: Word) {
        let home = self.geom.home_of(addr);
        let geom = self.geom;
        self.nodes[home].mem.write_word(&geom, addr, val);
    }

    /// Coherently reads the current value of `addr` (dirty copy in any
    /// cache, else home memory). For post-run assertions — the run may end
    /// with completion messages still in flight, so this scans caches for a
    /// `Modified`/`PrivateUpd` copy rather than trusting the directory.
    pub fn read_word(&mut self, addr: Addr) -> Word {
        let home = self.geom.home_of(addr);
        let block = self.geom.block_of(addr);
        let geom = self.geom;
        for node in &self.nodes {
            if matches!(
                node.cache.state_of(block),
                Some(sim_mem::LineState::Modified | sim_mem::LineState::PrivateUpd)
            ) {
                if let Some(v) = node.cache.read_word(&geom, addr) {
                    return v;
                }
            }
        }
        self.nodes[home].mem.read_word(&geom, addr)
    }

    /// Runs the machine until every processor halts; returns measurements.
    /// A machine runs once; the final memory image stays inspectable via
    /// [`Machine::read_word`].
    ///
    /// # Panics
    ///
    /// Panics on deadlock (no events pending while processors are stalled),
    /// when the clock exceeds [`MachineConfig::max_cycles`], or on a second
    /// `run` call.
    pub fn run(&mut self) -> RunResult {
        self.run_bounded(None)
    }

    /// Runs the machine like [`Machine::run`] but stops as soon as the
    /// clock passes `limit`, sealing a window-scoped result. Intended for
    /// zoom-in replay from a restored checkpoint: the window's measurements
    /// (cycle accounting, samples, lineage, network telemetry) cover only
    /// the executed range. If every processor halts before `limit`, this is
    /// exactly `run`.
    pub fn run_to_cycle(&mut self, limit: Cycle) -> RunResult {
        self.run_bounded(Some(limit))
    }

    fn run_bounded(&mut self, limit: Option<Cycle>) -> RunResult {
        assert!(!self.ran, "Machine::run called twice");
        self.ran = true;
        let run_start = self.hostprof.as_ref().map(|_| std::time::Instant::now());
        if !self.restored {
            self.wbs = (0..self.cfg.num_procs).map(|_| WriteBuffer::new(self.cfg.wb_entries)).collect();
            for n in 0..self.cfg.num_procs {
                self.queue.schedule(0, Ev::CpuStep(n));
            }
        }
        if self.obs.is_some() {
            // Relative to `now` so restored runs sample on the same cadence;
            // for a fresh machine `now` is 0 and this is the original timing.
            self.queue.schedule(self.queue.now() + SAMPLE_INTERVAL, Ev::Sample);
        }
        let mut reached_limit = false;
        while self.halted < self.cfg.num_procs {
            let Some((now, ev)) = self.pop_timed() else {
                panic!(
                    "deadlock at cycle {}: {} of {} processors halted; states: {:?}",
                    self.queue.now(),
                    self.halted,
                    self.cfg.num_procs,
                    self.cpus.iter().map(|c| (c.pc, format!("{:?}", c.state))).collect::<Vec<_>>()
                );
            };
            if limit.is_some_and(|l| now > l) {
                reached_limit = true;
                break;
            }
            assert!(
                now <= self.cfg.max_cycles,
                "exceeded max_cycles ({}): possible livelock",
                self.cfg.max_cycles
            );
            self.dispatch(now, ev);
            if self.popped >= self.next_checkpoint
                && self.popped % self.cfg.hostobs.fingerprint_epoch.max(1) == 0
                && self.halted < self.cfg.num_procs
            {
                self.take_checkpoint(now);
            }
        }
        if !reached_limit {
            // Drain in-flight protocol traffic so memory, directories, and
            // the update classification settle (execution time is already
            // fixed at the last halt; these events cost no measured cycles).
            while let Some((now, ev)) = self.pop_timed() {
                if !matches!(ev, Ev::CpuStep(_)) {
                    self.dispatch(now, ev);
                }
            }
        }
        // Measurements run to the last halt, or to the window end when a
        // cycle limit cut the run short.
        let end = if reached_limit { limit.expect("limit set") } else { self.last_halt };
        let instructions = self.cpus.iter().map(|c| c.instructions).sum();
        let traffic = self.clf.finish().clone();
        let per_node = (0..self.cfg.num_procs)
            .map(|n| crate::result::NodeStats {
                instructions: self.cpus[n].instructions,
                mem_busy: self.mem_srv[n].busy_cycles(),
                tx_busy: self.net.tx_busy(n),
                rx_busy: self.net.rx_busy(n),
            })
            .collect();
        let obs = self.obs.take().map(|collector| {
            let gauges = (0..self.cfg.num_procs)
                .map(|n| NodeGauges {
                    mem_queue_wait: self.mem_srv[n].wait_cycles(),
                    mem_busy: self.mem_srv[n].busy_cycles(),
                    tx_busy: self.net.tx_busy(n),
                    rx_busy: self.net.rx_busy(n),
                    wb_high_water: self.wbs[n].high_water(),
                })
                .collect();
            collector.finish(end, gauges, &self.net, &mut self.clf)
        });
        let host = self.hostprof.take().map(|hp| {
            let wall = run_start.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
            Box::new(hp.finish(end, wall, self.queue.stats()))
        });
        let fingerprint = self.fp.take().map(|fp| fp.finish(self.state_digest(&traffic)));
        RunResult {
            cycles: end,
            traffic,
            net: self.net.counters().clone(),
            instructions,
            per_node,
            read_latency: std::mem::take(&mut self.read_latency),
            atomic_latency: std::mem::take(&mut self.atomic_latency),
            obs,
            host,
            fingerprint,
            trace_dropped: self.trace.as_ref().map(|t| t.dropped()).unwrap_or(0),
        }
    }

    /// Pops the next event, charging the pop to [`HostCat::Pop`] and
    /// sampling queue analytics when the profiler is on. The default path
    /// is a single `None` check around the plain pop.
    fn pop_timed(&mut self) -> Option<(Cycle, Ev)> {
        if self.hostprof.is_none() {
            return self.queue.pop();
        }
        let t0 = std::time::Instant::now();
        let popped = self.queue.pop();
        let nanos = t0.elapsed().as_nanos() as u64;
        let hp = self.hostprof.as_mut().expect("checked above");
        hp.add(HostCat::Pop, nanos);
        if popped.is_some() && hp.note_pop() {
            // Read only when due: counting occupied slots scans the whole
            // wheel bitmap, which grows to 256 words.
            hp.sample_queue(self.queue.len(), self.queue.occupied_slots(), self.queue.far_len());
        }
        popped
    }

    /// Fingerprints `ev` and dispatches it to [`Machine::handle_event`],
    /// charging the handler's wall time to its dispatch category (minus
    /// nested slices already charged elsewhere, e.g. network routing).
    fn dispatch(&mut self, now: Cycle, ev: Ev) {
        let index = self.popped;
        self.popped += 1;
        if let Some(rec) = self.recorder.as_mut() {
            if index >= rec.from && index < rec.to {
                if rec.events.len() < rec.cap {
                    rec.events.push(RecordedEvent { index, cycle: now, label: ev_label(&ev) });
                } else {
                    rec.dropped += 1;
                }
            }
        }
        if let Some(fp) = self.fp.as_mut() {
            // Pop order is (cycle, seq) order, so feeding the recorder here
            // covers the sequence number implicitly.
            let (kind, a, b) = match &ev {
                Ev::CpuStep(n) => ("cpu", *n as u64, 0),
                Ev::Deliver(m) => (m.kind.name(), ((m.src as u64) << 32) | m.dst as u64, u64::from(m.addr)),
                Ev::HomeHandle(m) => ("home", ((m.src as u64) << 32) | m.dst as u64, u64::from(m.addr)),
                Ev::WbIssue(n) => ("wb", *n as u64, 0),
                Ev::Sample => ("sample", 0, 0),
            };
            fp.record(now, kind, a, b);
        }
        if self.hostprof.is_none() {
            self.handle_event(now, ev);
            return;
        }
        let cat = match &ev {
            Ev::CpuStep(_) => HostCat::CpuStep,
            Ev::Deliver(_) => HostCat::Deliver,
            Ev::HomeHandle(_) => HostCat::HomeHandle,
            Ev::WbIssue(_) => HostCat::WbIssue,
            Ev::Sample => HostCat::Sample,
        };
        let t0 = std::time::Instant::now();
        self.handle_event(now, ev);
        let total = t0.elapsed().as_nanos() as u64;
        let hp = self.hostprof.as_mut().expect("checked above");
        let inner = hp.take_inner();
        hp.add(cat, total.saturating_sub(inner));
    }

    /// Takes a checkpoint: seals the complete machine state into a blob and
    /// stores it with its pop index and cycle. Called on epoch-aligned
    /// event counts from the main loop when `cfg.checkpoint_every` is set.
    fn take_checkpoint(&mut self, now: Cycle) {
        let blob = self.snapshot();
        self.checkpoints.push(Checkpoint { events: self.popped, cycle: now, blob });
        self.next_checkpoint = self.popped + self.cfg.checkpoint_every.expect("checkpointing enabled");
    }

    /// Takes the checkpoints accumulated so far (typically after `run`).
    pub fn take_checkpoints(&mut self) -> Vec<Checkpoint> {
        std::mem::take(&mut self.checkpoints)
    }

    /// Events dispatched so far — the global pop index. After a restore this
    /// continues from the checkpoint's `events`, so indices from different
    /// runs of the same program line up.
    pub fn events_dispatched(&self) -> u64 {
        self.popped
    }

    /// Arms the bounded event recorder: decoded labels of every popped
    /// event with global pop index in `from..to` are captured, up to `cap`
    /// entries (the rest are counted as dropped). Call before `run`;
    /// collect with [`Machine::take_recorded`].
    pub fn record_events(&mut self, from: u64, to: u64, cap: usize) {
        self.recorder = Some(EventRecorder { from, to, cap, dropped: 0, events: Vec::new() });
    }

    /// Takes the recorded window, returning the captured events and how
    /// many in-window events were dropped once `cap` was reached.
    pub fn take_recorded(&mut self) -> (Vec<RecordedEvent>, u64) {
        match self.recorder.take() {
            Some(rec) => (rec.events, rec.dropped),
            None => (Vec::new(), 0),
        }
    }

    /// Digest of the final machine state for the determinism fingerprint:
    /// per-processor architectural state plus the network counters and the
    /// full traffic classification. Deliberately avoids anything iterated
    /// from a `HashMap` (e.g. cache residency scans), whose order is not
    /// stable across runs.
    fn state_digest(&self, traffic: &sim_stats::TrafficReport) -> (u64, u64) {
        let mut h = sim_engine::StableHasher::new();
        h.write_u64(self.last_halt);
        for cpu in &self.cpus {
            h.write_u64(cpu.pc as u64);
            h.write_u64(cpu.instructions);
            for &r in &cpu.regs {
                h.write_u64(u64::from(r));
            }
        }
        let c = self.net.counters();
        h.write_u64(c.messages);
        h.write_u64(c.local_messages);
        h.write_u64(c.flits);
        h.write_u64(c.total_hops);
        h.write_str(&format!("{traffic:?}"));
        h.finish128()
    }

    fn handle_event(&mut self, now: Cycle, ev: Ev) {
        match ev {
            Ev::CpuStep(n) => match self.cpus[n].state {
                CpuState::Ready => self.run_cpu(n, now),
                CpuState::SpinSleep => {
                    self.set_state(n, CpuState::Ready, now);
                    self.run_cpu(n, now);
                }
                // A stale wake (the CPU moved on for another reason).
                _ => {}
            },
            Ev::Deliver(msg) => match msg.mem_service() {
                MemService::None => {
                    self.trace_handle(&msg, now);
                    let dst = msg.dst;
                    let mut fx = self.take_fx();
                    self.nodes[dst].handle_msg(msg, &mut self.clf, now, &mut fx);
                    self.process_effects(dst, fx, now);
                }
                svc => {
                    let cycles = self.service_cycles(svc);
                    let done = self.mem_srv[msg.dst].occupy(now, cycles);
                    if let Some(obs) = self.obs.as_mut() {
                        obs.home_service(
                            msg.dst,
                            matches!(svc, MemService::Block),
                            cycles,
                            done - cycles - now,
                        );
                    }
                    self.queue.schedule(done, Ev::HomeHandle(msg));
                }
            },
            Ev::HomeHandle(msg) => {
                self.trace_handle(&msg, now);
                let dst = msg.dst;
                let mut fx = self.take_fx();
                self.nodes[dst].handle_msg(msg, &mut self.clf, now, &mut fx);
                self.process_effects(dst, fx, now);
            }
            Ev::WbIssue(n) => self.try_issue_wb(n, now),
            Ev::Sample => self.take_sample(now),
        }
    }

    /// Records one periodic observability sample and schedules the next.
    fn take_sample(&mut self, now: Cycle) {
        // Stop sampling once the run is over (the post-halt drain still
        // pops queued events) — samples describe execution time only.
        if self.halted >= self.cfg.num_procs {
            return;
        }
        let Some(obs) = self.obs.as_mut() else { return };
        let (wbs, mem_srv, net) = (&self.wbs, &self.mem_srv, &self.net);
        let c = net.counters();
        let sent = c.messages + c.local_messages;
        obs.record_sample(now, sent, c.flits, net.phys_flits_raw(), |n, class, phase| NodeSample {
            class,
            phase,
            wb_len: wbs[n].len(),
            mem_busy: mem_srv[n].busy_cycles(),
            tx_busy: net.tx_busy(n),
            rx_busy: net.rx_busy(n),
        });
        // Reschedule only while other events are pending: an empty queue
        // with stalled processors must still trip the deadlock panic in
        // `run`, and sampling alone cannot keep a dead machine "alive".
        if !self.queue.is_empty() {
            self.queue.schedule(now + SAMPLE_INTERVAL, Ev::Sample);
        }
    }

    /// Counts message `m`, sent at `now` and delivered at `at`, with the
    /// journey the network recorded for it. Out of line, so that the send
    /// loop stays small when nothing observes.
    #[inline(never)]
    fn observe_send(&mut self, m: &Msg, now: Cycle, at: Cycle) {
        let Some(obs) = self.obs.as_mut() else { return };
        let journey = self.net.take_last_journey();
        let filed = journey.as_ref().map(|j| (j, self.geom.home_of(m.addr), self.clf.structure_of(m.addr)));
        obs.message_sent(m.kind.index(), at - now, filed);
    }

    /// Hands node `n`'s sync-episode fact `op` on sync object `id` at `at`
    /// to the collector: an [`Instr::Sync`] marker, or a magic primitive's
    /// synthetic one.
    fn observe_sync(&mut self, n: NodeId, op: SyncOp, id: u32, at: Cycle) {
        let Some(obs) = self.obs.as_mut() else { return };
        match op {
            SyncOp::AcquireAttempt => obs.lock_attempt(n, id, at),
            SyncOp::Acquired => obs.lock_acquired(n, id, at),
            SyncOp::Released => obs.lock_released(n, id, at),
            SyncOp::BarrierArrive => obs.barrier_arrive(n, id, at),
            SyncOp::BarrierDepart => obs.barrier_depart(n, id, at),
        }
    }

    /// Node `n`'s `kind` wait on `addr` ended at `at`: hands the collector
    /// the causal edge from the word's last writer. An atomic's writer was
    /// looked up before the atomic ran, since by completion the atomic's
    /// own write is the last.
    fn observe_wait_end(&mut self, n: NodeId, addr: Addr, kind: WaitKind, at: Cycle) {
        let atomic_writer = self.cpus[n].stall_writer.take();
        let Some(obs) = self.obs.as_mut() else { return };
        let writer = match kind {
            WaitKind::AtomicFill => atomic_writer,
            WaitKind::SpinFill | WaitKind::ReadFill => self.clf.last_writer_of(addr),
        };
        if let Some((w, wt)) = writer {
            obs.wait_ended(n, w, wt, self.clf.structure_of(addr), kind, at);
        }
    }

    fn trace_handle(&mut self, msg: &Msg, now: Cycle) {
        if let Some(t) = &mut self.trace {
            t.push(crate::trace::TraceEvent::Handle {
                at: now,
                src: msg.src,
                dst: msg.dst,
                kind: msg.kind.name(),
                addr: msg.addr,
            });
        }
    }

    fn service_cycles(&self, svc: MemService) -> Cycle {
        match svc {
            MemService::None => 0,
            MemService::Word => self.cfg.mem.word_service(),
            MemService::Block => self.cfg.mem.block_service(self.geom.words_per_block()),
        }
    }

    // ------------------------------------------------------------------
    // Processor interpretation
    // ------------------------------------------------------------------

    fn run_cpu(&mut self, n: NodeId, now: Cycle) {
        let mut t = now;
        // Guard against pure-ALU infinite loops starving the event queue.
        let mut budget: u32 = 1_000_000;
        loop {
            debug_assert!(matches!(self.cpus[n].state, CpuState::Ready));
            budget -= 1;
            if budget == 0 {
                self.queue.schedule(t, Ev::CpuStep(n));
                return;
            }
            let pc = self.cpus[n].pc;
            let instr = self.cpus[n].program.code.get(pc).cloned().unwrap_or(Instr::Halt);
            // Instructions that interact with shared state must observe it
            // at their own cycle, not the batch's start: re-enter then.
            let time_sensitive = matches!(
                instr,
                Instr::Load(..)
                    | Instr::Store(..)
                    | Instr::FetchAdd(..)
                    | Instr::FetchStore(..)
                    | Instr::Cas(..)
                    | Instr::Flush(..)
                    | Instr::Fence
                    | Instr::SpinWhileEq(..)
                    | Instr::SpinWhileNe(..)
                    | Instr::MagicBarrier
                    | Instr::MagicAcquire(..)
                    | Instr::MagicRelease(..)
            );
            if time_sensitive && t > now {
                self.queue.schedule(t, Ev::CpuStep(n));
                return;
            }
            // Phase markers cost zero cycles and retire no instruction, so
            // annotated programs time and count identically to unannotated
            // ones; they only move the observability phase cursor.
            if let Instr::Phase(p) = instr {
                if let Some(obs) = self.obs.as_mut() {
                    obs.set_phase(n, p, t);
                }
                self.clf.set_phase(n, p);
                self.cpus[n].pc += 1;
                continue;
            }
            // Sync-episode markers are zero-cost like phase markers: they
            // retire no instruction and consume no cycle, so annotated
            // kernels time identically to unannotated ones. They feed the
            // collector's lock/barrier episode analytics.
            if let Instr::Sync(op, id) = instr {
                self.observe_sync(n, op, id, t);
                self.cpus[n].pc += 1;
                continue;
            }
            self.cpus[n].instructions += 1;
            match instr {
                Instr::Imm(rd, v) => {
                    self.cpus[n].regs[rd] = v;
                    self.cpus[n].pc += 1;
                    t += 1;
                }
                Instr::Mov(rd, rs) => {
                    self.cpus[n].regs[rd] = self.cpus[n].regs[rs];
                    self.cpus[n].pc += 1;
                    t += 1;
                }
                Instr::Alu(op, rd, ra, rb) => {
                    let c = &mut self.cpus[n];
                    c.regs[rd] = op.apply(c.regs[ra], c.regs[rb]);
                    c.pc += 1;
                    t += 1;
                }
                Instr::AluI(op, rd, ra, imm) => {
                    let c = &mut self.cpus[n];
                    c.regs[rd] = op.apply(c.regs[ra], imm);
                    c.pc += 1;
                    t += 1;
                }
                Instr::LoadPriv(rd, ra, off) => {
                    let c = &mut self.cpus[n];
                    let idx = c.regs[ra].wrapping_add(off) as usize;
                    c.regs[rd] = c.private[idx];
                    c.pc += 1;
                    t += 1;
                }
                Instr::StorePriv(ra, off, rs) => {
                    let c = &mut self.cpus[n];
                    let idx = c.regs[ra].wrapping_add(off) as usize;
                    c.private[idx] = c.regs[rs];
                    c.pc += 1;
                    t += 1;
                }
                Instr::Jmp(x) => {
                    self.cpus[n].pc = x;
                    t += 1;
                }
                Instr::Bez(rs, x) => {
                    let c = &mut self.cpus[n];
                    c.pc = if c.regs[rs] == 0 { x } else { c.pc + 1 };
                    t += 1;
                }
                Instr::Bnz(rs, x) => {
                    let c = &mut self.cpus[n];
                    c.pc = if c.regs[rs] != 0 { x } else { c.pc + 1 };
                    t += 1;
                }
                Instr::Delay(cycles) => {
                    self.cpus[n].pc += 1;
                    self.queue.schedule(t + (cycles as Cycle).max(1), Ev::CpuStep(n));
                    return;
                }
                Instr::DelayReg(r) => {
                    let cycles = self.cpus[n].regs[r] as Cycle;
                    self.cpus[n].pc += 1;
                    self.queue.schedule(t + cycles.max(1), Ev::CpuStep(n));
                    return;
                }
                Instr::RandDelay(bound) => {
                    let d = if bound == 0 { 0 } else { self.cpus[n].rng.next_below(bound as u64) };
                    self.cpus[n].pc += 1;
                    self.queue.schedule(t + 1 + d, Ev::CpuStep(n));
                    return;
                }
                Instr::Load(rd, ra, off) => {
                    let addr = self.cpus[n].regs[ra].wrapping_add(off);
                    self.clf.count_read();
                    self.clf.word_referenced(n, addr);
                    if let Some(v) = self.wbs[n].forward(addr) {
                        self.cpus[n].regs[rd] = v;
                        self.cpus[n].pc += 1;
                        t += 1;
                        continue;
                    }
                    let mut fx = self.take_fx();
                    self.nodes[n].cpu_read(addr, &mut self.clf, t, &mut fx);
                    if let Some(v) = fx.read_done.take() {
                        self.put_fx(fx);
                        self.cpus[n].regs[rd] = v;
                        self.cpus[n].pc += 1;
                        t += 1;
                        continue;
                    }
                    self.set_state(n, CpuState::StallRead { rd }, t);
                    self.cpus[n].stall_since = t;
                    self.cpus[n].stall_addr = addr;
                    self.process_effects(n, fx, t);
                    return;
                }
                Instr::Store(ra, off, rs) => {
                    let addr = self.cpus[n].regs[ra].wrapping_add(off);
                    let val = self.cpus[n].regs[rs];
                    self.clf.count_write();
                    self.clf.word_write_referenced(n, addr);
                    if self.wbs[n].is_full() {
                        self.set_state(n, CpuState::StallWbFull { addr, val }, t);
                        if let Some(obs) = self.obs.as_mut() {
                            obs.wb_full_stall(n);
                        }
                        return;
                    }
                    self.wbs[n].push(sim_mem::PendingWrite { addr, val });
                    self.queue.schedule(t + 1, Ev::WbIssue(n));
                    self.cpus[n].pc += 1;
                    t += 1;
                }
                Instr::FetchAdd(rd, ra, rb) => {
                    let (addr, operand) = (self.cpus[n].regs[ra], self.cpus[n].regs[rb]);
                    self.start_atomic(
                        n,
                        PendingAtomicIssue { rd, addr, op: AtomicOp::FetchAdd, operand, operand2: 0 },
                        t,
                    );
                    return;
                }
                Instr::FetchStore(rd, ra, rb) => {
                    let (addr, operand) = (self.cpus[n].regs[ra], self.cpus[n].regs[rb]);
                    self.start_atomic(
                        n,
                        PendingAtomicIssue { rd, addr, op: AtomicOp::FetchStore, operand, operand2: 0 },
                        t,
                    );
                    return;
                }
                Instr::Cas(rd, ra, rb, rc) => {
                    let (addr, operand, operand2) =
                        (self.cpus[n].regs[ra], self.cpus[n].regs[rb], self.cpus[n].regs[rc]);
                    self.start_atomic(
                        n,
                        PendingAtomicIssue { rd, addr, op: AtomicOp::CompareAndSwap, operand, operand2 },
                        t,
                    );
                    return;
                }
                Instr::Flush(ra) => {
                    let addr = self.cpus[n].regs[ra];
                    let block = self.geom.block_of(addr);
                    if self.wbs[n].has_write_in_block(block.0, self.geom.block_bytes) {
                        // The flush is ordered after this processor's own
                        // queued stores to the block.
                        self.set_state(n, CpuState::StallFlush { addr }, t);
                        return;
                    }
                    let mut fx = self.take_fx();
                    self.nodes[n].cpu_flush(addr, &mut self.clf, t, &mut fx);
                    self.cpus[n].pc += 1;
                    self.process_effects(n, fx, t);
                    t += 1;
                }
                Instr::Fence => {
                    if self.wbs[n].is_empty() && self.nodes[n].sync_complete() {
                        self.cpus[n].pc += 1;
                        t += 1;
                        continue;
                    }
                    self.set_state(n, CpuState::StallFence { atomic: None }, t);
                    return;
                }
                Instr::SpinWhileEq(ra, rb) | Instr::SpinWhileNe(ra, rb) => {
                    let spin_while_ne = matches!(instr, Instr::SpinWhileNe(..));
                    let addr = self.cpus[n].regs[ra];
                    let cmp = self.cpus[n].regs[rb];
                    if !self.spin_check(n, addr, cmp, spin_while_ne, &mut t) {
                        return;
                    }
                }
                Instr::MagicBarrier => {
                    self.observe_sync(n, SyncOp::BarrierArrive, MAGIC_SYNC_BASE, t);
                    self.cpus[n].pc += 1;
                    self.set_state(n, CpuState::InBarrier, t);
                    self.barrier_waiting.push(n);
                    self.release_barrier_if_full(t);
                    return;
                }
                Instr::MagicAcquire(l) => {
                    self.observe_sync(n, SyncOp::AcquireAttempt, MAGIC_SYNC_BASE + l, t);
                    let lock = self.magic_locks.entry(l).or_default();
                    if lock.holder.is_none() {
                        lock.holder = Some(n);
                        self.cpus[n].pc += 1;
                        t += self.cfg.magic_lock_cycles;
                        self.observe_sync(n, SyncOp::Acquired, MAGIC_SYNC_BASE + l, t);
                    } else {
                        lock.queue.push_back(n);
                        self.set_state(n, CpuState::WaitLock(l), t);
                        return;
                    }
                }
                Instr::MagicRelease(l) => {
                    let cost = self.cfg.magic_lock_cycles;
                    let lock = self.magic_locks.entry(l).or_default();
                    assert_eq!(lock.holder, Some(n), "magic release of a lock not held");
                    let next = lock.queue.pop_front();
                    lock.holder = next;
                    self.observe_sync(n, SyncOp::Released, MAGIC_SYNC_BASE + l, t);
                    if let Some(next) = next {
                        // The waiter parked on its acquire instruction; hand
                        // it the lock and move it past the acquire.
                        self.cpus[next].pc += 1;
                        self.wake_cpu(next, t + cost);
                        self.observe_sync(next, SyncOp::Acquired, MAGIC_SYNC_BASE + l, t + cost);
                    }
                    self.cpus[n].pc += 1;
                    t += cost;
                }
                Instr::Phase(_) | Instr::Sync(..) => {
                    unreachable!("handled before instruction retirement")
                }
                Instr::Halt => {
                    self.set_state(n, CpuState::Halted, t);
                    self.halted += 1;
                    self.last_halt = self.last_halt.max(t);
                    if let Some(tr) = &mut self.trace {
                        tr.push(crate::trace::TraceEvent::Halt { at: t, node: n });
                    }
                    // A halting processor may complete a pending barrier
                    // among the remaining ones.
                    self.release_barrier_if_full(t);
                    return;
                }
            }
        }
    }

    /// Executes one busy-wait check at time `*t`. Returns `true` when the
    /// spin exits and interpretation may continue, `false` when the
    /// processor stalled or went to sleep (caller returns).
    fn spin_check(&mut self, n: NodeId, addr: Addr, cmp: Word, spin_while_ne: bool, t: &mut Cycle) -> bool {
        self.clf.count_read();
        self.clf.word_referenced(n, addr);
        let (val, from_wb) = match self.wbs[n].forward(addr) {
            Some(v) => (v, true),
            None => {
                let mut fx = self.take_fx();
                self.nodes[n].cpu_read(addr, &mut self.clf, *t, &mut fx);
                match fx.read_done.take() {
                    Some(v) => {
                        self.put_fx(fx);
                        (v, false)
                    }
                    None => {
                        // Check missed: fetch the line, then re-execute.
                        self.set_state(n, CpuState::StallSpinRead, *t);
                        self.cpus[n].stall_since = *t;
                        self.cpus[n].stall_addr = addr;
                        self.cpus[n].spin_waited = true;
                        self.process_effects(n, fx, *t);
                        return false;
                    }
                }
            }
        };
        let exit = if spin_while_ne { val == cmp } else { val != cmp };
        let period = self.cfg.spin_check_period;
        if exit {
            // A spin that actually waited exits causally after the remote
            // write that changed the watched word: hand the collector a
            // spin-fill edge from that writer.
            if self.cpus[n].spin_waited && !from_wb {
                self.observe_wait_end(n, addr, WaitKind::SpinFill, *t);
            }
            self.cpus[n].spin_waited = false;
            self.cpus[n].pc += 1;
            *t += period; // the successful check still costs one iteration
            return true;
        }
        self.cpus[n].spin_waited = true;
        if from_wb || !self.cfg.spin_parking {
            // Re-check on the period grid without parking.
            self.set_state(n, CpuState::SpinSleep, *t);
            self.queue.schedule(*t + period, Ev::CpuStep(n));
        } else {
            self.set_state(n, CpuState::SpinParked { addr, cmp, spin_while_ne, start: *t }, *t);
        }
        false
    }

    fn start_atomic(&mut self, n: NodeId, pai: PendingAtomicIssue, t: Cycle) {
        self.clf.count_atomic();
        self.clf.word_referenced(n, pai.addr);
        // Atomic instructions force write-buffer flushes (Section 3.1), and
        // under release consistency the flush also settles outstanding acks.
        if self.wbs[n].is_empty() && self.nodes[n].sync_complete() {
            self.issue_atomic(n, pai, t);
        } else {
            self.set_state(n, CpuState::StallFence { atomic: Some(pai) }, t);
        }
    }

    fn issue_atomic(&mut self, n: NodeId, pai: PendingAtomicIssue, now: Cycle) {
        // Captured before the operation: once it completes, this processor
        // itself is the last writer and the causal predecessor is gone.
        let writer_before = if self.obs.is_some() { self.clf.last_writer_of(pai.addr) } else { None };
        let mut fx = self.take_fx();
        self.nodes[n].cpu_atomic(pai.op, pai.addr, pai.operand, pai.operand2, &mut self.clf, now, &mut fx);
        // Consume atomic_done before generic processing.
        if let Some(old) = fx.atomic_done.take() {
            self.cpus[n].regs[pai.rd] = old;
            self.cpus[n].pc += 1;
            self.set_state(n, CpuState::Ready, now);
            self.queue.schedule(now + 1, Ev::CpuStep(n));
            self.process_effects(n, fx, now);
        } else {
            self.set_state(n, CpuState::StallAtomic { rd: pai.rd }, now);
            self.cpus[n].stall_since = now;
            self.cpus[n].stall_addr = pai.addr;
            self.cpus[n].stall_writer = writer_before;
            self.process_effects(n, fx, now);
        }
    }

    fn release_barrier_if_full(&mut self, now: Cycle) {
        let alive = self.cfg.num_procs - self.halted;
        if alive > 0 && self.barrier_waiting.len() == alive {
            let cost = self.cfg.magic_barrier_cycles;
            // Taken and handed back so the list keeps its capacity.
            let mut waiting = std::mem::take(&mut self.barrier_waiting);
            for &w in &waiting {
                self.wake_cpu(w, now + cost);
                self.observe_sync(w, SyncOp::BarrierDepart, MAGIC_SYNC_BASE, now + cost);
            }
            waiting.clear();
            self.barrier_waiting = waiting;
        }
    }

    fn wake_cpu(&mut self, n: NodeId, at: Cycle) {
        // The transition is charged at the wake time `at`, so the cycles up
        // to the wake stay attributed to the stalled class.
        self.set_state(n, CpuState::Ready, at);
        self.queue.schedule(at, Ev::CpuStep(n));
    }

    // ------------------------------------------------------------------
    // Effect processing
    // ------------------------------------------------------------------

    /// An empty effects buffer for the next handler call: a pooled one, or
    /// a fresh (unallocated) one while every pooled buffer is in use.
    fn take_fx(&mut self) -> Effects {
        self.fx_pool.pop().unwrap_or_default()
    }

    /// Returns a drained buffer to the pool.
    fn put_fx(&mut self, fx: Effects) {
        debug_assert!(fx.is_empty(), "an effects buffer went back to the pool undrained: {fx:?}");
        self.fx_pool.push(fx);
    }

    /// Applies node `x`'s handler effects in field order, draining `fx`,
    /// and returns the buffer to the pool.
    fn process_effects(&mut self, x: NodeId, mut fx: Effects, now: Cycle) {
        for m in fx.sends.drain(..) {
            if let Some(t) = &mut self.trace {
                t.push(crate::trace::TraceEvent::Send {
                    at: now,
                    src: m.src,
                    dst: m.dst,
                    kind: m.kind.name(),
                    addr: m.addr,
                });
            }
            let at = if let Some(hp) = self.hostprof.as_deref_mut() {
                // Nested slice: charged to NetRoute and subtracted from the
                // enclosing handler's category in `dispatch`.
                let t0 = std::time::Instant::now();
                let at = self.net.send(now, m.src, m.dst, m.payload_bytes());
                hp.add_inner(HostCat::NetRoute, t0.elapsed().as_nanos() as u64);
                at
            } else {
                self.net.send(now, m.src, m.dst, m.payload_bytes())
            };
            if self.obs.is_some() {
                self.observe_send(&m, now, at);
            }
            self.queue.schedule(at, Ev::Deliver(m));
        }
        for m in fx.requeue_home.drain(..) {
            // Deferred directory requests were charged their full memory
            // service on first arrival; re-dispatch after the blocking
            // transaction completes is a controller action, not a new DRAM
            // access (re-charging would make a queue of n deferred
            // requests cost O(n^2) memory occupancy).
            self.queue.schedule(now + 1, Ev::HomeHandle(m));
        }
        if let Some(v) = fx.read_done.take() {
            match self.cpus[x].state {
                CpuState::StallRead { rd } => {
                    self.read_latency.record(now.saturating_sub(self.cpus[x].stall_since));
                    self.cpus[x].regs[rd] = v;
                    self.cpus[x].pc += 1;
                    self.wake_cpu(x, now + 1);
                    // The filled value is causally after its last writer;
                    // record the read-fill edge for the critical path.
                    self.observe_wait_end(x, self.cpus[x].stall_addr, WaitKind::ReadFill, now + 1);
                }
                CpuState::StallSpinRead => {
                    // Re-execute the spin instruction; the line is now
                    // cached, so the re-check hits.
                    self.read_latency.record(now.saturating_sub(self.cpus[x].stall_since));
                    self.wake_cpu(x, now + 1);
                }
                ref other => panic!("read completion in state {other:?}"),
            }
        }
        let write_retired = std::mem::take(&mut fx.write_retired);
        if write_retired {
            self.wbs[x].pop_head();
            self.queue.schedule(now + 1, Ev::WbIssue(x));
            match self.cpus[x].state {
                CpuState::StallWbFull { addr, val } => {
                    self.clf.word_write_referenced(x, addr);
                    self.wbs[x].push(sim_mem::PendingWrite { addr, val });
                    self.cpus[x].pc += 1;
                    self.wake_cpu(x, now + 1);
                }
                CpuState::StallFlush { addr } => {
                    let block = self.geom.block_of(addr);
                    if !self.wbs[x].has_write_in_block(block.0, self.geom.block_bytes) {
                        let mut fx2 = self.take_fx();
                        self.nodes[x].cpu_flush(addr, &mut self.clf, now, &mut fx2);
                        self.cpus[x].pc += 1;
                        self.wake_cpu(x, now + 1);
                        self.process_effects(x, fx2, now);
                    }
                }
                _ => {}
            }
        }
        if let Some(old) = fx.atomic_done.take() {
            match self.cpus[x].state {
                CpuState::StallAtomic { rd } => {
                    self.atomic_latency.record(now.saturating_sub(self.cpus[x].stall_since));
                    self.cpus[x].regs[rd] = old;
                    self.cpus[x].pc += 1;
                    self.wake_cpu(x, now + 1);
                    self.observe_wait_end(x, self.cpus[x].stall_addr, WaitKind::AtomicFill, now + 1);
                }
                ref other => panic!("atomic completion in state {other:?}"),
            }
        }
        if !fx.touched_blocks.is_empty() {
            if let CpuState::SpinParked { addr, start, .. } = self.cpus[x].state {
                let block = self.geom.block_of(addr);
                if fx.touched_blocks.contains(&block) {
                    // Wake onto the original re-check grid, strictly after
                    // the touching event.
                    let period = self.cfg.spin_check_period;
                    let elapsed = now + 1 - start;
                    let k = elapsed.div_ceil(period).max(1);
                    self.set_state(x, CpuState::SpinSleep, now);
                    self.queue.schedule(start + k * period, Ev::CpuStep(x));
                }
            }
            fx.touched_blocks.clear();
        }
        let sync_progress = std::mem::take(&mut fx.sync_progress);
        self.put_fx(fx);
        if sync_progress || write_retired {
            self.recheck_fence(x, now);
        }
    }

    fn recheck_fence(&mut self, x: NodeId, now: Cycle) {
        if let CpuState::StallFence { atomic } = self.cpus[x].state {
            if self.wbs[x].is_empty() && self.nodes[x].sync_complete() {
                match atomic {
                    None => {
                        self.cpus[x].pc += 1;
                        self.wake_cpu(x, now + 1);
                    }
                    Some(pai) => self.issue_atomic(x, pai, now),
                }
            }
        }
    }

    fn try_issue_wb(&mut self, n: NodeId, now: Cycle) {
        if let Some(w) = self.wbs[n].head_to_issue() {
            self.wbs[n].mark_head_issued();
            let mut fx = self.take_fx();
            self.nodes[n].issue_write(w.addr, w.val, &mut self.clf, now, &mut fx);
            self.process_effects(n, fx, now);
        }
    }

    /// Asserts machine-wide coherence invariants; call after [`Machine::run`]
    /// (when in-flight traffic has drained):
    ///
    /// * at most one cache holds any block dirty (`Modified`/`PrivateUpd`),
    ///   and no clean copy coexists with a dirty one;
    /// * every directory entry is quiescent (not busy, no deferred work)
    ///   and agrees with the caches about owners and sharers.
    pub fn assert_coherent(&self) {
        use sim_mem::LineState;
        let geom = self.geom;
        // Gather every cached copy per block.
        let mut copies: std::collections::HashMap<sim_mem::BlockAddr, Vec<(usize, LineState)>> =
            std::collections::HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            for (block, state) in node.cache.resident_blocks() {
                copies.entry(block).or_default().push((i, state));
            }
        }
        for (block, holders) in &copies {
            let dirty: Vec<_> = holders
                .iter()
                .filter(|(_, s)| matches!(s, LineState::Modified | LineState::PrivateUpd))
                .collect();
            assert!(dirty.len() <= 1, "block {block:?} dirty in {dirty:?}");
            if dirty.len() == 1 {
                assert_eq!(
                    holders.len(),
                    1,
                    "block {block:?} has a dirty copy alongside clean ones: {holders:?}"
                );
            }
        }
        for (h, node) in self.nodes.iter().enumerate() {
            for (block, entry) in node.dir.iter() {
                assert_eq!(geom.home_of(block.0), h, "directory entry on wrong home");
                assert!(!entry.busy, "block {block:?} still busy at home {h}");
                assert!(entry.waiting.is_empty(), "block {block:?} has deferred requests");
                if entry.state == sim_mem::DirState::Owned {
                    let owner_state = self.nodes[entry.owner].cache.state_of(*block);
                    assert!(
                        matches!(owner_state, Some(LineState::Modified) | Some(LineState::PrivateUpd)),
                        "block {block:?}: home {h} says node {} owns it, cache says {owner_state:?}",
                        entry.owner
                    );
                }
            }
        }
    }

    /// A stable digest over every processor's installed program — the
    /// instruction stream as laid out, including the shared-memory
    /// addresses embedded in it by the kernel installers. Together with
    /// the [`MachineConfig`] this pins the simulation's entire input, so
    /// the sweep harness can use it as a memoization-key component: a
    /// change to a kernel's code generation changes the digest and
    /// invalidates exactly that kernel's cached cells.
    pub fn program_digest(&self) -> u64 {
        let mut h = sim_engine::StableHasher::new();
        for cpu in &self.cpus {
            h.write_str(&format!("{:?}", cpu.program.code));
        }
        h.finish128().0
    }
}

// The snapshot/restore half of the machine lives in a sibling file to keep
// this one readable; it is a child module so it can reach private fields.
#[path = "machine_snapshot.rs"]
mod machine_snapshot;
pub use machine_snapshot::SNAPSHOT_VERSION;

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{AluOp, ProgramBuilder};
    use sim_proto::Protocol;

    fn machine(procs: usize, protocol: Protocol) -> Machine {
        Machine::new(MachineConfig::paper(procs, protocol))
    }

    #[test]
    fn empty_programs_halt_immediately() {
        let mut m = machine(4, Protocol::WriteInvalidate);
        let r = m.run();
        assert_eq!(r.cycles, 0);
        assert_eq!(r.traffic.misses.total_misses(), 0);
    }

    #[test]
    fn single_write_and_read_roundtrip_wi() {
        let mut m = machine(2, Protocol::WriteInvalidate);
        let addr = m.alloc().alloc_block_on(1, 1);
        assert_eq!(m.read_word(addr), 0);
        let mut b = ProgramBuilder::new();
        b.imm(0, addr).imm(1, 42).store(0, 0, 1).fence();
        b.load(2, 0, 0);
        b.imm(3, addr + 4).store(3, 0, 2).fence().halt();
        m.set_program(0, b.build());
        let r = m.run();
        assert!(r.cycles > 0);
        assert!(r.traffic.misses.cold >= 1, "the store misses cold");
        assert_eq!(m.read_word(addr), 42);
        assert_eq!(m.read_word(addr + 4), 42, "load saw the written value");
    }

    #[test]
    fn final_memory_observable_after_run_under_all_protocols() {
        for p in [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate] {
            let mut m = machine(2, p);
            let addr = m.alloc().alloc_block_on(0, 1);
            let mut b = ProgramBuilder::new();
            b.imm(0, addr).imm(1, 7).store(0, 0, 1).fence().halt();
            m.set_program(0, b.build());
            let mut b1 = ProgramBuilder::new();
            // CPU1 spins until it sees 7.
            b1.imm(0, addr).imm(1, 7).spin_while_ne(0, 1).halt();
            m.set_program(1, b1.build());
            let r = m.run();
            assert!(r.cycles > 0, "protocol {p:?}");
            assert_eq!(m.read_word(addr), 7, "protocol {p:?}");
        }
    }

    #[test]
    fn producer_consumer_handoff_all_protocols() {
        // CPU0 writes data then sets a flag; CPU1 spins on the flag then
        // copies data out; CPU0's write must be visible (release via fence).
        for p in [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate] {
            let mut m = machine(2, p);
            let data = m.alloc().alloc_block_on(0, 1);
            let flag = m.alloc().alloc_block_on(0, 1);
            let out = m.alloc().alloc_block_on(1, 1);
            let mut b0 = ProgramBuilder::new();
            b0.imm(0, data).imm(1, 123).store(0, 0, 1);
            b0.fence();
            b0.imm(2, flag).imm(3, 1).store(2, 0, 3).fence().halt();
            let mut b1 = ProgramBuilder::new();
            b1.imm(0, flag).imm(1, 1).spin_while_ne(0, 1);
            b1.imm(2, data).load(3, 2, 0);
            b1.imm(4, out).store(4, 0, 3).fence().halt();
            m.set_program(0, b0.build());
            m.set_program(1, b1.build());
            let r = m.run();
            assert!(r.cycles > 10, "protocol {p:?} ran");
            assert_eq!(m.read_word(out), 123, "protocol {p:?} handoff");
        }
    }

    #[test]
    fn fetch_add_serializes_across_cpus() {
        for p in [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate] {
            let mut m = machine(4, p);
            let ctr = m.alloc().alloc_block_on(0, 1);
            for n in 0..4 {
                let mut b = ProgramBuilder::new();
                b.imm(0, ctr).imm(1, 1).imm(2, 25);
                b.label("loop");
                b.fetch_add(3, 0, 1);
                b.alui(AluOp::Sub, 2, 2, 1);
                b.bnz(2, "loop");
                b.halt();
                m.set_program(n, b.build());
            }
            let r = m.run();
            assert_eq!(r.traffic.shared_atomics, 100, "protocol {p:?}");
            assert_eq!(m.read_word(ctr), 100, "protocol {p:?} atomicity");
        }
    }

    #[test]
    fn delay_consumes_cycles() {
        let mut m = machine(1, Protocol::WriteInvalidate);
        let mut b = ProgramBuilder::new();
        b.delay(500).halt();
        m.set_program(0, b.build());
        let r = m.run();
        assert!(r.cycles >= 500);
        assert!(r.cycles < 520);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut m = machine(4, Protocol::CompetitiveUpdate);
            let ctr = m.alloc().alloc_block_on(0, 2);
            for n in 0..4 {
                let mut b = ProgramBuilder::new();
                b.imm(0, ctr).imm(1, 1).imm(2, 50);
                b.label("loop");
                b.fetch_add(3, 0, 1);
                b.rand_delay(20);
                b.alui(AluOp::Sub, 2, 2, 1);
                b.bnz(2, "loop");
                b.halt();
                m.set_program(n, b.build());
            }
            m.run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.traffic.misses, b.traffic.misses);
        assert_eq!(a.traffic.updates, b.traffic.updates);
        assert_eq!(a.net.messages, b.net.messages);
    }

    #[test]
    fn magic_barrier_synchronizes_without_traffic() {
        let mut m = machine(8, Protocol::PureUpdate);
        for n in 0..8 {
            let mut b = ProgramBuilder::new();
            b.imm(2, 10);
            b.label("loop");
            b.magic_barrier();
            b.alui(AluOp::Sub, 2, 2, 1);
            b.bnz(2, "loop");
            b.halt();
            m.set_program(n, b.build());
        }
        let r = m.run();
        assert_eq!(r.net.messages, 0, "magic barrier generates no traffic");
        assert_eq!(r.traffic.updates.total(), 0);
    }

    #[test]
    fn magic_lock_is_fifo_and_exclusive() {
        let mut m = machine(4, Protocol::WriteInvalidate);
        // Increment a shared counter with plain load/store under the magic
        // lock: exclusivity makes the count exact.
        let ctr = m.alloc().alloc_block_on(0, 1);
        for n in 0..4 {
            let mut b = ProgramBuilder::new();
            b.imm(0, ctr).imm(2, 20);
            b.label("loop");
            b.magic_acquire(0);
            b.load(1, 0, 0);
            b.alui(AluOp::Add, 1, 1, 1);
            b.store(0, 0, 1);
            b.fence();
            b.magic_release(0);
            b.alui(AluOp::Sub, 2, 2, 1);
            b.bnz(2, "loop");
            b.halt();
            m.set_program(n, b.build());
        }
        let r = m.run();
        assert!(r.cycles > 0);
        assert_eq!(r.traffic.shared_writes, 80);
        assert_eq!(m.read_word(ctr), 80, "lock provided mutual exclusion");
    }

    /// The directory's sharer bitmap names 64 nodes; a bigger machine
    /// would silently alias node `n` onto bit `n % 64`.
    #[test]
    #[should_panic(expected = "65 processors exceed the 64-node limit")]
    fn rejects_more_processors_than_the_sharer_bitmap_holds() {
        machine(65, Protocol::WriteInvalidate);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn spin_on_never_written_flag_deadlocks() {
        let mut m = machine(1, Protocol::WriteInvalidate);
        let flag = m.alloc().alloc_block_on(0, 1);
        let mut b = ProgramBuilder::new();
        b.imm(0, flag).imm(1, 1).spin_while_ne(0, 1).halt();
        m.set_program(0, b.build());
        m.run();
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::{Trace, TraceEvent};
    use sim_isa::ProgramBuilder;
    use sim_proto::Protocol;

    #[test]
    fn trace_records_read_transaction() {
        let mut m = Machine::new(MachineConfig::paper(2, Protocol::WriteInvalidate));
        let addr = m.alloc().alloc_block_on(1, 1);
        m.poke_word(addr, 5);
        let mut b = ProgramBuilder::new();
        b.imm(0, addr).load(1, 0, 0).halt();
        m.set_program(0, b.build());
        m.enable_trace(Trace::new(64));
        m.run();
        let trace = m.take_trace().unwrap();
        let kinds: Vec<&str> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Send { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec!["ReadShared", "Data"], "one request, one reply");
        // Handle events and both halts recorded too.
        assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::Handle { kind: "ReadShared", .. })));
        assert_eq!(trace.events().iter().filter(|e| matches!(e, TraceEvent::Halt { .. })).count(), 2);
        assert!(!trace.render().is_empty());
    }

    #[test]
    fn trace_filter_narrows_to_one_word() {
        let mut m = Machine::new(MachineConfig::paper(2, Protocol::PureUpdate));
        let a = m.alloc().alloc_block_on(1, 1);
        let b_addr = m.alloc().alloc_block_on(1, 1);
        let mut b = ProgramBuilder::new();
        b.imm(0, a).imm(1, 7).store(0, 0, 1);
        b.imm(0, b_addr).store(0, 0, 1);
        b.fence().halt();
        m.set_program(0, b.build());
        m.enable_trace(Trace::new(64).filter_addr(a));
        m.run();
        let trace = m.take_trace().unwrap();
        assert!(trace
            .events()
            .iter()
            .all(|e| !matches!(e, TraceEvent::Send { addr, .. } if *addr == b_addr)));
        assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::Send { addr, .. } if *addr == a)));
    }
}
