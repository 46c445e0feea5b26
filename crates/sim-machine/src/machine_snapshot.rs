//! Snapshot/restore for the whole machine: serializes every piece of
//! simulated state — processors, caches, directories, memories, write
//! buffers, port servers, network counters, magic-sync structures, and
//! the event queue with its exact `(cycle, seq)` order — into a sealed
//! [`sim_engine::snapshot`] blob, and rebuilds a machine that continues
//! the run byte-identically (`tests/replay_equivalence.rs` proves it for
//! every kernel × protocol).
//!
//! This is a child module of `machine` (so it can reach private fields)
//! living in a sibling file to keep `machine.rs` readable.

use sim_engine::snapshot::{open, SnapError, SnapReader, SnapWriter};
use sim_engine::{EventQueue, FifoServer, QueueSnapshot, QueueStats, SplitMix64};
use sim_mem::{Block, BlockAddr, DirState, LineSnapshot, LineState, SharerSet, WriteBuffer, BLOCK_WORDS};
use sim_proto::{AtomicOp, Msg, Protocol};
use sim_stats::FingerprintRecorder;

use super::{class_of, Ev, Machine, MagicLock};
use crate::cpu::{CpuState, PendingAtomicIssue};

/// Format version written by [`Machine::snapshot`]; [`Machine::restore`]
/// rejects anything else. Bump on any change to the payload schema.
pub const SNAPSHOT_VERSION: u32 = 2;

// ---------------------------------------------------------------------
// Event codec
// ---------------------------------------------------------------------

fn encode_ev(w: &mut SnapWriter, ev: &Ev) {
    match ev {
        Ev::CpuStep(n) => {
            w.u8(0);
            w.usize(*n);
        }
        Ev::Deliver(m) => {
            w.u8(1);
            m.encode(w);
        }
        Ev::HomeHandle(m) => {
            w.u8(2);
            m.encode(w);
        }
        Ev::WbIssue(n) => {
            w.u8(3);
            w.usize(*n);
        }
        Ev::Sample => w.u8(4),
    }
}

fn decode_ev(r: &mut SnapReader<'_>) -> Result<Ev, SnapError> {
    Ok(match r.u8()? {
        0 => Ev::CpuStep(r.usize()?),
        1 => Ev::Deliver(Msg::decode(r)?),
        2 => Ev::HomeHandle(Msg::decode(r)?),
        3 => Ev::WbIssue(r.usize()?),
        4 => Ev::Sample,
        _ => return Err(SnapError::Corrupt("unknown event tag")),
    })
}

fn encode_queue_snapshot(w: &mut SnapWriter, snap: &QueueSnapshot<Ev>) {
    w.u64(snap.now);
    w.u64(snap.next_seq);
    w.u64(snap.stats.scheduled);
    w.u64(snap.stats.far_spills);
    w.u64(snap.stats.far_merged);
    w.u64(snap.stats.peak_len);
    w.usize(snap.entries.len());
    for (at, seq, ev) in &snap.entries {
        w.u64(*at);
        w.u64(*seq);
        encode_ev(w, ev);
    }
}

fn decode_queue_snapshot(r: &mut SnapReader<'_>) -> Result<QueueSnapshot<Ev>, SnapError> {
    let now = r.u64()?;
    let next_seq = r.u64()?;
    let stats =
        QueueStats { scheduled: r.u64()?, far_spills: r.u64()?, far_merged: r.u64()?, peak_len: r.u64()? };
    let n = r.usize()?;
    let mut entries = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let at = r.u64()?;
        let seq = r.u64()?;
        entries.push((at, seq, decode_ev(r)?));
    }
    Ok(QueueSnapshot { now, next_seq, stats, entries })
}

// ---------------------------------------------------------------------
// Small-enum codecs
// ---------------------------------------------------------------------

fn protocol_tag(p: Protocol) -> u8 {
    match p {
        Protocol::WriteInvalidate => 0,
        Protocol::PureUpdate => 1,
        Protocol::CompetitiveUpdate => 2,
    }
}

fn line_state_tag(s: LineState) -> u8 {
    match s {
        LineState::Shared => 0,
        LineState::Modified => 1,
        LineState::PrivateUpd => 2,
    }
}

fn line_state_from_tag(tag: u8) -> Result<LineState, SnapError> {
    Ok(match tag {
        0 => LineState::Shared,
        1 => LineState::Modified,
        2 => LineState::PrivateUpd,
        _ => return Err(SnapError::Corrupt("unknown LineState tag")),
    })
}

fn dir_state_tag(s: DirState) -> u8 {
    match s {
        DirState::Uncached => 0,
        DirState::Shared => 1,
        DirState::Owned => 2,
    }
}

fn dir_state_from_tag(tag: u8) -> Result<DirState, SnapError> {
    Ok(match tag {
        0 => DirState::Uncached,
        1 => DirState::Shared,
        2 => DirState::Owned,
        _ => return Err(SnapError::Corrupt("unknown DirState tag")),
    })
}

fn encode_cpu_state(w: &mut SnapWriter, s: &CpuState) {
    match s {
        CpuState::Ready => w.u8(0),
        CpuState::StallRead { rd } => {
            w.u8(1);
            w.usize(*rd);
        }
        CpuState::StallSpinRead => w.u8(2),
        CpuState::StallAtomic { rd } => {
            w.u8(3);
            w.usize(*rd);
        }
        CpuState::StallWbFull { addr, val } => {
            w.u8(4);
            w.u32(*addr);
            w.u32(*val);
        }
        CpuState::StallFence { atomic } => {
            w.u8(5);
            match atomic {
                None => w.bool(false),
                Some(a) => {
                    w.bool(true);
                    w.usize(a.rd);
                    w.u32(a.addr);
                    w.u8(a.op.tag());
                    w.u32(a.operand);
                    w.u32(a.operand2);
                }
            }
        }
        CpuState::StallFlush { addr } => {
            w.u8(6);
            w.u32(*addr);
        }
        CpuState::SpinParked { addr, cmp, spin_while_ne, start } => {
            w.u8(7);
            w.u32(*addr);
            w.u32(*cmp);
            w.bool(*spin_while_ne);
            w.u64(*start);
        }
        CpuState::SpinSleep => w.u8(8),
        CpuState::InBarrier => w.u8(9),
        CpuState::WaitLock(l) => {
            w.u8(10);
            w.u32(*l);
        }
        CpuState::Halted => w.u8(11),
    }
}

fn decode_cpu_state(r: &mut SnapReader<'_>) -> Result<CpuState, SnapError> {
    Ok(match r.u8()? {
        0 => CpuState::Ready,
        1 => CpuState::StallRead { rd: r.usize()? },
        2 => CpuState::StallSpinRead,
        3 => CpuState::StallAtomic { rd: r.usize()? },
        4 => CpuState::StallWbFull { addr: r.u32()?, val: r.u32()? },
        5 => {
            let atomic = if r.bool()? {
                Some(PendingAtomicIssue {
                    rd: r.usize()?,
                    addr: r.u32()?,
                    op: AtomicOp::from_tag(r.u8()?)?,
                    operand: r.u32()?,
                    operand2: r.u32()?,
                })
            } else {
                None
            };
            CpuState::StallFence { atomic }
        }
        6 => CpuState::StallFlush { addr: r.u32()? },
        7 => {
            CpuState::SpinParked { addr: r.u32()?, cmp: r.u32()?, spin_while_ne: r.bool()?, start: r.u64()? }
        }
        8 => CpuState::SpinSleep,
        9 => CpuState::InBarrier,
        10 => CpuState::WaitLock(r.u32()?),
        11 => CpuState::Halted,
        _ => return Err(SnapError::Corrupt("unknown CpuState tag")),
    })
}

/// Reads one block as the encoder writes it — a length prefix, then the
/// words — refusing any length other than one block.
fn decode_block(r: &mut SnapReader<'_>, what: &'static str) -> Result<Block, SnapError> {
    if r.usize()? != BLOCK_WORDS {
        return Err(SnapError::Corrupt(what));
    }
    let mut data = [0; BLOCK_WORDS];
    for word in &mut data {
        *word = r.u32()?;
    }
    Ok(data)
}

fn encode_hist(w: &mut SnapWriter, h: &sim_stats::LatencyHist) {
    let (buckets, count, sum, max) = h.to_raw_parts();
    for b in buckets {
        w.u64(b);
    }
    w.u64(count);
    w.u64(sum);
    w.u64(max);
}

fn decode_hist(r: &mut SnapReader<'_>) -> Result<sim_stats::LatencyHist, SnapError> {
    let mut buckets = [0u64; 32];
    for b in &mut buckets {
        *b = r.u64()?;
    }
    let count = r.u64()?;
    let sum = r.u64()?;
    let max = r.u64()?;
    Ok(sim_stats::LatencyHist::from_raw_parts(buckets, count, sum, max))
}

// ---------------------------------------------------------------------
// Machine snapshot/restore
// ---------------------------------------------------------------------

impl Machine {
    /// Serializes the complete simulated state into a sealed, versioned,
    /// digest-protected blob (see [`sim_engine::snapshot`] for the frame).
    /// Safe to call at any point between events; [`Machine::restore`] into
    /// a freshly built identical machine resumes the run byte-identically.
    pub fn snapshot(&self) -> Vec<u8> {
        // Preallocate for the common blob size; periodic checkpoints make
        // this a hot path.
        let mut w = SnapWriter::with_capacity(128 * 1024);
        // Identity guard: restore refuses a blob from a differently
        // configured machine or different programs.
        w.usize(self.cfg.num_procs);
        w.u8(protocol_tag(self.cfg.protocol));
        w.usize(self.cfg.wb_entries);
        w.u64(self.cfg.seed);
        w.u64(self.program_digest());
        // Run progress.
        w.u64(self.popped);
        w.usize(self.halted);
        w.u64(self.last_halt);
        // The event queue, in exact pop order.
        encode_queue_snapshot(&mut w, &self.queue.snapshot());
        // Processors.
        for cpu in &self.cpus {
            w.usize(cpu.pc);
            w.usize(cpu.regs.len());
            w.u32_slice(&cpu.regs);
            w.usize(cpu.private.len());
            w.u32_slice(&cpu.private);
            encode_cpu_state(&mut w, &cpu.state);
            w.u64(cpu.instructions);
            w.u64(cpu.stall_since);
            w.u32(cpu.stall_addr);
            match cpu.stall_writer {
                None => w.bool(false),
                Some((n, at)) => {
                    w.bool(true);
                    w.usize(n);
                    w.u64(at);
                }
            }
            w.bool(cpu.spin_waited);
            w.u64(cpu.rng.state());
        }
        // Protocol nodes: cache, directory, memory, in-flight transactions.
        for node in &self.nodes {
            w.usize(node.cache.iter_valid_lines().count());
            for (block, state, update_ctr, data) in node.cache.iter_valid_lines() {
                w.u32(block.0);
                w.u8(line_state_tag(state));
                w.u32(update_ctr);
                w.usize(data.len());
                w.u32_slice(data);
            }
            let entries = node.dir.sorted_entries();
            w.usize(entries.len());
            for (block, e) in &entries {
                w.u32(block.0);
                w.u8(dir_state_tag(e.state));
                w.u64(e.sharers.to_bits());
                w.usize(e.owner);
                w.bool(e.busy);
                w.usize(e.waiting.len());
                for m in &e.waiting {
                    m.encode(&mut w);
                }
            }
            let blocks = node.mem.sorted_blocks();
            w.usize(blocks.len());
            for (block, data) in &blocks {
                w.u32(block.0);
                w.usize(data.len());
                w.u32_slice(data);
            }
            match &node.pending_read {
                None => w.bool(false),
                Some(p) => {
                    w.bool(true);
                    w.u32(p.addr);
                    w.bool(p.piggyback);
                }
            }
            match &node.pending_write {
                None => w.bool(false),
                Some(p) => {
                    w.bool(true);
                    w.u32(p.addr);
                    w.u32(p.val);
                }
            }
            match &node.pending_atomic {
                None => w.bool(false),
                Some(p) => {
                    w.bool(true);
                    w.u32(p.addr);
                    w.u8(p.op.tag());
                    w.u32(p.operand);
                    w.u32(p.operand2);
                }
            }
            w.u64(node.acks_expected);
            w.u64(node.acks_received);
            w.u64(node.update_infos_pending);
        }
        // Write buffers (empty before `run` schedules them, `num_procs`
        // once running — checkpoints only happen while running).
        w.usize(self.wbs.len());
        for wb in &self.wbs {
            let (entries, head_issued, high_water) = wb.export_state();
            w.usize(entries.len());
            for e in &entries {
                w.u32(e.addr);
                w.u32(e.val);
            }
            w.bool(head_issued);
            w.usize(high_water);
        }
        // Memory-module port servers.
        w.usize(self.mem_srv.len());
        for srv in &self.mem_srv {
            for part in srv.to_raw_parts() {
                w.u64(part);
            }
        }
        // Network: port servers + counters (instrument opt-ins excluded).
        let net = self.net.snapshot_core();
        w.usize(net.tx.len());
        for parts in &net.tx {
            for p in parts {
                w.u64(*p);
            }
        }
        w.usize(net.rx.len());
        for parts in &net.rx {
            for p in parts {
                w.u64(*p);
            }
        }
        w.u64(net.counters.messages);
        w.u64(net.counters.local_messages);
        w.u64(net.counters.flits);
        w.u64(net.counters.total_hops);
        // Magic-sync structures. Locks sorted by id for determinism; the
        // barrier list stays in arrival (push) order — release order
        // depends on it.
        let mut locks: Vec<_> = self.magic_locks.iter().collect();
        locks.sort_by_key(|(id, _)| **id);
        w.usize(locks.len());
        for (id, lock) in locks {
            w.u32(*id);
            match lock.holder {
                None => w.bool(false),
                Some(h) => {
                    w.bool(true);
                    w.usize(h);
                }
            }
            w.usize(lock.queue.len());
            for &n in &lock.queue {
                w.usize(n);
            }
        }
        w.usize(self.barrier_waiting.len());
        for &n in &self.barrier_waiting {
            w.usize(n);
        }
        // Latency histograms (part of the figure-visible results).
        encode_hist(&mut w, &self.read_latency);
        encode_hist(&mut w, &self.atomic_latency);
        // The classifier: all cross-node traffic-classification knowledge.
        self.clf.encode_state(&mut w);
        w.seal(SNAPSHOT_VERSION)
    }

    /// Restores state captured by [`Machine::snapshot`] into this machine,
    /// which must be freshly built along the identical construction path
    /// (same [`crate::MachineConfig`], same shared-data layout, same
    /// programs) and must not have run yet. The subsequent [`Machine::run`]
    /// resumes mid-stream and produces byte-identical results to the
    /// uninterrupted original.
    ///
    /// Observability instruments restart at the restore point: enabling
    /// `obs` here yields a window-scoped report over the replayed range
    /// even if the original run had it off.
    ///
    /// # Panics
    ///
    /// Panics if called after `run`.
    pub fn restore(&mut self, blob: &[u8]) -> Result<(), SnapError> {
        assert!(!self.ran, "Machine::restore must precede run");
        let payload = open(blob, SNAPSHOT_VERSION)?;
        let mut r = SnapReader::new(payload);
        // Identity guard.
        if r.usize()? != self.cfg.num_procs {
            return Err(SnapError::Corrupt("snapshot is for a different processor count"));
        }
        if r.u8()? != protocol_tag(self.cfg.protocol) {
            return Err(SnapError::Corrupt("snapshot is for a different protocol"));
        }
        if r.usize()? != self.cfg.wb_entries {
            return Err(SnapError::Corrupt("snapshot is for a different write-buffer size"));
        }
        if r.u64()? != self.cfg.seed {
            return Err(SnapError::Corrupt("snapshot is for a different seed"));
        }
        if r.u64()? != self.program_digest() {
            return Err(SnapError::Corrupt("snapshot is for different programs"));
        }
        // Run progress.
        self.popped = r.u64()?;
        self.halted = r.usize()?;
        self.last_halt = r.u64()?;
        // The event queue.
        self.queue = EventQueue::restore(decode_queue_snapshot(&mut r)?);
        // Processors.
        for cpu in &mut self.cpus {
            cpu.pc = r.usize()?;
            if r.usize()? != cpu.regs.len() {
                return Err(SnapError::Corrupt("register-file size disagrees"));
            }
            for reg in &mut cpu.regs {
                *reg = r.u32()?;
            }
            let priv_len = r.usize()?;
            if priv_len != cpu.private.len() {
                return Err(SnapError::Corrupt("private-memory size disagrees"));
            }
            for word in &mut cpu.private {
                *word = r.u32()?;
            }
            cpu.state = decode_cpu_state(&mut r)?;
            cpu.instructions = r.u64()?;
            cpu.stall_since = r.u64()?;
            cpu.stall_addr = r.u32()?;
            cpu.stall_writer = if r.bool()? { Some((r.usize()?, r.u64()?)) } else { None };
            cpu.spin_waited = r.bool()?;
            cpu.rng = SplitMix64::from_state(r.u64()?);
        }
        // Protocol nodes.
        for node in &mut self.nodes {
            let n = r.usize()?;
            let mut lines = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let block = BlockAddr(r.u32()?);
                let state = line_state_from_tag(r.u8()?)?;
                let update_ctr = r.u32()?;
                let data = decode_block(&mut r, "cache-line length is not one block")?;
                lines.push(LineSnapshot { block, state, update_ctr, data });
            }
            node.cache.import_lines(lines);
            node.dir.clear();
            let n = r.usize()?;
            for _ in 0..n {
                let block = BlockAddr(r.u32()?);
                let e = node.dir.entry(block);
                e.state = dir_state_from_tag(r.u8()?)?;
                e.sharers = SharerSet::from_bits(r.u64()?);
                e.owner = r.usize()?;
                e.busy = r.bool()?;
                let waiting = r.usize()?;
                e.waiting.clear();
                for _ in 0..waiting {
                    let m = Msg::decode(&mut r)?;
                    node.dir.entry(block).waiting.push_back(m);
                }
            }
            let n = r.usize()?;
            for _ in 0..n {
                let block = BlockAddr(r.u32()?);
                let data = decode_block(&mut r, "memory-block length is not one block")?;
                node.mem.write_block(block, &data);
            }
            node.pending_read = if r.bool()? {
                Some(sim_proto::node::PendingRead { addr: r.u32()?, piggyback: r.bool()? })
            } else {
                None
            };
            node.pending_write = if r.bool()? {
                Some(sim_proto::node::PendingWrite { addr: r.u32()?, val: r.u32()? })
            } else {
                None
            };
            node.pending_atomic = if r.bool()? {
                Some(sim_proto::node::PendingAtomic {
                    addr: r.u32()?,
                    op: AtomicOp::from_tag(r.u8()?)?,
                    operand: r.u32()?,
                    operand2: r.u32()?,
                })
            } else {
                None
            };
            node.acks_expected = r.u64()?;
            node.acks_received = r.u64()?;
            node.update_infos_pending = r.u64()?;
        }
        // Write buffers.
        let n = r.usize()?;
        if n != 0 && n != self.cfg.num_procs {
            return Err(SnapError::Corrupt("write-buffer count disagrees"));
        }
        self.wbs = (0..n).map(|_| WriteBuffer::new(self.cfg.wb_entries)).collect();
        for wb in &mut self.wbs {
            let len = r.usize()?;
            if len > self.cfg.wb_entries {
                return Err(SnapError::Corrupt("write-buffer entry count overflows capacity"));
            }
            let mut entries = Vec::with_capacity(len);
            for _ in 0..len {
                entries.push(sim_mem::PendingWrite { addr: r.u32()?, val: r.u32()? });
            }
            let head_issued = r.bool()?;
            let high_water = r.usize()?;
            if head_issued && entries.is_empty() {
                return Err(SnapError::Corrupt("head_issued without a head entry"));
            }
            wb.import_state(entries, head_issued, high_water);
        }
        // Memory-module port servers.
        if r.usize()? != self.mem_srv.len() {
            return Err(SnapError::Corrupt("memory-server count disagrees"));
        }
        for srv in &mut self.mem_srv {
            let parts = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            *srv = FifoServer::from_raw_parts(parts);
        }
        // Network.
        let tx_n = r.usize()?;
        if tx_n != self.cfg.num_procs {
            return Err(SnapError::Corrupt("network node count disagrees"));
        }
        let mut tx = Vec::with_capacity(tx_n);
        for _ in 0..tx_n {
            tx.push([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        }
        let rx_n = r.usize()?;
        if rx_n != self.cfg.num_procs {
            return Err(SnapError::Corrupt("network node count disagrees"));
        }
        let mut rx = Vec::with_capacity(rx_n);
        for _ in 0..rx_n {
            rx.push([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        }
        let counters = sim_net::NetCounters {
            messages: r.u64()?,
            local_messages: r.u64()?,
            flits: r.u64()?,
            total_hops: r.u64()?,
        };
        self.net.restore_core(sim_net::NetSnapshot { tx, rx, counters });
        // Magic-sync structures.
        self.magic_locks.clear();
        let n = r.usize()?;
        for _ in 0..n {
            let id = r.u32()?;
            let holder = if r.bool()? { Some(r.usize()?) } else { None };
            let qn = r.usize()?;
            let mut queue = std::collections::VecDeque::with_capacity(qn.min(1 << 10));
            for _ in 0..qn {
                queue.push_back(r.usize()?);
            }
            self.magic_locks.insert(id, MagicLock { holder, queue });
        }
        let n = r.usize()?;
        self.barrier_waiting.clear();
        for _ in 0..n {
            self.barrier_waiting.push(r.usize()?);
        }
        // Latency histograms.
        self.read_latency = decode_hist(&mut r)?;
        self.atomic_latency = decode_hist(&mut r)?;
        // The classifier.
        self.clf.restore_state(&mut r)?;
        r.finish()?;
        // Resume-side bookkeeping (none of it is serialized state):
        // the fingerprint chain restarts at the exact epoch seam the
        // checkpoint was cut on...
        if self.fp.is_some() {
            let epoch = self.cfg.hostobs.fingerprint_epoch.max(1);
            self.fp = Some(Box::new(FingerprintRecorder::resume(epoch, self.popped / epoch)));
        }
        // ...the observability collector opens its accounts at the restore
        // cycle (earlier cycles belong to the original run)...
        if let Some(obs) = self.obs.as_mut() {
            let now = self.queue.now();
            for (n, cpu) in self.cpus.iter().enumerate() {
                obs.align(n, class_of(&cpu.state), now);
            }
        }
        // ...and the next checkpoint is a full cadence away.
        self.next_checkpoint = match self.cfg.checkpoint_every {
            Some(every) => self.popped + every,
            None => u64::MAX,
        };
        self.restored = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use sim_engine::snapshot::{open, seal, SnapError};
    use sim_isa::{AluOp, ProgramBuilder};
    use sim_proto::Protocol;

    use super::SNAPSHOT_VERSION;
    use crate::config::MachineConfig;
    use crate::machine::Machine;

    /// A contended workload exercising every snapshot-visible structure:
    /// shared-counter atomics behind a magic lock, plain shared stores and
    /// loads, random delays, and magic barriers — enough traffic to keep
    /// write buffers, directories, and in-flight transactions busy at any
    /// mid-run checkpoint.
    fn build_contended(cfg: &MachineConfig) -> Machine {
        let mut m = Machine::new(cfg.clone());
        let ctr = m.alloc().alloc_block_on(0, 2);
        let flag = m.alloc().alloc_block_on(1, 1);
        for p in 0..cfg.num_procs {
            let mut b = ProgramBuilder::new();
            b.imm(0, ctr).imm(1, 1).imm(5, flag).imm(2, 10);
            b.label("loop");
            b.magic_acquire(7);
            b.fetch_add(3, 0, 1);
            b.magic_release(7);
            b.rand_delay(31);
            b.imm(4, (p * 17 + 3) as u32);
            b.store(5, 0, 4);
            b.load(6, 5, 0);
            b.store(0, 4, 4);
            b.alui(AluOp::Sub, 2, 2, 1);
            b.bnz(2, "loop");
            b.magic_barrier();
            b.halt();
            m.set_program(p, b.build());
        }
        m
    }

    fn digest(result: &crate::result::RunResult) -> String {
        format!(
            "{} {:?} {:?} {} {:?} {:?}",
            result.cycles,
            result.traffic,
            result.net,
            result.instructions,
            result.read_latency.to_raw_parts(),
            result.atomic_latency.to_raw_parts()
        )
    }

    fn round_trip(protocol: Protocol) {
        // A small fingerprint epoch keeps the epoch-aligned checkpoint
        // cadence fine enough for this short workload.
        let mut cfg = MachineConfig::paper(8, protocol);
        cfg.hostobs.fingerprint_epoch = 512;
        // Uninterrupted reference run.
        let full = build_contended(&cfg).run();
        // Checkpointed run: grab snapshots mid-flight...
        let ck_cfg = cfg.clone().with_checkpoints(512);
        let mut m = build_contended(&ck_cfg);
        let ref_result = m.run();
        assert_eq!(digest(&ref_result), digest(&full), "checkpointing changed results");
        let checkpoints = m.take_checkpoints();
        assert!(!checkpoints.is_empty(), "no checkpoint was taken");
        // ...then restore each and run to completion: byte-identical.
        for ck in &checkpoints {
            let mut r = build_contended(&cfg);
            r.restore(&ck.blob).expect("restore failed");
            assert_eq!(r.events_dispatched(), ck.events);
            let resumed = r.run();
            assert_eq!(
                digest(&resumed),
                digest(&full),
                "restored run diverged from checkpoint at event {} (cycle {})",
                ck.events,
                ck.cycle
            );
        }
    }

    #[test]
    fn restore_resumes_byte_identically_wi_serial() {
        round_trip(Protocol::WriteInvalidate);
    }

    #[test]
    fn restore_resumes_byte_identically_pu_serial() {
        round_trip(Protocol::PureUpdate);
    }

    #[test]
    fn restore_resumes_byte_identically_cu_serial() {
        round_trip(Protocol::CompetitiveUpdate);
    }

    #[test]
    fn snapshot_rejects_mismatched_machine() {
        let mut cfg = MachineConfig::paper(8, Protocol::WriteInvalidate).with_checkpoints(512);
        cfg.hostobs.fingerprint_epoch = 512;
        let mut m = build_contended(&cfg);
        m.run();
        let ck = m.take_checkpoints().remove(0);
        // Different protocol.
        let other = MachineConfig::paper(8, Protocol::PureUpdate);
        let mut r = build_contended(&other);
        assert!(matches!(r.restore(&ck.blob), Err(SnapError::Corrupt(_))));
        // Different processor count.
        let other = MachineConfig::paper(4, Protocol::WriteInvalidate);
        let mut r = build_contended(&other);
        assert!(matches!(r.restore(&ck.blob), Err(SnapError::Corrupt(_))));
        // Different program.
        let base = MachineConfig::paper(8, Protocol::WriteInvalidate);
        let mut r = build_contended(&base);
        let mut b = ProgramBuilder::new();
        b.halt();
        r.set_program(0, b.build());
        assert!(matches!(r.restore(&ck.blob), Err(SnapError::Corrupt(_))));
        // Different seed.
        let other = MachineConfig { seed: base.seed + 1, ..base.clone() };
        let mut r = build_contended(&other);
        assert!(matches!(r.restore(&ck.blob), Err(SnapError::Corrupt(_))));
        // Different write-buffer size.
        let other = MachineConfig { wb_entries: base.wb_entries + 1, ..base.clone() };
        let mut r = build_contended(&other);
        assert!(matches!(r.restore(&ck.blob), Err(SnapError::Corrupt(_))));
        // Corruption and version skew are caught by the frame itself.
        let mut bad = ck.blob.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let mut r = build_contended(&base);
        assert!(r.restore(&bad).is_err());
        let payload = open(&ck.blob, SNAPSHOT_VERSION).expect("the checkpoint opens");
        let stale = seal(SNAPSHOT_VERSION - 1, payload);
        let mut r = build_contended(&base);
        assert_eq!(r.restore(&stale), Err(SnapError::Version { found: 1, expected: 2 }));
    }

    #[test]
    fn fingerprint_chain_tail_matches_after_restore() {
        let mut cfg = MachineConfig::paper_hostobs(8, Protocol::WriteInvalidate);
        cfg.hostobs.fingerprint_epoch = 512;
        let full = build_contended(&cfg).run();
        let full_chain = full.fingerprint.expect("fingerprints on");

        let ck_cfg = cfg.clone().with_checkpoints(512);
        let mut m = build_contended(&ck_cfg);
        m.run();
        let checkpoints = m.take_checkpoints();
        assert!(!checkpoints.is_empty());
        let ck = checkpoints.last().unwrap();

        let mut r = build_contended(&cfg);
        r.restore(&ck.blob).expect("restore failed");
        let resumed = r.run();
        let tail = resumed.fingerprint.expect("fingerprints on");
        assert_eq!(tail.total_events, full_chain.total_events);
        assert!(tail.epochs.len() < full_chain.epochs.len(), "checkpoint should not be at event 0");
        let offset = full_chain.epochs.len() - tail.epochs.len();
        assert_eq!(
            &full_chain.epochs[offset..],
            &tail.epochs[..],
            "resumed fingerprint epochs diverge from the uninterrupted chain"
        );
        assert_eq!(tail.state_digest, full_chain.state_digest);
    }

    #[test]
    fn windowed_replay_with_obs_reproduces_cycles() {
        // Original: obs OFF, checkpoints on.
        let mut cfg = MachineConfig::paper(8, Protocol::WriteInvalidate);
        cfg.hostobs.fingerprint_epoch = 512;
        let full = build_contended(&cfg).run();
        let mut m = build_contended(&cfg.clone().with_checkpoints(512));
        m.run();
        let ck = m.take_checkpoints().remove(0);
        // Replay from the checkpoint with full obs ON.
        let obs_cfg = MachineConfig { obs: sim_stats::ObsConfig::enabled(), ..cfg.clone() };
        let mut r = build_contended(&obs_cfg);
        r.restore(&ck.blob).expect("restore failed");
        let replayed = r.run();
        assert_eq!(replayed.cycles, full.cycles, "windowed replay changed the cycle count");
        assert_eq!(format!("{:?}", replayed.traffic), format!("{:?}", full.traffic));
        let obs = replayed.obs.expect("obs on");
        assert!(obs.per_node.iter().any(|n| n.cycles.total() > 0), "window-scoped obs report is empty");
    }

    /// Replay from a checkpoint opens every account and chain at the
    /// restore cycle: each node's account and the critical path cover
    /// exactly the replayed window.
    #[test]
    fn windowed_replay_accounts_cover_exactly_the_window() {
        let mut cfg = MachineConfig::paper(8, Protocol::WriteInvalidate);
        cfg.hostobs.fingerprint_epoch = 512;
        let mut m = build_contended(&cfg.clone().with_checkpoints(512));
        m.run();
        let ck = m.take_checkpoints().remove(0);
        let mut r = build_contended(&MachineConfig { obs: sim_stats::ObsConfig::enabled(), ..cfg });
        r.restore(&ck.blob).expect("restore failed");
        let replayed = r.run();
        let window = replayed.cycles - ck.cycle;
        let obs = replayed.obs.expect("obs on");
        for (n, node) in obs.per_node.iter().enumerate() {
            assert_eq!(node.cycles.total(), window, "node {n}");
        }
        let crit = obs.crit.expect("crit on");
        assert_eq!(crit.critical_path.by_class.total(), window);
    }

    #[test]
    fn event_recorder_captures_window() {
        let cfg = MachineConfig::paper(4, Protocol::WriteInvalidate);
        let mut m = build_contended(&cfg);
        m.record_events(10, 30, 16);
        m.run();
        let (events, dropped) = m.take_recorded();
        assert_eq!(events.len(), 16, "cap respected");
        assert_eq!(dropped, 4, "in-window overflow counted");
        assert_eq!(events.first().unwrap().index, 10);
        assert!(events.iter().all(|e| e.index >= 10 && e.index < 30));
        assert!(events.iter().all(|e| !e.label.is_empty()));
        // Indices are strictly increasing, cycles monotone.
        assert!(events.windows(2).all(|w| w[0].index < w[1].index && w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn run_to_cycle_stops_early_with_window_scoped_result() {
        let cfg = MachineConfig::paper(4, Protocol::WriteInvalidate);
        let full = build_contended(&cfg).run();
        assert!(full.cycles > 200, "workload too short for a window");
        let mut m = build_contended(&cfg);
        let window = m.run_to_cycle(200);
        assert_eq!(window.cycles, 200, "window result is clamped to the limit");
        assert!(window.instructions < full.instructions);
    }
}
