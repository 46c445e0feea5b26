//! Protocol messages.

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_engine::NodeId;
use sim_mem::{decode_block, encode_block, Addr, Word};

/// The three atomic instructions of the simulated machine (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `fetch_and_add`: returns the old value, adds the operand.
    FetchAdd,
    /// `fetch_and_store`: returns the old value, stores the operand.
    FetchStore,
    /// `compare_and_swap`: returns the old value; stores `operand2` only if
    /// the old value equals `operand`.
    CompareAndSwap,
}

impl AtomicOp {
    /// Applies the operation to `old`, returning `(new_value, wrote)`.
    pub fn apply(self, old: Word, operand: Word, operand2: Word) -> (Word, bool) {
        match self {
            AtomicOp::FetchAdd => (old.wrapping_add(operand), true),
            AtomicOp::FetchStore => (operand, true),
            AtomicOp::CompareAndSwap => {
                if old == operand {
                    (operand2, true)
                } else {
                    (old, false)
                }
            }
        }
    }
}

/// Memory-module service required when a message reaches a home node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemService {
    /// No memory/directory access: handled by the cache controller.
    None,
    /// Single-word or directory-only access (paper: 20 cycles).
    Word,
    /// Whole-block access (paper: 20 + words−1 cycles).
    Block,
}

/// Message payloads.
///
/// `addr` on the enclosing [`Msg`] is always the *word* address of the
/// access that caused the transaction; block-granularity operations derive
/// the block base from it. Carrying the word keeps enough information for
/// the true/false-sharing classification at the receivers.
#[derive(Debug, Clone, PartialEq)]
pub enum MsgKind {
    // ---- cache → home requests -------------------------------------
    /// Read miss: requester wants a shared copy.
    ReadShared,
    /// WI write miss: requester wants data + ownership.
    GetX,
    /// WI write hit on a shared copy: ownership only.
    Upgrade,
    /// PU/CU write-through of a cached (shared) block.
    UpdateWrite { val: Word },
    /// PU/CU write miss: write-through plus allocation of the block.
    UpdateWriteAlloc { val: Word },
    /// PU/CU atomic op, executed by the home memory.
    AtomicReq { op: AtomicOp, operand: Word, operand2: Word },
    /// Dirty eviction or flush of an owned block: block data travels home.
    WriteBack { data: Box<[Word]> },
    /// A clean copy was dropped (flush or replacement notification under
    /// PU/CU, flush under WI): home removes the sender from the sharer set.
    SharerDrop,
    /// CU self-invalidation notice: stop sending updates to the sender.
    StopUpdate,

    // ---- home → cache replies and demands ---------------------------
    /// Read reply with a shared copy.
    Data { data: Box<[Word]> },
    /// WI write reply: exclusive data plus the number of invalidation acks
    /// the requester must collect.
    DataX { data: Box<[Word]>, acks: u32 },
    /// WI upgrade reply: ownership granted, collect `acks` acks.
    UpgradeAck { acks: u32 },
    /// PU/CU reply to `UpdateWrite`: expect `acks` update acks. When
    /// `go_private` is set, the home observed the writer as the only sharer
    /// and grants private-update mode (the PU optimization).
    UpdateInfo { acks: u32, go_private: bool },
    /// PU/CU reply to `UpdateWriteAlloc`: block data plus ack count.
    DataUpd { data: Box<[Word]>, acks: u32 },
    /// An update multicast to a sharer; `writer` performed the write and
    /// collects the ack.
    UpdateMsg { val: Word, writer: NodeId },
    /// PU/CU atomic reply: the old value; block data included when the
    /// requester was not yet a sharer (atomics allocate), plus the ack
    /// count for the updates the operation multicast.
    AtomicReply { old: Word, data: Option<Box<[Word]>>, acks: u32 },
    /// WI invalidation demand; the ack goes to `requester`, whose write
    /// (at the enclosing word address) caused it.
    Inval { requester: NodeId },
    /// WI read recall: owner must demote to shared and supply data.
    Fetch { requester: NodeId },
    /// WI write recall: owner must invalidate and hand data to `requester`.
    FetchInv { requester: NodeId },
    /// PU/CU recall of a private-update block back to shared write-through.
    RecallUpd,

    // ---- cache → cache / completion messages -------------------------
    /// Invalidation ack, sent to the writing requester.
    InvAck,
    /// Update ack, sent to the writing processor.
    UpdateAck,
    /// Owner-forwarded shared data for a read (WI dirty read miss).
    DataFwd { data: Box<[Word]> },
    /// Owner-forwarded exclusive data for a write (WI dirty write miss).
    DataXFwd { data: Box<[Word]> },
    /// Owner → home: sharing writeback completing a read recall.
    SharingWB { data: Box<[Word]>, requester: NodeId },
    /// Owner → home: ownership transferred to `to` (write recall done).
    OwnershipXfer { to: NodeId },
    /// Private-update owner → home: block data; home resumes write-through.
    RecallReply { data: Box<[Word]> },
    /// Owner no longer held the block (it raced an eviction); the home must
    /// retry the embedded original request once the writeback lands.
    FetchMiss { original: Box<Msg> },
}

/// A protocol message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Word address of the access this transaction serves.
    pub addr: Addr,
    /// Payload.
    pub kind: MsgKind,
}

impl Msg {
    /// Payload size in bytes (the fixed header is added by the network
    /// layer). Block-carrying messages move a whole 64-byte block.
    pub fn payload_bytes(&self) -> u32 {
        use MsgKind::*;
        match &self.kind {
            Data { .. }
            | DataX { .. }
            | DataUpd { .. }
            | DataFwd { .. }
            | DataXFwd { .. }
            | WriteBack { .. }
            | SharingWB { .. }
            | RecallReply { .. } => 64,
            AtomicReply { data: Some(_), .. } => 64,
            UpdateWrite { .. }
            | UpdateWriteAlloc { .. }
            | UpdateMsg { .. }
            | AtomicReply { data: None, .. }
            | UpdateInfo { .. } => 4,
            AtomicReq { .. } => 8,
            FetchMiss { original } => original.payload_bytes(),
            ReadShared
            | GetX
            | Upgrade
            | SharerDrop
            | StopUpdate
            | UpgradeAck { .. }
            | Inval { .. }
            | Fetch { .. }
            | FetchInv { .. }
            | RecallUpd
            | InvAck
            | UpdateAck
            | OwnershipXfer { .. } => 0,
        }
    }

    /// Memory-module service this message needs on arrival (directory and
    /// data live in the home memory; cache-side messages need none).
    pub fn mem_service(&self) -> MemService {
        use MsgKind::*;
        match &self.kind {
            ReadShared
            | GetX
            | UpdateWriteAlloc { .. }
            | AtomicReq { .. }
            | WriteBack { .. }
            | SharingWB { .. }
            | RecallReply { .. } => MemService::Block,
            Upgrade
            | UpdateWrite { .. }
            | SharerDrop
            | StopUpdate
            | OwnershipXfer { .. }
            | FetchMiss { .. } => MemService::Word,
            Data { .. }
            | DataX { .. }
            | DataUpd { .. }
            | UpgradeAck { .. }
            | UpdateInfo { .. }
            | UpdateMsg { .. }
            | AtomicReply { .. }
            | Inval { .. }
            | Fetch { .. }
            | FetchInv { .. }
            | RecallUpd
            | InvAck
            | UpdateAck
            | DataFwd { .. }
            | DataXFwd { .. } => MemService::None,
        }
    }
}

impl AtomicOp {
    /// Stable codec tag (declaration order); see [`AtomicOp::from_tag`].
    pub fn tag(self) -> u8 {
        match self {
            AtomicOp::FetchAdd => 0,
            AtomicOp::FetchStore => 1,
            AtomicOp::CompareAndSwap => 2,
        }
    }

    /// Inverts [`AtomicOp::tag`].
    pub fn from_tag(tag: u8) -> Result<Self, SnapError> {
        match tag {
            0 => Ok(AtomicOp::FetchAdd),
            1 => Ok(AtomicOp::FetchStore),
            2 => Ok(AtomicOp::CompareAndSwap),
            _ => Err(SnapError::Corrupt("unknown AtomicOp tag")),
        }
    }
}

fn decode_boxed_block(r: &mut SnapReader<'_>) -> Result<Box<[Word]>, SnapError> {
    Ok(Box::new(decode_block(r)?))
}

fn encode_opt_block(w: &mut SnapWriter, data: &Option<Box<[Word]>>) {
    match data {
        None => w.bool(false),
        Some(d) => {
            w.bool(true);
            encode_block(w, d);
        }
    }
}

impl Msg {
    /// Appends the message to a snapshot payload. The variant tag is
    /// [`MsgKind::index`]; [`Msg::decode`] inverts exactly.
    pub fn encode(&self, w: &mut SnapWriter) {
        use MsgKind::*;
        w.usize(self.src);
        w.usize(self.dst);
        w.u32(self.addr);
        w.u8(self.kind.index() as u8);
        match &self.kind {
            ReadShared | GetX | Upgrade | SharerDrop | StopUpdate | RecallUpd | InvAck | UpdateAck => {}
            UpdateWrite { val } | UpdateWriteAlloc { val } => w.u32(*val),
            AtomicReq { op, operand, operand2 } => {
                w.u8(op.tag());
                w.u32(*operand);
                w.u32(*operand2);
            }
            WriteBack { data }
            | Data { data }
            | DataFwd { data }
            | DataXFwd { data }
            | RecallReply { data } => encode_block(w, data),
            DataX { data, acks } | DataUpd { data, acks } => {
                encode_block(w, data);
                w.u32(*acks);
            }
            UpgradeAck { acks } => w.u32(*acks),
            UpdateInfo { acks, go_private } => {
                w.u32(*acks);
                w.bool(*go_private);
            }
            UpdateMsg { val, writer } => {
                w.u32(*val);
                w.usize(*writer);
            }
            AtomicReply { old, data, acks } => {
                w.u32(*old);
                encode_opt_block(w, data);
                w.u32(*acks);
            }
            Inval { requester } | Fetch { requester } | FetchInv { requester } => w.usize(*requester),
            SharingWB { data, requester } => {
                encode_block(w, data);
                w.usize(*requester);
            }
            OwnershipXfer { to } => w.usize(*to),
            FetchMiss { original } => original.encode(w),
        }
    }

    /// Decodes a message written by [`Msg::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Msg, SnapError> {
        use MsgKind::*;
        let src = r.usize()?;
        let dst = r.usize()?;
        let addr = r.u32()?;
        let kind = match r.u8()? {
            0 => ReadShared,
            1 => GetX,
            2 => Upgrade,
            3 => UpdateWrite { val: r.u32()? },
            4 => UpdateWriteAlloc { val: r.u32()? },
            5 => AtomicReq { op: AtomicOp::from_tag(r.u8()?)?, operand: r.u32()?, operand2: r.u32()? },
            6 => WriteBack { data: decode_boxed_block(r)? },
            7 => SharerDrop,
            8 => StopUpdate,
            9 => Data { data: decode_boxed_block(r)? },
            10 => DataX { data: decode_boxed_block(r)?, acks: r.u32()? },
            11 => UpgradeAck { acks: r.u32()? },
            12 => UpdateInfo { acks: r.u32()?, go_private: r.bool()? },
            13 => DataUpd { data: decode_boxed_block(r)?, acks: r.u32()? },
            14 => UpdateMsg { val: r.u32()?, writer: r.usize()? },
            15 => AtomicReply {
                old: r.u32()?,
                data: if r.bool()? { Some(decode_boxed_block(r)?) } else { None },
                acks: r.u32()?,
            },
            16 => Inval { requester: r.usize()? },
            17 => Fetch { requester: r.usize()? },
            18 => FetchInv { requester: r.usize()? },
            19 => RecallUpd,
            20 => InvAck,
            21 => UpdateAck,
            22 => DataFwd { data: decode_boxed_block(r)? },
            23 => DataXFwd { data: decode_boxed_block(r)? },
            24 => SharingWB { data: decode_boxed_block(r)?, requester: r.usize()? },
            25 => OwnershipXfer { to: r.usize()? },
            26 => RecallReply { data: decode_boxed_block(r)? },
            27 => FetchMiss { original: Box::new(Msg::decode(r)?) },
            _ => return Err(SnapError::Corrupt("unknown MsgKind tag")),
        };
        Ok(Msg { src, dst, addr, kind })
    }
}

impl MsgKind {
    /// Number of message kinds; [`MsgKind::index`] is below it.
    pub const COUNT: usize = 28;

    /// Every kind's short variant name, by [`MsgKind::index`].
    pub const NAMES: [&'static str; MsgKind::COUNT] = [
        "ReadShared",
        "GetX",
        "Upgrade",
        "UpdateWrite",
        "UpdateWriteAlloc",
        "AtomicReq",
        "WriteBack",
        "SharerDrop",
        "StopUpdate",
        "Data",
        "DataX",
        "UpgradeAck",
        "UpdateInfo",
        "DataUpd",
        "UpdateMsg",
        "AtomicReply",
        "Inval",
        "Fetch",
        "FetchInv",
        "RecallUpd",
        "InvAck",
        "UpdateAck",
        "DataFwd",
        "DataXFwd",
        "SharingWB",
        "OwnershipXfer",
        "RecallReply",
        "FetchMiss",
    ];

    /// Dense index of the variant in declaration order, `0..COUNT`. It is
    /// also the variant's snapshot codec tag, and observability collectors
    /// count per kind in arrays indexed by it.
    pub fn index(&self) -> usize {
        use MsgKind::*;
        match self {
            ReadShared => 0,
            GetX => 1,
            Upgrade => 2,
            UpdateWrite { .. } => 3,
            UpdateWriteAlloc { .. } => 4,
            AtomicReq { .. } => 5,
            WriteBack { .. } => 6,
            SharerDrop => 7,
            StopUpdate => 8,
            Data { .. } => 9,
            DataX { .. } => 10,
            UpgradeAck { .. } => 11,
            UpdateInfo { .. } => 12,
            DataUpd { .. } => 13,
            UpdateMsg { .. } => 14,
            AtomicReply { .. } => 15,
            Inval { .. } => 16,
            Fetch { .. } => 17,
            FetchInv { .. } => 18,
            RecallUpd => 19,
            InvAck => 20,
            UpdateAck => 21,
            DataFwd { .. } => 22,
            DataXFwd { .. } => 23,
            SharingWB { .. } => 24,
            OwnershipXfer { .. } => 25,
            RecallReply { .. } => 26,
            FetchMiss { .. } => 27,
        }
    }

    /// Short variant name (tracing / diagnostics).
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_semantics() {
        assert_eq!(AtomicOp::FetchAdd.apply(5, 3, 0), (8, true));
        assert_eq!(AtomicOp::FetchAdd.apply(u32::MAX, 1, 0), (0, true), "wrapping");
        assert_eq!(AtomicOp::FetchStore.apply(5, 9, 0), (9, true));
        assert_eq!(AtomicOp::CompareAndSwap.apply(5, 5, 7), (7, true));
        assert_eq!(AtomicOp::CompareAndSwap.apply(5, 4, 7), (5, false));
    }

    fn msg(kind: MsgKind) -> Msg {
        Msg { src: 0, dst: 1, addr: 0x40, kind }
    }

    #[test]
    fn payload_sizes() {
        let block = vec![0u32; 16].into_boxed_slice();
        assert_eq!(msg(MsgKind::ReadShared).payload_bytes(), 0);
        assert_eq!(msg(MsgKind::Data { data: block.clone() }).payload_bytes(), 64);
        assert_eq!(msg(MsgKind::UpdateWrite { val: 1 }).payload_bytes(), 4);
        assert_eq!(
            msg(MsgKind::AtomicReq { op: AtomicOp::FetchAdd, operand: 1, operand2: 0 }).payload_bytes(),
            8
        );
        assert_eq!(
            msg(MsgKind::AtomicReply { old: 0, data: Some(block.clone()), acks: 0 }).payload_bytes(),
            64
        );
        assert_eq!(msg(MsgKind::AtomicReply { old: 0, data: None, acks: 0 }).payload_bytes(), 4);
        // FetchMiss wraps the original request's size.
        let orig = msg(MsgKind::GetX);
        assert_eq!(msg(MsgKind::FetchMiss { original: Box::new(orig) }).payload_bytes(), 0);
    }

    #[test]
    fn codec_round_trips_every_variant() {
        let block = || vec![3u32; 16].into_boxed_slice();
        let originals: Vec<Msg> = vec![
            msg(MsgKind::ReadShared),
            msg(MsgKind::GetX),
            msg(MsgKind::Upgrade),
            msg(MsgKind::UpdateWrite { val: 7 }),
            msg(MsgKind::UpdateWriteAlloc { val: 8 }),
            msg(MsgKind::AtomicReq { op: AtomicOp::CompareAndSwap, operand: 1, operand2: 2 }),
            msg(MsgKind::WriteBack { data: block() }),
            msg(MsgKind::SharerDrop),
            msg(MsgKind::StopUpdate),
            msg(MsgKind::Data { data: block() }),
            msg(MsgKind::DataX { data: block(), acks: 3 }),
            msg(MsgKind::UpgradeAck { acks: 4 }),
            msg(MsgKind::UpdateInfo { acks: 5, go_private: true }),
            msg(MsgKind::DataUpd { data: block(), acks: 6 }),
            msg(MsgKind::UpdateMsg { val: 9, writer: 2 }),
            msg(MsgKind::AtomicReply { old: 10, data: Some(block()), acks: 7 }),
            msg(MsgKind::AtomicReply { old: 11, data: None, acks: 0 }),
            msg(MsgKind::Inval { requester: 4 }),
            msg(MsgKind::Fetch { requester: 6 }),
            msg(MsgKind::FetchInv { requester: 7 }),
            msg(MsgKind::RecallUpd),
            msg(MsgKind::InvAck),
            msg(MsgKind::UpdateAck),
            msg(MsgKind::DataFwd { data: block() }),
            msg(MsgKind::DataXFwd { data: block() }),
            msg(MsgKind::SharingWB { data: block(), requester: 10 }),
            msg(MsgKind::OwnershipXfer { to: 11 }),
            msg(MsgKind::RecallReply { data: block() }),
            msg(MsgKind::FetchMiss { original: Box::new(msg(MsgKind::GetX)) }),
            // Nested FetchMiss (eviction race during a forwarded miss).
            msg(MsgKind::FetchMiss {
                original: Box::new(msg(MsgKind::FetchMiss {
                    original: Box::new(msg(MsgKind::DataX { data: block(), acks: 1 })),
                })),
            }),
        ];
        let mut w = sim_engine::SnapWriter::new();
        for m in &originals {
            m.encode(&mut w);
        }
        let payload = w.into_vec();
        let mut r = sim_engine::SnapReader::new(&payload);
        for m in &originals {
            assert_eq!(&Msg::decode(&mut r).unwrap(), m);
        }
        assert_eq!(r.remaining(), 0);
        // The index is the codec tag, and the name table follows it.
        let mut seen = [false; MsgKind::COUNT];
        for m in &originals {
            let mut w = sim_engine::SnapWriter::new();
            m.encode(&mut w);
            let bytes = w.into_vec();
            let mut r = sim_engine::SnapReader::new(&bytes);
            let (_, _, _) = (r.usize().unwrap(), r.usize().unwrap(), r.u32().unwrap());
            assert_eq!(usize::from(r.u8().unwrap()), m.kind.index());
            let debug = format!("{:?}", m.kind);
            let variant = debug.split(|c: char| !c.is_alphanumeric()).next().unwrap();
            assert_eq!(m.kind.name(), variant);
            seen[m.kind.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "every kind is exercised");
    }

    #[test]
    fn codec_rejects_unknown_tags() {
        let mut w = sim_engine::SnapWriter::new();
        w.usize(0); // src
        w.usize(1); // dst
        w.u32(0x40); // addr
        w.u8(200); // no such MsgKind
        let payload = w.into_vec();
        let mut r = sim_engine::SnapReader::new(&payload);
        assert!(Msg::decode(&mut r).is_err());
    }

    /// A block payload is exactly one block: a `Data` message whose length
    /// prefix says 15 or 17 words is refused as corrupt.
    #[test]
    fn codec_rejects_blocks_of_the_wrong_length() {
        let data_msg = |words: usize| {
            let mut w = sim_engine::SnapWriter::new();
            w.usize(0); // src
            w.usize(1); // dst
            w.u32(0x40); // addr
            w.u8(MsgKind::Data { data: Box::new([]) }.index() as u8);
            w.usize(words);
            w.u32_slice(&vec![3; words]);
            w.into_vec()
        };
        let ok = data_msg(16);
        assert_eq!(
            Msg::decode(&mut sim_engine::SnapReader::new(&ok)).unwrap(),
            msg(MsgKind::Data { data: vec![3; 16].into_boxed_slice() })
        );
        for words in [15, 17] {
            let bad = data_msg(words);
            let err = Msg::decode(&mut sim_engine::SnapReader::new(&bad)).unwrap_err();
            assert!(matches!(err, SnapError::Corrupt(_)), "{words} words: {err:?}");
        }
    }

    #[test]
    fn memory_service_classes() {
        let block = vec![0u32; 16].into_boxed_slice();
        assert_eq!(msg(MsgKind::ReadShared).mem_service(), MemService::Block);
        assert_eq!(msg(MsgKind::Upgrade).mem_service(), MemService::Word);
        assert_eq!(msg(MsgKind::Inval { requester: 0 }).mem_service(), MemService::None);
        assert_eq!(msg(MsgKind::WriteBack { data: block }).mem_service(), MemService::Block);
        assert_eq!(msg(MsgKind::UpdateWrite { val: 0 }).mem_service(), MemService::Word);
        assert_eq!(msg(MsgKind::InvAck).mem_service(), MemService::None);
    }
}
