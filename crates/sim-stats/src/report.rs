//! Classified-traffic counters and the per-run report.

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};

use crate::json::Json;

/// The miss categories of Section 3.2 (plus exclusive requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First reference to the block by this processor.
    Cold,
    /// Block was invalidated by another processor's write to the very word
    /// now referenced (or to a word written since the copy was lost).
    TrueSharing,
    /// Block was invalidated by another processor's write to a different
    /// word than any referenced by the missing processor.
    FalseSharing,
    /// Block was displaced by a direct-mapped conflict and reloaded.
    Eviction,
    /// Block was self-invalidated (competitive-update drop, or an explicit
    /// user-level flush as used by the update-conscious MCS lock).
    Drop,
}

/// Miss counters (one per class) plus upgrade transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissStats {
    /// Cold-start misses (useful).
    pub cold: u64,
    /// True-sharing misses (useful).
    pub true_sharing: u64,
    /// False-sharing misses (useless).
    pub false_sharing: u64,
    /// Eviction (replacement) misses (useless).
    pub eviction: u64,
    /// Drop misses (useless).
    pub drop: u64,
    /// Exclusive-request (upgrade) transactions: a write to a read-shared
    /// block already cached by the writer under WI. Not a miss, but traffic.
    pub exclusive_requests: u64,
}

impl MissStats {
    /// Total misses (upgrades excluded — they are not misses).
    pub fn total_misses(&self) -> u64 {
        self.cold + self.true_sharing + self.false_sharing + self.eviction + self.drop
    }

    /// Useful misses: cold start + true sharing.
    pub fn useful(&self) -> u64 {
        self.cold + self.true_sharing
    }

    /// Useless misses: everything else.
    pub fn useless(&self) -> u64 {
        self.false_sharing + self.eviction + self.drop
    }

    pub(crate) fn bump(&mut self, class: MissClass) {
        match class {
            MissClass::Cold => self.cold += 1,
            MissClass::TrueSharing => self.true_sharing += 1,
            MissClass::FalseSharing => self.false_sharing += 1,
            MissClass::Eviction => self.eviction += 1,
            MissClass::Drop => self.drop += 1,
        }
    }

    /// Writes the six counters in declaration order.
    pub fn encode(&self, w: &mut SnapWriter) {
        for v in [
            self.cold,
            self.true_sharing,
            self.false_sharing,
            self.eviction,
            self.drop,
            self.exclusive_requests,
        ] {
            w.u64(v);
        }
    }

    /// Reads counters written by [`MissStats::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(MissStats {
            cold: r.u64()?,
            true_sharing: r.u64()?,
            false_sharing: r.u64()?,
            eviction: r.u64()?,
            drop: r.u64()?,
            exclusive_requests: r.u64()?,
        })
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &MissStats) {
        self.cold += other.cold;
        self.true_sharing += other.true_sharing;
        self.false_sharing += other.false_sharing;
        self.eviction += other.eviction;
        self.drop += other.drop;
        self.exclusive_requests += other.exclusive_requests;
    }

    /// Serializes every counter by name.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cold", Json::U64(self.cold)),
            ("true_sharing", Json::U64(self.true_sharing)),
            ("false_sharing", Json::U64(self.false_sharing)),
            ("eviction", Json::U64(self.eviction)),
            ("drop", Json::U64(self.drop)),
            ("exclusive_requests", Json::U64(self.exclusive_requests)),
        ])
    }
}

/// The update-message categories of Section 3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateClass {
    /// The receiver referenced the updated word before it was overwritten —
    /// required for correctness (useful).
    TrueSharing,
    /// The receiver did not reference the updated word but did reference
    /// another word of the block during the update's lifetime.
    FalseSharing,
    /// The receiver referenced nothing in the block before the update was
    /// overwritten.
    Proliferation,
    /// The receiver replaced the block before referencing the updated word.
    Replacement,
    /// A proliferation update still live when the program ended.
    Termination,
    /// The update that triggered a competitive-update self-invalidation.
    Drop,
}

/// Update-message counters, one per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Useful (true-sharing) updates.
    pub true_sharing: u64,
    /// False-sharing updates.
    pub false_sharing: u64,
    /// Proliferation updates.
    pub proliferation: u64,
    /// Replacement updates.
    pub replacement: u64,
    /// Termination updates.
    pub termination: u64,
    /// Drop updates.
    pub drop: u64,
}

impl UpdateStats {
    /// Total update messages delivered to sharer caches.
    pub fn total(&self) -> u64 {
        self.true_sharing
            + self.false_sharing
            + self.proliferation
            + self.replacement
            + self.termination
            + self.drop
    }

    /// Useful updates (true sharing only).
    pub fn useful(&self) -> u64 {
        self.true_sharing
    }

    /// Useless updates.
    pub fn useless(&self) -> u64 {
        self.total() - self.useful()
    }

    pub(crate) fn bump(&mut self, class: UpdateClass) {
        match class {
            UpdateClass::TrueSharing => self.true_sharing += 1,
            UpdateClass::FalseSharing => self.false_sharing += 1,
            UpdateClass::Proliferation => self.proliferation += 1,
            UpdateClass::Replacement => self.replacement += 1,
            UpdateClass::Termination => self.termination += 1,
            UpdateClass::Drop => self.drop += 1,
        }
    }

    /// Writes the six counters in declaration order.
    pub fn encode(&self, w: &mut SnapWriter) {
        for v in [
            self.true_sharing,
            self.false_sharing,
            self.proliferation,
            self.replacement,
            self.termination,
            self.drop,
        ] {
            w.u64(v);
        }
    }

    /// Reads counters written by [`UpdateStats::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(UpdateStats {
            true_sharing: r.u64()?,
            false_sharing: r.u64()?,
            proliferation: r.u64()?,
            replacement: r.u64()?,
            termination: r.u64()?,
            drop: r.u64()?,
        })
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &UpdateStats) {
        self.true_sharing += other.true_sharing;
        self.false_sharing += other.false_sharing;
        self.proliferation += other.proliferation;
        self.replacement += other.replacement;
        self.termination += other.termination;
        self.drop += other.drop;
    }

    /// Serializes every counter by name.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("true_sharing", Json::U64(self.true_sharing)),
            ("false_sharing", Json::U64(self.false_sharing)),
            ("proliferation", Json::U64(self.proliferation)),
            ("replacement", Json::U64(self.replacement)),
            ("termination", Json::U64(self.termination)),
            ("drop", Json::U64(self.drop)),
        ])
    }
}

/// Classified traffic attributed to one registered data structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StructureTraffic {
    /// The name given at registration.
    pub name: String,
    /// Misses on addresses inside the structure's range.
    pub misses: MissStats,
    /// Updates for addresses inside the structure's range.
    pub updates: UpdateStats,
}

/// Everything the classifier measured in one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Machine-wide miss classification.
    pub misses: MissStats,
    /// Machine-wide update classification.
    pub updates: UpdateStats,
    /// Shared-data read references issued by processors.
    pub shared_reads: u64,
    /// Shared-data write references issued by processors.
    pub shared_writes: u64,
    /// Shared-data atomic operations issued by processors.
    pub shared_atomics: u64,
    /// Per-structure attribution (in registration order); empty unless
    /// ranges were registered via `Classifier::register_structure`.
    pub by_structure: Vec<StructureTraffic>,
}

impl TrafficReport {
    /// Miss rate with respect to shared references only, as in the paper.
    pub fn miss_rate(&self) -> f64 {
        let refs = self.shared_reads + self.shared_writes + self.shared_atomics;
        if refs == 0 {
            0.0
        } else {
            self.misses.total_misses() as f64 / refs as f64
        }
    }

    /// Writes every counter: the machine-wide misses and updates, the shared
    /// reference counts, then each structure's misses and updates by
    /// registration index. Names are not written: a checkpoint restores
    /// into a report its machine registered identically.
    pub fn encode(&self, w: &mut SnapWriter) {
        self.misses.encode(w);
        self.updates.encode(w);
        w.u64(self.shared_reads);
        w.u64(self.shared_writes);
        w.u64(self.shared_atomics);
        w.usize(self.by_structure.len());
        for s in &self.by_structure {
            s.misses.encode(w);
            s.updates.encode(w);
        }
    }

    /// Reads the counters [`TrafficReport::encode`] wrote into this report,
    /// whose structures must already be registered under their names.
    pub fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.misses = MissStats::decode(r)?;
        self.updates = UpdateStats::decode(r)?;
        self.shared_reads = r.u64()?;
        self.shared_writes = r.u64()?;
        self.shared_atomics = r.u64()?;
        if r.usize()? != self.by_structure.len() {
            return Err(SnapError::Corrupt("structure registration count mismatch"));
        }
        for s in &mut self.by_structure {
            s.misses = MissStats::decode(r)?;
            s.updates = UpdateStats::decode(r)?;
        }
        Ok(())
    }

    /// Serializes the whole report, including per-structure attribution.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("misses", self.misses.to_json()),
            ("updates", self.updates.to_json()),
            ("shared_reads", Json::U64(self.shared_reads)),
            ("shared_writes", Json::U64(self.shared_writes)),
            ("shared_atomics", Json::U64(self.shared_atomics)),
            ("miss_rate", Json::F64(self.miss_rate())),
            (
                "by_structure",
                Json::Arr(
                    self.by_structure
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::from(s.name.as_str())),
                                ("misses", s.misses.to_json()),
                                ("updates", s.updates.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_totals() {
        let mut m = MissStats::default();
        m.bump(MissClass::Cold);
        m.bump(MissClass::Cold);
        m.bump(MissClass::TrueSharing);
        m.bump(MissClass::FalseSharing);
        m.bump(MissClass::Eviction);
        m.bump(MissClass::Drop);
        m.exclusive_requests = 3;
        assert_eq!(m.total_misses(), 6);
        assert_eq!(m.useful(), 3);
        assert_eq!(m.useless(), 3);
    }

    #[test]
    fn update_totals() {
        let mut u = UpdateStats::default();
        for c in [
            UpdateClass::TrueSharing,
            UpdateClass::FalseSharing,
            UpdateClass::Proliferation,
            UpdateClass::Replacement,
            UpdateClass::Termination,
            UpdateClass::Drop,
        ] {
            u.bump(c);
        }
        assert_eq!(u.total(), 6);
        assert_eq!(u.useful(), 1);
        assert_eq!(u.useless(), 5);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = MissStats { cold: 1, ..Default::default() };
        let b = MissStats { cold: 2, drop: 3, exclusive_requests: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.cold, 3);
        assert_eq!(a.drop, 3);
        assert_eq!(a.exclusive_requests, 1);

        let mut u = UpdateStats { true_sharing: 5, ..Default::default() };
        u.merge(&UpdateStats { true_sharing: 1, drop: 2, ..Default::default() });
        assert_eq!(u.true_sharing, 6);
        assert_eq!(u.drop, 2);
    }

    #[test]
    fn miss_rate_counts_shared_refs_only() {
        let mut r = TrafficReport::default();
        assert_eq!(r.miss_rate(), 0.0);
        r.shared_reads = 8;
        r.shared_writes = 2;
        r.misses.cold = 5;
        assert!((r.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn report_serializes_and_parses() {
        let r = TrafficReport {
            misses: MissStats { cold: 4, true_sharing: 2, ..Default::default() },
            updates: UpdateStats { proliferation: 7, ..Default::default() },
            shared_reads: 10,
            shared_writes: 2,
            shared_atomics: 0,
            by_structure: vec![StructureTraffic {
                name: "lock".to_string(),
                misses: MissStats { cold: 1, ..Default::default() },
                updates: UpdateStats::default(),
            }],
        };
        let parsed = Json::parse(&r.to_json().render()).unwrap();
        assert_eq!(parsed.get("misses").unwrap().get("cold").and_then(Json::as_u64), Some(4));
        assert_eq!(parsed.get("updates").unwrap().get("proliferation").and_then(Json::as_u64), Some(7));
        let by = parsed.get("by_structure").unwrap().as_arr().unwrap();
        assert_eq!(by[0].get("name").and_then(Json::as_str), Some("lock"));
    }
}
