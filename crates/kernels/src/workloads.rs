//! Workload specifications: which construct, which variant, how much work.

/// Which spin-lock algorithm to run.
///
/// `Ticket`, `Mcs`, and `McsUpdateConscious` are the paper's Section 2.1
/// subjects; `TestAndSet` and `TestAndTestAndSet` are the classic
/// baselines from Mellor-Crummey & Scott's study (which the paper's
/// experiments are modelled on), included as an extension.
/// `McsFlushPred`, `McsFlushSucc` and `TicketPadded` are the variants the
/// `all_figures` ablations A4 and A6 measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// Centralized ticket lock (Figure 1).
    Ticket,
    /// MCS list-based queuing lock (Figure 2).
    Mcs,
    /// The paper's update-conscious MCS: flushes the predecessor's queue
    /// node after linking and the successor's after handoff.
    McsUpdateConscious,
    /// Naive test-and-set: spin on `fetch_and_store(L, 1)` with bounded
    /// exponential backoff.
    TestAndSet,
    /// Test-and-test-and-set: spin reading until the lock looks free, then
    /// attempt the atomic (with the same backoff).
    TestAndTestAndSet,
    /// Anderson's array-based queue lock: `fetch_and_add` assigns each
    /// waiter its own (block-padded) slot to spin on; release passes the
    /// flag to the next slot.
    AndersonQueue,
    /// MCS flushing only the predecessor's queue node after linking
    /// (one side of the update-conscious flush).
    McsFlushPred,
    /// MCS flushing only the successor's queue node after handoff (the
    /// other side).
    McsFlushSucc,
    /// The ticket lock with each counter in a cache block of its own (a
    /// protocol-conscious layout; `Ticket` keeps Figure 1's one record).
    TicketPadded,
}

impl LockKind {
    /// Label used in the paper's figures ("tk", "MCS", "uc") and this
    /// repository's extensions ("tas", "ttas", ...).
    pub fn label(self) -> &'static str {
        match self {
            LockKind::Ticket => "tk",
            LockKind::Mcs => "MCS",
            LockKind::McsUpdateConscious => "uc",
            LockKind::TestAndSet => "tas",
            LockKind::TestAndTestAndSet => "ttas",
            LockKind::AndersonQueue => "and",
            LockKind::McsFlushPred => "uc-pred",
            LockKind::McsFlushSucc => "uc-succ",
            LockKind::TicketPadded => "tk-pad",
        }
    }
}

/// Which barrier algorithm to run (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierKind {
    /// Sense-reversing centralized barrier (Figure 3).
    Centralized,
    /// Dissemination barrier (Figure 4).
    Dissemination,
    /// 4-ary arrival tree + global wake-up flag (Figure 5).
    Tree,
}

impl BarrierKind {
    /// Label used in the paper's figures ("cb", "db", "tb").
    pub fn label(self) -> &'static str {
        match self {
            BarrierKind::Centralized => "cb",
            BarrierKind::Dissemination => "db",
            BarrierKind::Tree => "tb",
        }
    }
}

/// Which reduction strategy to run (Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionKind {
    /// All processors update the global value inside a critical section
    /// (Figure 6).
    Parallel,
    /// Processor 0 combines per-processor values sequentially (Figure 7).
    Sequential,
}

impl ReductionKind {
    /// Label used in the paper's figures ("pr", "sr").
    pub fn label(self) -> &'static str {
        match self {
            ReductionKind::Parallel => "pr",
            ReductionKind::Sequential => "sr",
        }
    }
}

/// What a processor does between releasing a lock and trying to grab it
/// again (the Section 4.1 variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostRelease {
    /// Tight loop: re-acquire immediately (the main experiment).
    None,
    /// Waste a pseudo-random, bounded amount of time (reduced contention).
    Random {
        /// Exclusive upper bound on the wasted cycles.
        bound: u32,
    },
    /// Work outside ≈ `ratio` × work inside the critical section, jittered
    /// by ±10% (the controlled-contention experiment).
    Proportional {
        /// Outside/inside work ratio (the paper sets it to P).
        ratio: u32,
    },
}

/// The lock synthetic program: `total_acquires / P` iterations per
/// processor of acquire → `cs_cycles` of work → release (Section 4.1).
#[derive(Debug, Clone, Copy)]
pub struct LockWorkload {
    /// Lock algorithm.
    pub kind: LockKind,
    /// Machine-wide number of acquire/release pairs (paper: 32000).
    pub total_acquires: u32,
    /// Cycles spent holding the lock (paper: 50).
    pub cs_cycles: u32,
    /// Post-release behavior.
    pub post_release: PostRelease,
}

impl LockWorkload {
    /// The paper's Figure 8 workload for the given lock.
    pub fn paper(kind: LockKind) -> Self {
        LockWorkload { kind, total_acquires: 32_000, cs_cycles: 50, post_release: PostRelease::None }
    }
}

/// The barrier synthetic program: `episodes` barrier episodes in a tight
/// loop (Section 4.2; paper: 5000).
#[derive(Debug, Clone, Copy)]
pub struct BarrierWorkload {
    /// Barrier algorithm.
    pub kind: BarrierKind,
    /// Barrier episodes per processor.
    pub episodes: u32,
}

impl BarrierWorkload {
    /// The paper's Figure 11 workload for the given barrier.
    pub fn paper(kind: BarrierKind) -> Self {
        BarrierWorkload { kind, episodes: 5000 }
    }
}

/// The reduction synthetic program: `episodes` reductions in a tight loop
/// under zero-traffic synchronization (Section 4.3; paper: 5000).
#[derive(Debug, Clone, Copy)]
pub struct ReductionWorkload {
    /// Reduction strategy.
    pub kind: ReductionKind,
    /// Reductions per processor.
    pub episodes: u32,
    /// Pre-reduction random skew bound (0 = tightly synchronized; nonzero
    /// reproduces the text's load-imbalance variant).
    pub skew: u32,
}

impl ReductionWorkload {
    /// The paper's Figure 14 workload for the given strategy.
    pub fn paper(kind: ReductionKind) -> Self {
        ReductionWorkload { kind, episodes: 5000, skew: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figures() {
        assert_eq!(LockKind::Ticket.label(), "tk");
        assert_eq!(LockKind::Mcs.label(), "MCS");
        assert_eq!(LockKind::McsUpdateConscious.label(), "uc");
        assert_eq!(BarrierKind::Centralized.label(), "cb");
        assert_eq!(BarrierKind::Dissemination.label(), "db");
        assert_eq!(BarrierKind::Tree.label(), "tb");
        assert_eq!(ReductionKind::Parallel.label(), "pr");
        assert_eq!(ReductionKind::Sequential.label(), "sr");
    }

    #[test]
    fn paper_workload_parameters() {
        let l = LockWorkload::paper(LockKind::Ticket);
        assert_eq!((l.total_acquires, l.cs_cycles), (32_000, 50));
        assert_eq!(BarrierWorkload::paper(BarrierKind::Tree).episodes, 5000);
        let r = ReductionWorkload::paper(ReductionKind::Sequential);
        assert_eq!((r.episodes, r.skew), (5000, 0));
    }
}
