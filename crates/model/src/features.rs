//! The feature taxonomy of the paper's Table 1 ("Evolution of
//! Full-Broadcast, Write-In Cache-Synchronization Schemes"), as the
//! provided [`Protocol::features`](crate::Protocol::features) reports it.
//!
//! * **Derived** from the protocol's Figure 10 arcs
//!   ([`FeatureSet::from_arcs`]): Features 1, 4, 5, 7, 8, 9, 10, note 1
//!   and the Section D write policy, so the table cannot claim a feature
//!   the arcs do not implement.
//! * **Declared** beside the states ([`LineState::DISTRIBUTED`],
//!   [`LineState::DIRECTORY`], [`LineState::ATOMIC_RMW`]): Features 2, 3
//!   and 6. No arc shows which status bits are distributed or how the
//!   directory is organised. Feature 6 grades each paper's claim: the arcs
//!   of Goodman, Yen and classic write-through send `Rmw` to memory, which
//!   would derive hold-memory, where the paper leaves Goodman's and Yen's
//!   cells blank.
//!
//! The engine reads only Feature 3 and [`SourcePolicy::arbitrated`], so
//! building a system never runs the derivation.

use crate::arcs::{installed, Arcs, ProcArc};
use crate::bus::{BusOp, SnoopSummary, UpdateTarget};
use crate::ops::AccessKind;
use crate::protocol::{CompleteOutcome, LineState, Privilege, ProcAction, StateDescriptor};
use std::fmt;

/// Feature 2: which status bits are fully distributed among the caches
/// (R/W/L/D/S in the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistributedState {
    /// Read privilege.
    pub read: bool,
    /// Write privilege.
    pub write: bool,
    /// Lock privilege (only the paper's proposal).
    pub lock: bool,
    /// Dirty status.
    pub dirty: bool,
    /// Source status (Frank keeps a source bit in main memory instead).
    pub source: bool,
}

impl DistributedState {
    /// All of read/write/dirty/source, but not lock — the common case of
    /// the 1983–85 protocols.
    pub const RWDS: DistributedState =
        DistributedState { read: true, write: true, lock: false, dirty: true, source: true };

    /// Read/write/dirty only; source status lives in memory (Frank).
    pub const RWD: DistributedState =
        DistributedState { read: true, write: true, lock: false, dirty: true, source: false };

    /// Everything including lock status (the paper's proposal).
    pub const RWLDS: DistributedState =
        DistributedState { read: true, write: true, lock: true, dirty: true, source: true };
}

impl fmt::Display for DistributedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.read {
            f.write_str("R")?;
        }
        if self.write {
            f.write_str("W")?;
        }
        if self.lock {
            f.write_str("L")?;
        }
        if self.dirty {
            f.write_str("D")?;
        }
        if self.source {
            f.write_str("S")?;
        }
        Ok(())
    }
}

/// Feature 3: how the cache directory is organized.
///
/// The paper asks whether updating status bits interferes with the
/// directory port the *other* side needs:
///
/// * **Identical dual** (ID): processor and bus each have a directory, but
///   both copies must be updated when status changes — a dirty-status
///   update (write hit to a clean block) steals a bus-directory cycle, and
///   a waiter-status update steals a processor-directory cycle.
/// * **Dual-ported read** (DPR, Katz et al.): one directory, reads are
///   dual-ported but *writes* are not, so every status write interferes.
/// * **Non-identical dual** (NID, the paper's proposal): dirty status lives
///   only in the processor directory and waiter status only in the bus
///   directory — status updates never interfere.
///
/// [`DirectoryDuality::interference_per_update`] prices one update; the
/// simulator charges it per dirty- and waiter-status update (experiment
/// E11). Experiment E4 measures how often dirty status changes, against
/// the paper's 0.2%–1.2% estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectoryDuality {
    /// Two identical directories, one per port (classic; Goodman, Frank,
    /// Papamarcos & Patel).
    IdenticalDual,
    /// Two non-identical directories: dirty status only in the processor
    /// directory, waiter status only in the bus directory — eliminates
    /// status-update interference (the paper's proposal).
    NonIdenticalDual,
    /// One directory with a dual-ported read (Katz et al.); reduces
    /// hardware but write cycles interfere.
    DualPortedRead,
}

impl DirectoryDuality {
    /// The cycles one status update steals from the other side's directory
    /// port: one, unless each status lives only on its own side.
    pub fn interference_per_update(self) -> u64 {
        match self {
            DirectoryDuality::IdenticalDual | DirectoryDuality::DualPortedRead => 1,
            DirectoryDuality::NonIdenticalDual => 0,
        }
    }
}

impl fmt::Display for DirectoryDuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DirectoryDuality::IdenticalDual => "ID",
            DirectoryDuality::NonIdenticalDual => "NID",
            DirectoryDuality::DualPortedRead => "DPR",
        })
    }
}

/// Feature 5: how "unshared" status is determined when fetching data for
/// write privilege on a read miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingDetermination {
    /// Dynamically, via the open-collector bus *hit* line (Papamarcos &
    /// Patel; the paper's proposal; Dragon and Firefly).
    Dynamic,
    /// Statically, via a compiler-inserted read-for-write instruction
    /// (Yen et al.; Katz et al.).
    Static,
}

impl fmt::Display for SharingDetermination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SharingDetermination::Dynamic => "D",
            SharingDetermination::Static => "S",
        })
    }
}

/// Feature 6: how processor atomic read-modify-write instructions are
/// serialized (the four methods of Section F.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmwMethod {
    /// Method 1: access and hold the main-memory module for the whole
    /// operation (Rudolph & Segall).
    HoldMemory,
    /// Method 2: fetch the block for sole access at the start and hold the
    /// cache through the operation (Frank; Katz et al.'s planned
    /// test-and-set).
    FetchAndHoldCache,
    /// Method 3: fetch write privilege only at the write; abort the
    /// instruction if the block was stolen between read and write.
    OptimisticAbort,
    /// Method 4: lock just the target atom with the cache lock state
    /// (the paper's proposal, Section E.3).
    LockState,
}

impl fmt::Display for RmwMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RmwMethod::HoldMemory => "hold-memory",
            RmwMethod::FetchAndHoldCache => "fetch-and-hold-cache",
            RmwMethod::OptimisticAbort => "optimistic-abort",
            RmwMethod::LockState => "lock-state",
        })
    }
}

/// Feature 7: what happens to the block on a cache-to-cache transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushPolicy {
    /// Flush the block to memory concurrently with the transfer
    /// (Goodman, Papamarcos & Patel).
    Flush,
    /// Do not flush; if `transfer_status` the clean/dirty status travels
    /// with the block (Katz et al.; the paper's proposal).
    NoFlush {
        /// Whether clean/dirty status is transferred with the block.
        transfer_status: bool,
    },
}

impl fmt::Display for FlushPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlushPolicy::Flush => f.write_str("F"),
            FlushPolicy::NoFlush { transfer_status: true } => f.write_str("NF,S"),
            FlushPolicy::NoFlush { transfer_status: false } => f.write_str("NF"),
        }
    }
}

/// Feature 8: how many caches may hold source status for a read-privilege
/// block, and what happens when the source is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourcePolicy {
    /// The protocol has no source for read-privilege blocks (only
    /// dirty/exclusive blocks have a source): Goodman, Frank, Yen.
    NoReadSource,
    /// Multiple sources allowed; potential sources arbitrate before one
    /// provides the block (Papamarcos & Patel) — slows the transfer.
    Arbitrate,
    /// A single source; if it purges the block, the next fetch is serviced
    /// by memory (Katz et al.).
    MemoryOnLoss,
    /// A single source, but the *last fetcher* becomes the new source, so
    /// LRU replacement across caches tends to preserve a source
    /// (the paper's proposal). Falls back to memory when lost.
    LruLastFetcher,
}

impl SourcePolicy {
    /// Must several sources of a read-shared block arbitrate (ARB)? True
    /// when every read-privilege state is a source. A walk over the states
    /// that allocates nothing, for `System::new`; it agrees with the
    /// derived row for every protocol.
    pub fn arbitrated<S: LineState>() -> bool {
        let reads = || {
            S::all().iter().map(|s| s.descriptor()).filter(|d| d.privilege == Some(Privilege::Read))
        };
        reads().next().is_some() && reads().all(|d| d.source)
    }
}

impl fmt::Display for SourcePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SourcePolicy::NoReadSource => "-",
            SourcePolicy::Arbitrate => "ARB",
            SourcePolicy::MemoryOnLoss => "MEM",
            SourcePolicy::LruLastFetcher => "LRU,MEM",
        })
    }
}

/// A protocol's full Table 1 feature set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSet {
    /// Feature 1: cache-to-cache transfer with serialization of conflicting
    /// single reads and writes.
    pub cache_to_cache: bool,
    /// Table 1 note 1: does a source cache service *read*-privilege
    /// requests, or only write-privilege requests (Frank)?
    pub c2c_serves_reads: bool,
    /// Feature 2: fully-distributed state information.
    pub distributed: DistributedState,
    /// Feature 3: directory duality.
    pub directory: DirectoryDuality,
    /// Feature 4: bus invalidate signal (no invalidation write-through).
    pub bus_invalidate_signal: bool,
    /// Feature 5: fetching unshared data for write privilege on read miss.
    pub read_for_write: Option<SharingDetermination>,
    /// Feature 6: processor atomic read-modify-write support.
    pub atomic_rmw: Option<RmwMethod>,
    /// Feature 7: flushing on cache-to-cache transfer.
    pub flush_on_transfer: FlushPolicy,
    /// Feature 8: number of sources for a read-privilege block.
    pub source_policy: SourcePolicy,
    /// Feature 9: writing without fetch on write miss.
    pub write_no_fetch: bool,
    /// Feature 10: efficient busy wait.
    pub efficient_busy_wait: bool,
    /// Section D: is this a write-in (write-back) scheme, a write-through
    /// scheme, or a hybrid (Rudolph-Segall, Dragon, Firefly)?
    pub write_policy: WritePolicy,
}

/// Section D: the policy for updating other caches on writes to shared data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-in (write-back): invalidate other copies on a write.
    WriteIn,
    /// Write-through: update other copies (and memory) on every write.
    WriteThrough,
    /// Write-through for actively shared data, write-in otherwise
    /// (Dragon, Firefly, Rudolph-Segall).
    Hybrid,
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WritePolicy::WriteIn => "write-in",
            WritePolicy::WriteThrough => "write-through",
            WritePolicy::Hybrid => "hybrid",
        })
    }
}

impl FeatureSet {
    /// Derives each behavioural row as one "some arc does X" test, and
    /// takes Features 2, 3 and 6 from the states' declarations.
    pub fn from_arcs<S: LineState>(arcs: &Arcs<S>) -> FeatureSet {
        use AccessKind::{LockRead, Read, ReadForWrite, Write, WriteNoFetch};
        let invalid = S::invalid();
        let bus = |a: &ProcArc<S>| match a.action {
            ProcAction::Bus { op } => Some(op),
            ProcAction::Hit { .. } => None,
        };
        let miss =
            |kind| arcs.proc.iter().find(|a| a.from == invalid && a.kind == kind).and_then(bus);
        // The bus request, if any, of each write from a valid state.
        let writes = || {
            arcs.proc.iter().filter(|a| a.kind == Write && a.from.descriptor().is_valid()).map(bus)
        };
        // Valid lines supplying the block to another cache's fetch.
        let transfers: Vec<_> = arcs
            .snoop
            .iter()
            .filter(|a| a.from.descriptor().is_valid() && matches!(a.op, BusOp::Fetch { .. }))
            .filter(|a| a.outcome.reply.supplies_data)
            .collect();
        let read_transfers: Vec<_> = transfers
            .iter()
            .filter(|a| matches!(a.op, BusOp::Fetch { privilege: Privilege::Read, .. }))
            .collect();
        // The read miss's completions, and whether they install a state that `has` something.
        let read_miss = |has: fn(&StateDescriptor) -> bool, summary: fn(&SnoopSummary) -> bool| {
            arcs.complete.iter().any(|a| {
                a.from == invalid
                    && a.kind == Read
                    && summary(&a.summary)
                    && installed(&a.outcome).is_some_and(|s| has(&s.descriptor()))
            })
        };

        let read_for_write = if read_miss(StateDescriptor::can_write, |s| !s.any_hit) {
            Some(SharingDetermination::Dynamic)
        } else if matches!(
            miss(ReadForWrite),
            Some(BusOp::Fetch { privilege: Privilege::Write, .. })
        ) {
            Some(SharingDetermination::Static)
        } else {
            None
        };
        let flush_on_transfer = if transfers.is_empty()
            || transfers.iter().any(|a| a.from.descriptor().dirty && a.outcome.reply.flushes)
        {
            FlushPolicy::Flush
        } else {
            // Status travels only where a clean source supplies reads.
            let clean_source = |d: StateDescriptor| d.source && !d.dirty;
            FlushPolicy::NoFlush {
                transfer_status: read_transfers.iter().any(|a| clean_source(a.from.descriptor())),
            }
        };
        let read_source = S::all()
            .iter()
            .map(|s| s.descriptor())
            .any(|d| d.privilege == Some(Privilege::Read) && d.source);
        // On a shared read fetch, does the supplier stay a source, and does
        // the fetcher become one?
        let source_stays = read_transfers.iter().any(|a| a.outcome.next.descriptor().source);
        let fetcher_becomes_source = read_miss(|d| d.source, |s| s.source_dirty.is_some());
        let source_policy = match (read_source, source_stays, fetcher_becomes_source) {
            (false, _, _) => SourcePolicy::NoReadSource,
            (true, true, true) => SourcePolicy::Arbitrate,
            (true, false, true) => SourcePolicy::LruLastFetcher,
            (true, _, false) => SourcePolicy::MemoryOnLoss,
        };
        let write_through = BusOp::WriteWord { target: UpdateTarget::Invalidate };
        let updates = |op| {
            matches!(op, BusOp::WriteWord { .. } | BusOp::UpdateWord { .. }) && op != write_through
        };
        let write_policy = if writes().all(|op| op == Some(write_through)) {
            WritePolicy::WriteThrough
        } else if writes().flatten().any(updates) {
            WritePolicy::Hybrid
        } else {
            WritePolicy::WriteIn
        };
        FeatureSet {
            cache_to_cache: !transfers.is_empty(),
            c2c_serves_reads: !read_transfers.is_empty(),
            distributed: S::DISTRIBUTED,
            directory: S::DIRECTORY,
            // A write hit gains privilege without a memory cycle.
            bus_invalidate_signal: writes()
                .flatten()
                .any(|op| matches!(op, BusOp::Invalidate | BusOp::Fetch { need_data: false, .. })),
            read_for_write,
            atomic_rmw: S::ATOMIC_RMW,
            flush_on_transfer,
            source_policy,
            write_no_fetch: miss(WriteNoFetch) == Some(BusOp::ClaimNoFetch),
            // A lock request is denied and waits in its cache, or a waiter
            // spins on a copy that write-throughs keep updated.
            efficient_busy_wait: arcs.complete.iter().any(|a| {
                a.kind == LockRead && a.summary.locked && a.outcome == CompleteOutcome::LockDenied
            }) || writes()
                .any(|op| op == Some(BusOp::WriteWord { target: UpdateTarget::AllCopies })),
            write_policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_state_display_matches_table() {
        assert_eq!(DistributedState::RWDS.to_string(), "RWDS");
        assert_eq!(DistributedState::RWD.to_string(), "RWD");
        assert_eq!(DistributedState::RWLDS.to_string(), "RWLDS");
    }

    #[test]
    fn directory_display() {
        assert_eq!(DirectoryDuality::IdenticalDual.to_string(), "ID");
        assert_eq!(DirectoryDuality::NonIdenticalDual.to_string(), "NID");
        assert_eq!(DirectoryDuality::DualPortedRead.to_string(), "DPR");
    }

    #[test]
    fn only_non_identical_duals_update_status_without_interference() {
        assert_eq!(DirectoryDuality::IdenticalDual.interference_per_update(), 1);
        assert_eq!(DirectoryDuality::DualPortedRead.interference_per_update(), 1);
        assert_eq!(DirectoryDuality::NonIdenticalDual.interference_per_update(), 0);
    }

    #[test]
    fn flush_policy_display_matches_table() {
        assert_eq!(FlushPolicy::Flush.to_string(), "F");
        assert_eq!(FlushPolicy::NoFlush { transfer_status: true }.to_string(), "NF,S");
        assert_eq!(FlushPolicy::NoFlush { transfer_status: false }.to_string(), "NF");
    }

    #[test]
    fn source_policy_display_matches_table() {
        assert_eq!(SourcePolicy::Arbitrate.to_string(), "ARB");
        assert_eq!(SourcePolicy::MemoryOnLoss.to_string(), "MEM");
        assert_eq!(SourcePolicy::LruLastFetcher.to_string(), "LRU,MEM");
        assert_eq!(SourcePolicy::NoReadSource.to_string(), "-");
    }

    #[test]
    fn sharing_determination_display() {
        assert_eq!(SharingDetermination::Dynamic.to_string(), "D");
        assert_eq!(SharingDetermination::Static.to_string(), "S");
    }
}
