//! The bus-transaction vocabulary of a full-broadcast single-bus system.
//!
//! At each setting of the bus, one agent broadcasts a request which **every**
//! other cache snoops and may service (Section A.2). [`BusOp`] is the union
//! of the request codes used by all protocols in the paper's Table 1 plus
//! the write-through / update schemes of Section D; any given protocol emits
//! only a subset.
//!
//! Snooping caches answer over dedicated bus lines: the open-collector *hit*
//! line, the clean/dirty status driven by a source cache, a *locked* reply
//! (the paper's lock protocol), and a memory-inhibit signal. [`SnoopReply`]
//! models one cache's contribution; [`SnoopSummary`] is the wired-OR
//! aggregation the requester and memory observe.

use crate::protocol::Privilege;
use crate::types::{AgentId, BlockAddr};
use std::fmt;

/// Which copies a word write-through updates (Section D.2 / E.4).
///
/// Classic write-through invalidates other copies; Dragon/Firefly update
/// valid copies; Rudolph-Segall write-throughs update *invalid* copies as
/// well so waiters whose block was invalidated still observe the unlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateTarget {
    /// Invalidate every other copy (classic write-through; Goodman's first
    /// write).
    Invalidate,
    /// Update every *valid* copy in place (Dragon, Firefly).
    ValidCopies,
    /// Update valid **and invalid** copies (Rudolph-Segall; requires
    /// one-word blocks).
    AllCopies,
}

impl fmt::Display for UpdateTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UpdateTarget::Invalidate => "invalidate",
            UpdateTarget::ValidCopies => "update-valid",
            UpdateTarget::AllCopies => "update-all",
        })
    }
}

/// A bus request code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusOp {
    /// Fetch a block with the given privilege. `need_data` is false when the
    /// requester already holds a valid copy and only needs privilege — but
    /// note that a *separate* one-cycle upgrade has its own code,
    /// [`BusOp::Invalidate`]; `Fetch { need_data: false }` is used by
    /// protocols that must still run a full address cycle (e.g. to reach
    /// memory's source bit in Synapse).
    Fetch {
        /// Privilege requested: read, write, or lock.
        privilege: Privilege,
        /// Whether block data must be transferred to the requester.
        need_data: bool,
    },
    /// One-cycle invalidation signal: gain write privilege on a write hit
    /// without a memory cycle (Feature 4).
    Invalidate,
    /// Word write-through to main memory, affecting other copies per
    /// `target` (classic scheme; Goodman's invalidation write-through).
    WriteWord {
        /// What happens to other caches' copies.
        target: UpdateTarget,
    },
    /// Word update broadcast to other caches (Dragon); `to_memory` also
    /// updates main memory (Firefly).
    UpdateWord {
        /// Whether main memory is updated too.
        to_memory: bool,
    },
    /// Claim a whole block for write privilege without fetching data
    /// (Feature 9, write-without-fetch).
    ClaimNoFetch,
    /// Broadcast that a block has been unlocked (Section E.4). One cycle;
    /// only issued when the unlocking cache held the block in the
    /// lock-waiter state.
    UnlockBroadcast,
    /// Execute an atomic read-modify-write at the memory module, holding the
    /// module for the duration (Feature 6, method 1).
    MemoryRmw,
    /// I/O input: the I/O processor writes a block to memory and invalidates
    /// it in all caches (Section E.2).
    IoInput,
    /// I/O output: the I/O processor fetches the latest version of a block.
    /// A paging output invalidates cache copies; a non-paging output tells
    /// the source cache to keep source status.
    IoOutput {
        /// Whether this is a paging-out operation.
        paging: bool,
    },
}

impl BusOp {
    /// Every request code, one per mnemonic.
    pub const ALL: [BusOp; 18] = [
        BusOp::Fetch { privilege: Privilege::Read, need_data: true },
        BusOp::Fetch { privilege: Privilege::Read, need_data: false },
        BusOp::Fetch { privilege: Privilege::Write, need_data: true },
        BusOp::Fetch { privilege: Privilege::Write, need_data: false },
        BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
        BusOp::Fetch { privilege: Privilege::Lock, need_data: false },
        BusOp::Invalidate,
        BusOp::WriteWord { target: UpdateTarget::Invalidate },
        BusOp::WriteWord { target: UpdateTarget::ValidCopies },
        BusOp::WriteWord { target: UpdateTarget::AllCopies },
        BusOp::UpdateWord { to_memory: false },
        BusOp::UpdateWord { to_memory: true },
        BusOp::ClaimNoFetch,
        BusOp::UnlockBroadcast,
        BusOp::MemoryRmw,
        BusOp::IoInput,
        BusOp::IoOutput { paging: true },
        BusOp::IoOutput { paging: false },
    ];

    /// Does this transaction move a whole block of data?
    pub fn transfers_block(self) -> bool {
        matches!(
            self,
            BusOp::Fetch { need_data: true, .. } | BusOp::IoInput | BusOp::IoOutput { .. }
        )
    }

    /// Does this transaction move exactly one word?
    pub fn transfers_word(self) -> bool {
        matches!(self, BusOp::WriteWord { .. } | BusOp::UpdateWord { .. } | BusOp::MemoryRmw)
    }

    /// Is this a single-cycle signalling transaction (no data phase)?
    pub fn is_signal(self) -> bool {
        matches!(self, BusOp::Invalidate | BusOp::UnlockBroadcast | BusOp::ClaimNoFetch)
    }

    /// A short mnemonic used in traces and figure output.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BusOp::Fetch { privilege: Privilege::Read, need_data: true } => "fetch-read",
            BusOp::Fetch { privilege: Privilege::Read, need_data: false } => "req-read",
            BusOp::Fetch { privilege: Privilege::Write, need_data: true } => "fetch-write",
            BusOp::Fetch { privilege: Privilege::Write, need_data: false } => "req-write",
            BusOp::Fetch { privilege: Privilege::Lock, need_data: true } => "fetch-lock",
            BusOp::Fetch { privilege: Privilege::Lock, need_data: false } => "req-lock",
            BusOp::Invalidate => "invalidate",
            BusOp::WriteWord { target: UpdateTarget::Invalidate } => "write-word-inv",
            BusOp::WriteWord { target: UpdateTarget::ValidCopies } => "write-word-upd",
            BusOp::WriteWord { target: UpdateTarget::AllCopies } => "write-word-upd-all",
            BusOp::UpdateWord { to_memory: false } => "update-word",
            BusOp::UpdateWord { to_memory: true } => "update-word-mem",
            BusOp::ClaimNoFetch => "claim-no-fetch",
            BusOp::UnlockBroadcast => "unlock-bcast",
            BusOp::MemoryRmw => "memory-rmw",
            BusOp::IoInput => "io-input",
            BusOp::IoOutput { paging: true } => "io-output-paging",
            BusOp::IoOutput { paging: false } => "io-output",
        }
    }
}

impl fmt::Display for BusOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A bus transaction as observed by snooping caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTxn {
    /// The request code on the bus.
    pub op: BusOp,
    /// The block addressed.
    pub block: BlockAddr,
    /// Who is broadcasting.
    pub requester: AgentId,
    /// Whether the requester arbitrated with the reserved most-significant
    /// priority bit (a busy-wait register re-acquiring a lock, Section E.4).
    pub high_priority: bool,
}

impl fmt::Display for BusTxn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.requester, self.op, self.block)?;
        if self.high_priority {
            write!(f, " [hi-pri]")?;
        }
        Ok(())
    }
}

/// One snooping cache's contribution to the bus reply lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnoopReply {
    /// Raises the open-collector *hit* line: "I hold a valid copy".
    pub hit: bool,
    /// This cache is the block's source and will service the request.
    pub source: bool,
    /// Clean/dirty status driven by the source (Figure 4: "the source
    /// provides it and its clean/dirty status").
    pub dirty_status: Option<bool>,
    /// This cache supplies the block data (cache-to-cache transfer).
    pub supplies_data: bool,
    /// The block is locked here; the request is denied and the requester
    /// should busy-wait (Figure 7).
    pub locked: bool,
    /// Memory must not respond (a cache services the request instead).
    pub inhibit_memory: bool,
    /// This snoop causes the snooper to write the block back to memory
    /// (e.g. Synapse flushing a dirty block on a read request).
    pub flushes: bool,
    /// The requester must abandon this transaction and retry later
    /// (Synapse rejects reads to blocks dirty elsewhere).
    pub retry: bool,
}

/// Wired-OR aggregation of every snooper's [`SnoopReply`], as seen by the
/// requester and by main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnoopSummary {
    /// At least one other cache holds a valid copy (the *hit* line).
    pub any_hit: bool,
    /// Number of caches holding valid copies (for statistics; not a real
    /// bus line).
    pub sharers: u32,
    /// A source cache exists and drove clean/dirty status.
    pub source_dirty: Option<bool>,
    /// Block data came from another cache rather than memory.
    pub data_from_cache: bool,
    /// The block is locked in some cache.
    pub locked: bool,
    /// Memory was inhibited from responding.
    pub memory_inhibited: bool,
    /// Number of snoopers that flushed the block to memory.
    pub flushes: u32,
    /// The transaction was rejected and must be retried.
    pub retry: bool,
}

impl SnoopSummary {
    /// Folds one cache's reply into the aggregate.
    pub fn absorb(&mut self, reply: &SnoopReply) {
        self.any_hit |= reply.hit;
        if reply.hit {
            self.sharers += 1;
        }
        if let Some(d) = reply.dirty_status {
            // Only one source may drive status; keep the dirtiest answer if
            // a protocol bug ever double-drives, and let the sim's
            // single-source oracle catch the bug.
            self.source_dirty = Some(self.source_dirty.unwrap_or(false) | d);
        }
        self.data_from_cache |= reply.supplies_data;
        self.locked |= reply.locked;
        self.memory_inhibited |= reply.inhibit_memory;
        if reply.flushes {
            self.flushes += 1;
        }
        self.retry |= reply.retry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_of_ops() {
        assert!(BusOp::Fetch { privilege: Privilege::Read, need_data: true }.transfers_block());
        assert!(!BusOp::Fetch { privilege: Privilege::Write, need_data: false }.transfers_block());
        assert!(BusOp::WriteWord { target: UpdateTarget::Invalidate }.transfers_word());
        assert!(BusOp::UpdateWord { to_memory: true }.transfers_word());
        assert!(BusOp::Invalidate.is_signal());
        assert!(BusOp::UnlockBroadcast.is_signal());
        assert!(BusOp::ClaimNoFetch.is_signal());
        assert!(BusOp::IoInput.transfers_block());
        assert!(BusOp::IoOutput { paging: false }.transfers_block());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in BusOp::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {}", op.mnemonic());
        }
    }

    #[test]
    fn summary_absorbs_replies() {
        let mut sum = SnoopSummary::default();
        sum.absorb(&SnoopReply { hit: true, ..Default::default() });
        sum.absorb(&SnoopReply {
            hit: true,
            source: true,
            dirty_status: Some(true),
            supplies_data: true,
            inhibit_memory: true,
            ..Default::default()
        });
        sum.absorb(&SnoopReply::default());
        assert!(sum.any_hit);
        assert_eq!(sum.sharers, 2);
        assert_eq!(sum.source_dirty, Some(true));
        assert!(sum.data_from_cache);
        assert!(sum.memory_inhibited);
        assert!(!sum.locked);
        assert!(!sum.retry);
        assert_eq!(sum.flushes, 0);
    }

    #[test]
    fn summary_records_lock_denial_and_retry() {
        let mut sum = SnoopSummary::default();
        sum.absorb(&SnoopReply { hit: true, locked: true, ..Default::default() });
        assert!(sum.locked);
        let mut sum2 = SnoopSummary::default();
        sum2.absorb(&SnoopReply { retry: true, flushes: true, ..Default::default() });
        assert!(sum2.retry);
        assert_eq!(sum2.flushes, 1);
    }

    #[test]
    fn txn_display() {
        let txn = BusTxn {
            op: BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
            block: BlockAddr(4),
            requester: AgentId::Cache(crate::types::CacheId(1)),
            high_priority: true,
        };
        assert_eq!(txn.to_string(), "C1 fetch-lock B0x4 [hi-pri]");
    }
}
