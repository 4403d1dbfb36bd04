//! The processor-side access vocabulary.
//!
//! These are the memory operations a processor can present to its cache.
//! They mirror the paper's instruction-level mechanisms:
//!
//! * plain `Read` / `Write`;
//! * `ReadForWrite` — the *static* read-for-write-privilege instruction of
//!   Yen et al. and Katz et al. (Feature 5, static determination);
//! * `LockRead` / `UnlockWrite` — the lock instruction pair of Section E.3
//!   ("the *lock* instruction is a special processor *read* instruction",
//!   and "the unlock can occur at the final write to the block");
//! * `Rmw` — an atomic read-modify-write instruction on a single word
//!   (Feature 6); how it is serialized depends on the protocol's
//!   [`RmwMethod`](crate::features::RmwMethod);
//! * `WriteNoFetch` — write-without-fetch on a whole block (Feature 9),
//!   used to save process state without fetching the block first.

use crate::types::{Addr, Word};
use std::fmt;

/// The kind of a processor memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain load of one word.
    Read,
    /// Plain store of one word.
    Write,
    /// Load, but the compiler has declared the datum unshared so the cache
    /// should acquire *write* privilege on a miss (Feature 5, static).
    ReadForWrite,
    /// Lock instruction: load the word and lock its block in cache state
    /// (Section E.3). Locking is concurrent with fetching the block.
    LockRead,
    /// Final store to a locked block that simultaneously unlocks it
    /// (Section E.3; Figure 8).
    UnlockWrite,
    /// Atomic read-modify-write of one word (Feature 6), e.g. test-and-set
    /// or atomic swap. The store value is applied atomically with the load.
    Rmw,
    /// Write a whole block without fetching it first (Feature 9). The cache
    /// still needs the bus to invalidate other copies.
    WriteNoFetch,
    /// Conditional store for the optimistic RMW (Feature 6, method 3): the
    /// write is performed only if the cache still holds write privilege —
    /// otherwise the instruction aborts and **no** write reaches the
    /// memory system ("the cache aborts the pending write request"). The
    /// engine resolves this without consulting the protocol about the new
    /// kind: it behaves as `Write` on a hit and as an abort on a miss.
    WriteIfOwned,
}

impl AccessKind {
    /// The access kind's stable name (`"lock-read"`, ...), as displayed
    /// and as traces record it.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::ReadForWrite => "read-for-write",
            AccessKind::LockRead => "lock-read",
            AccessKind::UnlockWrite => "unlock-write",
            AccessKind::Rmw => "rmw",
            AccessKind::WriteNoFetch => "write-no-fetch",
            AccessKind::WriteIfOwned => "write-if-owned",
        }
    }

    /// Does this access store data?
    pub fn is_write(self) -> bool {
        matches!(
            self,
            AccessKind::Write
                | AccessKind::UnlockWrite
                | AccessKind::Rmw
                | AccessKind::WriteNoFetch
                | AccessKind::WriteIfOwned
        )
    }

    /// Does this access load data?
    pub fn is_read(self) -> bool {
        matches!(
            self,
            AccessKind::Read | AccessKind::ReadForWrite | AccessKind::LockRead | AccessKind::Rmw
        )
    }

    /// Does this access participate in busy-wait locking?
    pub fn is_lock_op(self) -> bool {
        matches!(self, AccessKind::LockRead | AccessKind::UnlockWrite)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single processor memory operation presented to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcOp {
    /// What kind of access this is.
    pub kind: AccessKind,
    /// The word address accessed. For [`AccessKind::WriteNoFetch`] this is
    /// the first word of the block being overwritten.
    pub addr: Addr,
    /// The value stored, for writes. `None` for pure reads. For `Rmw` this
    /// is the value written after the atomic read.
    pub value: Option<Word>,
}

impl ProcOp {
    /// A plain read.
    pub fn read(addr: Addr) -> Self {
        Self { kind: AccessKind::Read, addr, value: None }
    }

    /// A plain write of `value`.
    pub fn write(addr: Addr, value: Word) -> Self {
        Self { kind: AccessKind::Write, addr, value: Some(value) }
    }

    /// A static read-for-write-privilege load (Feature 5).
    pub fn read_for_write(addr: Addr) -> Self {
        Self { kind: AccessKind::ReadForWrite, addr, value: None }
    }

    /// A lock-read (Section E.3).
    pub fn lock_read(addr: Addr) -> Self {
        Self { kind: AccessKind::LockRead, addr, value: None }
    }

    /// An unlock-write of `value` (Section E.3).
    pub fn unlock_write(addr: Addr, value: Word) -> Self {
        Self { kind: AccessKind::UnlockWrite, addr, value: Some(value) }
    }

    /// An atomic read-modify-write storing `value` (Feature 6).
    pub fn rmw(addr: Addr, value: Word) -> Self {
        Self { kind: AccessKind::Rmw, addr, value: Some(value) }
    }

    /// A write-without-fetch of a whole block (Feature 9); `value` seeds
    /// the block's words.
    pub fn write_no_fetch(addr: Addr, value: Word) -> Self {
        Self { kind: AccessKind::WriteNoFetch, addr, value: Some(value) }
    }

    /// A conditional store (Feature 6, method 3): performed only if the
    /// block is still held with write privilege, aborted otherwise.
    pub fn write_if_owned(addr: Addr, value: Word) -> Self {
        Self { kind: AccessKind::WriteIfOwned, addr, value: Some(value) }
    }
}

impl fmt::Display for ProcOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Some(v) => write!(f, "{} {} := {}", self.kind, self.addr, v),
            None => write!(f, "{} {}", self.kind, self.addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_classification() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Write.is_read());
        assert!(AccessKind::Rmw.is_read() && AccessKind::Rmw.is_write());
        assert!(AccessKind::WriteNoFetch.is_write());
        assert!(AccessKind::ReadForWrite.is_read());
        assert!(AccessKind::LockRead.is_read() && !AccessKind::LockRead.is_write());
        assert!(AccessKind::UnlockWrite.is_write() && !AccessKind::UnlockWrite.is_read());
    }

    #[test]
    fn lock_ops_flagged() {
        assert!(AccessKind::LockRead.is_lock_op());
        assert!(AccessKind::UnlockWrite.is_lock_op());
        assert!(!AccessKind::Rmw.is_lock_op());
        assert!(!AccessKind::Read.is_lock_op());
    }

    #[test]
    fn constructors_fill_fields() {
        let op = ProcOp::write(Addr(8), Word(9));
        assert_eq!(op.kind, AccessKind::Write);
        assert_eq!(op.addr, Addr(8));
        assert_eq!(op.value, Some(Word(9)));
        assert_eq!(ProcOp::read(Addr(1)).value, None);
        assert_eq!(ProcOp::lock_read(Addr(1)).kind, AccessKind::LockRead);
        assert_eq!(ProcOp::unlock_write(Addr(1), Word(0)).kind, AccessKind::UnlockWrite);
        assert_eq!(ProcOp::rmw(Addr(1), Word(1)).kind, AccessKind::Rmw);
        assert_eq!(ProcOp::read_for_write(Addr(1)).kind, AccessKind::ReadForWrite);
        assert_eq!(ProcOp::write_no_fetch(Addr(4), Word(2)).kind, AccessKind::WriteNoFetch);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcOp::read(Addr(16)).to_string(), "read @0x10");
        assert_eq!(ProcOp::write(Addr(1), Word(2)).to_string(), "write @0x1 := 0x2");
    }
}
