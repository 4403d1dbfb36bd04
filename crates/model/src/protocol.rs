//! The [`Protocol`] trait: the contract every coherence scheme implements.
//!
//! A protocol is a per-cache-line state machine with three entry points,
//! mirroring the three ways a snooping cache is driven:
//!
//! 1. [`Protocol::proc_access`] — its own processor presents an access;
//!    the line either satisfies it locally (*hit*) or the cache must take
//!    the bus;
//! 2. [`Protocol::snoop`] — another agent's bus transaction is broadcast;
//!    the cache updates the line and drives the bus reply lines;
//! 3. [`Protocol::complete`] — the cache's own bus transaction finishes and
//!    the line's new state is installed, given what the snoop lines showed.
//!
//! The simulator (`mcs-sim`) is generic over `P: Protocol` and owns all
//! mechanism that is *not* protocol-specific: arbitration, timing, data
//! movement, busy waiting, and the coherence oracles.

use crate::arcs::Arcs;
use crate::bus::{BusOp, BusTxn, SnoopReply, SnoopSummary};
use crate::features::{DirectoryDuality, DistributedState, FeatureSet, RmwMethod};
use crate::ops::AccessKind;
use std::fmt;
use std::hash::Hash;

/// Access privilege carried by a bus request or held by a cache line.
///
/// `Lock` covers `Write` covers `Read` (Section E.1: lock privilege is
/// read-and-write privilege plus the lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Privilege {
    /// Shared-access (read-only) privilege.
    Read,
    /// Sole-access (read-and-write) privilege.
    Write,
    /// Sole access plus the block is locked by this cache.
    Lock,
}

impl Privilege {
    /// Does holding `self` satisfy a request for `other`?
    pub fn covers(self, other: Privilege) -> bool {
        self >= other
    }
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Privilege::Read => "read",
            Privilege::Write => "write",
            Privilege::Lock => "lock",
        })
    }
}

/// Protocol-independent description of a cache-line state, used for
/// statistics, trace display, the Table 1 generator, and the simulator's
/// single-source / single-writer oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateDescriptor {
    /// Privilege held, or `None` when the line is invalid.
    pub privilege: Option<Privilege>,
    /// The line holds *source* status: it provides the block and its
    /// clean/dirty status on the next request (Section E.1).
    pub source: bool,
    /// The block was written and memory not yet updated.
    pub dirty: bool,
    /// Another processor requested the block while it was locked
    /// (the lock-waiter state, Section E.3).
    pub waiter: bool,
}

impl StateDescriptor {
    /// An invalid line.
    pub const INVALID: StateDescriptor =
        StateDescriptor { privilege: None, source: false, dirty: false, waiter: false };

    /// Is the line valid (meaningful)?
    pub fn is_valid(&self) -> bool {
        self.privilege.is_some()
    }

    /// May the processor read the line without the bus?
    pub fn can_read(&self) -> bool {
        self.privilege.is_some()
    }

    /// May the processor write the line without gaining privilege first?
    pub fn can_write(&self) -> bool {
        matches!(self.privilege, Some(Privilege::Write) | Some(Privilege::Lock))
    }

    /// Is the block locked by this cache?
    pub fn is_locked(&self) -> bool {
        self.privilege == Some(Privilege::Lock)
    }
}

impl fmt::Display for StateDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.privilege {
            None => f.write_str("Invalid"),
            Some(p) => {
                write!(f, "{}", match p {
                    Privilege::Read => "Read",
                    Privilege::Write => "Write",
                    Privilege::Lock => "Lock",
                })?;
                if self.source {
                    f.write_str(", Source")?;
                }
                // Clean/dirty status is part of the state name only where
                // the protocol tracks it: at a source, or on sole-access
                // states. A plain (non-source) Read copy carries none.
                if self.source || p != Privilege::Read {
                    f.write_str(if self.dirty { ", Dirty" } else { ", Clean" })?;
                }
                if self.waiter {
                    f.write_str(", Waiter")?;
                }
                Ok(())
            }
        }
    }
}

/// Implemented by each protocol's cache-line state enum, through one
/// [`line_states!`](crate::line_states) table.
pub trait LineState:
    Copy + Eq + Hash + fmt::Debug + fmt::Display + Send + Sync + 'static
{
    /// The invalid state.
    fn invalid() -> Self;

    /// Protocol-independent description of this state.
    fn descriptor(&self) -> StateDescriptor;

    /// All states of the protocol, for Table 1 and exhaustive transition
    /// exploration (Figure 10).
    fn all() -> &'static [Self];

    /// The state's short name (`"I"`, `"RSD"`, ...): what `Display`
    /// prints and what traces record.
    fn name(&self) -> &'static str;

    /// Feature 2, declared: the status bits the caches hold.
    const DISTRIBUTED: DistributedState = DistributedState::RWDS;
    /// Feature 3, declared: the directory organisation. `System::new`
    /// reads it.
    const DIRECTORY: DirectoryDuality = DirectoryDuality::IdenticalDual;
    /// Feature 6, declared: the read-modify-write method the paper grades.
    const ATOMIC_RMW: Option<RmwMethod> = None;
}

/// Declares a protocol's cache-line states as one table, one row per
/// state, and implements [`LineState`] and `Display` from it.
///
/// The first row is the invalid state and gives only its short name. Every
/// other row gives the short name, the privilege held (`Read`, `Write` or
/// `Lock`) and the [`StateDescriptor`] flags that are set (`source`,
/// `dirty`, `waiter`), the way Table 1 and Section E.1 name a state. Doc
/// comments on the rows and attributes on the enum (a further `#[derive]`)
/// pass through. An optional `declares { .. }` block after the enum sets
/// the Table 1 cells no arc shows, where they differ from the defaults:
/// `distributed`, `directory` and `atomic_rmw`, in that order. The macro
/// generates:
///
/// * the enum, deriving `Debug, Clone, Copy, PartialEq, Eq, Hash`;
/// * [`LineState`]: `invalid()` is the first row, `all()` lists the rows in
///   order, `descriptor()` and `name()` are one `match` each, and the
///   declared cells become its `DISTRIBUTED`, `DIRECTORY` and `ATOMIC_RMW`;
/// * `Display`, which prints `name()`.
///
/// ```
/// use mcs_model::{line_states, DirectoryDuality, LineState, Privilege, StateDescriptor};
///
/// line_states! {
///     /// A three-state write-back protocol.
///     #[derive(PartialOrd, Ord)]
///     pub enum Msi {
///         /// Meaningless.
///         Invalid = "I",
///         /// A clean, possibly shared copy.
///         Shared = "S" (Read),
///         /// The modified sole copy, and the block's source.
///         Modified = "M" (Write, source, dirty),
///     }
///     declares {
///         directory: DirectoryDuality::NonIdenticalDual,
///     }
/// }
///
/// assert_eq!(Msi::invalid(), Msi::Invalid);
/// assert_eq!(Msi::all(), [Msi::Invalid, Msi::Shared, Msi::Modified]);
/// assert_eq!(Msi::Modified.name(), "M");
/// assert_eq!(Msi::Shared.to_string(), "S");
/// assert_eq!(Msi::Invalid.descriptor(), StateDescriptor::INVALID);
/// assert_eq!(
///     Msi::Shared.descriptor(),
///     StateDescriptor { privilege: Some(Privilege::Read), source: false, dirty: false, waiter: false },
/// );
/// assert_eq!(Msi::Modified.descriptor().to_string(), "Write, Source, Dirty");
/// assert!(Msi::Shared < Msi::Modified);
/// assert_eq!(Msi::DIRECTORY, DirectoryDuality::NonIdenticalDual);
/// assert_eq!(Msi::ATOMIC_RMW, None);
/// ```
#[macro_export]
macro_rules! line_states {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(#[$invalid_meta:meta])*
            $invalid:ident = $invalid_name:literal,
            $(
                $(#[$row_meta:meta])*
                $state:ident = $state_name:literal ($privilege:ident $(, $flag:ident)*)
            ),* $(,)?
        }
        $(declares {
            $(distributed: $distributed:expr,)?
            $(directory: $directory:expr,)?
            $(atomic_rmw: $atomic_rmw:expr,)?
        })?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $name {
            $(#[$invalid_meta])*
            $invalid,
            $($(#[$row_meta])* $state,)*
        }

        impl ::core::fmt::Display for $name {
            fn fmt(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                f.write_str($crate::LineState::name(self))
            }
        }

        impl $crate::LineState for $name {
            fn invalid() -> Self {
                $name::$invalid
            }

            fn descriptor(&self) -> $crate::StateDescriptor {
                match self {
                    $name::$invalid => $crate::StateDescriptor::INVALID,
                    // Each row's descriptor is a constant. The flags are set
                    // one at a time: a struct update that names every field
                    // (a lock-waiter row) trips clippy's `needless_update`.
                    $($name::$state => {
                        const ROW: $crate::StateDescriptor = {
                            let mut d = $crate::StateDescriptor {
                                privilege: ::core::option::Option::Some($crate::Privilege::$privilege),
                                ..$crate::StateDescriptor::INVALID
                            };
                            $(d.$flag = true;)*
                            d
                        };
                        ROW
                    })*
                }
            }

            fn all() -> &'static [Self] {
                &[$name::$invalid, $($name::$state,)*]
            }

            fn name(&self) -> &'static str {
                match self {
                    $name::$invalid => $invalid_name,
                    $($name::$state => $state_name,)*
                }
            }

            $(
                $(const DISTRIBUTED: $crate::DistributedState = $distributed;)?
                $(const DIRECTORY: $crate::DirectoryDuality = $directory;)?
                $(const ATOMIC_RMW: ::core::option::Option<$crate::RmwMethod> = $atomic_rmw;)?
            )?
        }
    };
}

/// Outcome of presenting a processor access to a line (entry point 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcAction<S> {
    /// Satisfied locally; the line moves to `next`. This is the paper's
    /// "zero time" path — e.g. locking a block already held with write
    /// privilege (Section E.3).
    Hit {
        /// New line state.
        next: S,
    },
    /// The cache must arbitrate for the bus and issue `op`. The processor
    /// stalls until the transaction completes (write-through "forces the
    /// processor to wait for access to the bus on every write").
    Bus {
        /// Transaction to issue.
        op: BusOp,
    },
}

/// Outcome of snooping another agent's transaction (entry point 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopOutcome<S> {
    /// New state of the snooper's line.
    pub next: S,
    /// Contribution to the bus reply lines.
    pub reply: SnoopReply,
}

impl<S: LineState> SnoopOutcome<S> {
    /// A snoop that neither changes state nor drives any reply line.
    pub fn ignore(state: S) -> Self {
        Self { next: state, reply: SnoopReply::default() }
    }
}

/// Outcome of completing the cache's own bus transaction (entry point 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome<S> {
    /// The transaction succeeded; install `next`.
    Installed {
        /// New line state.
        next: S,
    },
    /// The transaction was rejected (e.g. Synapse read to a block dirty
    /// elsewhere); the cache must re-arbitrate and retry. Counted as bus
    /// retry traffic.
    Retry,
    /// A lock fetch found the block locked elsewhere (Figure 7). The access
    /// is *not* satisfied; the simulator arms the cache's busy-wait
    /// register and the processor either spins or works while waiting.
    LockDenied,
    /// The block was installed in state `next`, but the processor's
    /// operation is **not yet complete**: the cache must present it again
    /// against the new state. This models protocols whose write misses take
    /// two bus transactions — Goodman's write-once (fetch for read, then
    /// the invalidating write-through) and Dragon/Firefly write misses to
    /// shared blocks (fetch, then the word update).
    InstalledRetryOp {
        /// New line state after the first transaction.
        next: S,
    },
}

/// What a cache must do when evicting (purging) a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictAction {
    /// Drop the line silently.
    Silent,
    /// Write the block back to memory first (the source flushes dirty
    /// blocks when purging, Section E.1).
    Writeback,
}

/// A snooping cache-coherence protocol (Section A.2: full broadcast).
///
/// Implementations are stateless value objects: all per-line state lives in
/// the cache as a `Self::State`, so a protocol can be shared freely across
/// caches and threads.
pub trait Protocol: Send + Sync + 'static {
    /// The protocol's cache-line state type.
    type State: LineState;

    /// Human-readable protocol name, as used in Table 1 column headers.
    fn name(&self) -> &'static str;

    /// The protocol's Table 1 feature set: the behavioural rows derived
    /// from its arcs, Features 2, 3 and 6 from its states'
    /// [`LineState`] declarations. Protocols do not write this.
    fn features(&self) -> FeatureSet {
        FeatureSet::from_arcs(&Arcs::of(self))
    }

    /// Entry point 1: the local processor presents an access `kind` to a
    /// line currently in `state` (use [`LineState::invalid`] for a miss).
    fn proc_access(&self, state: Self::State, kind: AccessKind) -> ProcAction<Self::State>;

    /// Entry point 2: another agent's transaction `txn` is broadcast while
    /// this cache holds a line for `txn.block` in `state`.
    ///
    /// **Contract:** a line whose state is invalid must answer
    /// [`SnoopOutcome::ignore`] (same state, no reply line driven) to every
    /// transaction except a `WriteWord { target: AllCopies }` write-through,
    /// which may revalidate it (Rudolph-Segall's update-invalid-copies
    /// scheme). The simulator relies on this: it snoops only valid copies,
    /// plus every resident frame under `AllCopies`.
    fn snoop(&self, state: Self::State, txn: &BusTxn) -> SnoopOutcome<Self::State>;

    /// Entry point 3: this cache's own transaction finished. `kind` is the
    /// processor access that triggered it and `summary` what the bus reply
    /// lines showed.
    fn complete(
        &self,
        state: Self::State,
        kind: AccessKind,
        txn: &BusTxn,
        summary: &SnoopSummary,
    ) -> CompleteOutcome<Self::State>;

    /// What eviction of a line in `state` requires.
    fn evict(&self, state: Self::State) -> EvictAction {
        if state.descriptor().dirty {
            EvictAction::Writeback
        } else {
            EvictAction::Silent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privilege_ordering() {
        assert!(Privilege::Lock.covers(Privilege::Write));
        assert!(Privilege::Lock.covers(Privilege::Read));
        assert!(Privilege::Write.covers(Privilege::Read));
        assert!(Privilege::Write.covers(Privilege::Write));
        assert!(!Privilege::Read.covers(Privilege::Write));
        assert!(!Privilege::Write.covers(Privilege::Lock));
    }

    #[test]
    fn descriptor_predicates() {
        let inv = StateDescriptor::INVALID;
        assert!(!inv.is_valid() && !inv.can_read() && !inv.can_write() && !inv.is_locked());

        let read =
            StateDescriptor { privilege: Some(Privilege::Read), source: false, dirty: false, waiter: false };
        assert!(read.can_read() && !read.can_write());

        let write =
            StateDescriptor { privilege: Some(Privilege::Write), source: true, dirty: true, waiter: false };
        assert!(write.can_write() && !write.is_locked());

        let lock =
            StateDescriptor { privilege: Some(Privilege::Lock), source: true, dirty: true, waiter: true };
        assert!(lock.can_write() && lock.is_locked());
    }

    #[test]
    fn descriptor_display_matches_paper_vocabulary() {
        let lock_waiter = StateDescriptor {
            privilege: Some(Privilege::Lock),
            source: true,
            dirty: true,
            waiter: true,
        };
        assert_eq!(lock_waiter.to_string(), "Lock, Source, Dirty, Waiter");
        assert_eq!(StateDescriptor::INVALID.to_string(), "Invalid");
        let rsc = StateDescriptor {
            privilege: Some(Privilege::Read),
            source: true,
            dirty: false,
            waiter: false,
        };
        assert_eq!(rsc.to_string(), "Read, Source, Clean");
    }

    #[test]
    fn privilege_display() {
        assert_eq!(Privilege::Read.to_string(), "read");
        assert_eq!(Privilege::Write.to_string(), "write");
        assert_eq!(Privilege::Lock.to_string(), "lock");
    }
}
