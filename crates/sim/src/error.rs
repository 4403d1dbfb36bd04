//! Simulator errors, including coherence-oracle violations.
//!
//! The oracles turn the paper's two correctness requirements (Section C.1)
//! into runtime checks: *serialize conflicting accesses* and *provide the
//! latest version of the data*. A protocol bug surfaces as a
//! [`SimError::Oracle`] rather than silently wrong statistics.

use mcs_cache::CacheError;
use mcs_faults::WatchdogTrip;
use mcs_model::{Addr, BlockAddr, CacheId, ModelError, Word};
use std::error::Error;
use std::{fmt, io};

/// A violated coherence or synchronization invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OracleViolation {
    /// A committed read observed a value other than the latest serialized
    /// write ("provide the latest version", Section C.1).
    StaleRead {
        /// Reading cache.
        cache: CacheId,
        /// Address read.
        addr: Addr,
        /// Value observed.
        got: Word,
        /// Latest serialized value.
        expected: Word,
    },
    /// Two caches simultaneously held sole-access (write or lock) privilege
    /// for one block ("serialize conflicting accesses").
    DualWriters {
        /// The block.
        block: BlockAddr,
        /// First writer.
        a: CacheId,
        /// Second writer.
        b: CacheId,
    },
    /// Two caches simultaneously held source status for one block.
    DualSources {
        /// The block.
        block: BlockAddr,
        /// First source.
        a: CacheId,
        /// Second source.
        b: CacheId,
    },
    /// A lock was acquired while another cache already held it.
    DoubleLock {
        /// The block.
        block: BlockAddr,
        /// Existing holder.
        holder: CacheId,
        /// Offending acquirer.
        acquirer: CacheId,
    },
    /// A lock was released by a cache that did not hold it.
    ReleaseWithoutHold {
        /// The block.
        block: BlockAddr,
        /// The releasing cache.
        releaser: CacheId,
    },
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::StaleRead { cache, addr, got, expected } => write!(
                f,
                "stale read: {cache} read {got} at {addr}, latest serialized value is {expected}"
            ),
            OracleViolation::DualWriters { block, a, b } => {
                write!(f, "dual writers on {block}: {a} and {b} both hold sole access")
            }
            OracleViolation::DualSources { block, a, b } => {
                write!(f, "dual sources on {block}: {a} and {b} both hold source status")
            }
            OracleViolation::DoubleLock { block, holder, acquirer } => {
                write!(f, "double lock on {block}: {acquirer} acquired while {holder} holds it")
            }
            OracleViolation::ReleaseWithoutHold { block, releaser } => {
                write!(f, "release without hold: {releaser} unlocked {block}")
            }
        }
    }
}

/// Errors from constructing or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Invalid model-layer configuration.
    Model(ModelError),
    /// Invalid cache configuration or a pinned-lock replacement failure.
    Cache(CacheError),
    /// A coherence or synchronization invariant was violated.
    Oracle(OracleViolation),
    /// A bus transaction needed data but no cache supplied it and memory
    /// was inhibited — a protocol bug.
    NoDataSource {
        /// The block being fetched.
        block: BlockAddr,
    },
    /// One operation was retried more than the configured bound —
    /// a livelocked protocol or scheme.
    Livelock {
        /// The processor whose operation livelocked.
        proc: usize,
        /// Retry bound that was exceeded.
        bound: u32,
    },
    /// The liveness watchdog detected a deadlock, livelock, or starved
    /// processor and aborted the run.
    Watchdog(WatchdogTrip),
    /// An internal engine invariant did not hold — for example, a snooper
    /// reported a line resident but the cache had no data for it. Always a
    /// bug (or an injected fault corrupting engine state), never a
    /// workload error.
    EngineInvariant {
        /// Which invariant broke (static description).
        context: &'static str,
        /// Simulation cycle when it was detected.
        cycle: u64,
        /// The cache involved.
        cache: CacheId,
        /// The block involved.
        block: BlockAddr,
    },
    /// The system has no processors.
    NoProcessors,
    /// An event sink failed to write its output (a closed pipe, a full
    /// disk). The simulation itself ran; its exported stream is
    /// incomplete.
    Sink {
        /// The I/O error's kind.
        kind: io::ErrorKind,
        /// The I/O error's message.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Model(e) => write!(f, "model configuration: {e}"),
            SimError::Cache(e) => write!(f, "cache: {e}"),
            SimError::Oracle(v) => write!(f, "coherence oracle: {v}"),
            SimError::NoDataSource { block } => {
                write!(f, "no data source for {block}: memory inhibited and no cache supplied")
            }
            SimError::Livelock { proc, bound } => {
                write!(f, "operation on processor {proc} retried more than {bound} times")
            }
            SimError::Watchdog(trip) => write!(f, "watchdog: {trip}"),
            SimError::EngineInvariant { context, cycle, cache, block } => {
                write!(f, "engine invariant violated at cycle {cycle}: {context} ({cache}, {block})")
            }
            SimError::NoProcessors => write!(f, "system must have at least one processor"),
            SimError::Sink { message, .. } => write!(f, "event sink: {message}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Model(e) => Some(e),
            SimError::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SimError {
    fn from(e: ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<CacheError> for SimError {
    fn from(e: CacheError) -> Self {
        SimError::Cache(e)
    }
}

impl From<OracleViolation> for SimError {
    fn from(v: OracleViolation) -> Self {
        SimError::Oracle(v)
    }
}

impl From<WatchdogTrip> for SimError {
    fn from(t: WatchdogTrip) -> Self {
        SimError::Watchdog(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let v = OracleViolation::StaleRead {
            cache: CacheId(1),
            addr: Addr(4),
            got: Word(9),
            expected: Word(7),
        };
        let s = SimError::from(v).to_string();
        assert!(s.contains("stale read"));
        assert!(s.contains("C1"));

        let s = SimError::from(OracleViolation::DualWriters {
            block: BlockAddr(2),
            a: CacheId(0),
            b: CacheId(3),
        })
        .to_string();
        assert!(s.contains("dual writers"));

        let s = SimError::NoDataSource { block: BlockAddr(5) }.to_string();
        assert!(s.contains("no data source"));
    }

    #[test]
    fn conversions_and_source_chain() {
        let e: SimError = ModelError::InvalidBlockSize(3).into();
        assert!(e.source().is_some());
        let e: SimError = CacheError::ZeroWays.into();
        assert!(matches!(e, SimError::Cache(_)));
        let e = SimError::Livelock { proc: 2, bound: 100 };
        assert!(e.source().is_none());
        let e = SimError::Sink { kind: io::ErrorKind::BrokenPipe, message: "closed".into() };
        assert_eq!(e.to_string(), "event sink: closed");
    }
}
