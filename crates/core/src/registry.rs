//! A registry of every protocol in the reproduction, for experiment code
//! that iterates over protocols generically.
//!
//! The simulator is generic over `P: Protocol`, so running "all protocols"
//! requires static dispatch per protocol; [`with_protocol!`] expands a body
//! once per variant.

/// Every protocol in the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolKind {
    /// Classic pre-1978 write-through.
    ClassicWriteThrough,
    /// Goodman 1983 (write-once).
    Goodman,
    /// Frank 1984 (Synapse).
    Synapse,
    /// Papamarcos & Patel 1984 (Illinois).
    Illinois,
    /// Yen, Yen & Fu 1985.
    Yen,
    /// Katz et al. 1985 (Berkeley).
    Berkeley,
    /// Xerox Dragon.
    Dragon,
    /// DEC Firefly.
    Firefly,
    /// Rudolph & Segall 1984.
    RudolphSegall,
    /// The paper's proposal.
    BitarDespain,
}

impl ProtocolKind {
    /// Every protocol.
    pub const ALL: [ProtocolKind; 10] = [
        ProtocolKind::ClassicWriteThrough,
        ProtocolKind::Goodman,
        ProtocolKind::Synapse,
        ProtocolKind::Illinois,
        ProtocolKind::Yen,
        ProtocolKind::Berkeley,
        ProtocolKind::Dragon,
        ProtocolKind::Firefly,
        ProtocolKind::RudolphSegall,
        ProtocolKind::BitarDespain,
    ];

    /// The six full-broadcast write-in schemes of Table 1, in the paper's
    /// column order.
    pub const EVOLUTION: [ProtocolKind; 6] = [
        ProtocolKind::Goodman,
        ProtocolKind::Synapse,
        ProtocolKind::Illinois,
        ProtocolKind::Yen,
        ProtocolKind::Berkeley,
        ProtocolKind::BitarDespain,
    ];

    /// A short stable identifier (for CLI arguments and output rows).
    pub fn id(self) -> &'static str {
        match self {
            ProtocolKind::ClassicWriteThrough => "classic-wt",
            ProtocolKind::Goodman => "goodman",
            ProtocolKind::Synapse => "synapse",
            ProtocolKind::Illinois => "illinois",
            ProtocolKind::Yen => "yen",
            ProtocolKind::Berkeley => "berkeley",
            ProtocolKind::Dragon => "dragon",
            ProtocolKind::Firefly => "firefly",
            ProtocolKind::RudolphSegall => "rudolph-segall",
            ProtocolKind::BitarDespain => "bitar-despain",
        }
    }

    /// Parses a CLI identifier.
    pub fn from_id(id: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.id() == id)
    }

    /// Does this protocol require one-word blocks (Rudolph-Segall)?
    pub fn requires_word_blocks(self) -> bool {
        self == ProtocolKind::RudolphSegall
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Expands `$body` with `$p` bound to an instance of the protocol selected
/// by `$kind`.
///
/// ```
/// use mcs_core::{with_protocol, ProtocolKind};
/// use mcs_model::Protocol;
///
/// let name = with_protocol!(ProtocolKind::Goodman, p => p.name());
/// assert!(name.contains("Goodman"));
/// ```
#[macro_export]
macro_rules! with_protocol {
    ($kind:expr, $p:ident => $body:expr) => {
        match $kind {
            $crate::ProtocolKind::ClassicWriteThrough => {
                let $p = ::mcs_protocols::ClassicWriteThrough;
                $body
            }
            $crate::ProtocolKind::Goodman => {
                let $p = ::mcs_protocols::Goodman;
                $body
            }
            $crate::ProtocolKind::Synapse => {
                let $p = ::mcs_protocols::Synapse;
                $body
            }
            $crate::ProtocolKind::Illinois => {
                let $p = ::mcs_protocols::Illinois;
                $body
            }
            $crate::ProtocolKind::Yen => {
                let $p = ::mcs_protocols::Yen;
                $body
            }
            $crate::ProtocolKind::Berkeley => {
                let $p = ::mcs_protocols::Berkeley;
                $body
            }
            $crate::ProtocolKind::Dragon => {
                let $p = ::mcs_protocols::Dragon;
                $body
            }
            $crate::ProtocolKind::Firefly => {
                let $p = ::mcs_protocols::Firefly;
                $body
            }
            $crate::ProtocolKind::RudolphSegall => {
                let $p = ::mcs_protocols::RudolphSegall;
                $body
            }
            $crate::ProtocolKind::BitarDespain => {
                let $p = $crate::BitarDespain;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{LineState, Protocol, StateDescriptor};

    #[test]
    fn ids_roundtrip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_id(kind.id()), Some(kind));
        }
        assert_eq!(ProtocolKind::from_id("nope"), None);
    }

    #[test]
    fn with_protocol_dispatches_all() {
        for kind in ProtocolKind::ALL {
            let name = with_protocol!(kind, p => p.name().to_string());
            assert!(!name.is_empty());
        }
    }

    #[test]
    fn evolution_order_matches_table_one() {
        let names: Vec<_> = ProtocolKind::EVOLUTION
            .iter()
            .map(|k| with_protocol!(*k, p => p.name().to_string()))
            .collect();
        assert!(names[0].contains("Goodman"));
        assert!(names[1].contains("Synapse") || names[1].contains("Frank"));
        assert!(names[2].contains("Illinois") || names[2].contains("Papamarcos"));
        assert!(names[3].contains("Yen"));
        assert!(names[4].contains("Katz") || names[4].contains("Berkeley"));
        assert!(names[5].contains("Bitar"));
    }

    /// Every protocol's state names: one per state, what `Display`
    /// prints, and safe to write into JSON unescaped. The table's first
    /// row is `invalid()`, described as `StateDescriptor::INVALID`, and
    /// no other row is invalid.
    fn state_names<P: Protocol>(_: &P) -> Vec<&'static str> {
        let all = <P::State as LineState>::all();
        let invalid = <P::State as LineState>::invalid();
        assert_eq!(all.first(), Some(&invalid), "invalid() is not all()[0]");
        assert_eq!(invalid.descriptor(), StateDescriptor::INVALID, "{invalid:?}");
        for state in &all[1..] {
            assert!(state.descriptor().is_valid(), "{state:?}: a second invalid state");
        }
        let names: Vec<_> = all.iter().map(LineState::name).collect();
        for (state, name) in all.iter().zip(&names) {
            assert_eq!(state.to_string(), *name, "{state:?}: name differs from Display");
            assert!(
                !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric()),
                "{state:?}: {name:?} is not a JSON-safe ASCII token"
            );
        }
        names
    }

    #[test]
    fn state_names_are_unique_display_tokens() {
        for kind in ProtocolKind::ALL {
            let mut names = with_protocol!(kind, p => state_names(&p));
            let count = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), count, "{kind}: duplicate state names");
        }
    }

    #[test]
    fn word_block_requirement() {
        assert!(ProtocolKind::RudolphSegall.requires_word_blocks());
        assert!(!ProtocolKind::BitarDespain.requires_word_blocks());
    }
}
