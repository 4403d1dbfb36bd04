//! Generation of the paper's **Table 1** — "Evolution of Full-Broadcast,
//! Write-In (Write-Back), Cache-Synchronization Schemes".
//!
//! The upper part (states × protocols, with N/S source annotations) is
//! derived from each protocol's [`LineState::all`] via the
//! [`StateDescriptor`] classification; the lower part (Features 1–10) from
//! [`Protocol::features`]: Features 1, 4, 5, 7–10 are derived from the
//! protocol's Figure 10 arcs, so no feature prints that the arcs lack;
//! Features 2, 3 and 6 are declared beside the states, because no arc shows
//! them and Feature 6 grades each paper's claim rather than an arc (see
//! [`mcs_model::features`]). Nothing is hard-coded from the paper — the
//! test suite asserts the *generated* matrix equals the published one.
//!
//! One documented rendering difference: the paper shows the Illinois
//! (Papamarcos & Patel) shared state on the plain "Read" row with a source
//! annotation; because every Illinois copy carries source status, our
//! descriptor-based classification places it on the "Read, Clean" row.
//! The information content (read privilege, clean, source) is identical.

use mcs_model::{FeatureSet, LineState, Privilege, Protocol, StateDescriptor};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The state rows of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Table1Row {
    /// Invalid.
    Invalid,
    /// Read privilege, non-source.
    Read,
    /// Read privilege, source, clean.
    ReadClean,
    /// Read privilege, source, dirty.
    ReadDirty,
    /// Write privilege, clean.
    WriteClean,
    /// Write privilege, dirty.
    WriteDirty,
    /// Lock privilege, dirty.
    LockDirty,
    /// Lock privilege, dirty, waiter recorded.
    LockDirtyWaiter,
}

impl Table1Row {
    /// All rows in the table's order.
    pub const ALL: [Table1Row; 8] = [
        Table1Row::Invalid,
        Table1Row::Read,
        Table1Row::ReadClean,
        Table1Row::ReadDirty,
        Table1Row::WriteClean,
        Table1Row::WriteDirty,
        Table1Row::LockDirty,
        Table1Row::LockDirtyWaiter,
    ];

    /// The row's label as printed in the table.
    pub fn label(self) -> &'static str {
        match self {
            Table1Row::Invalid => "Invalid",
            Table1Row::Read => "Read",
            Table1Row::ReadClean => "Read, Clean",
            Table1Row::ReadDirty => "Read, Dirty",
            Table1Row::WriteClean => "Write, Clean",
            Table1Row::WriteDirty => "Write, Dirty",
            Table1Row::LockDirty => "Lock, Dirty",
            Table1Row::LockDirtyWaiter => "Lock, Dirty, Waiter",
        }
    }

    /// Classifies a state descriptor onto its row.
    pub fn classify(d: &StateDescriptor) -> Table1Row {
        match d.privilege {
            None => Table1Row::Invalid,
            Some(Privilege::Read) => {
                if !d.source {
                    Table1Row::Read
                } else if d.dirty {
                    Table1Row::ReadDirty
                } else {
                    Table1Row::ReadClean
                }
            }
            Some(Privilege::Write) => {
                if d.dirty {
                    Table1Row::WriteDirty
                } else {
                    Table1Row::WriteClean
                }
            }
            Some(Privilege::Lock) => {
                if d.waiter {
                    Table1Row::LockDirtyWaiter
                } else {
                    Table1Row::LockDirty
                }
            }
        }
    }
}

/// Source annotation for a state entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceMark {
    /// Non-source state.
    N,
    /// Source state.
    S,
    /// The invalid row carries no annotation.
    None,
}

impl SourceMark {
    fn as_str(self) -> &'static str {
        match self {
            SourceMark::N => "N",
            SourceMark::S => "S",
            SourceMark::None => "x",
        }
    }
}

/// One protocol's column of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Column {
    /// Protocol name (column header).
    pub name: &'static str,
    /// Which rows the protocol has, with their N/S annotation.
    pub states: BTreeMap<Table1Row, SourceMark>,
    /// The Feature 1–10 values.
    pub features: FeatureSet,
}

/// Builds the Table 1 column for any protocol from its state enumeration
/// and feature set.
pub fn column_for<P: Protocol>(protocol: &P) -> Table1Column {
    let mut states = BTreeMap::new();
    for state in P::State::all() {
        let d = state.descriptor();
        let row = Table1Row::classify(&d);
        let mark = if row == Table1Row::Invalid {
            SourceMark::None
        } else if d.source {
            SourceMark::S
        } else {
            SourceMark::N
        };
        states.insert(row, mark);
    }
    Table1Column { name: protocol.name(), states, features: protocol.features() }
}

/// Renders the full table (states part and features part) for the given
/// columns, in the paper's layout.
pub fn render(columns: &[Table1Column]) -> String {
    let mut out = String::new();
    let label_w = 22;
    let col_w = columns.iter().map(|c| c.name.len()).max().unwrap_or(10).max(8) + 2;

    let _ = writeln!(out, "Table 1. Evolution of Full-Broadcast, Write-In Schemes");
    let _ = write!(out, "{:label_w$}", "States");
    for c in columns {
        let _ = write!(out, "{:>col_w$}", c.name);
    }
    let _ = writeln!(out);

    for row in Table1Row::ALL {
        let _ = write!(out, "{:label_w$}", row.label());
        for c in columns {
            let cell = c.states.get(&row).map(|m| m.as_str()).unwrap_or("-");
            let _ = write!(out, "{cell:>col_w$}");
        }
        let _ = writeln!(out);
    }

    #[allow(clippy::type_complexity)]
    let feature_rows: [(&str, fn(&FeatureSet) -> String); 10] = [
        ("1 cache-to-cache", |f| {
            if !f.cache_to_cache {
                "-".into()
            } else if f.c2c_serves_reads {
                "yes".into()
            } else {
                "yes(w-only)".into()
            }
        }),
        ("2 distributed state", |f| f.distributed.to_string()),
        ("3 directory", |f| f.directory.to_string()),
        ("4 invalidate signal", |f| if f.bus_invalidate_signal { "yes".into() } else { "-".into() }),
        ("5 read-for-write", |f| {
            f.read_for_write.map(|d| d.to_string()).unwrap_or_else(|| "-".into())
        }),
        ("6 atomic rmw", |f| f.atomic_rmw.map(|m| m.to_string()).unwrap_or_else(|| "-".into())),
        ("7 flush on transfer", |f| f.flush_on_transfer.to_string()),
        ("8 source policy", |f| f.source_policy.to_string()),
        ("9 write-no-fetch", |f| if f.write_no_fetch { "yes".into() } else { "-".into() }),
        ("10 efficient busy wait", |f| {
            if f.efficient_busy_wait {
                "yes".into()
            } else {
                "-".into()
            }
        }),
    ];

    let _ = writeln!(out);
    let _ = write!(out, "{:label_w$}", "Features");
    for c in columns {
        let _ = write!(out, "{:>col_w$}", c.name);
    }
    let _ = writeln!(out);
    for (label, get) in feature_rows {
        let _ = write!(out, "{label:label_w$}");
        for c in columns {
            let _ = write!(out, "{:>col_w$}", get(&c.features));
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitarDespain;
    use mcs_protocols::{Berkeley, Goodman, Illinois, Synapse, Yen};

    fn has(col: &Table1Column, row: Table1Row, mark: SourceMark) -> bool {
        col.states.get(&row) == Some(&mark)
    }

    #[test]
    fn goodman_column_matches_paper() {
        let c = column_for(&Goodman);
        assert!(has(&c, Table1Row::Invalid, SourceMark::None));
        assert!(has(&c, Table1Row::Read, SourceMark::N));
        assert!(has(&c, Table1Row::WriteClean, SourceMark::N));
        assert!(has(&c, Table1Row::WriteDirty, SourceMark::S));
        assert_eq!(c.states.len(), 4);
    }

    #[test]
    fn synapse_column_matches_paper() {
        let c = column_for(&Synapse);
        assert!(has(&c, Table1Row::Read, SourceMark::N));
        assert!(has(&c, Table1Row::WriteDirty, SourceMark::S));
        assert_eq!(c.states.len(), 3); // I, Read, Write-Dirty
        assert!(!c.features.c2c_serves_reads); // table note 1
    }

    #[test]
    fn illinois_column_matches_paper() {
        let c = column_for(&Illinois);
        // Paper renders the shared state on the Read row with source
        // status; descriptor-wise it is Read+Clean+Source.
        assert!(has(&c, Table1Row::ReadClean, SourceMark::S));
        assert!(has(&c, Table1Row::WriteClean, SourceMark::S));
        assert!(has(&c, Table1Row::WriteDirty, SourceMark::S));
        assert_eq!(c.states.len(), 4);
    }

    #[test]
    fn yen_column_matches_paper() {
        let c = column_for(&Yen);
        assert!(has(&c, Table1Row::Read, SourceMark::N));
        assert!(has(&c, Table1Row::WriteClean, SourceMark::N)); // non-source WC
        assert!(has(&c, Table1Row::WriteDirty, SourceMark::S));
        assert_eq!(c.states.len(), 4);
    }

    #[test]
    fn berkeley_column_matches_paper() {
        let c = column_for(&Berkeley);
        assert!(has(&c, Table1Row::Read, SourceMark::N));
        assert!(has(&c, Table1Row::ReadDirty, SourceMark::S)); // the dirty-read state
        assert!(has(&c, Table1Row::WriteClean, SourceMark::S)); // source WC (critiqued)
        assert!(has(&c, Table1Row::WriteDirty, SourceMark::S));
        assert_eq!(c.states.len(), 5);
    }

    #[test]
    fn our_proposal_column_matches_paper() {
        let c = column_for(&BitarDespain);
        assert!(has(&c, Table1Row::Read, SourceMark::N));
        assert!(has(&c, Table1Row::ReadClean, SourceMark::S));
        assert!(has(&c, Table1Row::ReadDirty, SourceMark::S));
        assert!(has(&c, Table1Row::WriteClean, SourceMark::S));
        assert!(has(&c, Table1Row::WriteDirty, SourceMark::S));
        assert!(has(&c, Table1Row::LockDirty, SourceMark::S));
        assert!(has(&c, Table1Row::LockDirtyWaiter, SourceMark::S));
        assert_eq!(c.states.len(), 8);
    }

    #[test]
    fn only_our_proposal_has_lock_rows() {
        for col in [
            column_for(&Goodman),
            column_for(&Synapse),
            column_for(&Illinois),
            column_for(&Yen),
            column_for(&Berkeley),
        ] {
            assert!(!col.states.contains_key(&Table1Row::LockDirty), "{}", col.name);
            assert!(!col.states.contains_key(&Table1Row::LockDirtyWaiter), "{}", col.name);
        }
    }

    #[test]
    fn render_contains_all_protocols_and_rows() {
        let cols = vec![
            column_for(&Goodman),
            column_for(&Synapse),
            column_for(&Illinois),
            column_for(&Yen),
            column_for(&Berkeley),
            column_for(&BitarDespain),
        ];
        let s = render(&cols);
        for c in &cols {
            assert!(s.contains(c.name), "missing column {}", c.name);
        }
        for row in Table1Row::ALL {
            assert!(s.contains(row.label()), "missing row {}", row.label());
        }
        assert!(s.contains("RWLDS"));
        assert!(s.contains("LRU,MEM"));
        assert!(s.contains("lock-state"));
    }
}
