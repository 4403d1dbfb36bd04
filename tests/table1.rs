//! Integration test: the generated Table 1 must equal the paper's
//! published matrix (with the one documented rendering difference for
//! Illinois's shared state — see `EXPERIMENTS.md`).

use mcs::core::table1::{column_for, render, SourceMark, Table1Row};
use mcs::core::{with_protocol, ProtocolKind};
use mcs::model::{
    DirectoryDuality, DistributedState, FlushPolicy, RmwMethod, SharingDetermination, SourcePolicy,
};

/// The paper's matrix: per protocol, the present state rows with their
/// source annotations.
fn expected_states(kind: ProtocolKind) -> Vec<(Table1Row, SourceMark)> {
    use SourceMark::{None as X, N, S};
    use Table1Row::*;
    match kind {
        ProtocolKind::Goodman => {
            vec![(Invalid, X), (Read, N), (WriteClean, N), (WriteDirty, S)]
        }
        ProtocolKind::Synapse => vec![(Invalid, X), (Read, N), (WriteDirty, S)],
        ProtocolKind::Illinois => {
            // Paper: Read(s), Write-Clean(s), Write-Dirty(s); our renderer
            // puts the shared state on the Read-Clean row (documented).
            vec![(Invalid, X), (ReadClean, S), (WriteClean, S), (WriteDirty, S)]
        }
        ProtocolKind::Yen => vec![(Invalid, X), (Read, N), (WriteClean, N), (WriteDirty, S)],
        ProtocolKind::Berkeley => vec![
            (Invalid, X),
            (Read, N),
            (ReadDirty, S),
            (WriteClean, S),
            (WriteDirty, S),
        ],
        ProtocolKind::BitarDespain => vec![
            (Invalid, X),
            (Read, N),
            (ReadClean, S),
            (ReadDirty, S),
            (WriteClean, S),
            (WriteDirty, S),
            (LockDirty, S),
            (LockDirtyWaiter, S),
        ],
        _ => unreachable!("not a Table 1 protocol"),
    }
}

#[test]
fn generated_state_matrix_equals_paper() {
    for kind in ProtocolKind::EVOLUTION {
        let col = with_protocol!(kind, p => column_for(&p));
        let expected = expected_states(kind);
        assert_eq!(
            col.states.len(),
            expected.len(),
            "{kind}: wrong number of states: {:?}",
            col.states
        );
        for (row, mark) in expected {
            assert_eq!(
                col.states.get(&row),
                Some(&mark),
                "{kind}: row {row:?} mismatch (got {:?})",
                col.states.get(&row)
            );
        }
    }
}

#[test]
fn generated_feature_rows_equal_paper() {
    let features = |kind| with_protocol!(kind, p => mcs::model::Protocol::features(&p));

    // Feature 1: all evolution protocols have cache-to-cache transfer;
    // Frank's serves write-privilege requests only (note 1).
    for kind in ProtocolKind::EVOLUTION {
        assert!(features(kind).cache_to_cache, "{kind}");
    }
    assert!(!features(ProtocolKind::Synapse).c2c_serves_reads);
    assert!(features(ProtocolKind::Goodman).c2c_serves_reads);

    // Feature 2: RWDS everywhere except Frank (RWD) and ours (RWLDS).
    assert_eq!(features(ProtocolKind::Goodman).distributed, DistributedState::RWDS);
    assert_eq!(features(ProtocolKind::Synapse).distributed, DistributedState::RWD);
    assert_eq!(features(ProtocolKind::Illinois).distributed, DistributedState::RWDS);
    assert_eq!(features(ProtocolKind::Yen).distributed, DistributedState::RWDS);
    assert_eq!(features(ProtocolKind::Berkeley).distributed, DistributedState::RWDS);
    assert_eq!(features(ProtocolKind::BitarDespain).distributed, DistributedState::RWLDS);

    // Feature 3: ID / ID / ID / (blank->ID) / DPR / NID.
    assert_eq!(features(ProtocolKind::Goodman).directory, DirectoryDuality::IdenticalDual);
    assert_eq!(features(ProtocolKind::Synapse).directory, DirectoryDuality::IdenticalDual);
    assert_eq!(features(ProtocolKind::Illinois).directory, DirectoryDuality::IdenticalDual);
    assert_eq!(features(ProtocolKind::Berkeley).directory, DirectoryDuality::DualPortedRead);
    assert_eq!(
        features(ProtocolKind::BitarDespain).directory,
        DirectoryDuality::NonIdenticalDual
    );

    // Feature 4: everyone except Goodman.
    assert!(!features(ProtocolKind::Goodman).bus_invalidate_signal);
    for kind in [
        ProtocolKind::Synapse,
        ProtocolKind::Illinois,
        ProtocolKind::Yen,
        ProtocolKind::Berkeley,
        ProtocolKind::BitarDespain,
    ] {
        assert!(features(kind).bus_invalidate_signal, "{kind}");
    }

    // Feature 5: - / - / D / S / S / D.
    assert_eq!(features(ProtocolKind::Goodman).read_for_write, None);
    assert_eq!(features(ProtocolKind::Synapse).read_for_write, None);
    assert_eq!(
        features(ProtocolKind::Illinois).read_for_write,
        Some(SharingDetermination::Dynamic)
    );
    assert_eq!(features(ProtocolKind::Yen).read_for_write, Some(SharingDetermination::Static));
    assert_eq!(
        features(ProtocolKind::Berkeley).read_for_write,
        Some(SharingDetermination::Static)
    );
    assert_eq!(
        features(ProtocolKind::BitarDespain).read_for_write,
        Some(SharingDetermination::Dynamic)
    );

    // Feature 6: - / yes / yes / - / yes / yes(lock-state).
    assert_eq!(features(ProtocolKind::Goodman).atomic_rmw, None);
    assert_eq!(
        features(ProtocolKind::Synapse).atomic_rmw,
        Some(RmwMethod::FetchAndHoldCache)
    );
    assert_eq!(features(ProtocolKind::Yen).atomic_rmw, None);
    assert_eq!(features(ProtocolKind::BitarDespain).atomic_rmw, Some(RmwMethod::LockState));

    // Feature 7: F / NF / F / F / NF,S / NF,S.
    assert_eq!(features(ProtocolKind::Goodman).flush_on_transfer, FlushPolicy::Flush);
    assert_eq!(
        features(ProtocolKind::Synapse).flush_on_transfer,
        FlushPolicy::NoFlush { transfer_status: false }
    );
    assert_eq!(features(ProtocolKind::Illinois).flush_on_transfer, FlushPolicy::Flush);
    assert_eq!(features(ProtocolKind::Yen).flush_on_transfer, FlushPolicy::Flush);
    assert_eq!(
        features(ProtocolKind::Berkeley).flush_on_transfer,
        FlushPolicy::NoFlush { transfer_status: true }
    );
    assert_eq!(
        features(ProtocolKind::BitarDespain).flush_on_transfer,
        FlushPolicy::NoFlush { transfer_status: true }
    );

    // Feature 8: - / - / ARB / - / MEM / LRU,MEM.
    assert_eq!(features(ProtocolKind::Illinois).source_policy, SourcePolicy::Arbitrate);
    assert_eq!(features(ProtocolKind::Berkeley).source_policy, SourcePolicy::MemoryOnLoss);
    assert_eq!(
        features(ProtocolKind::BitarDespain).source_policy,
        SourcePolicy::LruLastFetcher
    );

    // Features 9 and 10: only the proposal.
    for kind in ProtocolKind::EVOLUTION {
        let f = features(kind);
        assert_eq!(f.write_no_fetch, kind == ProtocolKind::BitarDespain, "{kind}");
        assert_eq!(f.efficient_busy_wait, kind == ProtocolKind::BitarDespain, "{kind}");
    }
}

#[test]
fn rendered_table_is_complete() {
    let columns: Vec<_> = ProtocolKind::EVOLUTION
        .iter()
        .map(|kind| with_protocol!(*kind, p => column_for(&p)))
        .collect();
    let text = render(&columns);
    for needle in
        ["Lock, Dirty, Waiter", "RWLDS", "LRU,MEM", "lock-state", "NF,S", "ARB", "NID", "DPR"]
    {
        assert!(text.contains(needle), "missing `{needle}` in rendered table:\n{text}");
    }
}

#[test]
fn states_reachable_in_simulation_for_every_protocol() {
    // Every state Figure 10's arcs reach from Invalid must be *entered* in
    // a real simulation — Table 1's rows are not decorative — except the
    // states named here, each with why the battery cannot enter it.
    use mcs::cache::CacheConfig;
    use mcs::model::{Addr, Arcs, Event, LineState, ProcId, ProcOp, Word};
    use mcs::sim::{ParallelScriptWorkload, ScriptStep, System, SystemConfig};

    const NO_INVALIDATION: &str = "updates copies instead of invalidating them, so only an \
        eviction or an I/O input returns a frame to Invalid, and the battery does neither";
    const NOT_ENTERED: [(ProtocolKind, &str, &str); 2] = [
        (ProtocolKind::Dragon, "I", NO_INVALIDATION),
        (ProtocolKind::Firefly, "I", NO_INVALIDATION),
    ];

    // A scenario battery touching all the interesting paths.
    fn battery(words: u64) -> Vec<Vec<ScriptStep>> {
        let op = |o| ScriptStep::Op(o);
        vec![
            // P0: read-miss alone, writes, re-reads.
            vec![
                op(ProcOp::read(Addr(0))),
                op(ProcOp::write(Addr(0), Word(1))),
                op(ProcOp::write(Addr(0), Word(2))),
                op(ProcOp::read_for_write(Addr(words * 2))),
                op(ProcOp::write(Addr(words * 2), Word(3))),
                op(ProcOp::lock_read(Addr(words * 4))),
                op(ProcOp::unlock_write(Addr(words * 4), Word(4))),
                op(ProcOp::rmw(Addr(words * 6), Word(1))),
            ],
            // P1: sharing reads, competing writes, a lock wait.
            vec![
                ScriptStep::Compute(5),
                op(ProcOp::read(Addr(0))),
                op(ProcOp::read(Addr(words * 2))),
                op(ProcOp::write(Addr(words * 2), Word(5))),
                op(ProcOp::lock_read(Addr(words * 4))),
                op(ProcOp::unlock_write(Addr(words * 4), Word(6))),
                op(ProcOp::read(Addr(0))),
            ],
        ]
    }

    for kind in ProtocolKind::ALL {
        with_protocol!(kind, p => {
            let reachable = Arcs::of(&p).reachable();
            let words = if kind.requires_word_blocks() { 1 } else { 4 };
            let cache = CacheConfig::fully_associative(64, words).unwrap();
            let config = SystemConfig::new(2).with_cache(cache).with_trace(true);
            let mut sys = System::new(p, config).unwrap();
            let mut w = ParallelScriptWorkload::new();
            for (i, prog) in battery(words as u64).into_iter().enumerate() {
                w = w.program(ProcId(i), prog);
            }
            assert!(sys.run(&mut w, 100_000).unwrap().completed, "{kind}: battery stalled");
            let entered: Vec<&str> = sys
                .trace()
                .iter()
                .filter_map(|(_, e)| match e {
                    Event::StateChange { to, .. } => Some(*to),
                    _ => None,
                })
                .collect();
            let missed: Vec<&str> = reachable
                .iter()
                .map(LineState::name)
                .filter(|name| !entered.contains(name))
                .collect();
            let excused: Vec<&str> = NOT_ENTERED
                .iter()
                .filter(|(k, _, _)| *k == kind)
                .map(|&(_, state, _)| state)
                .collect();
            assert_eq!(missed, excused, "{kind}: reachable states the battery never entered");
        });
    }
}

#[test]
fn derived_feature_rows_of_the_other_schemes() {
    // The write-through, hybrid and ablation schemes outside Table 1's six
    // columns. Every cell but Features 2, 3 and 6 is derived from the arcs.
    use mcs::model::{FeatureSet, Protocol, WritePolicy};
    use mcs::protocols::{
        Berkeley, BerkeleyNonSourceWc, ClassicWriteThrough, Dragon, Firefly, RudolphSegall,
    };

    let classic = FeatureSet {
        cache_to_cache: false,
        c2c_serves_reads: false,
        distributed: DistributedState { read: true, ..Default::default() },
        directory: DirectoryDuality::IdenticalDual,
        bus_invalidate_signal: false,
        read_for_write: None,
        atomic_rmw: None,
        flush_on_transfer: FlushPolicy::Flush,
        source_policy: SourcePolicy::NoReadSource,
        write_no_fetch: false,
        efficient_busy_wait: false,
        write_policy: WritePolicy::WriteThrough,
    };
    assert_eq!(ClassicWriteThrough.features(), classic);

    // The update schemes claim a block without fetching it (Feature 9).
    let hybrid = FeatureSet {
        cache_to_cache: true,
        c2c_serves_reads: true,
        distributed: DistributedState::RWDS,
        write_no_fetch: true,
        write_policy: WritePolicy::Hybrid,
        ..classic
    };
    // No clean Dragon state is a source, so no status travels: NF.
    assert_eq!(
        Dragon.features(),
        FeatureSet {
            read_for_write: Some(SharingDetermination::Dynamic),
            flush_on_transfer: FlushPolicy::NoFlush { transfer_status: false },
            source_policy: SourcePolicy::MemoryOnLoss,
            ..hybrid
        }
    );
    assert_eq!(
        Firefly.features(),
        FeatureSet { read_for_write: Some(SharingDetermination::Dynamic), ..hybrid }
    );
    // Rudolph-Segall spins on a copy its write-throughs keep updated.
    assert_eq!(
        RudolphSegall.features(),
        FeatureSet {
            bus_invalidate_signal: true,
            atomic_rmw: Some(RmwMethod::HoldMemory),
            efficient_busy_wait: true,
            ..hybrid
        }
    );
    // Berkeley's clean write state without source status needs no status
    // transfer (Section F.3).
    assert_eq!(
        BerkeleyNonSourceWc.features(),
        FeatureSet {
            flush_on_transfer: FlushPolicy::NoFlush { transfer_status: false },
            ..Berkeley.features()
        }
    );
    assert_eq!(Berkeley.features().flush_on_transfer, FlushPolicy::NoFlush { transfer_status: true });
}
