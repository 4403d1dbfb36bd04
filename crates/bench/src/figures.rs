//! Executable versions of the paper's Figures 1–11.
//!
//! Each `figN` function drives the Bitar-Despain protocol through the
//! figure's scenario on the real simulator, asserts the states and bus
//! actions the figure depicts, and returns the rendered event trace. The
//! `figures` binary prints them; the integration tests run them all.

use mcs_cache::CacheConfig;
use crate::harness::RunSpec;
use mcs_core::{BitarDespain, BitarState, ProtocolKind};
use mcs_model::{Addr, Arcs, BlockAddr, CacheId, LineState as _, ProcId, ProcOp, Word};
use mcs_sim::{
    Crossbar, CrossbarConfig, ParallelScriptWorkload, ScriptStep, ScriptWorkload, System, SystemConfig,
};
use mcs_workloads::{PrologConfig, PrologWorkload};
use std::cell::RefCell;
use std::rc::Rc;

use BitarState as S;

/// A regenerated figure: its caption and the simulator trace behind it.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure number (1–11).
    pub number: u32,
    /// The paper's caption.
    pub caption: &'static str,
    /// Rendered evidence (event trace or summary).
    pub body: String,
}

fn sys(procs: usize) -> System<BitarDespain> {
    System::new(BitarDespain, SystemConfig::new(procs).with_trace(true)).unwrap()
}

fn tiny_sys(procs: usize) -> System<BitarDespain> {
    let cache = CacheConfig::fully_associative(2, 4).unwrap();
    System::new(BitarDespain, SystemConfig::new(procs).with_cache(cache).with_trace(true)).unwrap()
}

/// Figure 1: fetching unshared data on a read miss — no other cache signals
/// hit, so the requester assumes **write** privilege.
pub fn fig1() -> Figure {
    let mut s = sys(2);
    s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::read(Addr(0)))]), 10_000).unwrap();
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::WriteSourceClean);
    assert_eq!(s.stats().sources.from_memory, 1);
    Figure { number: 1, caption: "Fetching Unshared Data on Read Miss", body: s.trace().render() }
}

/// Builds the fig-2/3 precondition: block 0 valid (non-source) in C0, with
/// **no source cache** (C1 fetched it last and then purged it).
fn no_source_setup(s: &mut System<BitarDespain>) {
    s.run(&mut ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::read(Addr(0))),  // C0: WSC
        (ProcId(1), ProcOp::read(Addr(0))),  // C1 becomes source, C0 -> R
        (ProcId(1), ProcOp::read(Addr(40))), // fill C1's 2-frame cache...
        (ProcId(1), ProcOp::read(Addr(80))), // ...evicting block 0: source lost
    ]), 10_000)
    .unwrap();
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Read);
    assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::Invalid);
}

/// Figure 2: fetching without a source cache, read request — another cache
/// signals hit, memory provides the block, and the fetcher becomes the new
/// source (read privilege only, since the block is shared).
pub fn fig2() -> Figure {
    let mut s = tiny_sys(3);
    no_source_setup(&mut s);
    let mem_before = s.stats().sources.from_memory;
    s.run(&mut ScriptWorkload::new(vec![(ProcId(2), ProcOp::read(Addr(0)))]), 10_000).unwrap();
    assert_eq!(s.stats().sources.from_memory, mem_before + 1, "memory must provide");
    assert_eq!(s.state_of(CacheId(2), BlockAddr(0)), S::ReadSourceClean);
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Read, "old copy keeps read privilege");
    Figure {
        number: 2,
        caption: "Fetching Without Source Cache; Read Request",
        body: s.trace().render(),
    }
}

/// Figure 3: fetching without a source cache, write request — memory
/// provides, other copies are invalidated.
pub fn fig3() -> Figure {
    let mut s = tiny_sys(3);
    no_source_setup(&mut s);
    s.run(&mut ScriptWorkload::new(vec![(ProcId(2), ProcOp::write(Addr(0), Word(5)))]), 10_000)
        .unwrap();
    assert_eq!(s.state_of(CacheId(2), BlockAddr(0)), S::WriteSourceDirty);
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Invalid);
    Figure {
        number: 3,
        caption: "Fetching Without Source Cache; Write Request",
        body: s.trace().render(),
    }
}

/// Figure 4: cache-to-cache transfer — the source provides the block *and
/// its clean/dirty status*; the last fetcher becomes the new source.
pub fn fig4() -> Figure {
    let mut s = sys(2);
    s.run(&mut ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::write(Addr(0), Word(9))), // C0: WSD (dirty)
        (ProcId(1), ProcOp::read(Addr(0))),
    ]), 10_000)
    .unwrap();
    assert_eq!(s.stats().sources.from_cache, 1);
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::Read, "old source cedes source status");
    assert_eq!(
        s.state_of(CacheId(1), BlockAddr(0)),
        S::ReadSourceDirty,
        "dirty status travelled with the block (NF,S)"
    );
    assert_eq!(s.stats().sources.flushes, 0, "no flush on transfer");
    Figure { number: 4, caption: "Cache-to-Cache Transfer", body: s.trace().render() }
}

/// Figure 5: a write hit on a read-privilege copy requests **write
/// privilege only** — one signal cycle, no data transfer.
pub fn fig5() -> Figure {
    let mut s = sys(2);
    s.run(&mut ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::read(Addr(0))),
        (ProcId(1), ProcOp::read(Addr(0))), // both valid; C0 is non-source
    ]), 10_000)
    .unwrap();
    let words_before = s.stats().bus.words_transferred;
    s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::write(Addr(0), Word(3)))]), 10_000)
        .unwrap();
    assert_eq!(s.stats().bus.count("req-write"), 1, "privilege-only request on the bus");
    assert_eq!(s.stats().bus.words_transferred, words_before, "no data moved");
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::WriteSourceDirty);
    assert_eq!(s.state_of(CacheId(1), BlockAddr(0)), S::Invalid);
    Figure { number: 5, caption: "Request Only For Write Privilege", body: s.trace().render() }
}

/// Figure 6: locking a block — the lock instruction is a special read;
/// locking is concurrent with the fetch (no extra traffic), and with write
/// privilege already held it costs zero time.
pub fn fig6() -> Figure {
    let mut s = sys(2);
    s.run(&mut ScriptWorkload::new(vec![(ProcId(0), ProcOp::lock_read(Addr(0)))]), 10_000).unwrap();
    assert_eq!(s.state_of(CacheId(0), BlockAddr(0)), S::LockSourceDirty);
    assert_eq!(s.stats().locks.acquires, 1);
    assert_eq!(s.stats().bus.count("fetch-lock"), 1, "one fetch; the lock rode along");
    // Zero-time relock after unlock (write privilege in hand).
    s.run(&mut ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::unlock_write(Addr(0), Word(1))),
        (ProcId(0), ProcOp::lock_read(Addr(0))),
    ]), 10_000)
    .unwrap();
    assert_eq!(s.stats().locks.zero_time_acquires, 1);
    Figure { number: 6, caption: "Locking a Block", body: s.trace().render() }
}

/// Figure 7: requesting a locked block — the request is denied, the holder
/// records the waiter (lock-waiter state), and the requester's busy-wait
/// register is armed.
pub fn fig7() -> Figure {
    let mut s = sys(2);
    let mut w = ParallelScriptWorkload::new()
        .program(ProcId(0), vec![
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Compute(200), // hold the lock long enough to observe
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(1))),
        ])
        .program(ProcId(1), vec![
            ScriptStep::Compute(30),
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(2))),
        ]);
    s.run(&mut w, 10_000).unwrap();
    assert_eq!(s.stats().locks.denied, 1, "C1's lock fetch was denied");
    let rendered = s.trace().render();
    assert!(rendered.contains("LSD -> LSDW"), "holder must record the waiter:\n{rendered}");
    assert!(rendered.contains("busy-wait register armed"));
    Figure { number: 7, caption: "Requesting Locked Block; Initiating Busy Wait", body: rendered }
}

/// Figure 8: unlocking a block — free (zero-time) without a waiter; a
/// recorded waiter makes the unlock broadcast on the bus.
pub fn fig8() -> Figure {
    // Without waiter: zero-time release.
    let mut s = sys(2);
    s.run(&mut ScriptWorkload::new(vec![
        (ProcId(0), ProcOp::lock_read(Addr(0))),
        (ProcId(0), ProcOp::unlock_write(Addr(0), Word(1))),
    ]), 10_000)
    .unwrap();
    assert_eq!(s.stats().locks.zero_time_releases, 1);
    assert_eq!(s.stats().bus.unlock_broadcasts, 0);

    // With waiter: broadcast.
    let mut s2 = sys(2);
    let mut w = ParallelScriptWorkload::new()
        .program(ProcId(0), vec![
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Compute(100),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(1))),
        ])
        .program(ProcId(1), vec![
            ScriptStep::Compute(20),
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(2))),
        ]);
    s2.run(&mut w, 10_000).unwrap();
    assert!(s2.stats().bus.unlock_broadcasts >= 1, "unlock with waiter must broadcast");
    let mut body = String::from("-- without waiter: zero-time unlock --\n");
    body.push_str(&s.trace().render());
    body.push_str("\n-- with waiter: unlock broadcast --\n");
    body.push_str(&s2.trace().render());
    Figure { number: 8, caption: "Unlocking a Block", body }
}

/// Figure 9: ending busy wait — woken waiters re-arbitrate at the
/// reserved priority; the winner locks with the waiter state, the losers
/// stay off the bus; **no unsuccessful retries ever reach the bus**.
pub fn fig9() -> Figure {
    let mut s = sys(4);
    let holder = vec![
        ScriptStep::Op(ProcOp::lock_read(Addr(0))),
        ScriptStep::Compute(120),
        ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(1))),
    ];
    let waiter = |delay: u64, val: u64| {
        vec![
            ScriptStep::Compute(delay),
            ScriptStep::Op(ProcOp::lock_read(Addr(0))),
            ScriptStep::Compute(40),
            ScriptStep::Op(ProcOp::unlock_write(Addr(0), Word(val))),
        ]
    };
    let mut w = ParallelScriptWorkload::new()
        .program(ProcId(0), holder)
        .program(ProcId(1), waiter(20, 2))
        .program(ProcId(2), waiter(25, 3))
        .program(ProcId(3), waiter(30, 4));
    s.run(&mut w, 50_000).unwrap();
    let stats = s.stats();
    assert_eq!(stats.locks.acquires, 4, "everyone eventually locks");
    assert_eq!(stats.locks.releases, 4);
    assert_eq!(stats.locks.denied, 3, "three waiters were denied once each");
    assert!(stats.locks.wakeups >= 3);
    assert!(stats.bus.high_priority_grants >= 3, "woken waiters use the reserved priority");
    assert_eq!(stats.bus.retries, 0, "no unsuccessful retries from the bus");
    // The winner of each wake-up locks with the waiter state.
    let rendered = s.trace().render();
    assert!(rendered.contains("I -> LSDW") || rendered.contains("R -> LSDW"), "{rendered}");
    Figure { number: 9, caption: "End Busy Wait", body: rendered }
}

/// Figure 10: the full cache-state transition relation, generated
/// exhaustively from the protocol implementation.
pub fn fig10() -> Figure {
    // tests/figure10.rs checks every protocol's arcs; here we regenerate
    // the rendering and sanity-check reachability.
    let arcs = Arcs::of(&BitarDespain);
    assert_eq!(arcs.reachable().len(), BitarState::all().len());
    Figure { number: 10, caption: "Cache State Transitions", body: arcs.render("Bitar-Despain") }
}

/// Figure 11: the Aquarius architecture — a Prolog-like lightweight-process
/// workload splitting traffic between the synchronization bus (full
/// protocol) and the crossbar system.
pub fn fig11() -> Figure {
    let procs = 4;
    let xbar = Rc::new(RefCell::new(Crossbar::new(procs, CrossbarConfig::default()).unwrap()));
    let mut w = PrologWorkload::new(PrologConfig::default(), xbar.clone());
    let run = RunSpec::new(ProtocolKind::BitarDespain)
        .procs(procs)
        .max_cycles(5_000_000)
        .run(&mut w, None);
    assert!(run.completed, "the Prolog workload finishes");
    let stats = run.stats;
    let xstats = xbar.borrow().stats().clone();
    assert!(w.bindings_published() > 0);
    assert!(xstats.refs > stats.total_refs(), "crossbar carries the majority of traffic");
    assert_eq!(stats.bus.retries, 0);
    let body = format!(
        "Aquarius two-interconnect run ({procs} processors)\n\
         upper (sync bus) system : {} refs, {} bus txns, {} lock acquires, {} retries\n\
         lower (crossbar) system : {} refs, {:.1}% hit rate, {} module requests\n\
         bindings published      : {}\n\
         process switches        : {} (state saved via write-without-fetch)\n\
         sync-bus share of refs  : {:.1}%",
        stats.total_refs(),
        stats.bus.txns,
        stats.locks.acquires,
        stats.bus.retries,
        xstats.refs,
        100.0 * xstats.hit_rate(),
        xstats.module_requests,
        w.bindings_published(),
        w.switches(),
        100.0 * stats.total_refs() as f64 / (stats.total_refs() + xstats.refs) as f64,
    );
    Figure { number: 11, caption: "Aquarius Architecture", body }
}

/// All figures in order.
pub fn all() -> Vec<Figure> {
    let builders: [fn() -> Figure; 11] =
        [fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11];
    crate::sweep::sweep(&builders, |_, build| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_unshared_read_gets_write_privilege() {
        let f = fig1();
        assert!(f.body.contains("fetch-read"));
        assert!(f.body.contains("memory provides"));
        assert!(f.body.contains("I -> WSC"));
    }

    #[test]
    fn fig2_and_3_memory_provides_without_source() {
        let f = fig2();
        assert!(f.body.contains("memory provides"));
        let f = fig3();
        assert!(f.body.contains("fetch-write"));
    }

    #[test]
    fn fig4_transfers_status_with_block() {
        let f = fig4();
        assert!(f.body.contains("provides"));
        assert!(f.body.contains("status=dirty"));
    }

    #[test]
    fn fig5_one_cycle_upgrade() {
        let f = fig5();
        assert!(f.body.contains("req-write"));
    }

    #[test]
    fn fig6_lock_rides_the_fetch() {
        let f = fig6();
        assert!(f.body.contains("fetch-lock"));
        assert!(f.body.contains("locks"));
    }

    #[test]
    fn fig7_denial_and_waiter() {
        let f = fig7();
        assert!(f.body.contains("LOCKED"));
        assert!(f.body.contains("denied lock"));
    }

    #[test]
    fn fig8_unlock_paths() {
        let f = fig8();
        assert!(f.body.contains("zero-time"));
        assert!(f.body.contains("unlock-bcast"));
    }

    #[test]
    fn fig9_end_busy_wait() {
        let f = fig9();
        assert!(f.body.contains("busy-wait register woken"));
        assert!(f.body.contains("[hi-pri]"));
    }

    #[test]
    fn fig10_and_11_generate() {
        assert!(fig10().body.contains("Processor arcs"));
        let f = fig11();
        assert!(f.body.contains("crossbar"));
    }

    #[test]
    fn all_eleven_figures() {
        let figs = all();
        assert_eq!(figs.len(), 11);
        for (i, f) in figs.iter().enumerate() {
            assert_eq!(f.number as usize, i + 1);
            assert!(!f.body.is_empty());
        }
    }
}
