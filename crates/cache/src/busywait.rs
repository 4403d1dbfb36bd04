//! The busy-wait register of Section E.4.
//!
//! When a cache's lock fetch finds the block locked elsewhere, it enters
//! the block address in this register. The register then *monitors the bus*
//! on the processor's behalf — the processor is free to work while waiting.
//! When an unlock broadcast for the watched block appears, the register
//! joins the next arbitration at the reserved highest priority. If another
//! waiter wins, the register simply keeps waiting (the losers "will not
//! access the bus, making no attempt to fetch the block again").

use mcs_model::BlockAddr;

/// Phase of a busy-wait register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BwPhase {
    /// Not watching anything.
    Idle,
    /// Watching a locked block for its unlock broadcast.
    Armed,
    /// Saw the unlock; will arbitrate at high priority for the lock fetch.
    Woken,
}

/// One per cache: hardware that busy-waits so the processor need not.
///
/// ```
/// use mcs_cache::{BusyWaitRegister, BwPhase};
/// use mcs_model::BlockAddr;
///
/// let mut reg = BusyWaitRegister::new();
/// reg.arm(BlockAddr(7));                       // lock fetch was denied
/// assert!(reg.observe_unlock(BlockAddr(7)));   // unlock broadcast seen
/// assert!(reg.wants_bus());                    // re-arbitrate at high priority
/// reg.observe_relock(BlockAddr(7));            // another waiter won
/// assert_eq!(reg.phase(), BwPhase::Armed);     // keep waiting, off the bus
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyWaitRegister {
    phase: BwPhase,
    block: Option<BlockAddr>,
}

impl BusyWaitRegister {
    /// An idle register.
    pub fn new() -> Self {
        BusyWaitRegister { phase: BwPhase::Idle, block: None }
    }

    /// Current phase.
    pub fn phase(&self) -> BwPhase {
        self.phase
    }

    /// The block being watched, if any.
    pub fn watching(&self) -> Option<BlockAddr> {
        self.block
    }

    /// Arms the register on `block` after a denied lock fetch (Figure 7).
    pub fn arm(&mut self, block: BlockAddr) {
        self.phase = BwPhase::Armed;
        self.block = Some(block);
    }

    /// Observes an unlock broadcast for `block`. Returns `true` if this
    /// register was armed on that block and is now woken (Figure 9).
    pub fn observe_unlock(&mut self, block: BlockAddr) -> bool {
        if self.phase == BwPhase::Armed && self.block == Some(block) {
            self.phase = BwPhase::Woken;
            true
        } else {
            false
        }
    }

    /// Observes that *another* cache won the post-unlock arbitration and
    /// re-locked `block`: a woken register goes back to armed and keeps
    /// waiting off the bus. Returns `true` if this register was woken on
    /// that block and is now armed again.
    pub fn observe_relock(&mut self, block: BlockAddr) -> bool {
        if self.phase == BwPhase::Woken && self.block == Some(block) {
            self.phase = BwPhase::Armed;
            true
        } else {
            false
        }
    }

    /// True when the register wants to arbitrate at high priority.
    pub fn wants_bus(&self) -> bool {
        self.phase == BwPhase::Woken
    }

    /// Disarms the register (the waiting process was switched out, or the
    /// lock was acquired).
    pub fn disarm(&mut self) {
        self.phase = BwPhase::Idle;
        self.block = None;
    }
}

impl Default for BusyWaitRegister {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_idle_armed_woken() {
        let mut r = BusyWaitRegister::new();
        assert_eq!(r.phase(), BwPhase::Idle);
        assert!(!r.wants_bus());
        r.arm(BlockAddr(7));
        assert_eq!(r.phase(), BwPhase::Armed);
        assert_eq!(r.watching(), Some(BlockAddr(7)));
        assert!(!r.wants_bus());
        assert!(r.observe_unlock(BlockAddr(7)));
        assert_eq!(r.phase(), BwPhase::Woken);
        assert!(r.wants_bus());
        r.disarm();
        assert_eq!(r.phase(), BwPhase::Idle);
        assert_eq!(r.watching(), None);
    }

    #[test]
    fn ignores_unlocks_of_other_blocks() {
        let mut r = BusyWaitRegister::new();
        r.arm(BlockAddr(7));
        assert!(!r.observe_unlock(BlockAddr(8)));
        assert_eq!(r.phase(), BwPhase::Armed);
    }

    #[test]
    fn idle_register_ignores_unlocks() {
        let mut r = BusyWaitRegister::new();
        assert!(!r.observe_unlock(BlockAddr(7)));
        assert_eq!(r.phase(), BwPhase::Idle);
    }

    #[test]
    fn loser_returns_to_armed_on_relock() {
        let mut r = BusyWaitRegister::new();
        r.arm(BlockAddr(3));
        r.observe_unlock(BlockAddr(3));
        assert!(r.wants_bus());
        // Another waiter won the arbitration and re-locked the block.
        assert!(r.observe_relock(BlockAddr(3)));
        assert_eq!(r.phase(), BwPhase::Armed);
        assert!(!r.wants_bus());
        // The next unlock wakes it again.
        assert!(r.observe_unlock(BlockAddr(3)));
    }

    #[test]
    fn relock_of_other_block_ignored() {
        let mut r = BusyWaitRegister::new();
        r.arm(BlockAddr(3));
        r.observe_unlock(BlockAddr(3));
        assert!(!r.observe_relock(BlockAddr(9)));
        assert_eq!(r.phase(), BwPhase::Woken);
    }
}
