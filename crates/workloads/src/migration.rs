//! Process migration and process-state saving (Feature 9).
//!
//! "In the Aquarius system … we anticipate frequent process switching,
//! hence the switching must be very efficient." A single logical process
//! hops from processor to processor; at each hop the departing processor
//! *saves* the process state (writing every word of each state block —
//! exactly the case write-without-fetch serves) and the arriving processor
//! *restores* it (reading the blocks back).
//!
//! With Feature 9 each block save is one `claim-no-fetch` signal cycle;
//! without it the processor must fetch each block it is about to fully
//! overwrite and then write it word by word — the traffic experiment E8
//! measures the difference.

use mcs_model::{Addr, ProcId, ProcOp, Word};
use mcs_sim::{AccessResult, WorkItem, Workload};

/// The migrating-process workload.
#[derive(Debug)]
pub struct MigrationWorkload {
    procs: usize,
    state_blocks: usize,
    words_per_block: usize,
    hops: usize,
    use_write_no_fetch: bool,
    compute_cycles: u64,
    active: usize,
    hops_done: usize,
    phase: Phase,
    seq: u64,
    in_flight: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Restore { block: usize },
    Compute,
    Save { block: usize, word: usize },
    Finished,
}

impl MigrationWorkload {
    /// A process with `state_blocks` blocks of state migrating `hops`
    /// times around `procs` processors; `use_write_no_fetch` selects
    /// Feature 9 for the saves.
    pub fn new(procs: usize, state_blocks: usize, hops: usize, use_write_no_fetch: bool) -> Self {
        MigrationWorkload {
            procs: procs.max(1),
            state_blocks: state_blocks.max(1),
            words_per_block: 4,
            hops,
            use_write_no_fetch,
            compute_cycles: 50,
            active: 0,
            hops_done: 0,
            phase: Phase::Restore { block: 0 },
            seq: 0,
            in_flight: false,
        }
    }

    /// Sets the words-per-block layout (default 4; must match the system).
    pub fn with_words_per_block(mut self, words: usize) -> Self {
        self.words_per_block = words.max(1);
        self
    }

    /// Sets the compute time between restore and save.
    pub fn with_compute_cycles(mut self, cycles: u64) -> Self {
        self.compute_cycles = cycles;
        self
    }

    /// Completed hops.
    pub fn hops_done(&self) -> usize {
        self.hops_done
    }

    /// State is double-buffered: each hop restores from the buffer the
    /// previous processor saved and saves into the other one. The save
    /// target is therefore never already resident with write privilege —
    /// the write-miss case write-without-fetch (Feature 9) serves.
    fn buffer_addr(&self, buffer: usize, block: usize, word: usize) -> Addr {
        let buffer_blocks = self.state_blocks + 1; // spacer block between buffers
        Addr(((buffer * buffer_blocks + block) * self.words_per_block + word) as u64)
    }

    fn restore_buffer(&self) -> usize {
        self.hops_done % 2
    }

    fn save_buffer(&self) -> usize {
        (self.hops_done + 1) % 2
    }

    fn advance_save(&mut self, block: usize, word: usize) {
        let next_word = if self.use_write_no_fetch { self.words_per_block } else { word + 1 };
        if next_word < self.words_per_block {
            self.phase = Phase::Save { block, word: next_word };
        } else if block + 1 < self.state_blocks {
            self.phase = Phase::Save { block: block + 1, word: 0 };
        } else {
            self.hops_done += 1;
            if self.hops_done >= self.hops {
                self.phase = Phase::Finished;
            } else {
                self.active = (self.active + 1) % self.procs;
                self.phase = Phase::Restore { block: 0 };
            }
        }
    }
}

impl Workload for MigrationWorkload {
    fn next(&mut self, proc: ProcId, _now: u64) -> WorkItem {
        if self.phase == Phase::Finished {
            return WorkItem::Done;
        }
        if proc.0 != self.active || self.in_flight {
            return WorkItem::Idle; // the process is running elsewhere
        }
        match self.phase {
            Phase::Restore { block } => {
                self.in_flight = true;
                WorkItem::Op(ProcOp::read(self.buffer_addr(self.restore_buffer(), block, 0)))
            }
            Phase::Compute => {
                self.phase = Phase::Save { block: 0, word: 0 };
                WorkItem::Compute(self.compute_cycles)
            }
            Phase::Save { block, word } => {
                self.in_flight = true;
                self.seq += 1;
                let buf = self.save_buffer();
                if self.use_write_no_fetch {
                    WorkItem::Op(ProcOp::write_no_fetch(
                        self.buffer_addr(buf, block, 0),
                        Word(self.seq),
                    ))
                } else {
                    WorkItem::Op(ProcOp::write(self.buffer_addr(buf, block, word), Word(self.seq)))
                }
            }
            Phase::Finished => WorkItem::Done,
        }
    }

    fn complete(&mut self, _proc: ProcId, _op: &ProcOp, _result: &AccessResult, _now: u64) {
        self.in_flight = false;
        match self.phase {
            Phase::Restore { block } => {
                if block + 1 < self.state_blocks {
                    self.phase = Phase::Restore { block: block + 1 };
                } else {
                    self.phase = Phase::Compute;
                }
            }
            Phase::Save { block, word } => self.advance_save(block, word),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::BitarDespain;
    use mcs_sim::{System, SystemConfig};

    fn run(use_wnf: bool) -> (usize, mcs_model::Stats) {
        let mut w = MigrationWorkload::new(4, 4, 8, use_wnf);
        let mut sys = System::new(BitarDespain, SystemConfig::new(4)).unwrap();
        let stats = sys.run(&mut w, 2_000_000).unwrap().stats;
        (w.hops_done(), stats)
    }

    #[test]
    fn completes_all_hops_both_ways() {
        assert_eq!(run(true).0, 8);
        assert_eq!(run(false).0, 8);
    }

    #[test]
    fn write_no_fetch_moves_no_save_data() {
        let (_, with) = run(true);
        let (_, without) = run(false);
        // Feature 9: state saves need no block fetches, so far fewer words
        // cross the bus.
        assert!(
            with.bus.words_transferred < without.bus.words_transferred,
            "write-no-fetch {} must move fewer words than plain {}",
            with.bus.words_transferred,
            without.bus.words_transferred
        );
        assert!(with.bus.count("claim-no-fetch") > 0);
        assert_eq!(without.bus.count("claim-no-fetch"), 0);
    }

    #[test]
    fn state_follows_the_process() {
        // Data written on one processor must be read back on the next.
        let mut w = MigrationWorkload::new(3, 2, 6, true);
        let mut sys = System::new(BitarDespain, SystemConfig::new(3)).unwrap();
        // The oracle inside the run verifies all restore reads.
        sys.run(&mut w, 2_000_000).unwrap();
        assert_eq!(w.hops_done(), 6);
    }
}
