//! Producer/consumer binding passing (Section B.1).
//!
//! "One process produces a value, say a variable binding, for another
//! process, and that process, in turn, reads the value and uses it."
//! Processors pair up (0,1), (2,3), …: the producer writes the binding
//! words then publishes a sequence number in a flag word; the consumer
//! spins on its cached copy of the flag (the Censier-Feautrier primitive
//! efficient busy wait — the spin costs no bus traffic until the flag
//! changes) and then reads the binding.
//!
//! Invalidation protocols make the consumer refetch flag + binding each
//! round; update protocols (Dragon/Firefly/Rudolph-Segall) deliver them in
//! place — this workload is where the Section D trade-off shows.

use mcs_model::{Addr, ProcId, ProcOp, Word};
use mcs_sim::{AccessResult, WorkItem, Workload};

/// One producer/consumer pair per two processors.
#[derive(Debug)]
pub struct ProducerConsumerWorkload {
    rounds: usize,
    binding_words: usize,
    produce_cycles: u64,
    words_per_block: usize,
    procs: Vec<Proc>,
    handoffs: u64,
    total_handoff_latency: u64,
}

#[derive(Debug)]
struct Proc {
    round: usize,
    phase: Phase,
    flag_written_at: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    // Producer.
    Produce,
    WriteBinding { i: usize },
    PublishFlag,
    AwaitAck,
    AckWait,
    // Consumer.
    PollFlag,
    PollWait,
    ReadBinding { i: usize },
    BindingWait { i: usize },
    WriteAck,
    AckInFlight,
    Done,
}

impl ProducerConsumerWorkload {
    /// `rounds` hand-offs per pair, each binding `binding_words` words,
    /// with `produce_cycles` of computation per production.
    pub fn new(rounds: usize, binding_words: usize, produce_cycles: u64) -> Self {
        ProducerConsumerWorkload {
            rounds,
            binding_words: binding_words.max(1),
            produce_cycles,
            words_per_block: 4,
            procs: Vec::new(),
            handoffs: 0,
            total_handoff_latency: 0,
        }
    }

    /// Sets the block size used for laying out the slots (default 4).
    pub fn with_words_per_block(mut self, words: usize) -> Self {
        self.words_per_block = words.max(1);
        self
    }

    /// Completed hand-offs across all pairs.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Mean cycles from flag publication to the consumer observing it.
    pub fn mean_handoff_latency(&self) -> f64 {
        if self.handoffs == 0 {
            0.0
        } else {
            self.total_handoff_latency as f64 / self.handoffs as f64
        }
    }

    fn pair_of(proc: ProcId) -> usize {
        proc.0 / 2
    }

    /// The flag word for a pair (own block).
    fn flag_addr(&self, pair: usize) -> Addr {
        let blocks_per_pair = 1 + self.binding_words.div_ceil(self.words_per_block);
        Addr((pair * blocks_per_pair * self.words_per_block) as u64)
    }

    /// Binding word `i` for a pair (blocks after the flag block).
    fn binding_addr(&self, pair: usize, i: usize) -> Addr {
        Addr(self.flag_addr(pair).0 + self.words_per_block as u64 + i as u64)
    }

    fn ensure_proc(&mut self, proc: ProcId) {
        while self.procs.len() <= proc.0 {
            let producer = self.procs.len().is_multiple_of(2);
            self.procs.push(Proc {
                round: 0,
                phase: if producer { Phase::Produce } else { Phase::PollFlag },
                flag_written_at: 0,
            });
        }
    }
}

impl Workload for ProducerConsumerWorkload {
    fn next(&mut self, proc: ProcId, now: u64) -> WorkItem {
        self.ensure_proc(proc);
        let pair = Self::pair_of(proc);
        let rounds = self.rounds;
        let binding_words = self.binding_words;
        let produce_cycles = self.produce_cycles;
        let flag = self.flag_addr(pair);
        let p = &mut self.procs[proc.0];
        if p.round >= rounds {
            p.phase = Phase::Done;
            return WorkItem::Done;
        }
        match p.phase {
            Phase::Done => WorkItem::Done,
            // Producer side.
            Phase::Produce => {
                p.phase = Phase::WriteBinding { i: 0 };
                if produce_cycles > 0 {
                    WorkItem::Compute(produce_cycles)
                } else {
                    // This call advanced the phase machine, so plain `Idle`
                    // (whose contract promises a side-effect-free poll)
                    // would be wrong: ask to be re-polled next cycle.
                    WorkItem::IdleUntil(now + 1)
                }
            }
            Phase::WriteBinding { i } => {
                if i < binding_words {
                    let value = Word(((p.round as u64) << 16) | i as u64 | 0x8000_0000);
                    let addr = self.binding_addr(pair, i);
                    self.procs[proc.0].phase = Phase::WriteBinding { i }; // wait for completion
                    WorkItem::Op(ProcOp::write(addr, value))
                } else {
                    p.phase = Phase::PublishFlag;
                    WorkItem::Op(ProcOp::write(flag, Word(p.round as u64 + 1)))
                }
            }
            Phase::PublishFlag => WorkItem::Idle, // in flight
            Phase::AwaitAck => {
                p.phase = Phase::AckWait;
                WorkItem::Op(ProcOp::read(flag))
            }
            Phase::AckWait => WorkItem::Idle,
            // Consumer side.
            Phase::PollFlag => {
                p.phase = Phase::PollWait;
                WorkItem::Op(ProcOp::read(flag))
            }
            Phase::PollWait => WorkItem::Idle,
            Phase::ReadBinding { i } => {
                p.phase = Phase::BindingWait { i };
                let addr = self.binding_addr(pair, i);
                WorkItem::Op(ProcOp::read(addr))
            }
            Phase::BindingWait { .. } => WorkItem::Idle,
            Phase::WriteAck => {
                p.phase = Phase::AckInFlight;
                WorkItem::Op(ProcOp::write(flag, Word(0)))
            }
            Phase::AckInFlight => WorkItem::Idle,
        }
    }

    fn complete(&mut self, proc: ProcId, op: &ProcOp, result: &AccessResult, now: u64) {
        self.ensure_proc(proc);
        let binding_words = self.binding_words;
        let p = &mut self.procs[proc.0];
        match p.phase {
            Phase::WriteBinding { i } => {
                p.phase = Phase::WriteBinding { i: i + 1 };
            }
            Phase::PublishFlag => {
                let _ = op;
                p.flag_written_at = now;
                p.phase = Phase::AwaitAck;
            }
            Phase::AckWait => {
                // Producer waits for the consumer to clear the flag.
                if result.value == Some(Word(0)) {
                    p.round += 1;
                    p.phase = Phase::Produce;
                } else {
                    p.phase = Phase::AwaitAck;
                }
            }
            Phase::PollWait => {
                let expected = Word(p.round as u64 + 1);
                if result.value == Some(expected) {
                    p.phase = Phase::ReadBinding { i: 0 };
                } else {
                    p.phase = Phase::PollFlag;
                }
            }
            Phase::BindingWait { i } => {
                if i + 1 < binding_words {
                    p.phase = Phase::ReadBinding { i: i + 1 };
                } else {
                    p.phase = Phase::WriteAck;
                }
            }
            Phase::AckInFlight => {
                self.handoffs += 1;
                let producer = &self.procs[proc.0 - 1];
                self.total_handoff_latency += now.saturating_sub(producer.flag_written_at);
                let p = &mut self.procs[proc.0];
                p.round += 1;
                p.phase = Phase::PollFlag;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::BitarDespain;
    use mcs_protocols::{Dragon, Illinois};
    use mcs_sim::{System, SystemConfig};

    #[test]
    fn handoffs_complete_on_invalidation_protocol() {
        let mut w = ProducerConsumerWorkload::new(10, 3, 5);
        let mut sys = System::new(Illinois, SystemConfig::new(2)).unwrap();
        sys.run(&mut w, 2_000_000).unwrap();
        assert_eq!(w.handoffs(), 10);
        assert!(w.mean_handoff_latency() > 0.0);
    }

    #[test]
    fn handoffs_complete_on_update_protocol() {
        let mut w = ProducerConsumerWorkload::new(10, 3, 5);
        let mut sys = System::new(Dragon, SystemConfig::new(2)).unwrap();
        sys.run(&mut w, 2_000_000).unwrap();
        assert_eq!(w.handoffs(), 10);
    }

    #[test]
    fn multiple_pairs_run_independently() {
        let mut w = ProducerConsumerWorkload::new(5, 2, 3);
        let mut sys = System::new(BitarDespain, SystemConfig::new(6)).unwrap();
        sys.run(&mut w, 2_000_000).unwrap();
        assert_eq!(w.handoffs(), 15); // 3 pairs x 5 rounds
    }

    #[test]
    fn consumer_spin_is_mostly_cache_hits() {
        let mut w = ProducerConsumerWorkload::new(8, 2, 40);
        let mut sys = System::new(Illinois, SystemConfig::new(2)).unwrap();
        let stats = sys.run(&mut w, 2_000_000).unwrap().stats;
        // The consumer polls many times; most polls must hit in cache
        // (primitive efficient busy wait: loop on block in cache).
        let consumer = &stats.per_proc[1];
        assert!(consumer.hits > consumer.misses);
    }
}
