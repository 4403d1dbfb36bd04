//! Smith-calibrated random reference stream over private and shared data.
//!
//! The paper leans on A. J. Smith's trace statistics for its frequency
//! estimates (Features 3–5): writes are ~35% of references, and most
//! references fall in a small working set. This workload generates such a
//! stream deterministically from a seed, with each processor touching its
//! own private region plus a common shared region.

use mcs_model::{Addr, ProcId, ProcOp, Rng64, Word};
use mcs_sim::{AccessResult, WorkItem, Workload};

/// Configuration for [`RandomSharingWorkload`].
#[derive(Debug, Clone, Copy)]
pub struct RandomSharingConfig {
    /// References each processor issues.
    pub refs_per_proc: usize,
    /// Fraction of references that are writes (Smith: ~0.35).
    pub write_ratio: f64,
    /// Fraction of references that touch the shared region.
    pub shared_fraction: f64,
    /// Shared region size, in words.
    pub shared_words: u64,
    /// Private region size per processor, in words.
    pub private_words: u64,
    /// Probability a reference re-uses the processor's recent hot set
    /// (temporal locality).
    pub locality: f64,
    /// Hot-set size, in words.
    pub hot_words: u64,
    /// Fraction of *reads* issued as the static read-for-write instruction
    /// (Feature 5; exercises write-clean states).
    pub read_for_write_ratio: f64,
    /// Compute cycles between references (pipeline work).
    pub think_cycles: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for RandomSharingConfig {
    fn default() -> Self {
        RandomSharingConfig {
            refs_per_proc: 2_000,
            write_ratio: 0.35,
            shared_fraction: 0.15,
            shared_words: 256,
            private_words: 512,
            locality: 0.8,
            hot_words: 64,
            read_for_write_ratio: 0.0,
            think_cycles: 1,
            seed: 0x5EED,
        }
    }
}

struct Proc {
    rng: Rng64,
    refs_left: usize,
    in_flight: bool,
    hot_base: u64,
}

/// The random-sharing workload. See [`RandomSharingConfig`].
pub struct RandomSharingWorkload {
    cfg: RandomSharingConfig,
    procs: Vec<Proc>,
    value_seq: u64,
}

impl RandomSharingWorkload {
    /// Creates the workload.
    pub fn new(cfg: RandomSharingConfig) -> Self {
        RandomSharingWorkload { cfg, procs: Vec::new(), value_seq: 0 }
    }

    /// Base word address of processor `p`'s private region (placed far
    /// above the shared region).
    fn private_base(&self, p: usize) -> u64 {
        0x1_0000 + p as u64 * self.cfg.private_words * 4
    }

    fn ensure_proc(&mut self, proc: ProcId) {
        while self.procs.len() <= proc.0 {
            let id = self.procs.len() as u64;
            self.procs.push(Proc {
                rng: Rng64::seed_from_u64(self.cfg.seed ^ (id.wrapping_mul(0x9E37_79B9))),
                refs_left: self.cfg.refs_per_proc,
                in_flight: false,
                hot_base: 0,
            });
        }
    }

    fn pick_op(&mut self, proc: ProcId) -> ProcOp {
        let cfg = self.cfg;
        let private_base = self.private_base(proc.0);
        let p = &mut self.procs[proc.0];
        let shared = p.rng.gen_bool(cfg.shared_fraction);
        let addr = if shared {
            Addr(p.rng.gen_range_u64(0..cfg.shared_words))
        } else {
            // Private region with temporal locality: mostly within the
            // current hot set, occasionally moving the hot set.
            if !p.rng.gen_bool(cfg.locality) {
                p.hot_base =
                    p.rng.gen_range_u64(0..cfg.private_words.saturating_sub(cfg.hot_words).max(1));
            }
            Addr(private_base + p.hot_base + p.rng.gen_range_u64(0..cfg.hot_words))
        };
        if p.rng.gen_bool(cfg.write_ratio) {
            self.value_seq += 1;
            ProcOp::write(addr, Word(self.value_seq))
        } else if cfg.read_for_write_ratio > 0.0 && p.rng.gen_bool(cfg.read_for_write_ratio) {
            ProcOp::read_for_write(addr)
        } else {
            ProcOp::read(addr)
        }
    }
}

impl Workload for RandomSharingWorkload {
    fn next(&mut self, proc: ProcId, _now: u64) -> WorkItem {
        self.ensure_proc(proc);
        let p = &self.procs[proc.0];
        if p.refs_left == 0 {
            return WorkItem::Done;
        }
        if p.in_flight {
            return WorkItem::Idle;
        }
        if self.cfg.think_cycles > 0 && self.procs[proc.0].rng.gen_bool(0.5) {
            return WorkItem::Compute(self.cfg.think_cycles);
        }
        let op = self.pick_op(proc);
        self.procs[proc.0].in_flight = true;
        WorkItem::Op(op)
    }

    fn complete(&mut self, proc: ProcId, _op: &ProcOp, _result: &AccessResult, _now: u64) {
        self.ensure_proc(proc);
        let p = &mut self.procs[proc.0];
        p.in_flight = false;
        p.refs_left = p.refs_left.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::BitarDespain;
    use mcs_protocols::{Goodman, Illinois};
    use mcs_sim::{System, SystemConfig};

    fn cfg(refs: usize) -> RandomSharingConfig {
        RandomSharingConfig { refs_per_proc: refs, ..Default::default() }
    }

    #[test]
    fn issues_expected_reference_count() {
        let mut sys = System::new(BitarDespain, SystemConfig::new(4)).unwrap();
        let stats = sys.run(&mut RandomSharingWorkload::new(cfg(500)), 5_000_000).unwrap().stats;
        assert_eq!(stats.total_refs(), 4 * 500);
    }

    #[test]
    fn write_ratio_approximates_smith() {
        let mut sys = System::new(Illinois, SystemConfig::new(2)).unwrap();
        let stats = sys.run(&mut RandomSharingWorkload::new(cfg(4_000)), 20_000_000).unwrap().stats;
        let writes: u64 = stats.per_proc.iter().map(|p| p.writes).sum();
        let ratio = writes as f64 / stats.total_refs() as f64;
        assert!((0.30..0.40).contains(&ratio), "write ratio {ratio} out of band");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = System::new(Goodman, SystemConfig::new(3)).unwrap();
            sys.run(&mut RandomSharingWorkload::new(cfg(800)), 10_000_000).unwrap().stats
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn coherent_under_all_sharing() {
        // High sharing stresses the oracle.
        let cfg = RandomSharingConfig {
            refs_per_proc: 1_000,
            shared_fraction: 0.9,
            shared_words: 32,
            ..Default::default()
        };
        let mut sys = System::new(Illinois, SystemConfig::new(4)).unwrap();
        sys.run(&mut RandomSharingWorkload::new(cfg), 10_000_000).unwrap();
    }
}
