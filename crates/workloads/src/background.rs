//! The benign co-runner of Table VI ("sender & gcc").
//!
//! The paper's stealth argument needs a baseline: a benign program
//! sharing the core causes cache contention *similar to or bigger
//! than* the LRU-channel receiver, so performance-counter detection
//! of the sender cannot tell the attack from ordinary co-scheduling.

use cache_sim::addr::VirtAddr;
use exec_sim::machine::{Machine, Pid};
use exec_sim::program::{Op, Program};

use crate::access_pattern::AccessPattern;
use crate::spec_like::{pick_component, Benchmark};

/// A gcc-like benign program: the compiler mix of
/// [`Benchmark::patterns`] driven as an [`exec_sim::Program`], with a
/// couple of compute cycles between references.
#[derive(Debug, Clone)]
pub struct BenignCoRunner {
    mix: Vec<(f64, AccessPattern)>,
    bases: Vec<VirtAddr>,
    total_weight: f64,
    gap_cycles: u32,
    emit_access: bool,
    pick_state: u64,
}

impl BenignCoRunner {
    /// Builds the gcc-like co-runner, allocating its working sets in
    /// `pid`'s address space.
    pub fn gcc(machine: &mut Machine, pid: Pid, seed: u64) -> Self {
        Self::from_benchmark(
            machine,
            pid,
            Benchmark::by_name("gcc").expect("gcc exists"),
            seed,
        )
    }

    /// Builds a co-runner from any suite benchmark.
    pub fn from_benchmark(machine: &mut Machine, pid: Pid, bench: Benchmark, seed: u64) -> Self {
        let mix = bench.patterns(seed);
        let bases = mix
            .iter()
            .map(|(_, p)| machine.alloc_pages(pid, p.extent().div_ceil(4096).max(1)))
            .collect();
        let total_weight = mix.iter().map(|(w, _)| *w).sum();
        Self {
            mix,
            bases,
            total_weight,
            gap_cycles: 2,
            emit_access: true,
            pick_state: seed | 1,
        }
    }

    /// Cheap xorshift for the weighted mix pick (keeps the program
    /// `Clone` and seed-deterministic).
    fn next_pick(&mut self) -> f64 {
        let mut x = self.pick_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.pick_state = x;
        (x >> 11) as f64 / (1u64 << 53) as f64 * self.total_weight
    }
}

impl Program for BenignCoRunner {
    fn next_op(&mut self, _now: u64) -> Op {
        if !self.emit_access {
            self.emit_access = true;
            return Op::Compute(self.gap_cycles);
        }
        self.emit_access = false;
        let pick = self.next_pick();
        let idx = pick_component(&self.mix, pick);
        let off = self.mix[idx].1.next_offset();
        Op::Access(self.bases[idx].add(off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::profiles::MicroArch;
    use cache_sim::replacement::PolicyKind;
    use exec_sim::sched::{HyperThreaded, ThreadHandle};

    #[test]
    fn gcc_corunner_generates_cache_traffic() {
        let mut m = Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 3);
        let pid = m.create_process();
        let mut gcc = BenignCoRunner::gcc(&mut m, pid, 11);
        HyperThreaded::new(1).run(&mut m, &mut [ThreadHandle::new(pid, &mut gcc)], 400_000);
        let c = m.counters(pid);
        assert!(c.l1d_accesses > 500, "co-runner must be memory-active");
        assert!(
            c.l1d_misses > 10,
            "a compiler-like footprint must miss sometimes"
        );
    }

    #[test]
    fn corunner_is_deterministic() {
        let mut m1 = Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 3);
        let p1 = m1.create_process();
        let mut a = BenignCoRunner::gcc(&mut m1, p1, 9);
        let mut m2 = Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 3);
        let p2 = m2.create_process();
        let mut b = BenignCoRunner::gcc(&mut m2, p2, 9);
        for _ in 0..64 {
            assert_eq!(a.next_op(0), b.next_op(0));
        }
    }
}
