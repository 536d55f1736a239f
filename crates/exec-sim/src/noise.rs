//! Background-activity programs.
//!
//! The evaluation repeatedly needs "some other process is also using
//! the core": the benign co-runner of Table VI, the pollution that
//! limits time-sliced Algorithm 2 (§V-B), and generic measurement
//! noise. These programs provide that activity with controllable
//! intensity.

use cache_sim::addr::VirtAddr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::block::BlockCtx;
use crate::program::{Footprint, Op, Program};

/// A program that touches uniformly random lines of its own buffer,
/// pausing `gap_cycles` of compute between touches. Runs forever
/// (bounded by the scheduler's limit).
#[derive(Debug, Clone)]
pub struct RandomTouches {
    buffer: VirtAddr,
    buffer_lines: u64,
    line_size: u64,
    gap_cycles: u32,
    rng: SmallRng,
    emit_access: bool,
}

impl RandomTouches {
    /// Creates a noise program over `buffer_lines` cache lines
    /// starting at `buffer` (caller must have allocated the pages).
    pub fn new(
        buffer: VirtAddr,
        buffer_lines: u64,
        line_size: u64,
        gap_cycles: u32,
        seed: u64,
    ) -> Self {
        Self {
            buffer,
            buffer_lines,
            line_size,
            gap_cycles,
            rng: SmallRng::seed_from_u64(seed),
            emit_access: true,
        }
    }
}

impl Program for RandomTouches {
    fn next_op(&mut self, _now: u64) -> Op {
        if self.emit_access {
            self.emit_access = false;
            let line = self.rng.gen_range(0..self.buffer_lines);
            Op::Access(self.buffer.add(line * self.line_size))
        } else {
            self.emit_access = true;
            Op::Compute(self.gap_cycles)
        }
    }

    fn run_block(&mut self, ctx: &mut BlockCtx<'_>) {
        loop {
            if !ctx.can_issue() {
                return;
            }
            if self.emit_access {
                // Fast-forward: under a grant every touch is an L1
                // hit to a set nobody else observes, so the strict
                // access/compute alternation advances in closed
                // form. The line draws are not replayed — which
                // lines were touched is unobservable once the
                // footprint is warm and private.
                if let Some(adv) = ctx.advance_paced(self.gap_cycles) {
                    self.emit_access = adv.accesses == adv.computes;
                    continue;
                }
                self.emit_access = false;
                let line = self.rng.gen_range(0..self.buffer_lines);
                ctx.access(self.buffer.add(line * self.line_size));
            } else {
                self.emit_access = true;
                ctx.compute(self.gap_cycles);
            }
        }
    }

    fn uses_blocks(&self) -> bool {
        true
    }

    fn footprint(&self) -> Footprint {
        if self.line_size == 64 && self.buffer_lines > 0 {
            Footprint::Lines(vec![(self.buffer, self.buffer_lines)])
        } else {
            Footprint::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::sched::{HyperThreaded, ThreadHandle};
    use cache_sim::profiles::MicroArch;
    use cache_sim::replacement::PolicyKind;

    #[test]
    fn random_touches_alternate_access_and_compute() {
        let mut p = RandomTouches::new(VirtAddr::new(0), 16, 64, 50, 1);
        assert!(matches!(p.next_op(0), Op::Access(_)));
        assert!(matches!(p.next_op(0), Op::Compute(50)));
        assert!(matches!(p.next_op(0), Op::Access(_)));
    }

    #[test]
    fn noise_runs_under_a_scheduler() {
        let mut m = Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 2);
        let pid = m.create_process();
        let buf = m.alloc_pages(pid, 4);
        let mut noise = RandomTouches::new(buf, 4 * 64, 64, 100, 9);
        let report =
            HyperThreaded::new(4).run(&mut m, &mut [ThreadHandle::new(pid, &mut noise)], 200_000);
        assert!(report.ops_executed[0] > 100, "noise must keep running");
        assert!(m.counters(pid).l1d_accesses > 50);
    }
}
