//! Environmental noise: deterministic, seed-derived cache
//! interference for any experiment.
//!
//! The paper reports its channels under clean single-tenant
//! conditions; real machines are not clean. Co-running workloads
//! evict lines, schedulers jitter, and probabilistic contention
//! flips replacement state between a sender's encode and a
//! receiver's decode. This module models that environment as three
//! parametric interference processes behind one spec type,
//! [`NoiseModel`]:
//!
//! * [`NoiseModel::RandomEviction`] — a steady co-runner touching
//!   uniformly random lines of its own buffer every `gap_cycles`
//!   (the §V-B pollution process with a controllable rate).
//! * [`NoiseModel::PeriodicBurst`] — a phase-structured co-runner
//!   that sleeps most of each `period_cycles` window, then streams
//!   `burst_lines` consecutive lines (a timer-tick / GC-pause
//!   shape).
//! * [`NoiseModel::Bernoulli`] — memoryless per-observation
//!   interference: each receiver period, an independent coin with
//!   probability `p` decides whether a random line gets touched.
//!
//! Every model is a pure function of its parameters and a seed, so
//! noisy experiments stay bit-identical across worker counts like
//! everything else in the workspace. A model enters an experiment
//! one way: as a scheduled program ([`NoiseModel::program`], or
//! [`NoiseModel::spawn`] to allocate its buffer too) — an
//! [`exec_sim::program::Program`] run as a third thread next to the
//! sender and receiver, the "other processes running during Tr"
//! of §V-B.

use cache_sim::addr::VirtAddr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use exec_sim::block::BlockCtx;
use exec_sim::program::{Footprint, Op, Program};

use std::error::Error;
use std::fmt;

/// Cache-line stride the noise buffers assume (all simulated L1s use
/// 64-byte lines).
pub const LINE: u64 = 64;

/// A parametric cache-interference process. `None` is the default
/// everywhere; scenarios omit it when serializing, which keeps
/// pre-noise JSON encodings byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseModel {
    /// No injected interference.
    None,
    /// A co-runner touching one uniformly random line of a
    /// `lines`-line buffer every `gap_cycles` of compute.
    RandomEviction {
        /// Buffer size in cache lines (64 lines span all 64 L1 sets
        /// once; 512 puts 8-way pressure on every set).
        lines: u32,
        /// Compute cycles between touches — smaller is noisier.
        gap_cycles: u32,
    },
    /// A co-runner that sleeps until the next multiple of
    /// `period_cycles`, then streams `burst_lines` consecutive
    /// lines.
    PeriodicBurst {
        /// Burst period in cycles.
        period_cycles: u64,
        /// Lines touched per burst.
        burst_lines: u32,
    },
    /// Memoryless interference: once per receiver period, touch one
    /// uniformly random line of a `lines`-line buffer with
    /// probability `p`.
    Bernoulli {
        /// Per-period touch probability in `[0, 1]`.
        p: f64,
        /// Buffer size in cache lines.
        lines: u32,
    },
}

/// Largest buffer a noise model may span, in cache lines (4 MiB —
/// two orders of magnitude beyond any simulated L1+L2, and small
/// enough that a hostile `adhoc` scenario cannot stall the process
/// allocating page-table entries).
pub const MAX_NOISE_LINES: u32 = 65_536;

/// Why a [`NoiseModel`] is not usable.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseError {
    /// A line count of zero (no buffer to touch).
    ZeroLines,
    /// A line count beyond [`MAX_NOISE_LINES`] (the buffer would
    /// dwarf every simulated cache and stall allocation).
    TooManyLines(u32),
    /// A zero cycle period or gap (the process would never yield).
    ZeroPeriod,
    /// A Bernoulli probability outside `[0, 1]` (or NaN).
    BadProbability(f64),
}

impl fmt::Display for NoiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseError::ZeroLines => write!(f, "noise model needs lines >= 1"),
            NoiseError::TooManyLines(lines) => write!(
                f,
                "noise model needs lines <= {MAX_NOISE_LINES}, got {lines}"
            ),
            NoiseError::ZeroPeriod => {
                write!(f, "noise model needs a positive period/gap in cycles")
            }
            NoiseError::BadProbability(p) => {
                write!(f, "bernoulli noise needs p in [0, 1], got {p}")
            }
        }
    }
}

impl Error for NoiseError {}

impl NoiseModel {
    /// `true` for [`NoiseModel::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, NoiseModel::None)
    }

    /// Checks the parameters.
    ///
    /// # Errors
    ///
    /// See [`NoiseError`].
    pub fn validate(&self) -> Result<(), NoiseError> {
        let lines_in_range = |lines: u32| match lines {
            0 => Err(NoiseError::ZeroLines),
            l if l > MAX_NOISE_LINES => Err(NoiseError::TooManyLines(l)),
            _ => Ok(()),
        };
        match *self {
            NoiseModel::None => Ok(()),
            NoiseModel::RandomEviction { lines, gap_cycles } => {
                lines_in_range(lines)?;
                if gap_cycles == 0 {
                    Err(NoiseError::ZeroPeriod)
                } else {
                    Ok(())
                }
            }
            NoiseModel::PeriodicBurst {
                period_cycles,
                burst_lines,
            } => {
                lines_in_range(burst_lines)?;
                if period_cycles == 0 {
                    Err(NoiseError::ZeroPeriod)
                } else {
                    Ok(())
                }
            }
            NoiseModel::Bernoulli { p, lines } => {
                lines_in_range(lines)?;
                if !(0.0..=1.0).contains(&p) {
                    Err(NoiseError::BadProbability(p))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Lines the model's buffer needs (0 for `None`; bursts stream
    /// their burst length).
    pub fn buffer_lines(&self) -> u64 {
        match *self {
            NoiseModel::None => 0,
            NoiseModel::RandomEviction { lines, .. } => u64::from(lines),
            NoiseModel::PeriodicBurst { burst_lines, .. } => u64::from(burst_lines),
            NoiseModel::Bernoulli { lines, .. } => u64::from(lines),
        }
    }

    /// A compact human label (`bernoulli(p=0.25, lines=256)`), used
    /// by report renderers and `lru-leak show`.
    pub fn label(&self) -> String {
        match *self {
            NoiseModel::None => "none".to_string(),
            NoiseModel::RandomEviction { lines, gap_cycles } => {
                format!("random-eviction(lines={lines}, gap={gap_cycles})")
            }
            NoiseModel::PeriodicBurst {
                period_cycles,
                burst_lines,
            } => format!("periodic-burst(period={period_cycles}, burst={burst_lines})"),
            NoiseModel::Bernoulli { p, lines } => format!("bernoulli(p={p}, lines={lines})"),
        }
    }

    /// The scheduled face: a [`Program`] injecting this model's
    /// interference from a third thread.
    ///
    /// `buffer` must point at [`NoiseModel::buffer_lines`] allocated
    /// lines. `cadence_cycles` is the Bernoulli model's per-trial
    /// period (pass the receiver period `Tr` so "per observation"
    /// means per receiver measurement); the other models ignore it.
    /// Returns `None` for [`NoiseModel::None`].
    ///
    /// Degenerate parameters (zero lines, zero periods, `p` outside
    /// `[0, 1]`) are clamped to the nearest usable value rather than
    /// panicking mid-run — call [`NoiseModel::validate`] first to
    /// reject them outright, as the scenario builder does.
    pub fn program(
        &self,
        buffer: VirtAddr,
        cadence_cycles: u64,
        seed: u64,
    ) -> Option<NoiseProgram> {
        if self.is_none() {
            return None;
        }
        Some(NoiseProgram {
            model: *self,
            buffer,
            cadence_cycles: cadence_cycles.max(1),
            rng: SmallRng::seed_from_u64(seed ^ 0x6e01_5e5e),
            phase: Phase::Idle,
            next_slot: 0,
        })
    }

    /// Spawns this model as a ready-to-schedule third party on
    /// `machine`: creates the interference process, allocates its
    /// buffer (capped at [`MAX_NOISE_LINES`] even for unvalidated
    /// models), and builds the [`NoiseProgram`] with the canonical
    /// seed derivation. Both the covert and percent-ones faces go
    /// through here, so they model identical interference. Returns
    /// `None` for [`NoiseModel::None`] (no process is created).
    pub fn spawn(
        &self,
        machine: &mut exec_sim::machine::Machine,
        cadence_cycles: u64,
        seed: u64,
    ) -> Option<(exec_sim::machine::Pid, NoiseProgram)> {
        if self.is_none() {
            return None;
        }
        let pid = machine.create_process();
        let lines = self.buffer_lines().min(u64::from(MAX_NOISE_LINES));
        let buffer = machine.alloc_pages(pid, lines.div_ceil(64).max(1));
        self.program(buffer, cadence_cycles, seed ^ 0x0153)
            .map(|prog| (pid, prog))
    }
}

/// Internal phase of a [`NoiseProgram`].
#[derive(Debug, Clone)]
enum Phase {
    /// Waiting for the next decision point.
    Idle,
    /// `n` burst accesses still to issue.
    Bursting(u32),
}

/// The scheduled face of a [`NoiseModel`]: run it as one more
/// [`ThreadHandle`](exec_sim::sched::ThreadHandle) next to the
/// channel parties. All randomness comes from the construction seed,
/// so a noisy run reproduces exactly.
#[derive(Debug, Clone)]
pub struct NoiseProgram {
    model: NoiseModel,
    buffer: VirtAddr,
    cadence_cycles: u64,
    rng: SmallRng,
    phase: Phase,
    next_slot: u64,
}

impl NoiseProgram {
    fn random_line(&mut self, lines: u32) -> VirtAddr {
        let line = self.rng.gen_range(0..u64::from(lines.max(1)));
        self.buffer.add(line * LINE)
    }
}

impl Program for NoiseProgram {
    fn next_op(&mut self, now: u64) -> Op {
        if let Phase::Bursting(left) = self.phase {
            // Stream the remaining burst lines back to back.
            let idx = match self.model {
                NoiseModel::PeriodicBurst { burst_lines, .. } => burst_lines - left,
                _ => 0,
            };
            self.phase = if left > 1 {
                Phase::Bursting(left - 1)
            } else {
                Phase::Idle
            };
            return Op::Access(self.buffer.add(u64::from(idx) * LINE));
        }
        match self.model {
            NoiseModel::None => Op::Done,
            NoiseModel::RandomEviction { lines, gap_cycles } => {
                if now < self.next_slot {
                    return Op::Compute(gap_cycles);
                }
                self.next_slot = now + u64::from(gap_cycles);
                Op::Access(self.random_line(lines))
            }
            NoiseModel::PeriodicBurst {
                period_cycles,
                burst_lines,
            } => {
                if now < self.next_slot {
                    return Op::SpinUntil(self.next_slot);
                }
                // Sleep to the *next* boundary after the burst, even
                // if the scheduler delivered us late.
                let period = period_cycles.max(1);
                self.next_slot = (now / period + 1) * period;
                self.phase = if burst_lines > 1 {
                    Phase::Bursting(burst_lines - 1)
                } else {
                    Phase::Idle
                };
                Op::Access(self.buffer)
            }
            NoiseModel::Bernoulli { p, lines } => {
                if now < self.next_slot {
                    return Op::SpinUntil(self.next_slot);
                }
                self.next_slot = now + self.cadence_cycles;
                if self.rng.gen_bool(p.clamp(0.0, 1.0)) {
                    Op::Access(self.random_line(lines))
                } else {
                    // The coin came up quiet: burn a token cycle so
                    // the scheduler can interleave us fairly.
                    Op::Compute(1)
                }
            }
        }
    }

    fn run_block(&mut self, ctx: &mut BlockCtx<'_>) {
        while ctx.can_issue() {
            if let Phase::Bursting(left) = self.phase {
                // Stream the remaining burst lines back to back.
                let idx = match self.model {
                    NoiseModel::PeriodicBurst { burst_lines, .. } => burst_lines - left,
                    _ => 0,
                };
                self.phase = if left > 1 {
                    Phase::Bursting(left - 1)
                } else {
                    Phase::Idle
                };
                ctx.access(self.buffer.add(u64::from(idx) * LINE));
                continue;
            }
            match self.model {
                NoiseModel::None => return,
                NoiseModel::RandomEviction { lines, gap_cycles } => {
                    if ctx.now() < self.next_slot {
                        ctx.compute(gap_cycles);
                        continue;
                    }
                    // Fast-forward: with a grant, every touch of the
                    // private (disjoint, L1-resident) buffer is a hit
                    // and the access/compute alternation advances in
                    // closed form. The alternation only holds while a
                    // hit is cheaper than the gap (otherwise the next
                    // slot is already due after the access), and the
                    // line draws are unobservable and intentionally
                    // not replayed.
                    let alternates = ctx
                        .analytic_access_cycles()
                        .is_some_and(|c| c < u64::from(gap_cycles));
                    if alternates {
                        if let Some(adv) = ctx.advance_paced(gap_cycles) {
                            if adv.accesses > 0 {
                                self.next_slot = adv.last_access_at + u64::from(gap_cycles);
                            }
                            continue;
                        }
                    }
                    self.next_slot = ctx.now() + u64::from(gap_cycles);
                    let va = self.random_line(lines);
                    ctx.access(va);
                }
                NoiseModel::PeriodicBurst {
                    period_cycles,
                    burst_lines,
                } => {
                    if ctx.now() < self.next_slot {
                        // Sleep: back to the scheduler's spin path.
                        return;
                    }
                    let period = period_cycles.max(1);
                    self.next_slot = (ctx.now() / period + 1) * period;
                    self.phase = if burst_lines > 1 {
                        Phase::Bursting(burst_lines - 1)
                    } else {
                        Phase::Idle
                    };
                    ctx.access(self.buffer);
                }
                NoiseModel::Bernoulli { p, lines } => {
                    if ctx.now() < self.next_slot {
                        return;
                    }
                    self.next_slot = ctx.now() + self.cadence_cycles;
                    if self.rng.gen_bool(p.clamp(0.0, 1.0)) {
                        let va = self.random_line(lines);
                        ctx.access(va);
                    } else {
                        ctx.compute(1);
                    }
                }
            }
        }
    }

    fn uses_blocks(&self) -> bool {
        true
    }

    fn footprint(&self) -> Footprint {
        let lines = self.model.buffer_lines();
        if lines > 0 {
            Footprint::Lines(vec![(self.buffer, lines)])
        } else {
            Footprint::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::replacement::PolicyKind;
    use exec_sim::machine::Machine;
    use exec_sim::sched::{HyperThreaded, ThreadHandle};

    #[test]
    fn validation_catches_degenerate_parameters() {
        assert!(NoiseModel::None.validate().is_ok());
        assert_eq!(
            NoiseModel::RandomEviction {
                lines: 0,
                gap_cycles: 10
            }
            .validate(),
            Err(NoiseError::ZeroLines)
        );
        assert_eq!(
            NoiseModel::PeriodicBurst {
                period_cycles: 0,
                burst_lines: 4
            }
            .validate(),
            Err(NoiseError::ZeroPeriod)
        );
        assert_eq!(
            NoiseModel::Bernoulli { p: 1.5, lines: 64 }.validate(),
            Err(NoiseError::BadProbability(1.5))
        );
        assert!(NoiseModel::Bernoulli { p: 0.5, lines: 64 }
            .validate()
            .is_ok());
        // A hostile line count is rejected before it can stall
        // allocation (one adhoc scenario could otherwise demand
        // tens of millions of page-table entries).
        assert_eq!(
            NoiseModel::RandomEviction {
                lines: u32::MAX,
                gap_cycles: 1
            }
            .validate(),
            Err(NoiseError::TooManyLines(u32::MAX))
        );
        assert!(NoiseModel::RandomEviction {
            lines: MAX_NOISE_LINES,
            gap_cycles: 1
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn none_has_no_program() {
        assert!(NoiseModel::None.program(VirtAddr::new(0), 100, 1).is_none());
    }

    #[test]
    fn programs_are_deterministic_per_seed() {
        let model = NoiseModel::RandomEviction {
            lines: 64,
            gap_cycles: 50,
        };
        let run = |seed| {
            let mut p = model.program(VirtAddr::new(0), 100, seed).unwrap();
            let mut ops = Vec::new();
            let mut now = 0;
            for _ in 0..64 {
                let op = p.next_op(now);
                if let Op::Compute(c) = op {
                    now += u64::from(c);
                }
                ops.push(format!("{op:?}"));
            }
            ops
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn periodic_burst_streams_then_sleeps() {
        let model = NoiseModel::PeriodicBurst {
            period_cycles: 10_000,
            burst_lines: 3,
        };
        let mut p = model.program(VirtAddr::new(0), 100, 1).unwrap();
        // Burst of 3 consecutive lines...
        for want in [0u64, 64, 128] {
            match p.next_op(0) {
                Op::Access(va) => assert_eq!(va.raw(), want),
                other => panic!("expected access, got {other:?}"),
            }
        }
        // ...then sleep to the next period boundary.
        assert_eq!(p.next_op(1), Op::SpinUntil(10_000));
        assert!(matches!(p.next_op(10_000), Op::Access(_)));
    }

    #[test]
    fn bernoulli_touch_rate_tracks_p() {
        let model = NoiseModel::Bernoulli { p: 0.3, lines: 64 };
        let mut p = model.program(VirtAddr::new(0), 100, 3).unwrap();
        let mut touches = 0;
        let mut slots = 0;
        let mut now = 0u64;
        while slots < 2_000 {
            match p.next_op(now) {
                Op::Access(_) => touches += 1,
                Op::SpinUntil(t) => {
                    now = t;
                    slots += 1;
                    continue;
                }
                _ => {}
            }
        }
        let rate = f64::from(touches) / 2_000.0;
        assert!(
            (rate - 0.3).abs() < 0.05,
            "touch rate {rate} far from p=0.3"
        );
    }

    #[test]
    fn noise_program_pollutes_a_machine() {
        let model = NoiseModel::RandomEviction {
            lines: 256,
            gap_cycles: 100,
        };
        let mut m = Machine::new(
            cache_sim::profiles::MicroArch::sandy_bridge_e5_2690(),
            PolicyKind::TreePlru,
            2,
        );
        let pid = m.create_process();
        let buf = m.alloc_pages(pid, model.buffer_lines().div_ceil(64));
        let mut prog = model.program(buf, 100, 9).unwrap();
        HyperThreaded::new(4).run(&mut m, &mut [ThreadHandle::new(pid, &mut prog)], 400_000);
        assert!(
            m.counters(pid).l1d_accesses > 100,
            "noise must keep touching"
        );
    }

    #[test]
    fn labels_are_compact_and_distinct() {
        let labels = [
            NoiseModel::None.label(),
            NoiseModel::RandomEviction {
                lines: 64,
                gap_cycles: 100,
            }
            .label(),
            NoiseModel::PeriodicBurst {
                period_cycles: 1_000,
                burst_lines: 8,
            }
            .label(),
            NoiseModel::Bernoulli { p: 0.25, lines: 64 }.label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in labels.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(labels[0], "none");
    }
}
