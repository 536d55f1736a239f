//! The batched execution context behind the fast-forwarding engine.
//!
//! The op-at-a-time interpreter (retained as [`crate::sched::reference`])
//! pays per executed op: a vtable call into the program, a `match`,
//! counter read-modify-writes and an `OpResult` round trip. A
//! [`BlockCtx`] hands the *program* a bounded window of the schedule
//! instead: the program runs its own concrete inner loop against
//! [`BlockCtx::access`] / [`BlockCtx::compute`], which are
//! monomorphic and accumulate time/counter charges in scratch state
//! that is flushed once per block.
//!
//! Two collapse levels sit on top:
//!
//! * **Repeated-hit replay** — when the previous access in the block
//!   was a clean L1 hit to the same line and the L1 policy's touch is
//!   idempotent ([`touch_is_idempotent`](cache_sim::replacement::PolicyKind::touch_is_idempotent)), re-accessing
//!   the line cannot change any machine state; the outcome is
//!   replayed without touching the cache. This collapses the
//!   sender's encode loop (thousands of identical hits per quantum).
//! * **Analytic fast-forward** ([`BlockCtx::advance_paced`]) — when
//!   the scheduler has *granted* the thread closed-form advancement
//!   (footprint disjoint from every other party and every monitored
//!   set, L1-resident, per-set fit; see `sched`), a paced
//!   access/compute alternation is advanced to the quantum boundary
//!   in O(1) arithmetic instead of being simulated.
//!
//! Every path reproduces the reference interpreter's time accounting,
//! per-op stop checks and counter updates exactly; the
//! `sched_equivalence` suite and the scheduler property tests pin the
//! equivalence.

use cache_sim::addr::{PhysAddr, VirtAddr};
use cache_sim::counters::PerfCounters;
use cache_sim::hierarchy::HitLevel;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::machine::{Machine, Pid};

/// Fixed issue cost of a load beyond its cache latency (address
/// generation, AGU/port occupancy). Mirrors the interpreter.
pub const ACCESS_ISSUE_COST: u64 = 1;

/// Outcome of one closed-form [`BlockCtx::advance_paced`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacedAdvance {
    /// Accesses executed (all L1 hits, by the grant's precondition).
    pub accesses: u64,
    /// Compute ops executed.
    pub computes: u64,
    /// Global time after the final op.
    pub end: u64,
    /// Issue time of the final access (programs re-derive their
    /// pacing state, e.g. `next_slot = last_access_at + gap`).
    pub last_access_at: u64,
}

/// Per-op jitter configuration for the hyper-threaded engine.
pub(crate) struct JitterCfg<'a> {
    /// Peak jitter in cycles (0 = no draw, matching the reference).
    pub jitter: u32,
    /// The scheduler's RNG; one draw per executed op when
    /// `jitter > 0`.
    pub rng: &'a mut SmallRng,
}

/// What the engine gets back when a block closes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockEffects {
    /// Global time after the last executed op.
    pub end: u64,
    /// Ops executed in the block.
    pub ops: u64,
}

/// A bounded, monomorphic execution window handed to
/// [`Program::run_block`](crate::program::Program::run_block).
///
/// The program issues [`BlockCtx::access`] and [`BlockCtx::compute`]
/// ops as long as [`BlockCtx::can_issue`] holds, deriving its control
/// flow from [`BlockCtx::now`] exactly as it would from the `now`
/// argument of `next_op`. Ops the context refuses (window exhausted)
/// must not change program state — check `can_issue` first.
pub struct BlockCtx<'a> {
    machine: &'a mut Machine,
    pid: Pid,
    now: u64,
    /// Pre-op stop: no op may *start* at `now >= limit` (the
    /// scheduler's global cycle budget).
    limit: u64,
    /// Post-op stop threshold (time-sliced: the slice end;
    /// hyper-threaded: the interleaving bound).
    until: u64,
    /// `true`: close once `now >= until` (slice end). `false`: close
    /// once `now > until` (this thread wins clock ties).
    until_inclusive: bool,
    open: bool,
    jitter: Option<JitterCfg<'a>>,
    ops: u64,
    scratch: PerfCounters,
    bulk_l1_hits: u64,
    /// Memoized previous access: `(va, cycles)` of a clean L1 hit.
    memo: Option<(VirtAddr, u64)>,
    /// Whether repeated-hit replay is sound on this machine
    /// (idempotent L1 touch).
    repeat_ok: bool,
    /// Granted closed-form access cost (`None` = not granted).
    analytic_cycles: Option<u64>,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new_time_sliced(
        machine: &'a mut Machine,
        pid: Pid,
        now: u64,
        limit: u64,
        slice_end: u64,
        analytic_cycles: Option<u64>,
        repeat_ok: bool,
    ) -> Self {
        Self::new(
            machine,
            pid,
            now,
            limit,
            slice_end,
            true,
            None,
            analytic_cycles,
            repeat_ok,
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new_hyper_threaded(
        machine: &'a mut Machine,
        pid: Pid,
        now: u64,
        limit: u64,
        bound: u64,
        wins_ties: bool,
        jitter: JitterCfg<'a>,
        repeat_ok: bool,
    ) -> Self {
        Self::new(
            machine,
            pid,
            now,
            limit,
            bound,
            !wins_ties,
            Some(jitter),
            None,
            repeat_ok,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn new(
        machine: &'a mut Machine,
        pid: Pid,
        now: u64,
        limit: u64,
        until: u64,
        until_inclusive: bool,
        jitter: Option<JitterCfg<'a>>,
        analytic_cycles: Option<u64>,
        repeat_ok: bool,
    ) -> Self {
        // A zero-length slice (a validated `quantum_jitter ==
        // 2*quantum` config can draw one) starts the window already
        // closed; the scheduler then runs the boundary op through the
        // interpreter path, exactly like the reference.
        let open = if until_inclusive {
            now < until
        } else {
            now <= until
        };
        Self {
            machine,
            pid,
            now,
            limit,
            until,
            until_inclusive,
            open,
            jitter,
            ops: 0,
            scratch: PerfCounters::new(),
            bulk_l1_hits: 0,
            memo: None,
            repeat_ok,
            analytic_cycles,
        }
    }

    /// The global time the next op would start at.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether the window accepts another op.
    #[inline]
    pub fn can_issue(&self) -> bool {
        self.open && self.now < self.limit
    }

    /// The granted closed-form access cost in cycles, when the
    /// scheduler has proved this thread's footprint safe to
    /// fast-forward this quantum (see the module docs). `None` means
    /// ops must be executed individually.
    #[inline]
    pub fn analytic_access_cycles(&self) -> Option<u64> {
        self.analytic_cycles
    }

    /// Executes `Op::Compute(cycles)`. Returns [`BlockCtx::can_issue`]
    /// for the *next* op. Must only be called while `can_issue()`.
    #[inline]
    pub fn compute(&mut self, cycles: u32) -> bool {
        debug_assert!(self.can_issue(), "compute issued outside the window");
        self.charge(u64::from(cycles));
        self.can_issue()
    }

    /// Executes `Op::Access(va)` — a demand load with the same cost
    /// model and counter effects as the interpreter. Returns
    /// [`BlockCtx::can_issue`] for the next op. Must only be called
    /// while `can_issue()`.
    #[inline]
    pub fn access(&mut self, va: VirtAddr) -> bool {
        debug_assert!(self.can_issue(), "access issued outside the window");
        let cycles = match self.memo {
            // Repeated-hit replay: the previous op in this block was
            // a clean L1 hit to the same line, the policy's touch is
            // idempotent and no other thread can have run since — the
            // machine state after this access is provably identical,
            // so only the accounting happens.
            Some((m_va, m_cycles)) if self.repeat_ok && m_va == va => {
                self.scratch.l1d_accesses += 1;
                self.bulk_l1_hits += 1;
                m_cycles
            }
            _ => {
                let pa = self.translate(va);
                let out = self
                    .machine
                    .hierarchy_mut()
                    .access(va, pa, &mut self.scratch);
                let cycles = u64::from(out.cycles) + ACCESS_ISSUE_COST;
                // Only a hit that paid the fast-path latency settles
                // the way predictor and leaves state a re-touch
                // cannot change; misses and µtag mispredicts retrain.
                self.memo =
                    (out.level == HitLevel::L1 && !out.utag_mispredict).then_some((va, cycles));
                cycles
            }
        };
        self.charge(cycles);
        self.can_issue()
    }

    /// Closed-form advancement of a paced loop: starting now (an
    /// access is due), the program alternates `[access, compute(gap)]`
    /// until the window closes. Requires an analytic grant; each
    /// access is charged the granted cost. Returns `None` when no
    /// grant is active or `gap == 0` — callers fall back to per-op
    /// execution.
    ///
    /// The arithmetic reproduces the interpreter's exact stop checks:
    /// an op only starts while `now < limit`, and the block closes
    /// after the op that reaches the slice end.
    pub fn advance_paced(&mut self, gap: u32) -> Option<PacedAdvance> {
        let c = self.analytic_cycles?;
        if gap == 0 || !self.can_issue() {
            return None;
        }
        debug_assert!(
            self.until_inclusive,
            "analytic grants exist only under time-sliced scheduling"
        );
        let g = u64::from(gap);
        let adv = advance_paced_closed_form(self.now, c, g, self.until, self.limit);
        #[cfg(debug_assertions)]
        {
            let naive = advance_paced_naive(self.now, c, g, self.until, self.limit);
            debug_assert_eq!(adv, naive, "closed form diverged from the op loop");
        }
        self.scratch.l1d_accesses += adv.accesses;
        self.bulk_l1_hits += adv.accesses;
        self.scratch.instructions += adv.accesses + adv.computes;
        self.scratch.cycles += adv.end - self.now;
        self.ops += adv.accesses + adv.computes;
        self.now = adv.end;
        if self.now >= self.until {
            self.open = false;
        }
        self.memo = None;
        Some(adv)
    }

    /// Closed-form advancement of the *memoized* paced loop: starting
    /// now, the program alternates `[compute(gap), access(va)]` where
    /// every access repeats the previous clean L1 hit to `va` — the
    /// sender's encode pattern. No op may start at or past `deadline`
    /// (the program's own boundary, e.g. the current bit period's
    /// end).
    ///
    /// Sound for exactly the same reason as the per-op replay in
    /// [`BlockCtx::access`]: with an idempotent replacement touch and
    /// no interleaving inside the block, re-accessing the memoized
    /// line cannot change machine state, so only the accounting
    /// happens — here in O(1) arithmetic instead of per op. Returns
    /// `None` (run per-op instead) when no valid memo is held for
    /// `va`, under per-op jitter (hyper-threading), or for a zero
    /// gap.
    pub fn repeat_paced(&mut self, va: VirtAddr, gap: u32, deadline: u64) -> Option<PacedAdvance> {
        let (m_va, c) = self.memo?;
        if !self.repeat_ok
            || m_va != va
            || gap == 0
            || self.jitter.is_some()
            || !self.can_issue()
            || self.now >= deadline
        {
            return None;
        }
        let g = u64::from(gap);
        // Compute-first alternation = the access-first closed form
        // with the roles swapped: "firsts" are computes, "seconds"
        // are accesses.
        let pre_stop = self.limit.min(deadline);
        let alt = advance_paced_closed_form(self.now, g, c, self.until, pre_stop);
        #[cfg(debug_assertions)]
        {
            let naive = advance_paced_naive(self.now, g, c, self.until, pre_stop);
            debug_assert_eq!(alt, naive, "closed form diverged from the op loop");
        }
        let (computes, accesses) = (alt.accesses, alt.computes);
        let adv = PacedAdvance {
            accesses,
            computes,
            end: alt.end,
            // Last access issue time: the sequence ends either on an
            // access (computes == accesses) or on a compute.
            last_access_at: if accesses == 0 {
                self.now
            } else if computes == accesses {
                alt.end - c
            } else {
                alt.end - g - c
            },
        };
        self.scratch.l1d_accesses += accesses;
        self.bulk_l1_hits += accesses;
        self.scratch.instructions += accesses + computes;
        self.scratch.cycles += adv.end - self.now;
        self.ops += accesses + computes;
        self.now = adv.end;
        if self.now >= self.until {
            self.open = false;
        }
        Some(adv)
    }

    #[inline]
    fn charge(&mut self, cycles: u64) {
        let jitter = match &mut self.jitter {
            Some(cfg) if cfg.jitter > 0 => u64::from(cfg.rng.gen_range(0..=cfg.jitter)),
            _ => 0,
        };
        self.now += cycles + jitter;
        self.scratch.cycles += cycles + jitter;
        self.scratch.instructions += 1;
        self.ops += 1;
        let crossed = if self.until_inclusive {
            self.now >= self.until
        } else {
            self.now > self.until
        };
        if crossed {
            self.open = false;
        }
    }

    #[inline]
    fn translate(&self, va: VirtAddr) -> PhysAddr {
        self.machine
            .translate(self.pid, va)
            .unwrap_or_else(|| panic!("access to unmapped page by {:?} at {va}", self.pid))
    }

    /// Closes the block: flushes the scratch counters and skipped-hit
    /// accounting into the machine and returns the effects.
    pub(crate) fn finish(self) -> BlockEffects {
        if self.bulk_l1_hits > 0 {
            self.machine
                .hierarchy_mut()
                .l1_mut()
                .record_skipped_hits(self.bulk_l1_hits);
        }
        if self.scratch != PerfCounters::new() {
            *self.machine.counters_mut(self.pid) += self.scratch;
        }
        BlockEffects {
            end: self.now,
            ops: self.ops,
        }
    }
}

/// O(1) solution of the paced-alternation loop: starting at `t0`
/// (access due), repeat `[access cost c, compute cost g]` under the
/// interpreter's checks — an op starts only while `t < limit`, the
/// run ends after the op that reaches `until`. Returns the executed
/// op counts and the final time.
fn advance_paced_closed_form(t0: u64, c: u64, g: u64, until: u64, limit: u64) -> PacedAdvance {
    debug_assert!(t0 < limit && t0 < until && c > 0 && g > 0);
    let p = c + g;
    // First pair index at which each stop event fires. Events within
    // a pair are checked in order: pre-access limit, post-access
    // slice end, pre-compute limit, post-compute slice end.
    let e1 = (limit - t0).div_ceil(p);
    let e2 = if until <= t0 + c {
        0
    } else {
        (until - t0 - c).div_ceil(p)
    };
    let e3 = if limit <= t0 + c {
        0
    } else {
        (limit - t0 - c).div_ceil(p)
    };
    let e4 = if until <= t0 + p {
        0
    } else {
        (until - t0 - p).div_ceil(p)
    };
    // Lexicographic minimum over (pair index, in-pair order).
    let (i, order) = [(e1, 0u8), (e2, 1), (e3, 2), (e4, 3)]
        .into_iter()
        .min_by_key(|&(i, order)| (i, order))
        .expect("non-empty");
    let s = t0 + i * p;
    match order {
        // Stopped before the access: `i` full pairs ran.
        0 => PacedAdvance {
            accesses: i,
            computes: i,
            end: s,
            last_access_at: if i > 0 { s - p } else { t0 },
        },
        // Access `i` ran and reached the slice end, or the compute
        // after it could not start.
        1 | 2 => PacedAdvance {
            accesses: i + 1,
            computes: i,
            end: s + c,
            last_access_at: s,
        },
        // Pair `i` completed and its compute reached the slice end.
        _ => PacedAdvance {
            accesses: i + 1,
            computes: i + 1,
            end: s + p,
            last_access_at: s,
        },
    }
}

/// The op-at-a-time reference of [`advance_paced_closed_form`], used
/// by debug assertions and the property tests.
#[cfg(any(test, debug_assertions))]
fn advance_paced_naive(t0: u64, c: u64, g: u64, until: u64, limit: u64) -> PacedAdvance {
    let mut t = t0;
    let mut accesses = 0u64;
    let mut computes = 0u64;
    let mut last_access_at = t0;
    loop {
        if t >= limit {
            break;
        }
        last_access_at = t;
        t += c;
        accesses += 1;
        if t >= until || t >= limit {
            break;
        }
        t += g;
        computes += 1;
        if t >= until {
            break;
        }
    }
    PacedAdvance {
        accesses,
        computes,
        end: t,
        last_access_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_the_op_loop() {
        // Sweep pacing shapes around the stop thresholds, including
        // slice ends landing mid-access, mid-compute and on exact
        // boundaries, and limits tighter than the slice.
        for c in [1u64, 4, 5, 37] {
            for g in [1u64, 3, 40, 50_000] {
                for until in [1u64, c, c + 1, c + g, 997, 100_000] {
                    for limit in [1u64, c, until, until + 1, 3 * until + 7, u64::MAX] {
                        let t0 = 0;
                        if t0 >= until || t0 >= limit {
                            continue;
                        }
                        assert_eq!(
                            advance_paced_closed_form(t0, c, g, until, limit),
                            advance_paced_naive(t0, c, g, until, limit),
                            "c={c} g={g} until={until} limit={limit}"
                        );
                    }
                }
            }
        }
        // Non-zero start times.
        for t0 in [1u64, 999, 123_456] {
            let (c, g) = (5, 60_000);
            let until = t0 + 300_000_000;
            let limit = t0 + 450_000_123;
            assert_eq!(
                advance_paced_closed_form(t0, c, g, until, limit),
                advance_paced_naive(t0, c, g, until, limit)
            );
        }
    }

    #[test]
    fn closed_form_counts_a_full_quantum() {
        // A sender-shaped quantum: 5-cycle hits every 50k cycles of
        // compute, 3e8-cycle slice.
        let adv = advance_paced_closed_form(0, 5, 50_000, 300_000_000, u64::MAX);
        assert_eq!(adv.accesses, 6000);
        assert_eq!(adv.computes, 6000);
        assert!(adv.end >= 300_000_000);
    }
}
