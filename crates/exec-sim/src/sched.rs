//! The two core-sharing settings of the paper's evaluation:
//! hyper-threaded (SMT, §V-A) and time-sliced (§V-B) scheduling.
//!
//! Two engines execute the same schedule:
//!
//! * the **fast-forwarding engine** (default) — programs run batches
//!   of homogeneous ops through a [`BlockCtx`] (monomorphic loop, no
//!   per-op dispatch or counter read-modify-write), repeated L1 hits
//!   collapse when the replacement policy's touch is idempotent, and
//!   a thread whose declared [`Footprint`] is disjoint from every
//!   monitored set and every other party's footprint is advanced to
//!   the quantum boundary in closed form;
//! * the [`mod@reference`] engine — the original op-at-a-time
//!   interpreter, retained verbatim as the differential-testing
//!   oracle. `tests/sched_equivalence.rs` pins the two
//!   observationally identical (scheduler reports, probe latencies,
//!   decoded bits, performance counters).
//!
//! Each scheduler value carries its [`Engine`] (`FastForward` unless
//! set with `with_engine`), so the choice is per run and two runs in
//! one process never share it.

use std::error::Error;
use std::fmt;

use cache_sim::addr::PhysAddr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::block::{BlockCtx, JitterCfg, ACCESS_ISSUE_COST};
use crate::machine::{Machine, Pid};
use crate::measure::LatencyProbe;
use crate::program::{Footprint, Op, OpResult, Program};

/// Cost of a `clflush` instruction.
const FLUSH_COST: u64 = 40;

/// Footprints beyond this many lines are treated as
/// [`Footprint::Unknown`] (they span every set anyway, and bounding
/// the expansion keeps eligibility analysis O(1) per run).
const MAX_FF_LINES: u64 = 4096;

/// Which execution engine [`HyperThreaded::run`] and
/// [`TimeSliced::run`] use. Both engines are pinned observationally
/// identical, so production code keeps the default; the reference
/// exists for differential testing and benchmarking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The batched, fast-forwarding engine (default).
    #[default]
    FastForward,
    /// The op-at-a-time interpreter in [`mod@reference`].
    Reference,
}

/// Invalid scheduler timing parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// A zero quantum (the core would context-switch on every op).
    ZeroQuantum,
    /// `quantum_jitter > 2 * quantum`: the jittered draw
    /// `quantum - jitter/2 + U(0..=jitter)` would underflow.
    BadJitter {
        /// Nominal quantum in cycles.
        quantum: u64,
        /// Rejected peak-to-peak jitter.
        quantum_jitter: u64,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::ZeroQuantum => write!(f, "quantum must be positive"),
            SchedError::BadJitter {
                quantum,
                quantum_jitter,
            } => write!(
                f,
                "need quantum_jitter <= 2*quantum, got quantum={quantum}, \
                 quantum_jitter={quantum_jitter}"
            ),
        }
    }
}

impl Error for SchedError {}

/// A schedulable thread: a program, the process it runs as, and an
/// optional measurement probe (receivers have one, senders don't).
pub struct ThreadHandle<'a> {
    /// Process identity (page tables, counters).
    pub pid: Pid,
    /// The program to run.
    pub program: &'a mut dyn Program,
    /// Pointer-chase probe backing [`Op::TimedAccess`].
    pub probe: Option<LatencyProbe>,
}

impl<'a> ThreadHandle<'a> {
    /// A thread without a measurement probe.
    pub fn new(pid: Pid, program: &'a mut dyn Program) -> Self {
        Self {
            pid,
            program,
            probe: None,
        }
    }

    /// A thread carrying a probe (receivers).
    pub fn with_probe(pid: Pid, program: &'a mut dyn Program, probe: LatencyProbe) -> Self {
        Self {
            pid,
            program,
            probe: Some(probe),
        }
    }
}

impl std::fmt::Debug for ThreadHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadHandle")
            .field("pid", &self.pid)
            .field("probe", &self.probe.is_some())
            .finish()
    }
}

/// Summary of a scheduler run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerReport {
    /// Global cycles elapsed when the run ended.
    pub elapsed: u64,
    /// Ops executed per thread (indexed like the `threads` slice).
    pub ops_executed: Vec<u64>,
    /// Context switches performed (time-sliced only; 0 under SMT).
    pub context_switches: u64,
}

fn execute_op(
    machine: &mut Machine,
    thread: &mut ThreadHandle<'_>,
    op: Op,
    now: u64,
    rng: &mut SmallRng,
) -> OpResult {
    match op {
        Op::Access(va) => {
            let out = machine.access(thread.pid, va);
            let cycles = out.cycles as u64 + ACCESS_ISSUE_COST;
            OpResult {
                cycles,
                level: Some(out.level),
                measured: None,
                completed_at: now + cycles,
            }
        }
        Op::TimedAccess(va) => {
            let probe = thread
                .probe
                .as_ref()
                .expect("TimedAccess requires a thread with a LatencyProbe");
            let meas = probe.measure(machine, thread.pid, va, rng);
            let cycles = meas.true_cycles as u64 + probe.tsc().overhead as u64;
            OpResult {
                cycles,
                level: Some(meas.level),
                measured: Some(meas.measured),
                completed_at: now + cycles,
            }
        }
        Op::Flush(va) => {
            machine.flush(thread.pid, va);
            OpResult {
                cycles: FLUSH_COST,
                level: None,
                measured: None,
                completed_at: now + FLUSH_COST,
            }
        }
        Op::Compute(c) => OpResult {
            cycles: c as u64,
            level: None,
            measured: None,
            completed_at: now + c as u64,
        },
        Op::SpinUntil(_) | Op::Done => unreachable!("handled by the scheduler"),
    }
}

/// Whether repeated same-line L1 hits may be replayed without
/// touching the cache on this machine (idempotent replacement touch;
/// the hit path never consults the prefetcher, and the way predictor
/// settles after one clean hit — see `BlockCtx::access`).
fn repeat_hit_collapse_ok(machine: &Machine) -> bool {
    machine.hierarchy().l1().policy_kind().touch_is_idempotent()
}

/// Per-thread fast-forward state for one scheduler run.
struct FfSlot {
    /// L1 set mask of the declared footprint (`None` = unknown).
    mask: Option<u64>,
    /// Whether the per-set line count fits the associativity — the
    /// bounded-set condition for this thread's *own* grant (a known
    /// but oversized footprint still counts toward other threads'
    /// disjointness checks).
    fits: bool,
    /// Line-base physical addresses of the footprint.
    pas: Vec<PhysAddr>,
    /// Statically eligible: known footprint, fits per set, disjoint
    /// from every other party and every monitored set, no probe.
    eligible: bool,
    /// The analytic grant. Once granted it stays granted: the
    /// footprint sets are touched by no other party, the hierarchy
    /// reports `quantum_ff_safe()` (back-invalidating hierarchies are
    /// demoted to block execution), has no prefetcher, and the per-set
    /// fit means the thread can never evict its own lines — so
    /// residency, once observed, is permanent.
    granted: bool,
}

/// Expands footprints, intersects them, and marks which threads may
/// be fast-forwarded. The conditions (checked here once per run):
///
/// * the L1 has at most 64 sets, no prefetcher is attached, the
///   hierarchy reports `quantum_ff_safe()` (no back-invalidation —
///   the capability bit consulted next to `Program::footprint`), and
///   the replacement policy's touch is idempotent;
/// * the thread carries no probe (a probe reads cache state, so its
///   owner must simulate for real);
/// * the thread's footprint is declared, every line translates, and
///   the per-set line count fits the associativity (bounded-set
///   steady state: the thread can never miss in its own sets once
///   they are warm);
/// * the footprint's set mask is disjoint from every *monitored* set
///   (the probes' reserved chains) and from every other thread's
///   mask, with an unknown footprint treated as "all sets".
fn build_ff_slots(machine: &Machine, threads: &[ThreadHandle<'_>]) -> Vec<FfSlot> {
    let h = machine.hierarchy();
    let geom = h.l1().geometry();
    // Footprints are declared in 64-byte lines; a smaller-line
    // geometry would make the 64-byte expansion skip sets.
    let engine_ok = geom.num_sets() <= 64
        && geom.line_size() >= 64
        && !h.has_prefetcher()
        && h.quantum_ff_safe()
        && h.l1().policy_kind().touch_is_idempotent();
    let mut slots: Vec<FfSlot> = threads
        .iter()
        .map(|t| {
            let mut slot = FfSlot {
                mask: None,
                fits: false,
                pas: Vec::new(),
                eligible: false,
                granted: false,
            };
            let Footprint::Lines(ranges) = t.program.footprint() else {
                return slot;
            };
            if !engine_ok {
                return slot;
            }
            let total: u64 = ranges.iter().map(|r| r.1).sum();
            if total == 0 || total > MAX_FF_LINES {
                return slot;
            }
            let line = 64u64;
            let mut mask = 0u64;
            let mut per_set = vec![0u64; geom.num_sets() as usize];
            let mut pas = Vec::with_capacity(total as usize);
            for (base, lines) in ranges {
                for i in 0..lines {
                    let va = base.add(i * line);
                    let Some(pa) = machine.translate(t.pid, va) else {
                        return slot;
                    };
                    let set = geom.set_index(pa.raw());
                    mask |= 1u64 << set;
                    per_set[set] += 1;
                    pas.push(pa);
                }
            }
            slot.mask = Some(mask);
            slot.fits = per_set.iter().all(|&c| c <= geom.ways() as u64);
            slot.pas = pas;
            slot
        })
        .collect();

    if !engine_ok {
        // Every mask is None; nothing below can become eligible, and
        // skipping here keeps the monitored-set shift safely inside
        // the <= 64-set guarantee.
        return slots;
    }
    let mut monitored = 0u64;
    for t in threads {
        if let Some(probe) = &t.probe {
            monitored |= 1u64 << probe.reserved_set();
        }
    }
    for i in 0..slots.len() {
        let Some(mask) = slots[i].mask else { continue };
        if !slots[i].fits || threads[i].probe.is_some() {
            continue;
        }
        let mut foreign = monitored;
        let mut unknown = false;
        for (j, s) in slots.iter().enumerate() {
            if j == i {
                continue;
            }
            match s.mask {
                Some(m) => foreign |= m,
                None => unknown = true,
            }
        }
        slots[i].eligible = !unknown && mask & foreign == 0;
    }
    slots
}

impl FfSlot {
    /// Attempts the residency check; on success the grant is
    /// permanent (see the field docs).
    fn try_grant(&mut self, machine: &Machine) -> bool {
        if self.granted {
            return true;
        }
        if !self.eligible {
            return false;
        }
        let l1 = machine.hierarchy().l1();
        if self.pas.iter().all(|&pa| l1.probe(pa)) {
            self.granted = true;
        }
        self.granted
    }
}

/// The analytic per-access cost under a grant: every access is an L1
/// hit (residency) at the fast-path latency (the way predictor, if
/// any, is settled for lines only this thread's linear addresses
/// ever touched).
fn analytic_hit_cycles(machine: &Machine) -> u64 {
    u64::from(machine.hierarchy().latencies().l1) + ACCESS_ISSUE_COST
}

/// Hyper-threaded (SMT) sharing: both threads are live on the core,
/// their memory operations interleave at instruction granularity
/// (paper §V-A). Modelled by advancing whichever thread has the
/// smaller local clock, with a little per-op pipeline jitter so the
/// interleaving is irregular — the "random insertion" pattern the
/// Table I analysis assumes for hyper-threading.
#[derive(Debug, Clone)]
pub struct HyperThreaded {
    /// Peak per-op scheduling jitter in cycles.
    pub jitter: u32,
    /// RNG seed for the jitter stream.
    pub seed: u64,
    /// The engine [`HyperThreaded::run`] executes on.
    pub engine: Engine,
}

impl HyperThreaded {
    /// Jitter of 2 cycles — enough to randomize interleaving without
    /// distorting latencies — on the fast-forwarding engine.
    pub fn new(seed: u64) -> Self {
        Self {
            jitter: 2,
            seed,
            engine: Engine::FastForward,
        }
    }

    /// The same scheduler on `engine`.
    pub fn with_engine(self, engine: Engine) -> Self {
        Self { engine, ..self }
    }

    /// Runs the threads until all finish or `limit` global cycles
    /// pass.
    pub fn run(
        &self,
        machine: &mut Machine,
        threads: &mut [ThreadHandle<'_>],
        limit: u64,
    ) -> SchedulerReport {
        if self.engine == Engine::Reference {
            return reference::run_hyper_threaded(self, machine, threads, limit);
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n = threads.len();
        let mut local = vec![0u64; n];
        let mut finished = vec![false; n];
        let mut ops = vec![0u64; n];
        let repeat_ok = repeat_hit_collapse_ok(machine);
        let batches: Vec<bool> = threads.iter().map(|t| t.program.uses_blocks()).collect();

        // The live thread with the smallest local clock issues next
        // (ties go to the lowest index, like the reference's
        // `min_by_key`).
        while let Some(idx) = (0..n)
            .filter(|&i| !finished[i] && local[i] < limit)
            .min_by_key(|&i| local[i])
        {
            if batches[idx] {
                // The block may run ops while this thread would stay
                // selected: until its clock passes the closest other
                // live clock (or reaches it, when that thread has a
                // lower index).
                let mut bound = u64::MAX;
                let mut bound_idx = usize::MAX;
                for j in 0..n {
                    if j != idx && !finished[j] && local[j] < limit && local[j] < bound {
                        bound = local[j];
                        bound_idx = j;
                    }
                }
                let wins_ties = idx < bound_idx;
                let handle = &mut threads[idx];
                let mut ctx = BlockCtx::new_hyper_threaded(
                    machine,
                    handle.pid,
                    local[idx],
                    limit,
                    bound,
                    wins_ties,
                    JitterCfg {
                        jitter: self.jitter,
                        rng: &mut rng,
                    },
                    repeat_ok,
                );
                handle.program.run_block(&mut ctx);
                let fx = ctx.finish();
                if fx.ops > 0 {
                    local[idx] = fx.end;
                    ops[idx] += fx.ops;
                    continue;
                }
            }

            let now = local[idx];
            match threads[idx].program.next_op(now) {
                Op::Done => finished[idx] = true,
                Op::SpinUntil(t) => {
                    // Spinning occupies only this hyper-thread.
                    local[idx] = now.max(t.min(limit));
                    if t >= limit {
                        local[idx] = limit;
                    }
                }
                op => {
                    let result = execute_op(machine, &mut threads[idx], op, now, &mut rng);
                    let jitter = if self.jitter == 0 {
                        0
                    } else {
                        rng.gen_range(0..=self.jitter) as u64
                    };
                    local[idx] = now + result.cycles + jitter;
                    machine.counters_mut(threads[idx].pid).cycles += result.cycles + jitter;
                    machine.counters_mut(threads[idx].pid).instructions += 1;
                    threads[idx].program.on_result(&result);
                    ops[idx] += 1;
                }
            }
        }

        SchedulerReport {
            elapsed: local.into_iter().max().unwrap_or(0),
            ops_executed: ops,
            context_switches: 0,
        }
    }
}

/// Time-sliced sharing: one thread on the core at a time, switched
/// at quantum boundaries (paper §V-B). The L1 contents survive the
/// switch (same physical core), which is exactly what the time-sliced
/// channel exploits.
#[derive(Debug, Clone)]
pub struct TimeSliced {
    /// Nominal quantum length in cycles. The paper's observations
    /// (≈30% of iterations reflecting the sender at `Tr = 1e8`)
    /// correspond to multi-`Tr` slices, i.e. a few hundred million
    /// cycles for two spinning processes under CFS.
    pub quantum: u64,
    /// Peak-to-peak random quantum variation. Must not exceed
    /// `2 * quantum` (see [`TimeSliced::with_timing`]).
    pub quantum_jitter: u64,
    /// Direct cost of a context switch in cycles.
    pub switch_cost: u64,
    /// RNG seed.
    pub seed: u64,
    /// The engine [`TimeSliced::run`] executes on.
    pub engine: Engine,
}

impl TimeSliced {
    /// A CFS-like default: ~3×10⁸-cycle slices (two cpu-bound tasks),
    /// ±20% jitter, 20k-cycle switch cost, on the fast-forwarding
    /// engine.
    pub fn new(seed: u64) -> Self {
        Self {
            quantum: 300_000_000,
            quantum_jitter: 120_000_000,
            switch_cost: 20_000,
            seed,
            engine: Engine::FastForward,
        }
    }

    /// The same scheduler on `engine`.
    pub fn with_engine(self, engine: Engine) -> Self {
        Self { engine, ..self }
    }

    /// A fully parameterized scheduler, with the timing validated:
    /// the jittered quantum draw is `quantum - quantum_jitter/2 +
    /// U(0..=quantum_jitter)`, so `quantum_jitter > 2 * quantum`
    /// would underflow (and used to wrap, or panic in debug builds).
    ///
    /// # Errors
    ///
    /// Returns a [`SchedError`] for a zero quantum or oversized
    /// jitter.
    pub fn with_timing(
        quantum: u64,
        quantum_jitter: u64,
        switch_cost: u64,
        seed: u64,
    ) -> Result<Self, SchedError> {
        let sched = Self {
            quantum,
            quantum_jitter,
            switch_cost,
            seed,
            engine: Engine::FastForward,
        };
        sched.validate()?;
        Ok(sched)
    }

    /// Checks the timing parameters; see [`TimeSliced::with_timing`].
    ///
    /// # Errors
    ///
    /// Returns a [`SchedError`] for a zero quantum or oversized
    /// jitter.
    pub fn validate(&self) -> Result<(), SchedError> {
        if self.quantum == 0 {
            return Err(SchedError::ZeroQuantum);
        }
        if self.quantum_jitter > 2 * self.quantum {
            return Err(SchedError::BadJitter {
                quantum: self.quantum,
                quantum_jitter: self.quantum_jitter,
            });
        }
        Ok(())
    }

    /// Runs the threads round-robin until all finish or `limit`
    /// global cycles pass.
    pub fn run(
        &self,
        machine: &mut Machine,
        threads: &mut [ThreadHandle<'_>],
        limit: u64,
    ) -> SchedulerReport {
        if self.engine == Engine::Reference {
            return reference::run_time_sliced(self, machine, threads, limit);
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n = threads.len();
        let mut finished = vec![false; n];
        let mut ops = vec![0u64; n];
        let mut switches = 0u64;
        let mut t = 0u64;
        let mut cur = 0usize;
        let mut slice_end = t + self.next_quantum(&mut rng);
        let repeat_ok = repeat_hit_collapse_ok(machine);
        let batches: Vec<bool> = threads.iter().map(|t| t.program.uses_blocks()).collect();
        let mut ff = build_ff_slots(machine, threads);
        let analytic_cycles = analytic_hit_cycles(machine);
        // Attempt the residency grant when a thread switches in.
        let mut fresh_slice = true;

        while t < limit && finished.iter().any(|f| !f) {
            if finished[cur] {
                // Rotate to a live thread without charging a switch
                // (the finished one just exited).
                cur = (cur + 1) % n;
                fresh_slice = true;
                continue;
            }
            if batches[cur] {
                if fresh_slice {
                    ff[cur].try_grant(machine);
                    fresh_slice = false;
                }
                let analytic = ff[cur].granted.then_some(analytic_cycles);
                let handle = &mut threads[cur];
                let mut ctx = BlockCtx::new_time_sliced(
                    machine, handle.pid, t, limit, slice_end, analytic, repeat_ok,
                );
                handle.program.run_block(&mut ctx);
                let fx = ctx.finish();
                if fx.ops > 0 {
                    t = fx.end;
                    ops[cur] += fx.ops;
                    if t >= slice_end {
                        switches += 1;
                        t += self.switch_cost;
                        cur = (cur + 1) % n;
                        slice_end = t + self.next_quantum(&mut rng);
                        fresh_slice = true;
                    }
                    continue;
                }
            }

            match threads[cur].program.next_op(t) {
                Op::Done => {
                    finished[cur] = true;
                }
                Op::SpinUntil(target) => {
                    if target <= t {
                        // Deadline already passed: let the program
                        // observe the new time immediately.
                        continue;
                    }
                    let wake = target.min(limit);
                    if wake >= slice_end {
                        // The spin burns the rest of the quantum;
                        // the sibling runs next.
                        t = slice_end;
                        switches += 1;
                        t += self.switch_cost;
                        cur = (cur + 1) % n;
                        slice_end = t + self.next_quantum(&mut rng);
                        fresh_slice = true;
                    } else {
                        t = wake;
                    }
                }
                op => {
                    let result = execute_op(machine, &mut threads[cur], op, t, &mut rng);
                    t += result.cycles;
                    machine.counters_mut(threads[cur].pid).cycles += result.cycles;
                    machine.counters_mut(threads[cur].pid).instructions += 1;
                    threads[cur].program.on_result(&result);
                    ops[cur] += 1;
                    if t >= slice_end {
                        switches += 1;
                        t += self.switch_cost;
                        cur = (cur + 1) % n;
                        slice_end = t + self.next_quantum(&mut rng);
                        fresh_slice = true;
                    }
                }
            }
        }

        SchedulerReport {
            elapsed: t,
            ops_executed: ops,
            context_switches: switches,
        }
    }

    fn next_quantum(&self, rng: &mut SmallRng) -> u64 {
        if self.quantum_jitter == 0 {
            self.quantum
        } else {
            let half = self.quantum_jitter / 2;
            // `saturating_sub` keeps even unvalidated (direct struct
            // literal) configurations from wrapping; validated ones
            // never saturate.
            self.quantum
                .saturating_sub(half)
                .saturating_add(rng.gen_range(0..=self.quantum_jitter))
        }
    }
}

/// The original op-at-a-time interpreter, retained verbatim as the
/// differential-testing oracle for the fast-forwarding engine.
///
/// Every op goes through `Program::next_op`, `execute_op` and
/// `Program::on_result`, with no batching, no repeated-hit collapse
/// and no analytic quantum advancement. `tests/sched_equivalence.rs`
/// and the scheduler property suite pin the fast engine byte-for-
/// byte against these loops.
pub mod reference {
    use super::*;

    /// [`HyperThreaded::run`] as originally implemented.
    pub fn run_hyper_threaded(
        cfg: &HyperThreaded,
        machine: &mut Machine,
        threads: &mut [ThreadHandle<'_>],
        limit: u64,
    ) -> SchedulerReport {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let n = threads.len();
        let mut local = vec![0u64; n];
        let mut finished = vec![false; n];
        let mut ops = vec![0u64; n];

        // The live thread with the smallest local clock issues next.
        while let Some(idx) = (0..n)
            .filter(|&i| !finished[i] && local[i] < limit)
            .min_by_key(|&i| local[i])
        {
            let now = local[idx];
            match threads[idx].program.next_op(now) {
                Op::Done => finished[idx] = true,
                Op::SpinUntil(t) => {
                    // Spinning occupies only this hyper-thread.
                    local[idx] = now.max(t.min(limit));
                    if t >= limit {
                        local[idx] = limit;
                    }
                }
                op => {
                    let result = execute_op(machine, &mut threads[idx], op, now, &mut rng);
                    let jitter = if cfg.jitter == 0 {
                        0
                    } else {
                        rng.gen_range(0..=cfg.jitter) as u64
                    };
                    local[idx] = now + result.cycles + jitter;
                    machine.counters_mut(threads[idx].pid).cycles += result.cycles + jitter;
                    machine.counters_mut(threads[idx].pid).instructions += 1;
                    threads[idx].program.on_result(&result);
                    ops[idx] += 1;
                }
            }
        }

        SchedulerReport {
            elapsed: local.into_iter().max().unwrap_or(0),
            ops_executed: ops,
            context_switches: 0,
        }
    }

    /// [`TimeSliced::run`] as originally implemented.
    pub fn run_time_sliced(
        cfg: &TimeSliced,
        machine: &mut Machine,
        threads: &mut [ThreadHandle<'_>],
        limit: u64,
    ) -> SchedulerReport {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let n = threads.len();
        let mut finished = vec![false; n];
        let mut ops = vec![0u64; n];
        let mut switches = 0u64;
        let mut t = 0u64;
        let mut cur = 0usize;
        let mut slice_end = t + cfg.next_quantum(&mut rng);

        while t < limit && finished.iter().any(|f| !f) {
            if finished[cur] {
                // Rotate to a live thread without charging a switch
                // (the finished one just exited).
                cur = (cur + 1) % n;
                continue;
            }
            match threads[cur].program.next_op(t) {
                Op::Done => {
                    finished[cur] = true;
                }
                Op::SpinUntil(target) => {
                    if target <= t {
                        // Deadline already passed: let the program
                        // observe the new time immediately.
                        continue;
                    }
                    let wake = target.min(limit);
                    if wake >= slice_end {
                        // The spin burns the rest of the quantum;
                        // the sibling runs next.
                        t = slice_end;
                        switches += 1;
                        t += cfg.switch_cost;
                        cur = (cur + 1) % n;
                        slice_end = t + cfg.next_quantum(&mut rng);
                    } else {
                        t = wake;
                    }
                }
                op => {
                    let result = execute_op(machine, &mut threads[cur], op, t, &mut rng);
                    t += result.cycles;
                    machine.counters_mut(threads[cur].pid).cycles += result.cycles;
                    machine.counters_mut(threads[cur].pid).instructions += 1;
                    threads[cur].program.on_result(&result);
                    ops[cur] += 1;
                    if t >= slice_end {
                        switches += 1;
                        t += cfg.switch_cost;
                        cur = (cur + 1) % n;
                        slice_end = t + cfg.next_quantum(&mut rng);
                    }
                }
            }
        }

        SchedulerReport {
            elapsed: t,
            ops_executed: ops,
            context_switches: switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Script;
    use cache_sim::profiles::MicroArch;
    use cache_sim::replacement::PolicyKind;

    fn machine() -> Machine {
        Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 11)
    }

    #[test]
    fn hyperthreaded_interleaves_two_scripts() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let va_a = m.alloc_pages(a, 1);
        let va_b = m.alloc_pages(b, 1);
        let mut pa = Script::new(vec![Op::Access(va_a); 10]);
        let mut pb = Script::new(vec![Op::Access(va_b); 10]);
        let report = HyperThreaded::new(1).run(
            &mut m,
            &mut [ThreadHandle::new(a, &mut pa), ThreadHandle::new(b, &mut pb)],
            1_000_000,
        );
        assert_eq!(report.ops_executed, vec![10, 10]);
        assert_eq!(pa.results.len(), 10);
        // Both threads made progress in overlapping time: elapsed is
        // far less than the serial sum of both threads' work.
        assert!(report.elapsed < 2 * pa.results.iter().map(|r| r.cycles).sum::<u64>());
    }

    #[test]
    fn spin_until_advances_local_clock() {
        let mut m = machine();
        let a = m.create_process();
        let mut p = Script::new(vec![Op::SpinUntil(5000), Op::Compute(10)]);
        let report =
            HyperThreaded::new(1).run(&mut m, &mut [ThreadHandle::new(a, &mut p)], 1_000_000);
        assert!(report.elapsed >= 5010);
    }

    #[test]
    fn limit_stops_infinite_spinners() {
        let mut m = machine();
        let a = m.create_process();
        let mut p = Script::new(vec![Op::SpinUntil(u64::MAX)]);
        let report = HyperThreaded::new(1).run(&mut m, &mut [ThreadHandle::new(a, &mut p)], 10_000);
        assert_eq!(report.elapsed, 10_000);
    }

    #[test]
    fn time_sliced_serializes_threads() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let va_a = m.alloc_pages(a, 1);
        let va_b = m.alloc_pages(b, 1);
        let mut pa = Script::new(vec![Op::Access(va_a); 5]);
        let mut pb = Script::new(vec![Op::Access(va_b); 5]);
        let sched = TimeSliced {
            quantum: 1000,
            quantum_jitter: 0,
            switch_cost: 100,
            seed: 3,
            engine: Engine::FastForward,
        };
        let report = sched.run(
            &mut m,
            &mut [ThreadHandle::new(a, &mut pa), ThreadHandle::new(b, &mut pb)],
            1_000_000,
        );
        assert_eq!(report.ops_executed, vec![5, 5]);
    }

    #[test]
    fn time_sliced_switches_during_long_spins() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let va_b = m.alloc_pages(b, 1);
        // Thread A spins far beyond several quanta; thread B works.
        let mut pa = Script::new(vec![Op::SpinUntil(50_000), Op::Compute(1)]);
        let mut pb = Script::new(vec![Op::Access(va_b); 8]);
        let sched = TimeSliced {
            quantum: 5_000,
            quantum_jitter: 0,
            switch_cost: 10,
            seed: 3,
            engine: Engine::FastForward,
        };
        let report = sched.run(
            &mut m,
            &mut [ThreadHandle::new(a, &mut pa), ThreadHandle::new(b, &mut pb)],
            1_000_000,
        );
        assert!(report.context_switches >= 2);
        assert_eq!(report.ops_executed[1], 8, "B must run during A's spin");
        assert_eq!(
            report.ops_executed[0], 1,
            "A finishes its compute after waking"
        );
    }

    #[test]
    fn counters_charge_cycles_per_thread() {
        let mut m = machine();
        let a = m.create_process();
        let va = m.alloc_pages(a, 1);
        let mut p = Script::new(vec![Op::Access(va), Op::Compute(100)]);
        HyperThreaded {
            jitter: 0,
            ..HyperThreaded::new(1)
        }
        .run(&mut m, &mut [ThreadHandle::new(a, &mut p)], 1_000_000);
        assert_eq!(m.counters(a).instructions, 2);
        // Access to memory (200) + issue 1 + compute 100.
        assert_eq!(m.counters(a).cycles, 301);
    }

    #[test]
    fn flush_op_flushes() {
        let mut m = machine();
        let a = m.create_process();
        let va = m.alloc_pages(a, 1);
        let mut p = Script::new(vec![Op::Access(va), Op::Flush(va)]);
        HyperThreaded::new(1).run(&mut m, &mut [ThreadHandle::new(a, &mut p)], 1_000_000);
        assert_eq!(m.probe_level(a, va), cache_sim::hierarchy::HitLevel::Mem);
    }

    #[test]
    fn timed_access_needs_probe() {
        let mut m = machine();
        let a = m.create_process();
        let va = m.alloc_pages(a, 1);
        let probe = LatencyProbe::new(&mut m, a, crate::tsc::TscModel::intel(), 63);
        let mut p = Script::new(vec![Op::TimedAccess(va)]);
        HyperThreaded::new(1).run(
            &mut m,
            &mut [ThreadHandle::with_probe(a, &mut p, probe)],
            1_000_000,
        );
        assert!(p.results[0].measured.is_some());
    }

    #[test]
    #[should_panic(expected = "requires a thread with a LatencyProbe")]
    fn timed_access_without_probe_panics() {
        let mut m = machine();
        let a = m.create_process();
        let va = m.alloc_pages(a, 1);
        let mut p = Script::new(vec![Op::TimedAccess(va)]);
        HyperThreaded::new(1).run(&mut m, &mut [ThreadHandle::new(a, &mut p)], 1_000_000);
    }

    #[test]
    fn spin_reissue_pattern_is_supported() {
        // A program that re-issues SpinUntil until time passes, as
        // the trait contract requires.
        struct Spinner {
            wake: u64,
            done_compute: bool,
        }
        impl Program for Spinner {
            fn next_op(&mut self, now: u64) -> Op {
                if now < self.wake {
                    Op::SpinUntil(self.wake)
                } else if !self.done_compute {
                    self.done_compute = true;
                    Op::Compute(7)
                } else {
                    Op::Done
                }
            }
        }
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let mut sp = Spinner {
            wake: 20_000,
            done_compute: false,
        };
        let mut other = Script::new(vec![Op::Compute(100); 50]);
        let sched = TimeSliced {
            quantum: 1_000,
            quantum_jitter: 0,
            switch_cost: 10,
            seed: 9,
            engine: Engine::FastForward,
        };
        let report = sched.run(
            &mut m,
            &mut [
                ThreadHandle::new(a, &mut sp),
                ThreadHandle::new(b, &mut other),
            ],
            1_000_000,
        );
        assert!(sp.done_compute);
        assert_eq!(report.ops_executed[0], 1);
    }

    #[test]
    fn with_timing_validates_the_jitter_draw() {
        assert!(TimeSliced::with_timing(1000, 2000, 10, 1).is_ok());
        let err = TimeSliced::with_timing(1000, 2001, 10, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "need quantum_jitter <= 2*quantum, got quantum=1000, quantum_jitter=2001"
        );
        assert_eq!(
            TimeSliced::with_timing(0, 0, 10, 1).unwrap_err(),
            SchedError::ZeroQuantum
        );
        // The CFS-like default always validates.
        assert!(TimeSliced::new(7).validate().is_ok());
    }

    #[test]
    fn oversized_jitter_no_longer_panics_in_next_quantum() {
        // A direct struct literal can still carry the bad shape; the
        // draw saturates instead of wrapping or panicking.
        let sched = TimeSliced {
            quantum: 10,
            quantum_jitter: 1_000,
            switch_cost: 1,
            seed: 5,
            engine: Engine::FastForward,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..32 {
            let q = sched.next_quantum(&mut rng);
            assert!(q <= 1_000, "draw stays in the jitter envelope, got {q}");
        }
    }

    #[test]
    fn reference_and_fast_agree_on_scripts() {
        // Scripts use the default (interpreter) block path, so this
        // pins the fast engine's scheduling skeleton.
        let build = || {
            let mut m = machine();
            let a = m.create_process();
            let b = m.create_process();
            let va_a = m.alloc_pages(a, 2);
            let va_b = m.alloc_pages(b, 2);
            let pa = Script::new(vec![
                Op::Access(va_a),
                Op::Compute(30),
                Op::Access(va_a.add(64)),
                Op::SpinUntil(9_000),
                Op::Access(va_a),
            ]);
            let pb = Script::new(vec![Op::Access(va_b); 12]);
            (m, a, b, pa, pb)
        };
        let sched = TimeSliced {
            quantum: 2_500,
            quantum_jitter: 800,
            switch_cost: 50,
            seed: 21,
            engine: Engine::FastForward,
        };
        let (mut m1, a1, b1, mut pa1, mut pb1) = build();
        let r1 = sched.run(
            &mut m1,
            &mut [
                ThreadHandle::new(a1, &mut pa1),
                ThreadHandle::new(b1, &mut pb1),
            ],
            40_000,
        );
        let (mut m2, a2, b2, mut pa2, mut pb2) = build();
        let r2 = sched.with_engine(Engine::Reference).run(
            &mut m2,
            &mut [
                ThreadHandle::new(a2, &mut pa2),
                ThreadHandle::new(b2, &mut pb2),
            ],
            40_000,
        );
        assert_eq!(r1, r2);
        assert_eq!(pa1.results, pa2.results);
        assert_eq!(m1.counters(a1), m2.counters(a2));
        assert_eq!(m1.counters(b1), m2.counters(b2));
    }

    #[test]
    fn zero_length_quantum_draws_keep_the_engines_aligned() {
        use crate::noise::RandomTouches;
        // quantum_jitter == 2*quantum validates, and roughly a third
        // of its draws are zero-length slices; a granted co-runner
        // must take the interpreter path at those boundaries instead
        // of asserting in the closed form.
        let sched = TimeSliced::with_timing(1, 2, 0, 123).unwrap();
        let run = |use_reference: bool| {
            let mut m = machine();
            let pid = m.create_process();
            let buf = m.alloc_pages(pid, 1);
            let mut prog = RandomTouches::new(buf, 8, 64, 40, 7);
            let report = if use_reference {
                reference::run_time_sliced(
                    &sched,
                    &mut m,
                    &mut [ThreadHandle::new(pid, &mut prog)],
                    50_000,
                )
            } else {
                sched.run(&mut m, &mut [ThreadHandle::new(pid, &mut prog)], 50_000)
            };
            (report, *m.counters(pid))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fast_forward_grant_requires_disjoint_footprints() {
        use crate::noise::RandomTouches;
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let buf_a = m.alloc_pages(a, 1);
        let buf_b = m.alloc_pages(b, 1);
        // A touches sets 0..8, B touches sets 8..16: disjoint.
        let pa = RandomTouches::new(buf_a, 8, 64, 500, 1);
        let pb = RandomTouches::new(buf_b.add(8 * 64), 8, 64, 500, 2);
        {
            let mut prog_a = pa.clone();
            let mut prog_b = pb.clone();
            let threads = [
                ThreadHandle::new(a, &mut prog_a),
                ThreadHandle::new(b, &mut prog_b),
            ];
            let slots = build_ff_slots(&m, &threads);
            assert!(slots[0].eligible && slots[1].eligible);
        }
        // Overlapping footprints (both cover set 8) are not eligible.
        let pb_overlap = RandomTouches::new(buf_b, 9, 64, 500, 2);
        {
            let mut prog_a = pa.clone();
            let mut prog_b = pb_overlap.clone();
            let threads = [
                ThreadHandle::new(a, &mut prog_a),
                ThreadHandle::new(b, &mut prog_b),
            ];
            let slots = build_ff_slots(&m, &threads);
            assert!(!slots[0].eligible && !slots[1].eligible);
        }
        // An unknown-footprint party poisons everyone.
        let mut script = Script::new(vec![Op::Compute(1)]);
        {
            let mut prog_a = pa.clone();
            let threads = [
                ThreadHandle::new(a, &mut prog_a),
                ThreadHandle::new(b, &mut script),
            ];
            let slots = build_ff_slots(&m, &threads);
            assert!(!slots[0].eligible);
        }
    }

    #[test]
    fn back_invalidating_hierarchy_demotes_every_thread() {
        use crate::noise::RandomTouches;
        use cache_sim::hierarchy::Inclusion;
        // The same single-thread setup that is eligible on the
        // default hierarchy loses eligibility as soon as the backend
        // stops being quantum-ff-safe — the capability bit consulted
        // next to `Program::footprint`.
        let run_with = |inclusion: Inclusion| {
            let arch = MicroArch::sandy_bridge_e5_2690();
            let mut m = Machine::with_hierarchy(
                arch,
                arch.build_hierarchy(PolicyKind::TreePlru, 11)
                    .with_inclusion(inclusion),
            );
            let a = m.create_process();
            let buf = m.alloc_pages(a, 1);
            let mut prog = RandomTouches::new(buf, 8, 64, 500, 1);
            let threads = [ThreadHandle::new(a, &mut prog)];
            build_ff_slots(&m, &threads)[0].eligible
        };
        assert!(run_with(Inclusion::Inclusive));
        assert!(run_with(Inclusion::NonInclusive));
        assert!(
            !run_with(Inclusion::BackInvalidate),
            "back-invalidation must bar the fast-forward grant"
        );
    }

    use cache_sim::addr::VirtAddr;

    /// A program whose only job is to declare a footprint.
    struct DeclaredFootprint {
        ranges: Vec<(VirtAddr, u64)>,
    }
    impl Program for DeclaredFootprint {
        fn next_op(&mut self, _now: u64) -> Op {
            Op::Done
        }
        fn footprint(&self) -> Footprint {
            Footprint::Lines(self.ranges.clone())
        }
    }

    #[test]
    fn known_but_oversized_footprint_is_demoted() {
        let mut m = machine();
        let a = m.create_process();
        let va = m.alloc_pages(a, 1);
        // Declared, translatable in principle — but past the
        // expansion budget. Must fall back to interpretation, not
        // truncate the expansion.
        let mut prog = DeclaredFootprint {
            ranges: vec![(va, MAX_FF_LINES + 1)],
        };
        let threads = [ThreadHandle::new(a, &mut prog)];
        let slots = build_ff_slots(&m, &threads);
        assert!(!slots[0].eligible);
        assert!(slots[0].mask.is_none(), "oversized footprint never expands");
        // An empty (zero-line) declared footprint is likewise inert.
        let mut prog = DeclaredFootprint { ranges: vec![] };
        let threads = [ThreadHandle::new(a, &mut prog)];
        assert!(!build_ff_slots(&m, &threads)[0].eligible);
    }

    #[test]
    fn footprint_spanning_the_set_wraparound_stays_exact() {
        let mut m = machine();
        let a = m.create_process();
        let va = m.alloc_pages(a, 2);
        let geom = m.hierarchy().l1().geometry();
        assert_eq!(geom.num_sets(), 64);
        // Four lines starting at set 62: the range wraps through the
        // last set back to set 0, which must set all four mask bits
        // (a modulo bug here would alias sets and over- or
        // under-count the per-set fit).
        let mut prog = DeclaredFootprint {
            ranges: vec![(va.add(62 * 64), 4)],
        };
        let threads = [ThreadHandle::new(a, &mut prog)];
        let slots = build_ff_slots(&m, &threads);
        assert!(slots[0].eligible);
        let mask = slots[0].mask.expect("footprint expands");
        let expected = (1u64 << 62) | (1u64 << 63) | 0b11;
        assert_eq!(mask, expected);
        assert_eq!(slots[0].pas.len(), 4);
    }
}
