//! Lockstep batched execution of covert-channel trials.
//!
//! The scalar path ([`crate::covert::CovertConfig::run`]) builds a
//! full [`Machine`] per trial — page tables, performance counters, a
//! three-level cache hierarchy, dynamic `Program` dispatch — although
//! the *observable* output of a covert trial is only the receiver's
//! sample trace (threshold and nominal rate are pure functions of the
//! platform). This module runs **K trials of one scenario shape** as
//! lanes that share one address layout (the allocator is
//! seed-independent, so every trial of a shape shares its physical
//! addresses) and step a monomorphic replication of the reference
//! hyper-threaded interpreter — no virtual dispatch, no page-table
//! walks, no counter bookkeeping. Each lane's whole cache world is
//! one [`OneSet`]: the channel's L1 target set.
//!
//! ## Exactness
//!
//! The per-lane loop replicates `exec_sim::sched::reference::
//! run_hyper_threaded` *exactly*: same thread order (sender first),
//! same shared `SmallRng` stream (TSC readout draw inside a timed
//! access, then the scheduler jitter draw), same `SpinUntil`
//! clamping, same per-op cycle accounting (`ACCESS_ISSUE_COST`, chain
//! cost + `rdtscp` overhead). The target set's [`OneSet`] runs the
//! same row access and packed replacement logic as the scalar L1
//! (`storage::row_access`), and its Random generator is seeded like
//! set `target_set` of the lane's L1 (`set_seed(seed, target_set)`).
//! It is warmed the way the scalar wiring warms the L1: the receiver's
//! lines, then the sender's line (the probe chain warms its own set,
//! which the target set never sees). Lanes never interact, so
//! stepping each lane to completion is bit-identical to any
//! interleaving. The in-module equivalence tests and
//! `tests/lockstep_equivalence.rs` pin the samples — and the reports
//! derived from them — byte-for-byte against the scalar path.
//!
//! ## Why it is fast
//!
//! The loop is organized as *turns*, not single ops: while one
//! thread's clock stays at or below the other's it keeps issuing, so
//! the scheduler decision runs once per turn instead of once per op,
//! and the sender's encode loop is monomorphized to a straight-line
//! pace/access alternation (no per-op `next_op` dispatch or bit-index
//! division). Then every cache access that is not to the target set
//! drops out, leaving each lane's RNG draw sequence — which fixes the
//! interleaving — untouched:
//!
//! * **One-set lanes.** After warm-up a covert run touches a fixed,
//!   tiny line population: the channel lines, all in the L1 target
//!   set, and the probe chain. Two facts make every other level and
//!   set unobservable. (1) The latency probe's [`CHAIN_LEN`] lines
//!   share one reserved L1 set that no channel line maps to, and they
//!   fit its associativity, so no fill ever occurs there: every chain
//!   access is an L1 hit, and the whole chain walk is one constant.
//!   (2) Every line was loaded through the L2 during warm-up, and no
//!   L2 set holds more of them than it has ways, so no L2 fill can
//!   ever evict: every L1 miss is an L2 hit, and neither the L2's nor
//!   the LLC's replacement state is ever read. What remains is one
//!   8-way set per lane, a fixed-size value with a tag→way index and
//!   no heap: no lane builds an L2 or LLC model or runs a tag
//!   compare, and the scratch machine that yields the address layout
//!   is built without its LLC (the E5-2690's is 16 MiB; the layout
//!   reads only the L1 geometry). [`run_batch`] asserts both
//!   facts, plus what the kernel needs (an 8-way L1, every channel
//!   line in the target set, at most [`MAX_TAG`] lines); they hold on
//!   every eligible platform, target set and variant, which a unit
//!   test checks exhaustively, so there is no fallback path.
//! * **Sender repeated-hit replay.** Within a turn nobody else runs,
//!   and between sender turns only the receiver can have touched the
//!   target set. The first sender access of a turn executes for real;
//!   once it lands a clean L1 hit under an idempotent-touch policy
//!   ([`PolicyKind::touch_is_idempotent`]), the rest of the turn's
//!   accesses provably cannot change cache state and are replayed as
//!   accounting — the exact soundness argument of the scalar block
//!   engine's memo, keyed to turn boundaries instead of blocks.
//!
//! ## Eligibility
//!
//! Lockstep expresses exactly the two-thread hyper-threaded covert
//! run: no noise third thread (its program would need machine-level
//! allocation mid-wire), no time-sliced quanta, no AMD µtag way
//! predictor (it keys on per-process *virtual* addresses, which the
//! batch world deliberately erases). [`eligible`] gates on the
//! platform/sharing half; callers must additionally check for an
//! attached noise model. Ineligible shapes fall back to the scalar
//! path unchanged.

use cache_sim::addr::PhysAddr;
use cache_sim::geometry::CacheGeometry;
use cache_sim::hierarchy::HitLevel;
use cache_sim::one_set::{OneSet, MAX_TAG, WAYS};
use cache_sim::profiles::MicroArch;
use cache_sim::replacement::PolicyKind;
use exec_sim::block::ACCESS_ISSUE_COST;
use exec_sim::machine::Machine;
use exec_sim::measure::CHAIN_LEN;
use exec_sim::sched::HyperThreaded;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::covert::{Sharing, Variant};
use crate::params::{ChannelParams, ParamError, Platform};
use crate::protocol::{Sample, DEFAULT_ENCODE_CALC};
use crate::setup;

/// The per-batch shape shared by every lane: platform, L1 policy and
/// channel wiring. Only the message bits and the seed vary per lane.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// The simulated CPU.
    pub platform: Platform,
    /// L1D replacement policy (L2/LLC use true LRU, as in
    /// [`Machine::new`]).
    pub policy: PolicyKind,
    /// Channel parameters (`d`, target set, `Ts`, `Tr`).
    pub params: ChannelParams,
    /// Protocol variant.
    pub variant: Variant,
}

/// One lane of a lockstep batch: the bits this trial transmits and
/// the trial seed (the same seed the scalar path would use).
#[derive(Debug, Clone)]
pub struct LaneSpec {
    /// Bits the sender transmits.
    pub message: Vec<bool>,
    /// Seed for every randomized component of the lane.
    pub seed: u64,
}

/// The observable outcome of one lane — exactly the fields of
/// [`crate::covert::CovertRun`] that experiments read (the scheduler
/// report is bookkeeping no metric consumes).
#[derive(Debug, Clone)]
pub struct LockstepRun {
    /// The receiver's timed observations, in order.
    pub samples: Vec<Sample>,
    /// Threshold separating hit from miss readouts on this platform.
    pub hit_threshold: u32,
    /// Nominal transmission rate in bits/second (`freq / Ts`).
    pub rate_bps: f64,
}

/// Whether a covert scenario shape can run on the lockstep path.
///
/// True for the two-thread hyper-threaded configuration on platforms
/// without the AMD µtag way predictor. Callers must separately
/// exclude runs with an attached noise model (noise programs allocate
/// machine pages the batch world does not replicate).
pub fn eligible(platform: &Platform, sharing: Sharing) -> bool {
    sharing == Sharing::HyperThreaded && !platform.arch.has_way_predictor
}

/// How a run driver should use the lockstep path. Plumbed from the
/// `lru-leak --lockstep=off|auto|force` debug flag through
/// [`RunCtrl::with_lockstep`](crate::trials::RunCtrl::with_lockstep)
/// down to `Scenario::run_reduced`, so regressions can be bisected
/// against the scalar path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockstepMode {
    /// Never batch — always the scalar per-trial path. Output is
    /// byte-identical to `Auto` (that equivalence is what the
    /// `lockstep_equivalence` suite pins); the mode exists to bisect
    /// a suspected lockstep regression.
    Off,
    /// Batch whenever the scenario shape is eligible, fall back to
    /// scalar otherwise. The default everywhere.
    #[default]
    Auto,
    /// Demand batching. Run drivers treat this like `Auto`; front
    /// ends (CLI, server) are responsible for rejecting ineligible
    /// scenarios up front with a structured error.
    Force,
}

impl LockstepMode {
    /// The flag spellings, in declaration order.
    pub const ALL: [LockstepMode; 3] = [LockstepMode::Off, LockstepMode::Auto, LockstepMode::Force];

    /// The flag spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            LockstepMode::Off => "off",
            LockstepMode::Auto => "auto",
            LockstepMode::Force => "force",
        }
    }
}

impl std::str::FromStr for LockstepMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LockstepMode::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown lockstep mode `{s}` (expected off|auto|force)"))
    }
}

/// The physical addresses of one channel shape. The machine
/// allocator is deterministic and seed-independent, so one scratch
/// [`Machine`] replaying the scalar wiring sequence yields the
/// layout every lane of the batch shares.
#[derive(Debug, PartialEq, Eq)]
struct Layout {
    sender_pa: PhysAddr,
    receiver_pas: Vec<PhysAddr>,
    chain_pas: Vec<PhysAddr>,
}

/// Replays the scalar path's machine mutations — process creation,
/// Algorithm 1/2 wiring, probe-chain allocation — on a scratch
/// machine of `arch` and harvests the physical addresses. Only the
/// allocator and the L1 geometry are read, so [`run_batch`] passes
/// `arch` without its LLC (whose model is the costly part of a
/// machine build).
fn channel_layout(spec: &BatchSpec, arch: MicroArch) -> Result<Layout, ParamError> {
    let mut machine = Machine::new(arch, spec.policy, 0);
    let geom = machine.hierarchy().l1().geometry();
    spec.params
        .validate(geom.ways(), geom.num_sets() as usize)?;
    let (sender_pid, receiver_pid) = match spec.variant {
        Variant::SharedMemoryThreads => {
            let p = machine.create_process();
            (p, p)
        }
        _ => (machine.create_process(), machine.create_process()),
    };
    let endpoints = match spec.variant {
        Variant::SharedMemory | Variant::SharedMemoryThreads => setup::alg1(
            &mut machine,
            sender_pid,
            receiver_pid,
            spec.params.target_set,
        ),
        Variant::NoSharedMemory => setup::alg2(
            &mut machine,
            sender_pid,
            receiver_pid,
            spec.params.target_set,
        ),
    };
    // The probe chain allocates after the channel lines, exactly as
    // `LatencyProbe::new` does in the scalar wiring order.
    let probe_set = setup::reserved_probe_set(&machine, spec.params.target_set);
    let offset = probe_set as u64 * geom.line_size();
    let chain_pas = (0..CHAIN_LEN)
        .map(|_| {
            let va = machine.alloc_pages(receiver_pid, 1).add(offset);
            machine
                .translate(receiver_pid, va)
                .expect("freshly mapped chain page")
        })
        .collect();
    let sender_pa = machine
        .translate(sender_pid, endpoints.sender_line)
        .expect("sender line mapped");
    let receiver_pas = endpoints
        .receiver_lines
        .iter()
        .map(|&va| {
            machine
                .translate(receiver_pid, va)
                .expect("receiver line mapped")
        })
        .collect();
    Ok(Layout {
        sender_pa,
        receiver_pas,
        chain_pas,
    })
}

/// Whether no set of `geom` holds more of the distinct lines `pas`
/// than it has ways — then, once they are all loaded, no fill there
/// can ever evict.
fn fits(geom: CacheGeometry, pas: &[PhysAddr]) -> bool {
    let mut lines: Vec<(usize, u64)> = pas
        .iter()
        .map(|&pa| (geom.set_index(pa.raw()), geom.tag(pa.raw())))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
        .chunk_by(|a, b| a.0 == b.0)
        .all(|set| set.len() <= geom.ways())
}

/// A channel shape reduced to its L1 target set (module docs,
/// *One-set lanes*): the channel lines named by [`OneSet`] tags, and
/// the constant costs of everything outside the set.
struct Channel {
    /// The sender's line.
    sender: u64,
    /// The receiver's lines, in Algorithm 3 order.
    receiver: Vec<u64>,
    /// L1 hit latency.
    l1: u32,
    /// L1 miss latency: every miss is an L2 hit.
    l2: u32,
    /// The probe-chain walk: [`CHAIN_LEN`] L1 hits.
    chain_total: u32,
}

impl Channel {
    /// Names the lines of `layout` and asserts the facts that make
    /// the outer levels and every other set unobservable.
    ///
    /// # Panics
    ///
    /// Panics if one of the facts fails. None does on an eligible
    /// platform (`replay_proofs_hold_on_every_eligible_shape`).
    fn new(arch: &MicroArch, target_set: usize, layout: &Layout) -> Self {
        let l1 = arch.l1d;
        let channel_pas: Vec<PhysAddr> = layout
            .receiver_pas
            .iter()
            .copied()
            .chain([layout.sender_pa])
            .collect();
        assert_eq!(l1.ways(), WAYS, "lockstep lanes model an {WAYS}-way L1");
        assert!(
            channel_pas
                .iter()
                .all(|pa| l1.set_index(pa.raw()) == target_set),
            "every channel line maps to the target set"
        );
        assert!(
            layout
                .chain_pas
                .iter()
                .all(|pa| l1.set_index(pa.raw()) != target_set)
                && fits(l1, &layout.chain_pas),
            "the probe chain fits its own L1 set"
        );
        assert!(
            fits(arch.l2, &[channel_pas, layout.chain_pas.clone()].concat()),
            "no L2 set overflows"
        );
        // Tags by first appearance: the receiver's lines, then the
        // sender's (its own name unless Algorithm 1 shares line 0).
        let mut names: Vec<u64> = Vec::new();
        let mut name = |pa: PhysAddr| {
            let line = l1.tag(pa.raw());
            match names.iter().position(|&n| n == line) {
                Some(i) => i as u64,
                None => {
                    names.push(line);
                    names.len() as u64 - 1
                }
            }
        };
        let receiver: Vec<u64> = layout.receiver_pas.iter().map(|&pa| name(pa)).collect();
        let sender = name(layout.sender_pa);
        assert!(
            names.len() as u64 <= MAX_TAG,
            "the channel lines fit the kernel's tag space"
        );
        let lat = arch.latencies;
        Channel {
            sender,
            receiver,
            l1: lat.l1,
            l2: lat.l2,
            chain_total: CHAIN_LEN as u32 * lat.l1,
        }
    }

    /// A lane's target set, seeded like set `target_set` of an L1
    /// built with `seed`, after the scalar warm-up order: the
    /// receiver's lines, then the sender's line.
    fn warm(&self, spec: &BatchSpec, seed: u64) -> OneSet {
        let mut set = OneSet::new(spec.policy, seed, spec.params.target_set as u64);
        for &line in self.receiver.iter().chain([&self.sender]) {
            set.access(line);
        }
        set
    }

    /// One demand load of channel line `line` on a lane's `set`:
    /// level of service and its latency.
    #[inline(always)]
    fn access(&self, set: &mut OneSet, line: u64) -> (HitLevel, u32) {
        if set.access(line) {
            (HitLevel::L1, self.l1)
        } else {
            (HitLevel::L2, self.l2)
        }
    }
}

/// Runs every lane of `lanes` through the covert channel of `spec`
/// and returns their observable outcomes, bit-identical (per lane)
/// to the scalar [`crate::covert::CovertConfig::run_on`] with a fresh
/// machine seeded by that lane's seed.
///
/// # Errors
///
/// Returns [`ParamError`] if the parameters do not fit the
/// platform's L1 geometry — the same validation, in the same place,
/// as the scalar path.
///
/// # Panics
///
/// Panics if a lane's message is empty (as the scalar sender does),
/// or if the layout breaks one of the facts the one-set lanes rest
/// on (module docs); on an [`eligible`] platform none does.
pub fn run_batch(spec: &BatchSpec, lanes: &[LaneSpec]) -> Result<Vec<LockstepRun>, ParamError> {
    let arch = spec.platform.arch;
    let layout = channel_layout(spec, MicroArch { llc: None, ..arch })?;
    let chan = Channel::new(&arch, spec.params.target_set, &layout);
    Ok(lanes.iter().map(|l| run_lane(spec, &chan, l)).collect())
}

/// One per-op scheduler jitter draw, exactly as the reference
/// interpreter makes it (a `u32` range draw widened afterwards).
#[inline]
fn jitter_draw(rng: &mut SmallRng, max: u32) -> u64 {
    if max == 0 {
        0
    } else {
        u64::from(rng.gen_range(0..=max))
    }
}

/// Steps one lane's sender/receiver pair to the scheduler limit —
/// the reference hyper-threaded interpreter, monomorphized and
/// turn-structured (see the module docs).
///
/// The reference picks, per op, the live thread with the smaller
/// local clock (ties to the sender, index 0). Equivalently: the
/// sender keeps issuing while `local[0] <= local[1]`, the receiver
/// while `local[1] < local[0]` — a *turn*. Neither thread's clock or
/// liveness can change during the other's turn, so hoisting the pick
/// to turn boundaries is exact, and the inner loops only re-check
/// their own clock against the opponent's frozen one.
fn run_lane(spec: &BatchSpec, chan: &Channel, l: &LaneSpec) -> LockstepRun {
    // The receiver's op stream (`LruReceiver::next_op`) inlined —
    // init `d` lines → sleep to the `Tr` grid → decode the rest →
    // time line 0 — with its line list resolved straight to the
    // target set's line names (virtual addresses only matter to the
    // way predictor, which eligibility excludes). Covert receivers
    // have no sample cap, so `Op::Done` cannot occur.
    let r_lines = &chan.receiver;
    let d = spec.params.d;
    let tr = spec.params.tr;
    assert!(d >= 1 && d <= r_lines.len(), "d must be in 1..=lines.len()");
    assert!(tr > 0, "tr must be positive");
    let mut r_phase = Phase::Init;
    let mut r_idx = 0usize;
    let mut r_wake = 0u64;
    // Every receive cycle spans at least one `Tr` grid step, so the
    // sample count is bounded by the run length over `Tr`.
    let cap = (spec.params.ts * (l.message.len() as u64 + 1) / spec.params.tr) as usize + 1;
    let mut samples: Vec<Sample> = Vec::with_capacity(cap);

    // The sender's op stream (`LruSender::next_op`) inlined: per bit
    // period, either a Compute(calc)/Access(line) alternation (bit 1,
    // with `pending_access` carrying a started pair across bit and
    // turn boundaries) or a spin to the period's end (bit 0).
    let message = &l.message;
    assert!(!message.is_empty(), "message must contain at least one bit");
    let msg_len = message.len() as u64;
    let ts = spec.params.ts;
    let calc = u64::from(DEFAULT_ENCODE_CALC);
    let mut pending_access = false;

    let tsc = spec.platform.tsc;
    let sched = HyperThreaded::new(l.seed ^ 0x5eed);
    let mut rng = SmallRng::seed_from_u64(sched.seed);
    let jmax = sched.jitter;
    let limit = (msg_len + 1) * ts;

    let mut set = chan.warm(spec, l.seed);
    let l1_hit_cost = u64::from(chan.l1) + ACCESS_ISSUE_COST;
    // Sender repeated-hit replay: valid while the last sender access
    // was a clean L1 hit, the touch is idempotent, and no receiver
    // turn has intervened (the receiver is the only other party that
    // can touch the target set).
    let touch_idem = spec.policy.touch_is_idempotent();
    let mut sender_line_hot = false;

    let mut local = [0u64; 2];
    let mut s_done = false;

    loop {
        let s_live = !s_done && local[0] < limit;
        let r_live = local[1] < limit;
        if s_live && (!r_live || local[0] <= local[1]) {
            // --- Sender turn: issue while winning the (tied) pick ---
            let bound = if r_live { local[1] } else { u64::MAX };
            loop {
                let now = local[0];
                if now >= limit || now > bound {
                    break;
                }
                let k = now / ts;
                if k >= msg_len {
                    s_done = true;
                    break;
                }
                if message[k as usize] {
                    // The bit is constant until `bit_end`; the pace/
                    // access alternation needs no further division.
                    let bit_end = (k + 1) * ts;
                    while local[0] < bit_end && local[0] <= bound && local[0] < limit {
                        let cycles = if pending_access {
                            pending_access = false;
                            if sender_line_hot {
                                l1_hit_cost
                            } else {
                                let (level, cyc) = chan.access(&mut set, chan.sender);
                                sender_line_hot = touch_idem && level == HitLevel::L1;
                                u64::from(cyc) + ACCESS_ISSUE_COST
                            }
                        } else {
                            pending_access = true;
                            calc
                        };
                        local[0] += cycles + jitter_draw(&mut rng, jmax);
                    }
                } else {
                    // Bit 0: spin to the period's end — the
                    // reference's `SpinUntil` clamping verbatim.
                    let t = (k + 1) * ts;
                    local[0] = now.max(t.min(limit));
                    if t >= limit {
                        local[0] = limit;
                    }
                }
            }
        } else if r_live && (!s_live || local[1] < local[0]) {
            // --- Receiver turn: issue while strictly ahead ---
            // The receiver may touch the target set; the sender's
            // repeated-hit memo cannot survive its turn.
            sender_line_hot = false;
            let bound = if s_live { local[0] } else { u64::MAX };
            loop {
                let now = local[1];
                if now >= limit || now >= bound {
                    break;
                }
                match r_phase {
                    Phase::Init => {
                        if r_idx < d {
                            let (_, cyc) = chan.access(&mut set, r_lines[r_idx]);
                            r_idx += 1;
                            local[1] = now
                                + u64::from(cyc)
                                + ACCESS_ISSUE_COST
                                + jitter_draw(&mut rng, jmax);
                        } else {
                            r_phase = Phase::Wait;
                        }
                    }
                    Phase::Wait => {
                        if now < r_wake {
                            // `SpinUntil(r_wake)`, the reference's
                            // clamping verbatim.
                            local[1] = now.max(r_wake.min(limit));
                            if r_wake >= limit {
                                local[1] = limit;
                            }
                        } else {
                            // Tlast = TSC (Algorithm 3): the next
                            // sample is tr after this wait released.
                            r_wake = now + tr;
                            r_phase = Phase::Decode;
                            r_idx = d;
                        }
                    }
                    Phase::Decode => {
                        if r_idx < r_lines.len() {
                            let (_, cyc) = chan.access(&mut set, r_lines[r_idx]);
                            r_idx += 1;
                            local[1] = now
                                + u64::from(cyc)
                                + ACCESS_ISSUE_COST
                                + jitter_draw(&mut rng, jmax);
                        } else {
                            r_phase = Phase::Measure;
                        }
                    }
                    Phase::Measure => {
                        // The pointer chase: the chain's constant
                        // walk, then the architectural target load;
                        // the TSC readout draws from the shared RNG
                        // *before* the scheduler's jitter draw, as in
                        // the scalar `execute_op`.
                        let (level, cyc) = chan.access(&mut set, r_lines[0]);
                        let total = chan.chain_total + cyc;
                        let measured = tsc.measure_chain(total, &mut rng);
                        let cycles = u64::from(total) + u64::from(tsc.overhead);
                        samples.push(Sample {
                            at: now + cycles,
                            measured,
                            level,
                        });
                        local[1] = now + cycles + jitter_draw(&mut rng, jmax);
                        r_phase = Phase::Init;
                        r_idx = 0;
                    }
                }
            }
        } else {
            break;
        }
    }

    LockstepRun {
        samples,
        hit_threshold: spec.platform.hit_threshold(),
        rate_bps: spec.platform.rate_bps(spec.params.ts),
    }
}

/// The receiver's Algorithm 3 measurement phases, mirroring
/// `LruReceiver`'s internal state machine.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Wait,
    Decode,
    Measure,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covert::CovertConfig;

    fn scalar_run(spec: &BatchSpec, message: &[bool], seed: u64) -> crate::covert::CovertRun {
        let cfg = CovertConfig {
            platform: spec.platform,
            params: spec.params,
            variant: spec.variant,
            sharing: Sharing::HyperThreaded,
            message: message.to_vec(),
            seed,
            engine: exec_sim::sched::Engine::FastForward,
        };
        let mut machine = Machine::new(spec.platform.arch, spec.policy, seed);
        cfg.run_on(&mut machine).unwrap()
    }

    fn assert_batch_matches_scalar(spec: &BatchSpec, lanes: &[LaneSpec]) {
        let batch = run_batch(spec, lanes).unwrap();
        assert_eq!(batch.len(), lanes.len());
        for (l, out) in lanes.iter().zip(&batch) {
            let scalar = scalar_run(spec, &l.message, l.seed);
            assert_eq!(
                out.samples, scalar.samples,
                "lane seed {} diverged ({:?}/{:?} on {})",
                l.seed, spec.variant, spec.policy, spec.platform.arch.model
            );
            assert_eq!(out.hit_threshold, scalar.hit_threshold);
            assert_eq!(out.rate_bps.to_bits(), scalar.rate_bps.to_bits());
        }
    }

    fn message(seed: u64, bits: usize) -> Vec<bool> {
        (0..bits).map(|i| (seed >> (i % 64)) & 1 == 1).collect()
    }

    fn lanes(master: u64, k: usize, bits: usize) -> Vec<LaneSpec> {
        (0..k as u64)
            .map(|i| {
                let seed = crate::trials::derive_seed(master, i);
                LaneSpec {
                    message: message(seed, bits),
                    seed,
                }
            })
            .collect()
    }

    fn spec(variant: Variant, policy: PolicyKind, d: usize) -> BatchSpec {
        BatchSpec {
            platform: Platform::e5_2690(),
            policy,
            params: ChannelParams {
                d,
                target_set: 0,
                ts: 6_000,
                tr: 600,
            },
            variant,
        }
    }

    #[test]
    fn matches_scalar_for_every_variant() {
        for variant in [
            Variant::SharedMemory,
            Variant::SharedMemoryThreads,
            Variant::NoSharedMemory,
        ] {
            assert_batch_matches_scalar(&spec(variant, PolicyKind::TreePlru, 8), &lanes(11, 4, 12));
        }
    }

    #[test]
    fn matches_scalar_for_every_policy() {
        // A non-zero target set too: a lane's Random generator must be
        // that of set `target_set` of the lane's L1, not set 0's.
        for policy in PolicyKind::ALL {
            for target_set in [0, 37] {
                let mut s = spec(Variant::SharedMemory, policy, 8);
                s.params.target_set = target_set;
                assert_batch_matches_scalar(&s, &lanes(23, 3, 10));
            }
        }
    }

    /// The facts [`Channel::new`] asserts — the chain fits its own L1
    /// set, no L2 set overflows, every channel line maps to the target
    /// set, the lines fit the kernel's tag space — for every shape
    /// lockstep can be handed, and the LLC-free scratch machine lays
    /// the channel out exactly as the full machine does.
    #[test]
    fn replay_proofs_hold_on_every_eligible_shape() {
        let mut shapes = 0;
        for platform in Platform::all() {
            if !eligible(&platform, Sharing::HyperThreaded) {
                continue;
            }
            let arch = platform.arch;
            for variant in [
                Variant::SharedMemory,
                Variant::SharedMemoryThreads,
                Variant::NoSharedMemory,
            ] {
                for target_set in 0..arch.l1d.num_sets() as usize {
                    let mut s = spec(variant, PolicyKind::TreePlru, 8);
                    s.platform = platform;
                    s.params.target_set = target_set;
                    let full = channel_layout(&s, arch).unwrap();
                    let lean = channel_layout(&s, MicroArch { llc: None, ..arch }).unwrap();
                    assert_eq!(lean, full, "{} {variant:?} set {target_set}", arch.model);
                    let chan = Channel::new(&arch, target_set, &full);
                    // At most 9 distinct lines: one more than the L1's ways.
                    let lines = chan.receiver.iter().chain([&chan.sender]).max().unwrap() + 1;
                    assert!(lines <= 9, "{lines} channel lines");
                    shapes += 1;
                }
            }
        }
        assert_eq!(shapes, 2 * 3 * 64);
    }

    #[test]
    fn matches_scalar_on_skylake_and_other_params() {
        let spec = BatchSpec {
            platform: Platform::e3_1245v5(),
            policy: PolicyKind::TreePlru,
            params: ChannelParams {
                d: 3,
                target_set: 63,
                ts: 4_500,
                tr: 1_000,
            },
            variant: Variant::NoSharedMemory,
        };
        assert_batch_matches_scalar(&spec, &lanes(37, 4, 16));
    }

    #[test]
    fn single_lane_and_empty_batch() {
        let s = spec(Variant::SharedMemory, PolicyKind::TreePlru, 4);
        assert!(run_batch(&s, &[]).unwrap().is_empty());
        assert_batch_matches_scalar(&s, &lanes(5, 1, 8));
    }

    #[test]
    fn lanes_are_order_independent() {
        // A lane's outcome may not depend on its batch position.
        let s = spec(Variant::SharedMemory, PolicyKind::TreePlru, 8);
        let mut ls = lanes(77, 4, 10);
        let forward = run_batch(&s, &ls).unwrap();
        ls.reverse();
        let backward = run_batch(&s, &ls).unwrap();
        for (f, b) in forward.iter().zip(backward.iter().rev()) {
            assert_eq!(f.samples, b.samples);
        }
    }

    #[test]
    fn invalid_params_error_like_the_scalar_path() {
        let mut s = spec(Variant::SharedMemory, PolicyKind::TreePlru, 8);
        s.params.d = 9;
        assert!(matches!(
            run_batch(&s, &lanes(1, 2, 8)),
            Err(ParamError::BadD { .. })
        ));
    }

    #[test]
    fn eligibility_excludes_time_sliced_and_way_predictor() {
        assert!(eligible(&Platform::e5_2690(), Sharing::HyperThreaded));
        assert!(eligible(&Platform::e3_1245v5(), Sharing::HyperThreaded));
        assert!(!eligible(&Platform::e5_2690(), Sharing::TimeSliced));
        assert!(!eligible(&Platform::epyc_7571(), Sharing::HyperThreaded));
    }
}
