//! Multi-set parallel channels (§IV: "In practice, several sets can
//! be used in parallel to increase the transmission rate or to
//! reduce the noise").
//!
//! One sender thread and one receiver thread drive `K` target sets
//! simultaneously; each `Ts` period carries a `K`-bit frame (one bit
//! per set). The per-set protocol is Algorithm 1 unchanged; the
//! aggregate rate scales with `K` until the receiver's sweep no
//! longer fits in `Tr`.

use cache_sim::addr::VirtAddr;
use cache_sim::replacement::PolicyKind;
use exec_sim::machine::Machine;
use exec_sim::measure::LatencyProbe;
use exec_sim::program::{Op, OpResult, Program};
use exec_sim::sched::{Engine, HyperThreaded, ThreadHandle};

use crate::params::{ParamError, Platform};
use crate::protocol::DEFAULT_ENCODE_CALC;
use crate::setup;

/// One timed observation of one set's `line 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetSample {
    /// Which channel set (index into the configured set list).
    pub channel: usize,
    /// Completion time.
    pub at: u64,
    /// Latency readout.
    pub measured: u32,
}

/// The parallel sender: per frame period, touches `line 0` of every
/// set whose current frame bit is 1, round-robin.
#[derive(Debug, Clone)]
pub struct MultiSetSender {
    lines: Vec<VirtAddr>,
    frames: Vec<Vec<bool>>,
    ts: u64,
    cursor: usize,
    pending_access: bool,
}

impl MultiSetSender {
    /// A sender transmitting `frames` (each `lines.len()` bits wide),
    /// one frame per `ts` cycles.
    ///
    /// # Panics
    ///
    /// Panics if any frame's width differs from the set count, or if
    /// `frames`/`lines` is empty.
    pub fn new(lines: Vec<VirtAddr>, frames: Vec<Vec<bool>>, ts: u64) -> Self {
        assert!(!lines.is_empty() && !frames.is_empty());
        assert!(
            frames.iter().all(|f| f.len() == lines.len()),
            "every frame must carry one bit per set"
        );
        Self {
            lines,
            frames,
            ts,
            cursor: 0,
            pending_access: false,
        }
    }
}

impl Program for MultiSetSender {
    fn next_op(&mut self, now: u64) -> Op {
        let k = (now / self.ts) as usize;
        if k >= self.frames.len() {
            return Op::Done;
        }
        let frame = &self.frames[k];
        if !frame.iter().any(|&b| b) {
            // All-zero frame: stay off every target set.
            return Op::SpinUntil((k as u64 + 1) * self.ts);
        }
        if self.pending_access {
            // Advance to the next 1-bit set and touch it.
            self.pending_access = false;
            for _ in 0..frame.len() {
                let s = self.cursor;
                self.cursor = (self.cursor + 1) % frame.len();
                if frame[s] {
                    return Op::Access(self.lines[s]);
                }
            }
            unreachable!("frame checked non-zero");
        }
        self.pending_access = true;
        Op::Compute(DEFAULT_ENCODE_CALC)
    }
}

/// The parallel receiver: each iteration initializes all sets,
/// sleeps to the `Tr` grid, then decodes and times each set.
#[derive(Debug, Clone)]
pub struct MultiSetReceiver {
    groups: Vec<Vec<VirtAddr>>,
    d: usize,
    tr: u64,
    phase: Phase,
    set_idx: usize,
    line_idx: usize,
    wake_at: u64,
    pending_sample_set: usize,
    samples: Vec<SetSample>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Wait,
    Decode,
    Measure,
}

impl MultiSetReceiver {
    /// A receiver over per-set line groups (each ordered `line 0..N`
    /// as produced by [`crate::setup::alg1`]).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty, `d` is out of range for any
    /// group, or `tr == 0`.
    pub fn new(groups: Vec<Vec<VirtAddr>>, d: usize, tr: u64) -> Self {
        assert!(!groups.is_empty(), "need at least one set");
        assert!(tr > 0, "tr must be positive");
        for g in &groups {
            assert!(d >= 1 && d <= g.len(), "d out of range for a group");
        }
        Self {
            groups,
            d,
            tr,
            phase: Phase::Init,
            set_idx: 0,
            line_idx: 0,
            wake_at: 0,
            pending_sample_set: 0,
            samples: Vec::new(),
        }
    }

    /// Observations so far.
    pub fn samples(&self) -> &[SetSample] {
        &self.samples
    }

    /// Consumes the receiver, returning its observations.
    pub fn into_samples(self) -> Vec<SetSample> {
        self.samples
    }
}

impl Program for MultiSetReceiver {
    fn next_op(&mut self, now: u64) -> Op {
        loop {
            match self.phase {
                Phase::Init => {
                    if self.set_idx < self.groups.len() {
                        if self.line_idx < self.d {
                            self.line_idx += 1;
                            return Op::Access(self.groups[self.set_idx][self.line_idx - 1]);
                        }
                        self.set_idx += 1;
                        self.line_idx = 0;
                        continue;
                    }
                    self.phase = Phase::Wait;
                }
                Phase::Wait => {
                    if now < self.wake_at {
                        return Op::SpinUntil(self.wake_at);
                    }
                    self.wake_at = now + self.tr;
                    self.phase = Phase::Decode;
                    self.set_idx = 0;
                    self.line_idx = self.d;
                }
                Phase::Decode => {
                    if self.set_idx < self.groups.len() {
                        let group = &self.groups[self.set_idx];
                        if self.line_idx < group.len() {
                            self.line_idx += 1;
                            return Op::Access(group[self.line_idx - 1]);
                        }
                        // This set's extra lines done: time its line 0.
                        self.phase = Phase::Measure;
                        self.pending_sample_set = self.set_idx;
                        self.set_idx += 1;
                        self.line_idx = self.d;
                        return Op::TimedAccess(group[0]);
                    }
                    self.phase = Phase::Init;
                    self.set_idx = 0;
                    self.line_idx = 0;
                }
                Phase::Measure => {
                    // on_result flips back to Decode; if the scheduler
                    // asks again first (it doesn't), keep decoding.
                    self.phase = Phase::Decode;
                }
            }
        }
    }

    fn on_result(&mut self, result: &OpResult) {
        if let Some(measured) = result.measured {
            self.samples.push(SetSample {
                channel: self.pending_sample_set,
                at: result.completed_at,
                measured,
            });
            self.phase = Phase::Decode;
        }
    }
}

/// Outcome of a parallel run.
#[derive(Debug, Clone)]
pub struct MultiSetRun {
    /// All per-set observations.
    pub samples: Vec<SetSample>,
    /// Hit/miss threshold of the platform.
    pub hit_threshold: u32,
    /// Aggregate nominal rate in bits/second (`K × freq / Ts`).
    pub rate_bps: f64,
}

impl MultiSetRun {
    /// Decodes the frames back: per set, majority vote per `ts`
    /// window (hit ⇒ 1, Algorithm 1 polarity).
    pub fn decode_frames(&self, sets: usize, ts: u64, n_frames: usize) -> Vec<Vec<bool>> {
        let mut frames = vec![vec![false; sets]; n_frames];
        for s in 0..sets {
            let per_set: Vec<crate::protocol::Sample> = self
                .samples
                .iter()
                .filter(|x| x.channel == s)
                .map(|x| crate::protocol::Sample {
                    at: x.at,
                    measured: x.measured,
                    level: cache_sim::hierarchy::HitLevel::L1,
                })
                .collect();
            let bits = crate::decode::bits_by_window(
                &per_set,
                ts,
                self.hit_threshold,
                crate::decode::BitConvention::HitIsOne,
            );
            for (k, frame) in frames.iter_mut().enumerate() {
                frame[s] = bits.get(k).copied().unwrap_or(false);
            }
        }
        frames
    }
}

/// Runs an Algorithm-1 channel over `target_sets` in parallel,
/// hyper-threaded on `engine`, transmitting `frames` (one per `ts`
/// period).
///
/// # Errors
///
/// Returns [`ParamError`] if `d`/`tr` are invalid or a target set is
/// out of range (the reserved probe set may not be used).
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_alg1(
    platform: Platform,
    target_sets: &[usize],
    d: usize,
    ts: u64,
    tr: u64,
    frames: Vec<Vec<bool>>,
    seed: u64,
    engine: Engine,
) -> Result<MultiSetRun, ParamError> {
    let mut machine = Machine::new(platform.arch, PolicyKind::TreePlru, seed);
    let geom = machine.hierarchy().l1().geometry();
    let num_sets = geom.num_sets() as usize;
    let probe_set = num_sets - 1;
    for &s in target_sets {
        if s >= num_sets || s == probe_set {
            return Err(ParamError::BadTargetSet { set: s, num_sets });
        }
    }
    if d == 0 || d > geom.ways() {
        return Err(ParamError::BadD {
            d,
            ways: geom.ways(),
        });
    }
    if ts == 0 || tr == 0 || ts < tr {
        return Err(ParamError::BadTiming { ts, tr });
    }

    let sender_pid = machine.create_process();
    let receiver_pid = machine.create_process();
    let mut sender_lines = Vec::new();
    let mut groups = Vec::new();
    for &s in target_sets {
        let ep = setup::alg1(&mut machine, sender_pid, receiver_pid, s);
        sender_lines.push(ep.sender_line);
        groups.push(ep.receiver_lines);
    }
    // Warm everything once.
    for g in &groups {
        for &va in g {
            machine.access(receiver_pid, va);
        }
    }
    for &va in &sender_lines {
        machine.access(sender_pid, va);
    }

    let n_frames = frames.len();
    let mut sender = MultiSetSender::new(sender_lines, frames, ts);
    let mut receiver = MultiSetReceiver::new(groups, d, tr);
    let probe = LatencyProbe::new(&mut machine, receiver_pid, platform.tsc, probe_set);
    let limit = (n_frames as u64 + 1) * ts;
    HyperThreaded::new(seed ^ 0x9a11e1).with_engine(engine).run(
        &mut machine,
        &mut [
            ThreadHandle::new(sender_pid, &mut sender),
            ThreadHandle::with_probe(receiver_pid, &mut receiver, probe),
        ],
        limit,
    );
    Ok(MultiSetRun {
        samples: receiver.into_samples(),
        hit_threshold: platform.hit_threshold(),
        rate_bps: target_sets.len() as f64 * platform.rate_bps(ts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_frames(n: usize, width: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
            .collect()
    }

    #[test]
    fn four_sets_transfer_frames_in_parallel() {
        let sets = [0usize, 5, 23, 41];
        let frames = random_frames(16, sets.len(), 1);
        let run = run_parallel_alg1(
            Platform::e5_2690(),
            &sets,
            8,
            8_000,
            1_200,
            frames.clone(),
            2,
            Engine::FastForward,
        )
        .unwrap();
        let decoded = run.decode_frames(sets.len(), 8_000, frames.len());
        let total: usize = frames.len() * sets.len();
        let correct: usize = frames
            .iter()
            .zip(&decoded)
            .map(|(a, b)| a.iter().zip(b).filter(|(x, y)| x == y).count())
            .sum();
        assert!(
            correct as f64 / total as f64 > 0.9,
            "parallel channel accuracy {correct}/{total}"
        );
    }

    #[test]
    fn aggregate_rate_scales_with_set_count() {
        let one = run_parallel_alg1(
            Platform::e5_2690(),
            &[0],
            8,
            6_000,
            600,
            random_frames(4, 1, 3),
            4,
            Engine::FastForward,
        )
        .unwrap();
        let eight = run_parallel_alg1(
            Platform::e5_2690(),
            &[0, 1, 2, 3, 4, 5, 6, 7],
            8,
            6_000,
            600,
            random_frames(4, 8, 3),
            4,
            Engine::FastForward,
        )
        .unwrap();
        assert!((eight.rate_bps / one.rate_bps - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_probe_set_as_target() {
        let err = run_parallel_alg1(
            Platform::e5_2690(),
            &[63],
            8,
            6_000,
            600,
            random_frames(2, 1, 5),
            6,
            Engine::FastForward,
        )
        .unwrap_err();
        assert!(matches!(err, ParamError::BadTargetSet { .. }));
    }

    #[test]
    fn rejects_bad_timing() {
        let err = run_parallel_alg1(
            Platform::e5_2690(),
            &[0],
            8,
            100,
            600,
            random_frames(2, 1, 5),
            6,
            Engine::FastForward,
        )
        .unwrap_err();
        assert!(matches!(err, ParamError::BadTiming { .. }));
    }

    #[test]
    fn sender_skips_zero_frames_entirely() {
        let mut s = MultiSetSender::new(
            vec![VirtAddr::new(0), VirtAddr::new(4096)],
            vec![vec![false, false], vec![true, false]],
            1_000,
        );
        assert_eq!(s.next_op(0), Op::SpinUntil(1_000));
        // Second frame: only set 0 is touched.
        assert!(matches!(s.next_op(1_000), Op::Compute(_)));
        assert_eq!(s.next_op(1_010), Op::Access(VirtAddr::new(0)));
    }

    #[test]
    fn receiver_tags_samples_with_their_set() {
        let sets = [2usize, 9];
        let frames = vec![vec![true, false]; 6];
        let run = run_parallel_alg1(
            Platform::e5_2690(),
            &sets,
            8,
            8_000,
            1_500,
            frames,
            7,
            Engine::FastForward,
        )
        .unwrap();
        let channels: std::collections::HashSet<usize> =
            run.samples.iter().map(|s| s.channel).collect();
        assert_eq!(channels, [0usize, 1].into_iter().collect());
    }
}
