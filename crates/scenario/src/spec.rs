//! The declarative scenario specification: one serializable value
//! describes any experiment in the workspace.
//!
//! A [`Scenario`] is the cartesian surface the paper's evaluation
//! walks — platform × replacement policy × protocol variant × core
//! sharing × defense × background workload × message source × trial
//! count × master seed — plus an [`ExperimentKind`] selecting which
//! measurement to take. Scenarios are built through a validating
//! [`ScenarioBuilder`] (geometry violations surface as the existing
//! [`ParamError`]) and round-trip losslessly through JSON, so a grid
//! can be stored, shipped to the CLI, or diffed.

use std::error::Error;
use std::fmt;

use cache_sim::replacement::PolicyKind;
use lru_channel::covert::{Sharing, Variant};
pub use lru_channel::noise::NoiseModel;
use lru_channel::params::{ChannelParams, ParamError, Platform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::spec_like::Benchmark;

use crate::json::Value;

/// The simulated CPUs of the paper's evaluation (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformId {
    /// Intel Xeon E5-2690 (Sandy Bridge).
    E5_2690,
    /// Intel Xeon E3-1245 v5 (Skylake).
    E3_1245V5,
    /// AMD EPYC 7571 (Zen).
    Epyc7571,
}

impl PlatformId {
    /// All platforms, in paper order.
    pub const ALL: [PlatformId; 3] = [
        PlatformId::E5_2690,
        PlatformId::E3_1245V5,
        PlatformId::Epyc7571,
    ];

    /// The platform bundle (CPU profile + timer model).
    pub fn platform(self) -> Platform {
        match self {
            PlatformId::E5_2690 => Platform::e5_2690(),
            PlatformId::E3_1245V5 => Platform::e3_1245v5(),
            PlatformId::Epyc7571 => Platform::epyc_7571(),
        }
    }

    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            PlatformId::E5_2690 => "e5-2690",
            PlatformId::E3_1245V5 => "e3-1245v5",
            PlatformId::Epyc7571 => "epyc-7571",
        }
    }

    /// Parses a serialization name.
    pub fn parse(name: &str) -> Option<PlatformId> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Stable serialization name of a replacement policy.
pub fn policy_name(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::Lru => "lru",
        PolicyKind::TreePlru => "tree-plru",
        PolicyKind::BitPlru => "bit-plru",
        PolicyKind::Fifo => "fifo",
        PolicyKind::Random => "random",
        PolicyKind::PartitionedTreePlru => "partitioned-tree-plru",
    }
}

/// Parses a replacement-policy serialization name.
pub fn parse_policy(name: &str) -> Option<PolicyKind> {
    PolicyKind::ALL
        .into_iter()
        .find(|&p| policy_name(p) == name)
}

/// Stable serialization name of a protocol variant.
pub fn variant_name(variant: Variant) -> &'static str {
    match variant {
        Variant::SharedMemory => "alg1-shared-memory",
        Variant::SharedMemoryThreads => "alg1-threads",
        Variant::NoSharedMemory => "alg2-no-shared-memory",
    }
}

/// Parses a protocol-variant serialization name.
pub fn parse_variant(name: &str) -> Option<Variant> {
    [
        Variant::SharedMemory,
        Variant::SharedMemoryThreads,
        Variant::NoSharedMemory,
    ]
    .into_iter()
    .find(|&v| variant_name(v) == name)
}

/// Stable serialization name of a core-sharing setting.
pub fn sharing_name(sharing: Sharing) -> &'static str {
    match sharing {
        Sharing::HyperThreaded => "hyper-threaded",
        Sharing::TimeSliced => "time-sliced",
    }
}

/// Parses a core-sharing serialization name.
pub fn parse_sharing(name: &str) -> Option<Sharing> {
    [Sharing::HyperThreaded, Sharing::TimeSliced]
        .into_iter()
        .find(|&s| sharing_name(s) == name)
}

/// Which §IX defense (if any) the scenario evaluates or runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseId {
    /// No defense.
    None,
    /// The original PL cache (locked lines still steer the PLRU).
    PlCacheOriginal,
    /// The fixed PL cache (locked lines frozen out of the state).
    PlCacheFixed,
    /// Way partitioning with a *shared* Tree-PLRU state.
    SharedPartition,
    /// DAWG-style partitioned Tree-PLRU state.
    DawgPartition,
    /// Random-fill cache.
    RandomFill,
    /// Keyed index randomization (RP/CEASER-style).
    IndexRandomization,
    /// InvisiSpec-style invisible speculation.
    InvisibleSpeculation,
    /// The §VII/§X miss-rate detector.
    MissRateDetector,
}

impl DefenseId {
    /// All defenses, in serialization order.
    pub const ALL: [DefenseId; 9] = [
        DefenseId::None,
        DefenseId::PlCacheOriginal,
        DefenseId::PlCacheFixed,
        DefenseId::SharedPartition,
        DefenseId::DawgPartition,
        DefenseId::RandomFill,
        DefenseId::IndexRandomization,
        DefenseId::InvisibleSpeculation,
        DefenseId::MissRateDetector,
    ];

    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            DefenseId::None => "none",
            DefenseId::PlCacheOriginal => "pl-cache-original",
            DefenseId::PlCacheFixed => "pl-cache-fixed",
            DefenseId::SharedPartition => "shared-partition",
            DefenseId::DawgPartition => "dawg-partition",
            DefenseId::RandomFill => "random-fill",
            DefenseId::IndexRandomization => "index-randomization",
            DefenseId::InvisibleSpeculation => "invisible-speculation",
            DefenseId::MissRateDetector => "miss-rate-detector",
        }
    }

    /// Parses a serialization name.
    pub fn parse(name: &str) -> Option<DefenseId> {
        Self::ALL.into_iter().find(|d| d.name() == name)
    }
}

/// What else runs on the core (the workload axis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadId {
    /// Only the experiment's own parties.
    Idle,
    /// A benign third process polluting every set (§V-B).
    BenignNoise,
    /// A named SPEC-like benchmark (the Fig. 9 suite).
    Benchmark(String),
}

impl WorkloadId {
    fn to_json(&self) -> Value {
        match self {
            WorkloadId::Idle => Value::Str("idle".into()),
            WorkloadId::BenignNoise => Value::Str("benign-noise".into()),
            WorkloadId::Benchmark(name) => Value::obj().with("benchmark", name.as_str()),
        }
    }

    fn from_json(v: &Value) -> Result<WorkloadId, ScenarioError> {
        if let Some(s) = v.as_str() {
            return match s {
                "idle" => Ok(WorkloadId::Idle),
                "benign-noise" => Ok(WorkloadId::BenignNoise),
                other => Err(ScenarioError::parse(format!("unknown workload {other:?}"))),
            };
        }
        if let Some(b) = v.get("benchmark").and_then(Value::as_str) {
            return Ok(WorkloadId::Benchmark(b.to_string()));
        }
        Err(ScenarioError::parse(
            "workload must be a name or {benchmark}",
        ))
    }
}

/// Largest value a scenario's element counts may take: `trials`, the
/// message's realized length (`bits`, or `bits × repeats` for a random
/// message) and every count field of the [`ExperimentKind`] (samples,
/// rounds, trials, iterations, bits, accesses, frames).
///
/// Many of these size a buffer before the run starts, and a failed
/// allocation aborts the process — past the fold driver's
/// `catch_unwind`, and in `serve` for every connection at once — so
/// validation rejects a larger value with
/// [`ScenarioError::Incompatible`]; the rest would run unbounded. 2^22
/// (4,194,304) is about 35× the largest registry default (fig9's
/// 120,000 accesses), so every artifact validates at default trials
/// and far beyond, while the largest buffer stays tens of MiB.
pub const MAX_COUNT: usize = 1 << 22;

/// Where the transmitted bits (or the attacked secret) come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageSource {
    /// `0101…` for `bits` bits.
    Alternating {
        /// Message length.
        bits: usize,
    },
    /// The same constant bit, `bits` times.
    Constant {
        /// The bit the sender holds.
        bit: bool,
        /// Message length.
        bits: usize,
    },
    /// A seed-derived random string of `bits` bits, sent `repeats`
    /// times back to back (the Fig. 4 protocol: the error rate is
    /// the mean per-repetition edit distance).
    Random {
        /// Length of the base string.
        bits: usize,
        /// How many times the string is sent.
        repeats: usize,
    },
    /// Literal text — the secret for Spectre-style experiments, or
    /// the payload of the multi-set channel.
    Text(String),
    /// An explicit bit vector (serialized as a `"0101…"` string).
    Bits(Vec<bool>),
}

impl MessageSource {
    /// Number of bits actually transmitted.
    pub fn len(&self) -> usize {
        match self {
            MessageSource::Alternating { bits } | MessageSource::Constant { bits, .. } => *bits,
            MessageSource::Random { bits, repeats } => bits * repeats,
            MessageSource::Text(t) => t.len() * 8,
            MessageSource::Bits(bits) => bits.len(),
        }
    }

    /// Bits the longest buffer realizing the message holds (see
    /// [`MessageSource::bits`]), or `None` if that overflows.
    fn realized_len(&self) -> Option<usize> {
        match self {
            MessageSource::Random { bits, repeats } => bits.checked_mul((*repeats).max(1)),
            _ => Some(self.len()),
        }
    }

    /// Whether the message is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The literal text, for experiments that need one.
    pub fn text(&self) -> Option<&str> {
        match self {
            MessageSource::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Realizes the *base* bit string (one repetition) from `seed`.
    pub fn base_bits(&self, seed: u64) -> Vec<bool> {
        match self {
            MessageSource::Alternating { bits } => (0..*bits).map(|i| i % 2 == 1).collect(),
            MessageSource::Constant { bit, bits } => vec![*bit; *bits],
            MessageSource::Random { bits, .. } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                (0..*bits).map(|_| rng.gen_bool(0.5)).collect()
            }
            MessageSource::Text(t) => t
                .bytes()
                .flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
                .collect(),
            MessageSource::Bits(bits) => bits.clone(),
        }
    }

    /// Realizes the full transmitted message (base × repeats).
    pub fn bits(&self, seed: u64) -> Vec<bool> {
        let base = self.base_bits(seed);
        let repeats = match self {
            MessageSource::Random { repeats, .. } => (*repeats).max(1),
            _ => 1,
        };
        let mut out = Vec::with_capacity(base.len() * repeats);
        for _ in 0..repeats {
            out.extend_from_slice(&base);
        }
        out
    }

    fn to_json(&self) -> Value {
        match self {
            MessageSource::Alternating { bits } => Value::obj().with("alternating", *bits),
            MessageSource::Constant { bit, bits } => Value::obj().with(
                "constant",
                Value::obj().with("bit", *bit).with("bits", *bits),
            ),
            MessageSource::Random { bits, repeats } => Value::obj().with(
                "random",
                Value::obj().with("bits", *bits).with("repeats", *repeats),
            ),
            MessageSource::Text(t) => Value::obj().with("text", t.as_str()),
            MessageSource::Bits(bits) => Value::obj().with(
                "bits",
                bits.iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect::<String>(),
            ),
        }
    }

    fn from_json(v: &Value) -> Result<MessageSource, ScenarioError> {
        if let Some(bits) = v.get("alternating").and_then(Value::as_usize) {
            return Ok(MessageSource::Alternating { bits });
        }
        if let Some(c) = v.get("constant") {
            let bit = c
                .get("bit")
                .and_then(Value::as_bool)
                .ok_or_else(|| ScenarioError::parse("constant.bit must be a bool"))?;
            let bits = c
                .get("bits")
                .and_then(Value::as_usize)
                .ok_or_else(|| ScenarioError::parse("constant.bits must be an integer"))?;
            return Ok(MessageSource::Constant { bit, bits });
        }
        if let Some(r) = v.get("random") {
            let bits = r
                .get("bits")
                .and_then(Value::as_usize)
                .ok_or_else(|| ScenarioError::parse("random.bits must be an integer"))?;
            let repeats = r.get("repeats").and_then(Value::as_usize).unwrap_or(1);
            return Ok(MessageSource::Random { bits, repeats });
        }
        if let Some(t) = v.get("text").and_then(Value::as_str) {
            return Ok(MessageSource::Text(t.to_string()));
        }
        if let Some(b) = v.get("bits").and_then(Value::as_str) {
            let bits: Result<Vec<bool>, ScenarioError> = b
                .chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    other => Err(ScenarioError::parse(format!(
                        "message.bits must be 0s and 1s, got {other:?}"
                    ))),
                })
                .collect();
            return Ok(MessageSource::Bits(bits?));
        }
        Err(ScenarioError::parse(
            "message must be one of alternating/constant/random/text/bits",
        ))
    }
}

/// Serializes a [`NoiseModel`] (the scenario `noise` axis). `None`
/// is the default and is *omitted* by [`Scenario::to_json`], so
/// pre-noise scenario encodings are unchanged byte for byte;
/// [`Scenario::to_json_full`] spells it out as `"none"`.
pub fn noise_to_json(noise: &NoiseModel) -> Value {
    match *noise {
        NoiseModel::None => Value::Str("none".into()),
        NoiseModel::RandomEviction { lines, gap_cycles } => Value::obj().with(
            "random-eviction",
            Value::obj()
                .with("lines", lines)
                .with("gap_cycles", gap_cycles),
        ),
        NoiseModel::PeriodicBurst {
            period_cycles,
            burst_lines,
        } => Value::obj().with(
            "periodic-burst",
            Value::obj()
                .with("period_cycles", period_cycles)
                .with("burst_lines", burst_lines),
        ),
        NoiseModel::Bernoulli { p, lines } => {
            Value::obj().with("bernoulli", Value::obj().with("p", p).with("lines", lines))
        }
    }
}

/// Parses the scenario `noise` axis. A missing field means
/// [`NoiseModel::None`]; an unknown model name is a parse error that
/// lists the valid ones.
///
/// # Errors
///
/// [`ScenarioError::Parse`] naming the offending field.
pub fn noise_from_json(v: &Value) -> Result<NoiseModel, ScenarioError> {
    if let Some(s) = v.as_str() {
        return match s {
            "none" => Ok(NoiseModel::None),
            other => Err(unknown_noise(other)),
        };
    }
    let pairs = match v {
        Value::Obj(pairs) if pairs.len() == 1 => pairs,
        _ => {
            return Err(ScenarioError::parse(
                "noise must be \"none\" or an object with exactly one model key",
            ))
        }
    };
    let (tag, body) = (&pairs[0].0, &pairs[0].1);
    let u32_field = |key: &str| -> Result<u32, ScenarioError> {
        body.get(key)
            .and_then(Value::as_u64)
            .filter(|&x| x <= u64::from(u32::MAX))
            .map(|x| x as u32)
            .ok_or_else(|| ScenarioError::parse(format!("noise.{tag}.{key} must be an integer")))
    };
    match tag.as_str() {
        "random-eviction" => Ok(NoiseModel::RandomEviction {
            lines: u32_field("lines")?,
            gap_cycles: u32_field("gap_cycles")?,
        }),
        "periodic-burst" => Ok(NoiseModel::PeriodicBurst {
            period_cycles: body
                .get("period_cycles")
                .and_then(Value::as_u64)
                .ok_or_else(|| {
                    ScenarioError::parse("noise.periodic-burst.period_cycles must be an integer")
                })?,
            burst_lines: u32_field("burst_lines")?,
        }),
        "bernoulli" => Ok(NoiseModel::Bernoulli {
            p: body
                .get("p")
                .and_then(Value::as_f64)
                .ok_or_else(|| ScenarioError::parse("noise.bernoulli.p must be a number"))?,
            lines: u32_field("lines")?,
        }),
        other => Err(unknown_noise(other)),
    }
}

fn unknown_noise(name: &str) -> ScenarioError {
    ScenarioError::parse(format!(
        "unknown noise model {name:?} — expected none, random-eviction, periodic-burst or bernoulli"
    ))
}

/// The hierarchy backend of the scenario (the `hierarchy` axis):
/// which L1↔L2 inclusion model the simulated machine runs.
///
/// [`HierarchyId::Inclusive`] is the historical single-machine model
/// and the default; it is *omitted* by [`Scenario::to_json`] so
/// pre-hierarchy scenario encodings are unchanged byte for byte.
/// The two other backends open the cross-core channels and — for
/// [`HierarchyId::BackInvalidate`] — revoke the quantum fast-forward
/// capability bit, demoting execution to the block interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HierarchyId {
    /// Inclusive fills, silent L2 evictions (the default backend).
    #[default]
    Inclusive,
    /// Non-inclusive (victim-cache) L2: demand misses fill L1 only.
    NonInclusive,
    /// Inclusive with L2 evictions back-invalidating L1 copies.
    BackInvalidate,
}

impl HierarchyId {
    /// All hierarchy backends, in serialization order.
    pub const ALL: [HierarchyId; 3] = [
        HierarchyId::Inclusive,
        HierarchyId::NonInclusive,
        HierarchyId::BackInvalidate,
    ];

    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        self.inclusion().name()
    }

    /// Parses a serialization name.
    pub fn parse(name: &str) -> Option<HierarchyId> {
        Self::ALL.into_iter().find(|h| h.name() == name)
    }

    /// The cache-sim inclusion policy this backend selects.
    pub fn inclusion(self) -> cache_sim::hierarchy::Inclusion {
        match self {
            HierarchyId::Inclusive => cache_sim::hierarchy::Inclusion::Inclusive,
            HierarchyId::NonInclusive => cache_sim::hierarchy::Inclusion::NonInclusive,
            HierarchyId::BackInvalidate => cache_sim::hierarchy::Inclusion::BackInvalidate,
        }
    }

    /// Whether the backend keeps the quantum fast-forward engine
    /// sound (mirrors `CacheHierarchy::quantum_ff_safe`).
    pub fn quantum_ff_safe(self) -> bool {
        self != HierarchyId::BackInvalidate
    }
}

/// The disclosure/comparison channel of an attack-flavored
/// experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelId {
    /// Flush+Reload, `clflush` flavor.
    FlushReloadMem,
    /// Flush+Reload, L1-eviction-set flavor.
    FlushReloadL1,
    /// LRU Algorithm 1.
    LruAlg1,
    /// LRU Algorithm 2.
    LruAlg2,
}

impl ChannelId {
    /// All channels, in serialization order.
    pub const ALL: [ChannelId; 4] = [
        ChannelId::FlushReloadMem,
        ChannelId::FlushReloadL1,
        ChannelId::LruAlg1,
        ChannelId::LruAlg2,
    ];

    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            ChannelId::FlushReloadMem => "fr-mem",
            ChannelId::FlushReloadL1 => "fr-l1",
            ChannelId::LruAlg1 => "lru-alg1",
            ChannelId::LruAlg2 => "lru-alg2",
        }
    }

    /// Parses a serialization name.
    pub fn parse(name: &str) -> Option<ChannelId> {
        Self::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Paper table label.
    pub fn label(self) -> &'static str {
        match self {
            ChannelId::FlushReloadMem => "F+R (mem)",
            ChannelId::FlushReloadL1 => "F+R (L1)",
            ChannelId::LruAlg1 => "L1 LRU Alg.1",
            ChannelId::LruAlg2 => "L1 LRU Alg.2",
        }
    }
}

/// The Table I access-sequence kinds, re-exported shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceId {
    /// Seq1: `line 1..=8` in order.
    Seq1,
    /// Seq2: `line 1..=8`, then `line 1` again.
    Seq2,
}

/// The Table I initial-condition kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitId {
    /// Random pre-access history.
    Random,
    /// Sequential pre-access history.
    Sequential,
}

/// Which measurement the scenario takes.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentKind {
    /// An end-to-end covert run ([`lru_channel::covert::CovertConfig`]):
    /// transmit the message, decode, report the error rate.
    Covert,
    /// The time-sliced constant-bit experiment (Figs. 6/8/15):
    /// fraction of measurements read as `1` over `samples`.
    PercentOnes {
        /// Receiver measurements per run.
        samples: usize,
    },
    /// The Prime+Probe baseline receiver against an LRU-style
    /// sender (§VII comparison).
    PrimeProbe {
        /// Probe sweeps to take.
        samples: usize,
    },
    /// The Flush+Reload baseline receiver (§VII comparison).
    FlushReload {
        /// Reload observations to take.
        samples: usize,
        /// `true` = `clflush` to memory, `false` = L1 eviction set.
        to_mem: bool,
    },
    /// Spectre v1 secret recovery through `channel` (§VIII).
    Spectre {
        /// Disclosure channel.
        channel: ChannelId,
        /// Scan rounds (Appendix C mitigation when > 1).
        rounds: usize,
        /// Enable the next-line hardware prefetcher (Appendix C).
        prefetcher: bool,
    },
    /// Evaluates the defense named by the scenario's `defense` axis.
    DefenseEval {
        /// Per-defense trial/iteration count.
        trials: usize,
    },
    /// The Table I eviction-probability study.
    PlruEviction {
        /// Access sequence.
        sequence: SequenceId,
        /// Initial condition.
        init: InitId,
        /// Loop iterations per trial.
        iterations: usize,
        /// Independent trials.
        trials: usize,
    },
    /// Table II: model vs measured L1/L2 latencies.
    LatencyCheck,
    /// Table III: the platform's configuration.
    PlatformSpec,
    /// Table V: sender encode latency of `channel`.
    EncodingLatency {
        /// Channel whose encode is timed.
        channel: ChannelId,
    },
    /// Table VI: sender-process miss rates in one co-run scenario.
    SenderMissRates {
        /// Row label index into
        /// [`attacks::miss_rates::SenderScenario::ALL`].
        sender: usize,
        /// Bits the sender transmits.
        bits: usize,
    },
    /// Table VII: whole-attack miss rates through `channel`.
    SpectreMissRates {
        /// Disclosure channel.
        channel: ChannelId,
    },
    /// Figs. 3/13: readout histograms of an L1-hit vs L1-miss
    /// target.
    ProbeHistogram {
        /// Measurements per arm.
        samples: usize,
        /// `true` = single `rdtscp` load (Fig. 13), `false` =
        /// pointer chase (Fig. 3).
        single_load: bool,
    },
    /// Fig. 9: miss rate + CPI of the scenario's benchmark workload
    /// under the scenario's replacement policy family.
    PolicyPerf {
        /// Simulated memory accesses.
        accesses: u64,
    },
    /// The §IV multi-set parallel channel.
    MultiSet {
        /// Number of sets driven in parallel.
        sets: usize,
        /// Frames to send (ignored when the message is text).
        frames: usize,
    },
    /// Cross-core LRU readout through the *shared L2* of a dual-core
    /// machine: the sender's L2 touches steer the shared replacement
    /// state, the receiver decodes from which of its own lines the
    /// L2 evicts. Runs on the scenario's `hierarchy` backend.
    L2Channel {
        /// Bits transmitted and decoded per trial.
        samples: usize,
    },
    /// The inclusion-victim cross-core channel: the receiver parks a
    /// line in its private L1, the sender pressures the shared L2,
    /// and only a back-invalidating hierarchy lets the eviction reach
    /// into the receiver's L1 (the signal).
    InclusionVictim {
        /// Park/pressure/reload rounds per trial.
        trials: usize,
    },
}

impl ExperimentKind {
    /// The first count field above [`MAX_COUNT`], named as validation
    /// reports it.
    fn count_over_cap(&self) -> Option<&'static str> {
        let over = |n: usize| n > MAX_COUNT;
        match self {
            ExperimentKind::PercentOnes { samples } if over(*samples) => {
                Some("percent-ones samples")
            }
            ExperimentKind::PrimeProbe { samples } if over(*samples) => Some("prime-probe samples"),
            ExperimentKind::FlushReload { samples, .. } if over(*samples) => {
                Some("flush-reload samples")
            }
            ExperimentKind::Spectre { rounds, .. } if over(*rounds) => Some("spectre rounds"),
            ExperimentKind::DefenseEval { trials } if over(*trials) => Some("defense-eval trials"),
            ExperimentKind::PlruEviction { iterations, .. } if over(*iterations) => {
                Some("plru-eviction iterations")
            }
            ExperimentKind::PlruEviction { trials, .. } if over(*trials) => {
                Some("plru-eviction trials")
            }
            ExperimentKind::SenderMissRates { bits, .. } if over(*bits) => {
                Some("sender-miss-rates bits")
            }
            ExperimentKind::ProbeHistogram { samples, .. } if over(*samples) => {
                Some("probe-histogram samples")
            }
            ExperimentKind::PolicyPerf { accesses } if *accesses > MAX_COUNT as u64 => {
                Some("policy-perf accesses")
            }
            ExperimentKind::MultiSet { frames, .. } if over(*frames) => Some("multi-set frames"),
            ExperimentKind::L2Channel { samples } if over(*samples) => Some("l2-channel samples"),
            ExperimentKind::InclusionVictim { trials } if over(*trials) => {
                Some("inclusion-victim trials")
            }
            _ => None,
        }
    }

    /// Stable serialization tag.
    pub fn tag(&self) -> &'static str {
        match self {
            ExperimentKind::Covert => "covert",
            ExperimentKind::PercentOnes { .. } => "percent-ones",
            ExperimentKind::PrimeProbe { .. } => "prime-probe",
            ExperimentKind::FlushReload { .. } => "flush-reload",
            ExperimentKind::Spectre { .. } => "spectre",
            ExperimentKind::DefenseEval { .. } => "defense-eval",
            ExperimentKind::PlruEviction { .. } => "plru-eviction",
            ExperimentKind::LatencyCheck => "latency-check",
            ExperimentKind::PlatformSpec => "platform-spec",
            ExperimentKind::EncodingLatency { .. } => "encoding-latency",
            ExperimentKind::SenderMissRates { .. } => "sender-miss-rates",
            ExperimentKind::SpectreMissRates { .. } => "spectre-miss-rates",
            ExperimentKind::ProbeHistogram { .. } => "probe-histogram",
            ExperimentKind::PolicyPerf { .. } => "policy-perf",
            ExperimentKind::MultiSet { .. } => "multi-set",
            ExperimentKind::L2Channel { .. } => "l2-channel",
            ExperimentKind::InclusionVictim { .. } => "inclusion-victim",
        }
    }

    fn to_json(&self) -> Value {
        let body = match self {
            ExperimentKind::Covert
            | ExperimentKind::LatencyCheck
            | ExperimentKind::PlatformSpec => Value::obj(),
            ExperimentKind::PercentOnes { samples } | ExperimentKind::PrimeProbe { samples } => {
                Value::obj().with("samples", *samples)
            }
            ExperimentKind::FlushReload { samples, to_mem } => Value::obj()
                .with("samples", *samples)
                .with("to_mem", *to_mem),
            ExperimentKind::Spectre {
                channel,
                rounds,
                prefetcher,
            } => Value::obj()
                .with("channel", channel.name())
                .with("rounds", *rounds)
                .with("prefetcher", *prefetcher),
            ExperimentKind::DefenseEval { trials } => Value::obj().with("trials", *trials),
            ExperimentKind::PlruEviction {
                sequence,
                init,
                iterations,
                trials,
            } => Value::obj()
                .with(
                    "sequence",
                    match sequence {
                        SequenceId::Seq1 => "seq1",
                        SequenceId::Seq2 => "seq2",
                    },
                )
                .with(
                    "init",
                    match init {
                        InitId::Random => "random",
                        InitId::Sequential => "sequential",
                    },
                )
                .with("iterations", *iterations)
                .with("trials", *trials),
            ExperimentKind::EncodingLatency { channel } => {
                Value::obj().with("channel", channel.name())
            }
            ExperimentKind::SenderMissRates { sender, bits } => {
                Value::obj().with("sender", *sender).with("bits", *bits)
            }
            ExperimentKind::SpectreMissRates { channel } => {
                Value::obj().with("channel", channel.name())
            }
            ExperimentKind::ProbeHistogram {
                samples,
                single_load,
            } => Value::obj()
                .with("samples", *samples)
                .with("single_load", *single_load),
            ExperimentKind::PolicyPerf { accesses } => Value::obj().with("accesses", *accesses),
            ExperimentKind::MultiSet { sets, frames } => {
                Value::obj().with("sets", *sets).with("frames", *frames)
            }
            ExperimentKind::L2Channel { samples } => Value::obj().with("samples", *samples),
            ExperimentKind::InclusionVictim { trials } => Value::obj().with("trials", *trials),
        };
        Value::obj().with(self.tag(), body)
    }

    fn from_json(v: &Value) -> Result<ExperimentKind, ScenarioError> {
        let pairs = match v {
            Value::Obj(pairs) if pairs.len() == 1 => pairs,
            _ => {
                return Err(ScenarioError::parse(
                    "kind must be an object with exactly one tag key",
                ))
            }
        };
        let (tag, body) = (&pairs[0].0, &pairs[0].1);
        let usize_field = |key: &str| -> Result<usize, ScenarioError> {
            body.get(key)
                .and_then(Value::as_usize)
                .ok_or_else(|| ScenarioError::parse(format!("kind.{tag}.{key} must be an integer")))
        };
        let channel_field = |key: &str| -> Result<ChannelId, ScenarioError> {
            body.get(key)
                .and_then(Value::as_str)
                .and_then(ChannelId::parse)
                .ok_or_else(|| ScenarioError::parse(format!("kind.{tag}.{key} must be a channel")))
        };
        match tag.as_str() {
            "covert" => Ok(ExperimentKind::Covert),
            "percent-ones" => Ok(ExperimentKind::PercentOnes {
                samples: usize_field("samples")?,
            }),
            "prime-probe" => Ok(ExperimentKind::PrimeProbe {
                samples: usize_field("samples")?,
            }),
            "flush-reload" => Ok(ExperimentKind::FlushReload {
                samples: usize_field("samples")?,
                to_mem: body.get("to_mem").and_then(Value::as_bool).unwrap_or(true),
            }),
            "spectre" => Ok(ExperimentKind::Spectre {
                channel: channel_field("channel")?,
                rounds: usize_field("rounds")?,
                prefetcher: body
                    .get("prefetcher")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
            }),
            "defense-eval" => Ok(ExperimentKind::DefenseEval {
                trials: usize_field("trials")?,
            }),
            "plru-eviction" => {
                let sequence = match body.get("sequence").and_then(Value::as_str) {
                    Some("seq1") => SequenceId::Seq1,
                    Some("seq2") => SequenceId::Seq2,
                    _ => {
                        return Err(ScenarioError::parse(
                            "plru-eviction.sequence must be seq1/seq2",
                        ))
                    }
                };
                let init = match body.get("init").and_then(Value::as_str) {
                    Some("random") => InitId::Random,
                    Some("sequential") => InitId::Sequential,
                    _ => {
                        return Err(ScenarioError::parse(
                            "plru-eviction.init must be random/sequential",
                        ))
                    }
                };
                Ok(ExperimentKind::PlruEviction {
                    sequence,
                    init,
                    iterations: usize_field("iterations")?,
                    trials: usize_field("trials")?,
                })
            }
            "latency-check" => Ok(ExperimentKind::LatencyCheck),
            "platform-spec" => Ok(ExperimentKind::PlatformSpec),
            "encoding-latency" => Ok(ExperimentKind::EncodingLatency {
                channel: channel_field("channel")?,
            }),
            "sender-miss-rates" => Ok(ExperimentKind::SenderMissRates {
                sender: usize_field("sender")?,
                bits: usize_field("bits")?,
            }),
            "spectre-miss-rates" => Ok(ExperimentKind::SpectreMissRates {
                channel: channel_field("channel")?,
            }),
            "probe-histogram" => Ok(ExperimentKind::ProbeHistogram {
                samples: usize_field("samples")?,
                single_load: body
                    .get("single_load")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
            }),
            "policy-perf" => Ok(ExperimentKind::PolicyPerf {
                accesses: body
                    .get("accesses")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| {
                        ScenarioError::parse("policy-perf.accesses must be an integer")
                    })?,
            }),
            "multi-set" => Ok(ExperimentKind::MultiSet {
                sets: usize_field("sets")?,
                frames: usize_field("frames")?,
            }),
            "l2-channel" => Ok(ExperimentKind::L2Channel {
                samples: usize_field("samples")?,
            }),
            "inclusion-victim" => Ok(ExperimentKind::InclusionVictim {
                trials: usize_field("trials")?,
            }),
            other => Err(ScenarioError::parse(format!("unknown kind {other:?}"))),
        }
    }
}

/// Why a scenario could not be built, parsed or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// Channel parameters do not fit the platform's L1 geometry
    /// (the existing validation, reused).
    Param(ParamError),
    /// The axes are individually valid but mutually incompatible
    /// (e.g. a Spectre kind without a text message).
    Incompatible(String),
    /// The JSON did not describe a scenario.
    Parse(String),
}

impl ScenarioError {
    pub(crate) fn parse(msg: impl Into<String>) -> ScenarioError {
        ScenarioError::Parse(msg.into())
    }

    pub(crate) fn incompatible(msg: impl Into<String>) -> ScenarioError {
        ScenarioError::Incompatible(msg.into())
    }

    /// `what` exceeds [`MAX_COUNT`]. Kept out of line: validation
    /// runs for every grid cell, and this is never its common path.
    #[cold]
    fn over_cap(what: &str) -> ScenarioError {
        ScenarioError::incompatible(format!("{what} must be <= {MAX_COUNT}"))
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Param(e) => write!(f, "invalid channel parameters: {e}"),
            ScenarioError::Incompatible(msg) => write!(f, "incompatible scenario: {msg}"),
            ScenarioError::Parse(msg) => write!(f, "cannot parse scenario: {msg}"),
        }
    }
}

impl Error for ScenarioError {}

impl From<ParamError> for ScenarioError {
    fn from(e: ParamError) -> ScenarioError {
        ScenarioError::Param(e)
    }
}

/// One fully-specified experiment. Construct through
/// [`Scenario::builder`] (which validates) or [`Scenario::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The simulated CPU.
    pub platform: PlatformId,
    /// L1 replacement policy (the §IX-A substitution axis).
    pub policy: PolicyKind,
    /// Protocol variant.
    pub variant: Variant,
    /// Core-sharing setting.
    pub sharing: Sharing,
    /// Defense under evaluation (or `None`).
    pub defense: DefenseId,
    /// Background workload.
    pub workload: WorkloadId,
    /// Environmental interference injected into the run
    /// ([`NoiseModel::None`] by default — omitted from JSON so
    /// pre-noise encodings are stable).
    pub noise: NoiseModel,
    /// The hierarchy backend the simulated machine runs
    /// ([`HierarchyId::Inclusive`] by default — omitted from JSON so
    /// pre-hierarchy encodings are stable).
    pub hierarchy: HierarchyId,
    /// Channel parameters (`d`, target set, `Ts`, `Tr`).
    pub params: ChannelParams,
    /// Message source.
    pub message: MessageSource,
    /// The measurement to take.
    pub kind: ExperimentKind,
    /// Independent repetitions of the experiment (each gets its own
    /// derived seed).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scenario {
    /// Starts a builder with the paper's headline defaults
    /// (E5-2690, Tree-PLRU, shared-memory Algorithm 1,
    /// hyper-threaded, Fig. 5 parameters).
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            inner: Scenario {
                platform: PlatformId::E5_2690,
                policy: PolicyKind::TreePlru,
                variant: Variant::SharedMemory,
                sharing: Sharing::HyperThreaded,
                defense: DefenseId::None,
                workload: WorkloadId::Idle,
                noise: NoiseModel::None,
                hierarchy: HierarchyId::Inclusive,
                params: ChannelParams::paper_alg1_default(),
                message: MessageSource::Alternating { bits: 20 },
                kind: ExperimentKind::Covert,
                trials: 1,
                seed: crate::fmt::BENCH_SEED,
            },
        }
    }

    /// Serializes to a JSON tree (lossless; see [`Scenario::from_json`]).
    ///
    /// The default `noise` axis ([`NoiseModel::None`]) is omitted, so
    /// scenarios that predate the noise subsystem keep their exact
    /// historical byte encoding. Use [`Scenario::to_json_full`] when
    /// every axis should be spelled out.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj()
            .with("platform", self.platform.name())
            .with("policy", policy_name(self.policy))
            .with("variant", variant_name(self.variant))
            .with("sharing", sharing_name(self.sharing))
            .with("defense", self.defense.name())
            .with("workload", self.workload.to_json());
        if !self.noise.is_none() {
            v = v.with("noise", noise_to_json(&self.noise));
        }
        if self.hierarchy != HierarchyId::Inclusive {
            v = v.with("hierarchy", self.hierarchy.name());
        }
        v.with(
            "params",
            Value::obj()
                .with("d", self.params.d)
                .with("target_set", self.params.target_set)
                .with("ts", self.params.ts)
                .with("tr", self.params.tr),
        )
        .with("message", self.message.to_json())
        .with("kind", self.kind.to_json())
        .with("trials", self.trials)
        .with("seed", self.seed)
    }

    /// [`Scenario::to_json`] with *every* axis spelled out, including
    /// a default `noise` axis as the explicit string `"none"` and a
    /// default `hierarchy` axis as `"inclusive"`. This is what
    /// `lru-leak show` prints, so a grid listing never hides an axis
    /// behind its default.
    pub fn to_json_full(&self) -> Value {
        let Value::Obj(mut pairs) = self.to_json() else {
            unreachable!("to_json builds an object")
        };
        let before_params = |pairs: &[(String, Value)]| {
            pairs
                .iter()
                .position(|(k, _)| k == "params")
                .unwrap_or(pairs.len())
        };
        if self.noise.is_none() {
            let at = before_params(&pairs);
            pairs.insert(at, ("noise".to_string(), noise_to_json(&self.noise)));
        }
        if self.hierarchy == HierarchyId::Inclusive {
            let at = before_params(&pairs);
            pairs.insert(
                at,
                (
                    "hierarchy".to_string(),
                    Value::Str(self.hierarchy.name().into()),
                ),
            );
        }
        Value::Obj(pairs)
    }

    /// Deserializes and re-validates a scenario
    /// ([`ScenarioBuilder::from_json`], then [`ScenarioBuilder::build`]).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed JSON,
    /// [`ScenarioError::Param`]/[`ScenarioError::Incompatible`] if
    /// the described scenario would not have passed the builder.
    pub fn from_json(v: &Value) -> Result<Scenario, ScenarioError> {
        ScenarioBuilder::from_json(v)?.build()
    }

    /// Parses a JSON string ([`Scenario::from_json`] on the parse
    /// tree).
    ///
    /// # Errors
    ///
    /// See [`Scenario::from_json`].
    pub fn from_json_str(text: &str) -> Result<Scenario, ScenarioError> {
        ScenarioBuilder::from_json_str(text)?.build()
    }
}

/// Builds a [`Scenario`], validating the axes against each other and
/// against the platform's cache geometry on [`ScenarioBuilder::build`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    inner: Scenario,
}

impl ScenarioBuilder {
    /// Deserializes a scenario without validating it, so a front end
    /// can apply its `trials`/`seed` overrides before the one
    /// [`ScenarioBuilder::build`] check.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed JSON.
    pub fn from_json(v: &Value) -> Result<ScenarioBuilder, ScenarioError> {
        let str_field = |key: &str| -> Result<&str, ScenarioError> {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| ScenarioError::parse(format!("{key} must be a string")))
        };
        let platform = PlatformId::parse(str_field("platform")?)
            .ok_or_else(|| ScenarioError::parse("unknown platform"))?;
        let policy = parse_policy(str_field("policy")?)
            .ok_or_else(|| ScenarioError::parse("unknown policy"))?;
        let variant = parse_variant(str_field("variant")?)
            .ok_or_else(|| ScenarioError::parse("unknown variant"))?;
        let sharing = parse_sharing(str_field("sharing")?)
            .ok_or_else(|| ScenarioError::parse("unknown sharing"))?;
        let defense = DefenseId::parse(str_field("defense")?)
            .ok_or_else(|| ScenarioError::parse("unknown defense"))?;
        let workload = WorkloadId::from_json(
            v.get("workload")
                .ok_or_else(|| ScenarioError::parse("missing workload"))?,
        )?;
        let noise = match v.get("noise") {
            Some(n) => noise_from_json(n)?,
            None => NoiseModel::None,
        };
        let hierarchy = match v.get("hierarchy") {
            Some(h) => h.as_str().and_then(HierarchyId::parse).ok_or_else(|| {
                ScenarioError::parse(
                    "unknown hierarchy — expected inclusive, non-inclusive or back-invalidate",
                )
            })?,
            None => HierarchyId::Inclusive,
        };
        let p = v
            .get("params")
            .ok_or_else(|| ScenarioError::parse("missing params"))?;
        let params_field = |key: &str| -> Result<u64, ScenarioError> {
            p.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| ScenarioError::parse(format!("params.{key} must be an integer")))
        };
        let params = ChannelParams {
            d: params_field("d")? as usize,
            target_set: params_field("target_set")? as usize,
            ts: params_field("ts")?,
            tr: params_field("tr")?,
        };
        let message = MessageSource::from_json(
            v.get("message")
                .ok_or_else(|| ScenarioError::parse("missing message"))?,
        )?;
        let kind = ExperimentKind::from_json(
            v.get("kind")
                .ok_or_else(|| ScenarioError::parse("missing kind"))?,
        )?;
        let trials = v.get("trials").and_then(Value::as_usize).unwrap_or(1);
        let seed = v
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| ScenarioError::parse("seed must be a non-negative integer"))?;
        Ok(ScenarioBuilder {
            inner: Scenario {
                platform,
                policy,
                variant,
                sharing,
                defense,
                workload,
                noise,
                hierarchy,
                params,
                message,
                kind,
                trials,
                seed,
            },
        })
    }

    /// Parses a JSON string ([`ScenarioBuilder::from_json`] on the
    /// parse tree).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed JSON.
    pub fn from_json_str(text: &str) -> Result<ScenarioBuilder, ScenarioError> {
        let v = Value::parse(text).map_err(ScenarioError::parse)?;
        ScenarioBuilder::from_json(&v)
    }

    /// Sets the platform.
    #[must_use]
    pub fn platform(mut self, platform: PlatformId) -> Self {
        self.inner.platform = platform;
        self
    }

    /// Sets the L1 replacement policy.
    #[must_use]
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.inner.policy = policy;
        self
    }

    /// Sets the protocol variant.
    #[must_use]
    pub fn variant(mut self, variant: Variant) -> Self {
        self.inner.variant = variant;
        self
    }

    /// Sets the core-sharing setting.
    #[must_use]
    pub fn sharing(mut self, sharing: Sharing) -> Self {
        self.inner.sharing = sharing;
        self
    }

    /// Sets the defense axis.
    #[must_use]
    pub fn defense(mut self, defense: DefenseId) -> Self {
        self.inner.defense = defense;
        self
    }

    /// Sets the background workload.
    #[must_use]
    pub fn workload(mut self, workload: WorkloadId) -> Self {
        self.inner.workload = workload;
        self
    }

    /// Sets the environmental-noise axis.
    #[must_use]
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.inner.noise = noise;
        self
    }

    /// Sets the hierarchy-backend axis.
    #[must_use]
    pub fn hierarchy(mut self, hierarchy: HierarchyId) -> Self {
        self.inner.hierarchy = hierarchy;
        self
    }

    /// Sets all channel parameters at once.
    #[must_use]
    pub fn params(mut self, params: ChannelParams) -> Self {
        self.inner.params = params;
        self
    }

    /// Sets `d` (receiver initialization depth).
    #[must_use]
    pub fn d(mut self, d: usize) -> Self {
        self.inner.params.d = d;
        self
    }

    /// Sets the target set.
    #[must_use]
    pub fn target_set(mut self, set: usize) -> Self {
        self.inner.params.target_set = set;
        self
    }

    /// Sets the sender period `Ts`.
    #[must_use]
    pub fn ts(mut self, ts: u64) -> Self {
        self.inner.params.ts = ts;
        self
    }

    /// Sets the receiver period `Tr`.
    #[must_use]
    pub fn tr(mut self, tr: u64) -> Self {
        self.inner.params.tr = tr;
        self
    }

    /// Sets the message source.
    #[must_use]
    pub fn message(mut self, message: MessageSource) -> Self {
        self.inner.message = message;
        self
    }

    /// Sets the experiment kind.
    #[must_use]
    pub fn kind(mut self, kind: ExperimentKind) -> Self {
        self.inner.kind = kind;
        self
    }

    /// Sets the independent-repetition count.
    #[must_use]
    pub fn trials(mut self, trials: usize) -> Self {
        self.inner.trials = trials;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Validates and returns the scenario.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Param`] if the channel parameters do not fit
    /// the platform's L1 geometry (for kinds that use them),
    /// [`ScenarioError::Incompatible`] if the axes contradict each
    /// other.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let s = self.inner;
        let geom = s.platform.platform().arch.l1d;
        let uses_params = matches!(
            s.kind,
            ExperimentKind::Covert
                | ExperimentKind::PercentOnes { .. }
                | ExperimentKind::PrimeProbe { .. }
                | ExperimentKind::FlushReload { .. }
                | ExperimentKind::MultiSet { .. }
        );
        if uses_params {
            s.params.validate(geom.ways(), geom.num_sets() as usize)?;
        }
        if s.trials == 0 {
            return Err(ScenarioError::incompatible("trials must be >= 1"));
        }
        if s.trials > MAX_COUNT {
            return Err(ScenarioError::over_cap("trials"));
        }
        if s.message.realized_len().is_none_or(|n| n > MAX_COUNT) {
            return Err(ScenarioError::over_cap("the message's realized bits"));
        }
        match &s.kind {
            ExperimentKind::PercentOnes { samples } => {
                if *samples == 0 {
                    return Err(ScenarioError::incompatible(
                        "percent-ones needs samples >= 1",
                    ));
                }
                if !matches!(s.message, MessageSource::Constant { .. }) {
                    return Err(ScenarioError::incompatible(
                        "percent-ones needs a constant-bit message",
                    ));
                }
            }
            ExperimentKind::Spectre { rounds, .. } => {
                if *rounds == 0 {
                    return Err(ScenarioError::incompatible("spectre needs rounds >= 1"));
                }
                if s.message.text().is_none() {
                    return Err(ScenarioError::incompatible(
                        "spectre needs a text message (the secret)",
                    ));
                }
            }
            ExperimentKind::SpectreMissRates { .. } if s.message.text().is_none() => {
                return Err(ScenarioError::incompatible(
                    "spectre-miss-rates needs a text message (the secret)",
                ));
            }
            ExperimentKind::DefenseEval { trials } => {
                if s.defense == DefenseId::None {
                    return Err(ScenarioError::incompatible(
                        "defense-eval needs a defense axis other than none",
                    ));
                }
                if *trials == 0 {
                    return Err(ScenarioError::incompatible(
                        "defense-eval needs trials >= 1",
                    ));
                }
                if s.defense == DefenseId::InvisibleSpeculation && s.message.text().is_none() {
                    return Err(ScenarioError::incompatible(
                        "invisible-speculation eval needs a text message (the secret)",
                    ));
                }
            }
            ExperimentKind::PolicyPerf { accesses } => {
                let WorkloadId::Benchmark(name) = &s.workload else {
                    return Err(ScenarioError::incompatible(
                        "policy-perf needs a benchmark workload",
                    ));
                };
                if Benchmark::by_name(name).is_none() {
                    return Err(ScenarioError::incompatible(format!(
                        "unknown benchmark {name:?}"
                    )));
                }
                if *accesses == 0 {
                    return Err(ScenarioError::incompatible(
                        "policy-perf needs accesses >= 1",
                    ));
                }
            }
            ExperimentKind::MultiSet { sets, .. } => {
                let num_sets = geom.num_sets() as usize;
                // The highest set driven is (sets-1)*3 and the last
                // set is reserved for the probe chain.
                if *sets == 0 || (sets - 1) * 3 >= num_sets - 1 {
                    return Err(ScenarioError::incompatible(format!(
                        "multi-set needs 1..{} sets, got {sets}",
                        (num_sets - 1) / 3 + 1
                    )));
                }
                // A text payload rides one byte per frame, bit i of
                // the byte on set i — that framing needs exactly 8
                // sets.
                if s.message.text().is_some() && *sets != 8 {
                    return Err(ScenarioError::incompatible(format!(
                        "a text payload needs exactly 8 multi-set channels (one per bit), got {sets}"
                    )));
                }
            }
            ExperimentKind::SenderMissRates { sender, bits } => {
                if *sender >= attacks::miss_rates::SenderScenario::ALL.len() {
                    return Err(ScenarioError::incompatible(
                        "sender-miss-rates row index out of range",
                    ));
                }
                if *bits == 0 {
                    return Err(ScenarioError::incompatible(
                        "sender-miss-rates needs bits >= 1",
                    ));
                }
            }
            ExperimentKind::PlruEviction {
                iterations, trials, ..
            } if (*iterations == 0 || *trials == 0) => {
                return Err(ScenarioError::incompatible(
                    "plru-eviction needs iterations >= 1 and trials >= 1",
                ));
            }
            ExperimentKind::ProbeHistogram { samples, .. } if *samples == 0 => {
                return Err(ScenarioError::incompatible(
                    "probe-histogram needs samples >= 1",
                ));
            }
            ExperimentKind::Covert if s.message.is_empty() => {
                return Err(ScenarioError::incompatible(
                    "covert needs a non-empty message",
                ));
            }
            ExperimentKind::L2Channel { samples } if *samples == 0 => {
                return Err(ScenarioError::incompatible("l2-channel needs samples >= 1"));
            }
            ExperimentKind::InclusionVictim { trials } if *trials == 0 => {
                return Err(ScenarioError::incompatible(
                    "inclusion-victim needs trials >= 1",
                ));
            }
            _ => {}
        }
        if let Some(what) = s.kind.count_over_cap() {
            return Err(ScenarioError::over_cap(what));
        }
        if s.hierarchy != HierarchyId::Inclusive
            && !matches!(
                s.kind,
                ExperimentKind::Covert
                    | ExperimentKind::PercentOnes { .. }
                    | ExperimentKind::L2Channel { .. }
                    | ExperimentKind::InclusionVictim { .. }
            )
        {
            return Err(ScenarioError::incompatible(format!(
                "the {} hierarchy backend is threaded through covert, percent-ones \
                 and the cross-core L2 kinds only",
                s.hierarchy.name()
            )));
        }
        // The hierarchy axis studies the inclusion model in
        // isolation, on a quiet machine: reject the combination with
        // interference rather than define it.
        if s.hierarchy != HierarchyId::Inclusive
            && (!s.noise.is_none() || s.workload == WorkloadId::BenignNoise)
        {
            return Err(ScenarioError::incompatible(format!(
                "the {} hierarchy backend runs on a quiet machine only — \
                 drop the noise model / benign-noise workload",
                s.hierarchy.name()
            )));
        }
        if s.workload == WorkloadId::BenignNoise
            && !matches!(s.kind, ExperimentKind::PercentOnes { .. })
        {
            return Err(ScenarioError::incompatible(
                "the benign-noise workload is modeled for percent-ones runs only",
            ));
        }
        if !s.noise.is_none() {
            s.noise
                .validate()
                .map_err(|e| ScenarioError::incompatible(e.to_string()))?;
            if !matches!(
                s.kind,
                ExperimentKind::Covert | ExperimentKind::PercentOnes { .. }
            ) {
                return Err(ScenarioError::incompatible(
                    "the noise axis is threaded through covert and percent-ones runs only",
                ));
            }
            if s.workload == WorkloadId::BenignNoise {
                return Err(ScenarioError::incompatible(
                    "pick either the benign-noise workload or a parametric noise model, not both",
                ));
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_builds() {
        let s = Scenario::builder().build().unwrap();
        assert_eq!(s.platform, PlatformId::E5_2690);
        assert_eq!(s.kind, ExperimentKind::Covert);
    }

    #[test]
    fn geometry_violations_reuse_param_error() {
        let err = Scenario::builder().d(9).build().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Param(ParamError::BadD { d: 9, ways: 8 })
        ));
        let err = Scenario::builder().target_set(64).build().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Param(ParamError::BadTargetSet { .. })
        ));
        let err = Scenario::builder().ts(100).tr(600).build().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Param(ParamError::BadTiming { .. })
        ));
    }

    #[test]
    fn incompatible_axes_are_rejected() {
        // percent-ones without a constant bit.
        let err = Scenario::builder()
            .kind(ExperimentKind::PercentOnes { samples: 10 })
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Incompatible(_)));
        // spectre without a secret.
        let err = Scenario::builder()
            .kind(ExperimentKind::Spectre {
                channel: ChannelId::LruAlg2,
                rounds: 1,
                prefetcher: false,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Incompatible(_)));
        // defense-eval without a defense.
        let err = Scenario::builder()
            .kind(ExperimentKind::DefenseEval { trials: 10 })
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Incompatible(_)));
        // policy-perf with an unknown benchmark.
        let err = Scenario::builder()
            .kind(ExperimentKind::PolicyPerf { accesses: 1000 })
            .workload(WorkloadId::Benchmark("not-a-benchmark".into()))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Incompatible(_)));
        // multi-set text payloads need exactly 8 channels (one bit
        // per set of each byte).
        for sets in [4usize, 12] {
            let err = Scenario::builder()
                .message(MessageSource::Text("A".into()))
                .kind(ExperimentKind::MultiSet { sets, frames: 1 })
                .build()
                .unwrap_err();
            assert!(matches!(err, ScenarioError::Incompatible(_)), "sets={sets}");
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let original = Scenario::builder()
            .platform(PlatformId::Epyc7571)
            .policy(PolicyKind::BitPlru)
            .variant(Variant::SharedMemoryThreads)
            .sharing(Sharing::TimeSliced)
            .workload(WorkloadId::BenignNoise)
            .params(ChannelParams {
                d: 7,
                target_set: 3,
                ts: 100_000_000,
                tr: 100_000_000,
            })
            .message(MessageSource::Constant { bit: true, bits: 1 })
            .kind(ExperimentKind::PercentOnes { samples: 60 })
            .trials(5)
            .seed(u64::MAX - 3)
            .build()
            .unwrap();
        let text = original.to_json().to_string();
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back, original);
        // And serialization is a fixed point.
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn every_kind_round_trips() {
        let kinds = vec![
            (
                ExperimentKind::Covert,
                MessageSource::Alternating { bits: 8 },
            ),
            (
                ExperimentKind::PercentOnes { samples: 3 },
                MessageSource::Constant {
                    bit: false,
                    bits: 1,
                },
            ),
            (
                ExperimentKind::PrimeProbe { samples: 5 },
                MessageSource::Alternating { bits: 8 },
            ),
            (
                ExperimentKind::FlushReload {
                    samples: 5,
                    to_mem: false,
                },
                MessageSource::Alternating { bits: 8 },
            ),
            (
                ExperimentKind::Spectre {
                    channel: ChannelId::FlushReloadMem,
                    rounds: 3,
                    prefetcher: true,
                },
                MessageSource::Text("s".into()),
            ),
            (
                ExperimentKind::PlruEviction {
                    sequence: SequenceId::Seq2,
                    init: InitId::Sequential,
                    iterations: 12,
                    trials: 10,
                },
                MessageSource::Alternating { bits: 1 },
            ),
            (
                ExperimentKind::LatencyCheck,
                MessageSource::Alternating { bits: 1 },
            ),
            (
                ExperimentKind::PlatformSpec,
                MessageSource::Alternating { bits: 1 },
            ),
            (
                ExperimentKind::EncodingLatency {
                    channel: ChannelId::LruAlg1,
                },
                MessageSource::Alternating { bits: 1 },
            ),
            (
                ExperimentKind::SenderMissRates {
                    sender: 2,
                    bits: 40,
                },
                MessageSource::Alternating { bits: 1 },
            ),
            (
                ExperimentKind::SpectreMissRates {
                    channel: ChannelId::LruAlg2,
                },
                MessageSource::Text("secret".into()),
            ),
            (
                ExperimentKind::ProbeHistogram {
                    samples: 100,
                    single_load: true,
                },
                MessageSource::Alternating { bits: 1 },
            ),
            (
                ExperimentKind::MultiSet { sets: 8, frames: 6 },
                MessageSource::Text("hi".into()),
            ),
            (
                ExperimentKind::L2Channel { samples: 32 },
                MessageSource::Alternating { bits: 1 },
            ),
            (
                ExperimentKind::InclusionVictim { trials: 16 },
                MessageSource::Alternating { bits: 1 },
            ),
        ];
        for (kind, message) in kinds {
            let s = Scenario::builder()
                .kind(kind.clone())
                .message(message)
                .build()
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let back = Scenario::from_json_str(&s.to_json().to_string()).unwrap();
            assert_eq!(back, s, "round trip of {kind:?}");
        }
        // DefenseEval and PolicyPerf need their axes set.
        let s = Scenario::builder()
            .defense(DefenseId::DawgPartition)
            .kind(ExperimentKind::DefenseEval { trials: 50 })
            .build()
            .unwrap();
        assert_eq!(
            Scenario::from_json_str(&s.to_json().to_string()).unwrap(),
            s
        );
        let s = Scenario::builder()
            .workload(WorkloadId::Benchmark("gcc".into()))
            .kind(ExperimentKind::PolicyPerf { accesses: 1000 })
            .build()
            .unwrap();
        assert_eq!(
            Scenario::from_json_str(&s.to_json().to_string()).unwrap(),
            s
        );
    }

    /// Each count field validates at [`MAX_COUNT`] and is rejected,
    /// by name, one past it.
    #[test]
    fn every_count_field_is_capped() {
        fn kind(k: ExperimentKind) -> ScenarioBuilder {
            Scenario::builder().kind(k)
        }
        /// The scenario with the named count set to `n`.
        type At = fn(usize) -> ScenarioBuilder;
        let cases: [(&str, At); 12] = [
            ("trials", |n| Scenario::builder().trials(n)),
            ("percent-ones samples", |n| {
                kind(ExperimentKind::PercentOnes { samples: n })
                    .message(MessageSource::Constant { bit: true, bits: 1 })
            }),
            ("prime-probe samples", |n| {
                kind(ExperimentKind::PrimeProbe { samples: n })
            }),
            ("flush-reload samples", |n| {
                kind(ExperimentKind::FlushReload {
                    samples: n,
                    to_mem: true,
                })
            }),
            ("spectre rounds", |n| {
                kind(ExperimentKind::Spectre {
                    channel: ChannelId::LruAlg2,
                    rounds: n,
                    prefetcher: false,
                })
                .message(MessageSource::Text("s".into()))
            }),
            ("defense-eval trials", |n| {
                kind(ExperimentKind::DefenseEval { trials: n }).defense(DefenseId::PlCacheOriginal)
            }),
            ("plru-eviction trials", |n| {
                kind(ExperimentKind::PlruEviction {
                    sequence: SequenceId::Seq1,
                    init: InitId::Random,
                    iterations: 2,
                    trials: n,
                })
            }),
            ("sender-miss-rates bits", |n| {
                kind(ExperimentKind::SenderMissRates { sender: 0, bits: n })
            }),
            ("probe-histogram samples", |n| {
                kind(ExperimentKind::ProbeHistogram {
                    samples: n,
                    single_load: false,
                })
            }),
            ("policy-perf accesses", |n| {
                kind(ExperimentKind::PolicyPerf { accesses: n as u64 })
                    .workload(WorkloadId::Benchmark("gcc".into()))
            }),
            ("multi-set frames", |n| {
                kind(ExperimentKind::MultiSet { sets: 4, frames: n })
            }),
            ("inclusion-victim trials", |n| {
                kind(ExperimentKind::InclusionVictim { trials: n })
            }),
        ];
        for (what, at) in cases {
            at(MAX_COUNT)
                .build()
                .unwrap_or_else(|e| panic!("{what} at the cap: {e}"));
            let err = at(MAX_COUNT + 1).build().unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Incompatible(m) if m.starts_with(what)),
                "{what} one past the cap: {err}"
            );
        }
    }

    #[test]
    fn from_json_revalidates() {
        let mut s = Scenario::builder().build().unwrap();
        s.params.d = 0; // corrupt after build
        let err = Scenario::from_json_str(&s.to_json().to_string()).unwrap_err();
        assert!(matches!(err, ScenarioError::Param(ParamError::BadD { .. })));
    }

    #[test]
    fn message_sources_realize() {
        assert_eq!(
            MessageSource::Alternating { bits: 4 }.bits(0),
            vec![false, true, false, true]
        );
        assert_eq!(
            MessageSource::Constant { bit: true, bits: 2 }.bits(0),
            vec![true; 2]
        );
        let r = MessageSource::Random {
            bits: 16,
            repeats: 2,
        };
        let all = r.bits(7);
        assert_eq!(all.len(), 32);
        assert_eq!(&all[..16], &all[16..], "repeats repeat the base string");
        assert_eq!(r.bits(7), all, "same seed, same bits");
        assert_ne!(r.bits(8), all, "different seed, different bits");
        let t = MessageSource::Text("A".into()).bits(0);
        assert_eq!(
            t,
            vec![false, true, false, false, false, false, false, true]
        );
        let explicit = MessageSource::Bits(vec![true, false, true]);
        assert_eq!(explicit.bits(0), vec![true, false, true]);
    }

    #[test]
    fn hierarchy_axis_default_is_byte_invisible() {
        let s = Scenario::builder().build().unwrap();
        let text = s.to_json().to_string();
        assert!(
            !text.contains("hierarchy"),
            "default hierarchy must be omitted for byte-stable encodings"
        );
        let full = s.to_json_full().to_string();
        assert!(full.contains("\"hierarchy\""));
        assert!(full.contains("\"inclusive\""));
        // A missing field parses as the default.
        assert_eq!(
            Scenario::from_json_str(&text).unwrap().hierarchy,
            HierarchyId::Inclusive
        );
    }

    #[test]
    fn hierarchy_axis_round_trips() {
        for h in HierarchyId::ALL {
            let s = Scenario::builder().hierarchy(h).build().unwrap();
            let back = Scenario::from_json_str(&s.to_json().to_string()).unwrap();
            assert_eq!(back, s, "round trip of {h:?}");
            assert_eq!(HierarchyId::parse(h.name()), Some(h));
        }
        // The full form is also parseable (explicit default).
        let s = Scenario::builder().build().unwrap();
        assert_eq!(
            Scenario::from_json_str(&s.to_json_full().to_string()).unwrap(),
            s
        );
    }

    #[test]
    fn hierarchy_axis_is_gated_by_kind() {
        let err = Scenario::builder()
            .hierarchy(HierarchyId::BackInvalidate)
            .kind(ExperimentKind::LatencyCheck)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Incompatible(_)));
        assert!(err.to_string().contains("back-invalidate"));
        // The threaded kinds accept every backend.
        for h in HierarchyId::ALL {
            assert!(Scenario::builder().hierarchy(h).build().is_ok());
            assert!(Scenario::builder()
                .hierarchy(h)
                .kind(ExperimentKind::L2Channel { samples: 8 })
                .build()
                .is_ok());
        }
    }

    #[test]
    fn explicit_bits_round_trip() {
        let s = Scenario::builder()
            .message(MessageSource::Bits(vec![true, false, true, true]))
            .build()
            .unwrap();
        let back = Scenario::from_json_str(&s.to_json().to_string()).unwrap();
        assert_eq!(back, s);
        assert!(Scenario::from_json_str(&s.to_json().to_string().replace("1011", "10x1")).is_err());
    }
}
