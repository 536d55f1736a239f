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

pub use attacks::primitive::Channel;
pub use cache_sim::hierarchy::Inclusion;
use cache_sim::replacement::PolicyKind;
use lru_channel::covert::{Sharing, Variant};
pub use lru_channel::noise::NoiseModel;
use lru_channel::params::{ChannelParams, ParamError, Platform};
pub use lru_channel::plru_study::{InitCond, SequenceKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::spec_like::Benchmark;

use crate::json::{Fields, Value};

/// A value set whose values each have one stable serialization name.
///
/// [`Named::NAMES`] is the only place a value's name is written:
/// [`Named::name`], [`Named::parse`], [`Named::all`] and the reader
/// [`Fields::named`] derive from it, so the JSON encoding, every
/// `ResultCache` key and every parse error spell a value the same way.
pub trait Named: Copy + PartialEq + 'static {
    /// Every value with its name, in serialization order. A value
    /// missing here cannot be encoded ([`Named::name`] panics).
    const NAMES: &'static [(Self, &'static str)];

    /// The value's serialization name.
    fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|&&(v, _)| v == self)
            .map(|&(_, name)| name)
            .expect("every value has a row in Named::NAMES")
    }

    /// The value a serialization name stands for.
    fn parse(name: &str) -> Option<Self> {
        Self::NAMES
            .iter()
            .find(|&&(_, n)| n == name)
            .map(|&(v, _)| v)
    }

    /// Every value, in serialization order.
    fn all() -> impl ExactSizeIterator<Item = Self> {
        Self::NAMES.iter().map(|&(v, _)| v)
    }

    /// The parse error for `name`, read at the key path `path` and not
    /// in the table.
    fn unknown(path: &str, name: &str) -> String {
        format!("unknown {path} {name:?}")
    }
}

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
    /// The platform bundle (CPU profile + timer model).
    pub fn platform(self) -> Platform {
        match self {
            PlatformId::E5_2690 => Platform::e5_2690(),
            PlatformId::E3_1245V5 => Platform::e3_1245v5(),
            PlatformId::Epyc7571 => Platform::epyc_7571(),
        }
    }
}

/// The platform axis, in paper order.
impl Named for PlatformId {
    const NAMES: &'static [(Self, &'static str)] = &[
        (PlatformId::E5_2690, "e5-2690"),
        (PlatformId::E3_1245V5, "e3-1245v5"),
        (PlatformId::Epyc7571, "epyc-7571"),
    ];
}

/// The L1 replacement policy (the §IX-A substitution axis).
impl Named for PolicyKind {
    const NAMES: &'static [(Self, &'static str)] = &[
        (PolicyKind::Lru, "lru"),
        (PolicyKind::TreePlru, "tree-plru"),
        (PolicyKind::BitPlru, "bit-plru"),
        (PolicyKind::Fifo, "fifo"),
        (PolicyKind::Random, "random"),
        (PolicyKind::PartitionedTreePlru, "partitioned-tree-plru"),
    ];
}

/// The protocol variant (Algorithm 1 or 2).
impl Named for Variant {
    const NAMES: &'static [(Self, &'static str)] = &[
        (Variant::SharedMemory, "alg1-shared-memory"),
        (Variant::SharedMemoryThreads, "alg1-threads"),
        (Variant::NoSharedMemory, "alg2-no-shared-memory"),
    ];
}

/// How sender and receiver share the core (§V).
impl Named for Sharing {
    const NAMES: &'static [(Self, &'static str)] = &[
        (Sharing::HyperThreaded, "hyper-threaded"),
        (Sharing::TimeSliced, "time-sliced"),
    ];
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

impl Named for DefenseId {
    const NAMES: &'static [(Self, &'static str)] = &[
        (DefenseId::None, "none"),
        (DefenseId::PlCacheOriginal, "pl-cache-original"),
        (DefenseId::PlCacheFixed, "pl-cache-fixed"),
        (DefenseId::SharedPartition, "shared-partition"),
        (DefenseId::DawgPartition, "dawg-partition"),
        (DefenseId::RandomFill, "random-fill"),
        (DefenseId::IndexRandomization, "index-randomization"),
        (DefenseId::InvisibleSpeculation, "invisible-speculation"),
        (DefenseId::MissRateDetector, "miss-rate-detector"),
    ];
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
        match v.as_str() {
            Some("idle") => Ok(WorkloadId::Idle),
            Some("benign-noise") => Ok(WorkloadId::BenignNoise),
            Some(other) => Err(ScenarioError::parse(format!("unknown workload {other:?}"))),
            None => {
                let mut f = Fields::open(v, "workload")?;
                let name: &str = f.req("benchmark")?;
                f.finish()?;
                Ok(WorkloadId::Benchmark(name.to_string()))
            }
        }
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
            // `bits` sends the base string at least once.
            MessageSource::Random { bits, repeats } => bits * (*repeats).max(1),
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
        let (tag, mut m) = Fields::tagged(v, "message")?;
        Ok(match tag {
            "alternating" => MessageSource::Alternating { bits: m.req(tag)? },
            "constant" => {
                let mut c = m.object(tag)?;
                let (bit, bits) = (c.req("bit")?, c.req("bits")?);
                c.finish()?;
                MessageSource::Constant { bit, bits }
            }
            "random" => {
                let mut r = m.object(tag)?;
                let (bits, repeats) = (r.req("bits")?, r.opt("repeats")?.unwrap_or(1));
                r.finish()?;
                MessageSource::Random { bits, repeats }
            }
            "text" => MessageSource::Text(m.req::<&str>(tag)?.to_string()),
            "bits" => MessageSource::Bits(m.req(tag)?),
            other => {
                return Err(ScenarioError::parse(format!(
                    "unknown message {other:?} — expected alternating, constant, random, text \
                     or bits"
                )))
            }
        })
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
    let (tag, mut outer) = Fields::tagged(v, "noise")?;
    let mut f = outer.object(tag)?;
    let noise = match tag {
        "random-eviction" => NoiseModel::RandomEviction {
            lines: f.req("lines")?,
            gap_cycles: f.req("gap_cycles")?,
        },
        "periodic-burst" => NoiseModel::PeriodicBurst {
            period_cycles: f.req("period_cycles")?,
            burst_lines: f.req("burst_lines")?,
        },
        "bernoulli" => NoiseModel::Bernoulli {
            p: f.req("p")?,
            lines: f.req("lines")?,
        },
        other => return Err(unknown_noise(other)),
    };
    f.finish()?;
    Ok(noise)
}

fn unknown_noise(name: &str) -> ScenarioError {
    ScenarioError::parse(format!(
        "unknown noise model {name:?} — expected none, random-eviction, periodic-burst or bernoulli"
    ))
}

/// The hierarchy backend (the `hierarchy` axis): which L1↔L2
/// inclusion model the simulated machine runs. An unknown name's error
/// lists the valid ones.
impl Named for Inclusion {
    const NAMES: &'static [(Self, &'static str)] = &[
        (Inclusion::Inclusive, "inclusive"),
        (Inclusion::NonInclusive, "non-inclusive"),
        (Inclusion::BackInvalidate, "back-invalidate"),
    ];

    fn unknown(path: &str, name: &str) -> String {
        let names: Vec<&str> = Self::NAMES.iter().map(|&(_, n)| n).collect();
        let (last, rest) = names.split_last().expect("a non-empty table");
        format!(
            "unknown {path} {name:?} — expected {} or {last}",
            rest.join(", ")
        )
    }
}

/// The disclosure/comparison channel of an attack-flavored
/// experiment. `fr-mem` is the `clflush` flavour of Flush+Reload.
impl Named for Channel {
    const NAMES: &'static [(Self, &'static str)] = &[
        (Channel::FlushReload, "fr-mem"),
        (Channel::FlushReloadL1, "fr-l1"),
        (Channel::LruAlg1, "lru-alg1"),
        (Channel::LruAlg2, "lru-alg2"),
    ];
}

/// The Table I access sequence (§IV-C).
impl Named for SequenceKind {
    const NAMES: &'static [(Self, &'static str)] =
        &[(SequenceKind::Seq1, "seq1"), (SequenceKind::Seq2, "seq2")];
}

/// The Table I initial condition (§IV-C).
impl Named for InitCond {
    const NAMES: &'static [(Self, &'static str)] = &[
        (InitCond::Random, "random"),
        (InitCond::Sequential, "sequential"),
    ];
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
        channel: Channel,
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
        sequence: SequenceKind,
        /// Initial condition.
        init: InitCond,
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
        channel: Channel,
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
        channel: Channel,
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
                .with("sequence", sequence.name())
                .with("init", init.name())
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
        let (tag, mut outer) = Fields::tagged(v, "kind")?;
        let mut f = outer.object(tag)?;
        let kind = match tag {
            "covert" => ExperimentKind::Covert,
            "percent-ones" => ExperimentKind::PercentOnes {
                samples: f.req("samples")?,
            },
            "prime-probe" => ExperimentKind::PrimeProbe {
                samples: f.req("samples")?,
            },
            "flush-reload" => ExperimentKind::FlushReload {
                samples: f.req("samples")?,
                to_mem: f.opt("to_mem")?.unwrap_or(true),
            },
            "spectre" => ExperimentKind::Spectre {
                channel: f.named("channel")?,
                rounds: f.req("rounds")?,
                prefetcher: f.opt("prefetcher")?.unwrap_or(false),
            },
            "defense-eval" => ExperimentKind::DefenseEval {
                trials: f.req("trials")?,
            },
            "plru-eviction" => ExperimentKind::PlruEviction {
                sequence: f.named("sequence")?,
                init: f.named("init")?,
                iterations: f.req("iterations")?,
                trials: f.req("trials")?,
            },
            "latency-check" => ExperimentKind::LatencyCheck,
            "platform-spec" => ExperimentKind::PlatformSpec,
            "encoding-latency" => ExperimentKind::EncodingLatency {
                channel: f.named("channel")?,
            },
            "sender-miss-rates" => ExperimentKind::SenderMissRates {
                sender: f.req("sender")?,
                bits: f.req("bits")?,
            },
            "spectre-miss-rates" => ExperimentKind::SpectreMissRates {
                channel: f.named("channel")?,
            },
            "probe-histogram" => ExperimentKind::ProbeHistogram {
                samples: f.req("samples")?,
                single_load: f.opt("single_load")?.unwrap_or(false),
            },
            "policy-perf" => ExperimentKind::PolicyPerf {
                accesses: f.req("accesses")?,
            },
            "multi-set" => ExperimentKind::MultiSet {
                sets: f.req("sets")?,
                frames: f.req("frames")?,
            },
            "l2-channel" => ExperimentKind::L2Channel {
                samples: f.req("samples")?,
            },
            "inclusion-victim" => ExperimentKind::InclusionVictim {
                trials: f.req("trials")?,
            },
            other => return Err(ScenarioError::parse(format!("unknown kind {other:?}"))),
        };
        f.finish()?;
        Ok(kind)
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

/// A [`Fields`] read error, which names the key it is about.
impl From<String> for ScenarioError {
    fn from(msg: String) -> ScenarioError {
        ScenarioError::Parse(msg)
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
    /// ([`Inclusion::Inclusive`] by default — omitted from JSON so
    /// pre-hierarchy encodings are stable). The two other backends open
    /// the cross-core channels, and [`Inclusion::BackInvalidate`]
    /// also revokes the quantum fast-forward capability bit, demoting
    /// execution to the block interpreter.
    pub hierarchy: Inclusion,
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
                hierarchy: Inclusion::Inclusive,
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
    /// The `noise` and `hierarchy` axes are omitted at their defaults
    /// ([`NoiseModel::None`], [`Inclusion::Inclusive`]), so
    /// scenarios that predate those axes keep their exact historical
    /// byte encoding. Use [`Scenario::to_json_full`] when every axis
    /// should be spelled out.
    pub fn to_json(&self) -> Value {
        self.encode(false)
    }

    /// [`Scenario::to_json`] with *every* axis spelled out, including
    /// a default `noise` axis as the explicit string `"none"` and a
    /// default `hierarchy` axis as `"inclusive"`. This is what
    /// `lru-leak show` prints, so a grid listing never hides an axis
    /// behind its default.
    pub fn to_json_full(&self) -> Value {
        self.encode(true)
    }

    /// The one encoder behind [`Scenario::to_json`] (`full = false`)
    /// and [`Scenario::to_json_full`].
    fn encode(&self, full: bool) -> Value {
        let mut v = Value::obj()
            .with("platform", self.platform.name())
            .with("policy", self.policy.name())
            .with("variant", self.variant.name())
            .with("sharing", self.sharing.name())
            .with("defense", self.defense.name())
            .with("workload", self.workload.to_json());
        // Non-default axes come first and spelled-out defaults after
        // them: `ResultCache::key` hashes the full encoding, so this
        // order is part of every cache key.
        let mut axes = [
            ("noise", noise_to_json(&self.noise), self.noise.is_none()),
            (
                "hierarchy",
                Value::from(self.hierarchy.name()),
                self.hierarchy == Inclusion::Inclusive,
            ),
        ];
        axes.sort_by_key(|&(_, _, default)| default);
        for (key, value, default) in axes {
            if full || !default {
                v = v.with(key, value);
            }
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
    /// [`ScenarioBuilder::build`] check. The read is strict
    /// ([`Fields`]): every key must belong to the shape it sits in.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed JSON: a missing or
    /// wrong-typed field, or an unknown or duplicated key, named by its
    /// full path.
    pub fn from_json(v: &Value) -> Result<ScenarioBuilder, ScenarioError> {
        let mut f = Fields::open(v, "")?;
        let inner = Scenario {
            platform: f.named("platform")?,
            policy: f.named("policy")?,
            variant: f.named("variant")?,
            sharing: f.named("sharing")?,
            defense: f.named("defense")?,
            workload: WorkloadId::from_json(f.req("workload")?)?,
            noise: f
                .opt("noise")?
                .map_or(Ok(NoiseModel::None), noise_from_json)?,
            hierarchy: f.opt_named("hierarchy")?.unwrap_or(Inclusion::Inclusive),
            params: {
                let mut p = f.object("params")?;
                let params = ChannelParams {
                    d: p.req("d")?,
                    target_set: p.req("target_set")?,
                    ts: p.req("ts")?,
                    tr: p.req("tr")?,
                };
                p.finish()?;
                params
            },
            message: MessageSource::from_json(f.req("message")?)?,
            kind: ExperimentKind::from_json(f.req("kind")?)?,
            trials: f.opt("trials")?.unwrap_or(1),
            seed: f.req("seed")?,
        };
        f.finish()?;
        Ok(ScenarioBuilder { inner })
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
    pub fn hierarchy(mut self, hierarchy: Inclusion) -> Self {
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
            ExperimentKind::MultiSet { sets, frames } => {
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
                if s.message.text().is_none() && *frames == 0 {
                    return Err(ScenarioError::incompatible("multi-set needs frames >= 1"));
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
        // Every kind whose sender transmits the message needs at
        // least one bit of it to send.
        let sends_message = match s.kind {
            ExperimentKind::Covert
            | ExperimentKind::PrimeProbe { .. }
            | ExperimentKind::FlushReload { .. }
            | ExperimentKind::L2Channel { .. } => true,
            // Other messages leave multi-set to send random frames.
            ExperimentKind::MultiSet { .. } => s.message.text().is_some(),
            _ => false,
        };
        if sends_message && s.message.is_empty() {
            return Err(ScenarioError::incompatible(format!(
                "{} needs a non-empty message",
                s.kind.tag()
            )));
        }
        if let Some(what) = s.kind.count_over_cap() {
            return Err(ScenarioError::over_cap(what));
        }
        if s.hierarchy != Inclusion::Inclusive
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
        if s.hierarchy != Inclusion::Inclusive
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
                channel: Channel::LruAlg2,
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
                    channel: Channel::FlushReload,
                    rounds: 3,
                    prefetcher: true,
                },
                MessageSource::Text("s".into()),
            ),
            (
                ExperimentKind::PlruEviction {
                    sequence: SequenceKind::Seq2,
                    init: InitCond::Sequential,
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
                    channel: Channel::LruAlg1,
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
                    channel: Channel::LruAlg2,
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
                    channel: Channel::LruAlg2,
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
                    sequence: SequenceKind::Seq1,
                    init: InitCond::Random,
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

    /// Parses the default scenario's JSON with `key` set to the JSON
    /// text `value` (removed when `value` is empty), without
    /// validating. A `key` written `+key` adds a second `key` instead.
    fn parse_with(key: &str, value: &str) -> Result<Scenario, ScenarioError> {
        let Value::Obj(mut pairs) = Scenario::builder().build().unwrap().to_json() else {
            unreachable!("to_json builds an object")
        };
        let key = key.strip_prefix('+').unwrap_or_else(|| {
            pairs.retain(|(k, _)| k != key);
            key
        });
        if !value.is_empty() {
            pairs.push((key.to_string(), Value::parse(value).unwrap()));
        }
        ScenarioBuilder::from_json(&Value::Obj(pairs)).map(|b| b.inner)
    }

    /// `parse_with(key, value)` is a parse error that names `field`.
    fn rejects(key: &str, value: &str, field: &str) {
        match parse_with(key, value) {
            Err(ScenarioError::Parse(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("{key}: {value} should be a parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_wrong_typed_trials_is_a_parse_error() {
        assert_eq!(parse_with("trials", "").unwrap().trials, 1);
        rejects("trials", "\"many\"", "trials");
        rejects("trials", "-3", "trials");
    }

    #[test]
    fn a_wrong_typed_random_repeats_is_a_parse_error() {
        let absent = parse_with("message", r#"{"random":{"bits":4}}"#).unwrap();
        assert_eq!(
            absent.message,
            MessageSource::Random {
                bits: 4,
                repeats: 1
            }
        );
        rejects(
            "message",
            r#"{"random":{"bits":4,"repeats":"lots"}}"#,
            "repeats",
        );
    }

    #[test]
    fn a_wrong_typed_flush_reload_to_mem_is_a_parse_error() {
        let absent = parse_with("kind", r#"{"flush-reload":{"samples":5}}"#).unwrap();
        let to_mem = ExperimentKind::FlushReload {
            samples: 5,
            to_mem: true,
        };
        assert_eq!(absent.kind, to_mem);
        rejects(
            "kind",
            r#"{"flush-reload":{"samples":5,"to_mem":"no"}}"#,
            "to_mem",
        );
    }

    #[test]
    fn a_wrong_typed_spectre_prefetcher_is_a_parse_error() {
        let kind = r#"{"spectre":{"channel":"lru-alg1","rounds":2}}"#;
        let absent = parse_with("kind", kind).unwrap();
        assert!(matches!(
            absent.kind,
            ExperimentKind::Spectre {
                prefetcher: false,
                ..
            }
        ));
        let bad = kind.replace("2}", "2,\"prefetcher\":1}");
        rejects("kind", &bad, "prefetcher");
    }

    #[test]
    fn a_wrong_typed_probe_histogram_single_load_is_a_parse_error() {
        let kind = r#"{"probe-histogram":{"samples":3}}"#;
        let absent = parse_with("kind", kind).unwrap();
        let default = ExperimentKind::ProbeHistogram {
            samples: 3,
            single_load: false,
        };
        assert_eq!(absent.kind, default);
        rejects(
            "kind",
            &kind.replace("3}", "3,\"single_load\":\"x\"}"),
            "single_load",
        );
    }

    #[test]
    fn unknown_duplicated_and_stray_keys_are_parse_errors() {
        rejects(
            "kind",
            r#"{"flush-reload":{"samples":4,"to_mme":false}}"#,
            r#"unknown key "kind.flush-reload.to_mme""#,
        );
        rejects("kind", r#"{"covert":{"samples":9}}"#, "kind.covert.samples");
        rejects("trails", "50", r#"unknown key "trails""#);
        rejects("noize", r#"{"bernoulli":{"p":0.5,"lines":4}}"#, "noize");
        rejects(
            "noise",
            r#"{"bernoulli":{"p":0.5,"lines":4,"burst_lines":2}}"#,
            "noise.bernoulli.burst_lines",
        );
        rejects(
            "message",
            r#"{"alternating":16,"random":{"bits":4}}"#,
            r#""random""#,
        );
        rejects(
            "message",
            r#"{"random":{"bits":4,"repeat":2}}"#,
            "message.random.repeat",
        );
        rejects("+trials", "50", r#"duplicate key "trials""#);
        rejects("+workload", r#""idle""#, r#"duplicate key "workload""#);
        rejects(
            "params",
            r#"{"d":8,"target_set":0,"ts":6000,"tr":600,"dd":3}"#,
            "params.dd",
        );
        rejects(
            "params",
            r#"{"d":8,"target_set":0,"ts":6000,"tr":600,"d":3}"#,
            r#"duplicate key "params.d""#,
        );
        rejects("workload", r#"{"benchmark":"mcf","x":1}"#, "workload.x");
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
            Inclusion::Inclusive
        );
    }

    /// Checks `T`'s table through the scenario field it is read at:
    /// names are distinct; every value and its name map to each
    /// other; `set` with each value builds a scenario whose `to_json`
    /// and `to_json_full` both parse back to it; and an unknown name
    /// at `path` is an error naming the path.
    fn check_table<T: Named + fmt::Debug>(path: &str, set: impl Fn(T) -> ScenarioBuilder) {
        let mut names: Vec<&str> = T::NAMES.iter().map(|&(_, n)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), T::NAMES.len(), "{path}: a name repeats");
        for &(v, name) in T::NAMES {
            assert_eq!((v.name(), T::parse(name)), (name, Some(v)), "{path}");
            let s = set(v)
                .build()
                .unwrap_or_else(|e| panic!("{path} {name}: {e}"));
            for text in [s.to_json().to_string(), s.to_json_full().to_string()] {
                assert_eq!(Scenario::from_json_str(&text).unwrap(), s, "{path} {name}");
            }
        }
        let (first, _) = T::NAMES[0];
        let key = path.rsplit('.').next().unwrap();
        let field = format!("{key:?}:{:?}", first.name());
        let full = set(first).build().unwrap().to_json_full().to_string();
        assert!(full.contains(&field), "{path}: {field} not in {full}");
        let bad = full.replace(&field, &format!("{key:?}:\"no-such-name\""));
        match Scenario::from_json_str(&bad) {
            Err(ScenarioError::Parse(msg)) => assert!(
                msg.starts_with(&format!("unknown {path} \"no-such-name\"")),
                "{path}: {msg}"
            ),
            other => panic!("{path}: an unknown name parsed as {other:?}"),
        }
    }

    #[test]
    fn every_name_table_round_trips_and_rejects_unknown_names() {
        let b = Scenario::builder;
        check_table("platform", |p| b().platform(p));
        check_table("policy", |p| b().policy(p));
        check_table("variant", |v| b().variant(v));
        check_table("sharing", |s| b().sharing(s));
        check_table("defense", |d| b().defense(d));
        check_table("hierarchy", |h| b().hierarchy(h));
        check_table("kind.spectre.channel", |channel| {
            b().message(MessageSource::Text("s".into()))
                .kind(ExperimentKind::Spectre {
                    channel,
                    rounds: 1,
                    prefetcher: false,
                })
        });
        let plru = |sequence, init| {
            b().kind(ExperimentKind::PlruEviction {
                sequence,
                init,
                iterations: 1,
                trials: 1,
            })
        };
        check_table("kind.plru-eviction.sequence", |s| plru(s, InitCond::Random));
        check_table("kind.plru-eviction.init", |i| plru(SequenceKind::Seq1, i));
        // The policy table covers every policy the simulator has.
        assert!(PolicyKind::all().eq(PolicyKind::ALL));
        // The hierarchy axis lists the valid names in its error.
        match parse_with("hierarchy", r#""shared""#) {
            Err(ScenarioError::Parse(msg)) => assert_eq!(
                msg,
                r#"unknown hierarchy "shared" — expected inclusive, non-inclusive or back-invalidate"#
            ),
            other => panic!("an unknown hierarchy parsed as {other:?}"),
        }
    }

    #[test]
    fn hierarchy_axis_is_gated_by_kind() {
        let err = Scenario::builder()
            .hierarchy(Inclusion::BackInvalidate)
            .kind(ExperimentKind::LatencyCheck)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Incompatible(_)));
        assert!(err.to_string().contains("back-invalidate"));
        // The threaded kinds accept every backend.
        for h in Inclusion::all() {
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
