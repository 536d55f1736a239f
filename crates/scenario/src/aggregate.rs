//! Streaming reduction of trial metrics: the [`Reducer`] trait and
//! the [`Aggregate`] selector.
//!
//! The buffered shape — "collect every trial's metrics, then fold" —
//! costs `O(trials)` memory per grid cell and caps how far a sweep can
//! scale. A [`Reducer`] inverts that: each metrics tree
//! [`Scenario::run_trial`] returns is folded into an accumulator the
//! moment it is produced, partial accumulators merge in fixed chunk
//! order (see [`lru_channel::trials::run_trials_fold_ctrl`]), and only
//! the finished summary survives. A million-trial sweep reduces to a
//! handful of counters while staying bit-identical across worker
//! counts.
//!
//! [`CollectMetrics`] keeps every trial's tree and finishes with the
//! `Value::Arr` that [`Scenario::run`] returns. [`ScalarStats`] and
//! [`KeyHistogram`] are the constant-memory reducers large sweeps
//! want; [`Aggregate::for_kind`] picks a sensible one per
//! [`ExperimentKind`].

use lru_channel::trials::{FoldError, RunCtrl};

use crate::json::Value;
use crate::spec::{ExperimentKind, Scenario};

/// A streaming reduction over trial outcomes.
///
/// The driver folds trials of one chunk in ascending index order
/// into a fresh [`Reducer::init`] accumulator and merges chunk
/// accumulators in ascending chunk order, so any reducer — even one
/// with non-associative floating-point state — produces the same
/// bytes on 1, 4 or 64 workers.
pub trait Reducer: Sync {
    /// Per-chunk accumulator state.
    type Acc: Send;
    /// A fresh, empty accumulator.
    fn init(&self) -> Self::Acc;
    /// Folds trial `index`'s metrics tree into `acc`.
    fn fold(&self, acc: &mut Self::Acc, index: usize, metrics: Value);
    /// Merges a later chunk's accumulator into an earlier one.
    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc);
    /// Renders the final accumulator as a metrics tree.
    fn finish(&self, acc: Self::Acc) -> Value;
}

/// The compatibility reducer: keeps every trial's metrics tree and
/// finishes with the same `Value::Arr` the buffered path built.
/// Memory is `O(trials)` — use it when every per-trial tree matters,
/// not for large sweeps.
pub struct CollectMetrics;

impl Reducer for CollectMetrics {
    type Acc = Vec<Value>;

    fn init(&self) -> Vec<Value> {
        Vec::new()
    }

    fn fold(&self, acc: &mut Vec<Value>, _index: usize, metrics: Value) {
        acc.push(metrics);
    }

    fn merge(&self, acc: &mut Vec<Value>, mut other: Vec<Value>) {
        acc.append(&mut other);
    }

    fn finish(&self, acc: Vec<Value>) -> Value {
        Value::Arr(acc)
    }
}

/// Running statistics of one numeric metric key.
#[derive(Debug, Clone, Copy)]
pub struct KeyStat {
    /// Trials in which the key was present.
    pub count: u64,
    /// Sum of the observed values (chunk-ordered, deterministic).
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl KeyStat {
    fn new() -> KeyStat {
        KeyStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    fn absorb(&mut self, other: KeyStat) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn to_value(self) -> Value {
        let mut v = Value::obj().with("count", self.count);
        if self.count > 0 {
            v = v
                .with("mean", self.sum / self.count as f64)
                .with("min", self.min)
                .with("max", self.max)
                .with("sum", self.sum);
        }
        v
    }
}

/// Streams per-key `count / mean / min / max` over the named numeric
/// metric keys — the constant-memory replacement for collecting every
/// trial of an error-rate or latency sweep.
pub struct ScalarStats {
    /// Metric keys to track (missing keys are skipped per trial).
    pub keys: &'static [&'static str],
}

impl ScalarStats {
    /// Stats over `keys`.
    pub fn new(keys: &'static [&'static str]) -> ScalarStats {
        ScalarStats { keys }
    }
}

impl Reducer for ScalarStats {
    type Acc = Vec<KeyStat>;

    fn init(&self) -> Vec<KeyStat> {
        self.keys.iter().map(|_| KeyStat::new()).collect()
    }

    fn fold(&self, acc: &mut Vec<KeyStat>, _index: usize, metrics: Value) {
        for (stat, key) in acc.iter_mut().zip(self.keys) {
            if let Some(x) = metrics.get(key).and_then(Value::as_f64) {
                stat.add(x);
            }
        }
    }

    fn merge(&self, acc: &mut Vec<KeyStat>, other: Vec<KeyStat>) {
        for (stat, o) in acc.iter_mut().zip(other) {
            stat.absorb(o);
        }
    }

    fn finish(&self, acc: Vec<KeyStat>) -> Value {
        let mut per_key = Value::obj();
        for (stat, key) in acc.into_iter().zip(self.keys) {
            per_key = per_key.with(key, stat.to_value());
        }
        Value::obj()
            .with("aggregate", "stats")
            .with("keys", per_key)
    }
}

/// Streams error-rate statistics plus a Shannon channel-capacity
/// estimate ([`crate::capacity::bsc_capacity`] of the mean measured
/// error rate, scaled by the mean nominal rate). Constant memory:
/// two [`KeyStat`]s per accumulator. This is the default summary for
/// covert scenarios with a noise axis — the question there is "how
/// much information survives the interference", not just the raw
/// error rate.
pub struct CapacityStats;

impl Reducer for CapacityStats {
    type Acc = [KeyStat; 2];

    fn init(&self) -> [KeyStat; 2] {
        [KeyStat::new(), KeyStat::new()]
    }

    fn fold(&self, acc: &mut [KeyStat; 2], _index: usize, metrics: Value) {
        for (stat, key) in acc.iter_mut().zip(["error_rate", "rate_bps"]) {
            if let Some(x) = metrics.get(key).and_then(Value::as_f64) {
                stat.add(x);
            }
        }
    }

    fn merge(&self, acc: &mut [KeyStat; 2], other: [KeyStat; 2]) {
        let [e, r] = other;
        acc[0].absorb(e);
        acc[1].absorb(r);
    }

    fn finish(&self, acc: [KeyStat; 2]) -> Value {
        let [errors, rates] = acc;
        let mut v = Value::obj().with("aggregate", "capacity");
        if errors.count > 0 {
            let mean_err = errors.sum / errors.count as f64;
            let capacity = crate::capacity::bsc_capacity(mean_err);
            v = v
                .with("error_rate", errors.to_value())
                .with("capacity_bits_per_use", capacity);
            if rates.count > 0 {
                let mean_rate = rates.sum / rates.count as f64;
                v = v
                    .with("mean_rate_bps", mean_rate)
                    .with("capacity_bps", capacity * mean_rate);
            }
        } else {
            v = v.with("error_rate", errors.to_value());
        }
        v
    }
}

/// Streams a fixed-bin histogram of one `[0, 1]`-valued metric key
/// (percent-of-ones fractions, error rates) plus its running stats.
/// Integer bin counts merge associatively; the stats follow the
/// deterministic chunk order.
pub struct KeyHistogram {
    /// The metric key to bin.
    pub key: &'static str,
    /// Number of equal-width bins over `[0, 1]`.
    pub bins: usize,
}

/// Accumulator of [`KeyHistogram`].
pub struct HistogramAcc {
    counts: Vec<u64>,
    stat: KeyStat,
}

impl Reducer for KeyHistogram {
    type Acc = HistogramAcc;

    fn init(&self) -> HistogramAcc {
        HistogramAcc {
            counts: vec![0; self.bins.max(1)],
            stat: KeyStat::new(),
        }
    }

    fn fold(&self, acc: &mut HistogramAcc, _index: usize, metrics: Value) {
        let Some(x) = metrics.get(self.key).and_then(Value::as_f64) else {
            return;
        };
        acc.stat.add(x);
        let bins = acc.counts.len();
        let bin = ((x.clamp(0.0, 1.0) * bins as f64) as usize).min(bins - 1);
        acc.counts[bin] += 1;
    }

    fn merge(&self, acc: &mut HistogramAcc, other: HistogramAcc) {
        for (a, b) in acc.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
        acc.stat.absorb(other.stat);
    }

    fn finish(&self, acc: HistogramAcc) -> Value {
        let bins: Vec<Value> = acc.counts.iter().map(|&c| Value::from(c)).collect();
        Value::obj()
            .with("aggregate", "histogram")
            .with("key", self.key)
            .with("bins", Value::Arr(bins))
            .with("stats", acc.stat.to_value())
    }
}

/// Which streaming reduction summarizes a scenario's trials —
/// the declarative face of the [`Reducer`] implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Keep every per-trial metrics tree (`O(trials)` memory; the
    /// buffered-compatible shape).
    Collect,
    /// Constant-memory per-key statistics.
    Stats(&'static [&'static str]),
    /// Constant-memory histogram of one `[0, 1]` metric.
    Histogram {
        /// The metric key to bin.
        key: &'static str,
        /// Number of equal-width bins.
        bins: usize,
    },
    /// Constant-memory error-rate stats plus the Shannon
    /// channel-capacity bound ([`CapacityStats`]).
    Capacity,
}

impl Aggregate {
    /// The default summary aggregate for an experiment kind: the
    /// paper's own per-kind headline metrics (error rates for covert
    /// runs, a percent-of-ones histogram for time-sliced grids,
    /// latency stats for the substrate checks).
    ///
    /// Two kinds whose outcomes are nested structures with no
    /// top-level scalars — [`ExperimentKind::PlatformSpec`] (a
    /// seed-independent config dump) and
    /// [`ExperimentKind::PolicyPerf`] (per-policy arrays) — fall back
    /// to [`Aggregate::Collect`], which **buffers every per-trial
    /// tree** (`O(trials)` memory). Neither is a many-trial sweep in
    /// practice; pass an explicit [`Reducer`] if you need to scale
    /// one anyway.
    pub fn for_kind(kind: &ExperimentKind) -> Aggregate {
        match kind {
            ExperimentKind::Covert => {
                Aggregate::Stats(&["error_rate", "rate_bps", "effective_bps"])
            }
            ExperimentKind::PercentOnes { .. } => Aggregate::Histogram {
                key: "fraction",
                bins: 20,
            },
            ExperimentKind::PrimeProbe { .. } => {
                Aggregate::Stats(&["error_rate", "miss_sweep_fraction"])
            }
            ExperimentKind::FlushReload { .. } => Aggregate::Stats(&["error_rate"]),
            ExperimentKind::Spectre { .. } => Aggregate::Stats(&["accuracy"]),
            ExperimentKind::PlruEviction { .. } => Aggregate::Stats(&["steady_state"]),
            ExperimentKind::LatencyCheck => Aggregate::Stats(&["l1_measured", "l2_measured"]),
            ExperimentKind::EncodingLatency { .. } => Aggregate::Stats(&["cycles"]),
            ExperimentKind::SenderMissRates { .. } | ExperimentKind::SpectreMissRates { .. } => {
                Aggregate::Stats(&["l1d_miss_rate", "l2_miss_rate", "llc_miss_rate"])
            }
            ExperimentKind::ProbeHistogram { .. } => {
                Aggregate::Stats(&["hit_mean", "miss_mean", "overlap"])
            }
            ExperimentKind::MultiSet { .. } => Aggregate::Stats(&["accuracy", "rate_bps"]),
            ExperimentKind::L2Channel { .. } => Aggregate::Stats(&["error_rate"]),
            ExperimentKind::InclusionVictim { .. } => {
                Aggregate::Stats(&["signal_rate", "reload_cycles_mean"])
            }
            // Defense outcomes differ per DefenseId but every leak
            // metric is a top-level scalar; stats over the union
            // stay constant-memory (absent keys count 0).
            ExperimentKind::DefenseEval { .. } => Aggregate::Stats(&[
                "victim_flip_rate",
                "distinguishability",
                "hit_channel_flip_rate",
                "miss_channel_fill_rate",
                "baseline_eviction_rate",
                "eviction_rate",
            ]),
            ExperimentKind::PlatformSpec | ExperimentKind::PolicyPerf { .. } => Aggregate::Collect,
        }
    }

    /// The default summary for a whole *scenario*: like
    /// [`Aggregate::for_kind`], but a covert scenario with a noise
    /// axis gets the [`CapacityStats`] capacity estimate — the
    /// number the noise sweeps are run to learn.
    pub fn for_scenario(scenario: &Scenario) -> Aggregate {
        if scenario.kind == ExperimentKind::Covert && !scenario.noise.is_none() {
            return Aggregate::Capacity;
        }
        Aggregate::for_kind(&scenario.kind)
    }

    /// Runs `scenario`'s trials through this aggregate's reducer,
    /// under `ctrl`'s workers, cancel token, progress callback and
    /// lockstep mode.
    ///
    /// # Errors
    ///
    /// See [`Scenario::run_reduced`].
    pub fn reduce(&self, scenario: &Scenario, ctrl: &RunCtrl) -> Result<Value, FoldError> {
        match *self {
            Aggregate::Collect => scenario.run_reduced(&CollectMetrics, ctrl),
            Aggregate::Stats(keys) => scenario.run_reduced(&ScalarStats::new(keys), ctrl),
            Aggregate::Histogram { key, bins } => {
                scenario.run_reduced(&KeyHistogram { key, bins }, ctrl)
            }
            Aggregate::Capacity => scenario.run_reduced(&CapacityStats, ctrl),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(err: f64) -> Value {
        Value::obj().with("error_rate", err)
    }

    #[test]
    fn scalar_stats_track_count_mean_min_max() {
        let r = ScalarStats::new(&["error_rate", "absent"]);
        let mut acc = r.init();
        for (i, e) in [0.25, 0.75, 0.5].into_iter().enumerate() {
            r.fold(&mut acc, i, metrics(e));
        }
        let v = r.finish(acc);
        let stats = v.get("keys").and_then(|k| k.get("error_rate")).unwrap();
        assert_eq!(stats.get("count").and_then(Value::as_u64), Some(3));
        assert_eq!(stats.get("mean").and_then(Value::as_f64), Some(0.5));
        assert_eq!(stats.get("min").and_then(Value::as_f64), Some(0.25));
        assert_eq!(stats.get("max").and_then(Value::as_f64), Some(0.75));
        let absent = v.get("keys").and_then(|k| k.get("absent")).unwrap();
        assert_eq!(absent.get("count").and_then(Value::as_u64), Some(0));
        assert!(absent.get("mean").is_none());
    }

    #[test]
    fn histogram_bins_cover_the_unit_interval() {
        let r = KeyHistogram {
            key: "error_rate",
            bins: 4,
        };
        let mut a = r.init();
        let mut b = r.init();
        for (i, e) in [0.0, 0.1, 0.6].into_iter().enumerate() {
            r.fold(&mut a, i, metrics(e));
        }
        r.fold(&mut b, 3, metrics(1.0)); // clamps into the last bin
        r.merge(&mut a, b);
        let v = r.finish(a);
        let bins: Vec<u64> = v
            .get("bins")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(bins, vec![2, 0, 1, 1]);
        let stats = v.get("stats").unwrap();
        assert_eq!(stats.get("count").and_then(Value::as_u64), Some(4));
    }

    #[test]
    fn collect_reducer_rebuilds_the_buffered_array() {
        let r = CollectMetrics;
        let mut acc = r.init();
        r.fold(&mut acc, 0, metrics(0.1));
        let mut tail = r.init();
        r.fold(&mut tail, 1, metrics(0.2));
        r.merge(&mut acc, tail);
        let v = r.finish(acc);
        assert_eq!(v.as_arr().map(<[Value]>::len), Some(2));
    }

    #[test]
    fn every_kind_has_a_default_aggregate() {
        // The headline kinds stream; only heterogeneous ones collect.
        assert_eq!(
            Aggregate::for_kind(&ExperimentKind::Covert),
            Aggregate::Stats(&["error_rate", "rate_bps", "effective_bps"])
        );
        assert!(matches!(
            Aggregate::for_kind(&ExperimentKind::PercentOnes { samples: 1 }),
            Aggregate::Histogram { .. }
        ));
        assert!(matches!(
            Aggregate::for_kind(&ExperimentKind::DefenseEval { trials: 1 }),
            Aggregate::Stats(_)
        ));
        assert_eq!(
            Aggregate::for_kind(&ExperimentKind::PlatformSpec),
            Aggregate::Collect
        );
    }
}
