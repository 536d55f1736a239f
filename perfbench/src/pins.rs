//! The correctness gate: pinned content hashes of every output the
//! benchmark checks, and the counts that must repeat exactly.
//!
//! `pins.json` holds, for the commit it was made at:
//! * `artifacts`: `content_hash64` of each artifact's
//!   `lru-leak run <id> --json` bytes at default trials and seed;
//! * `registry`: grid cells and trials (see [`trials`]) per experiment
//!   kind (covert split by lockstep eligibility) and the count of cells
//!   per lockstep-ineligibility reason;
//! * `service`: the service request pool, in order, as
//!   `[label, body hash, grid cells]`.
//!
//! `perfbench --pin` rewrites it. A benchmark run compares every
//! output byte and count against it before it reports a metric.

use std::collections::BTreeMap;

use scenario::registry::{Artifact, RunOpts};
use scenario::{content_hash64, ExperimentKind, LockstepIneligible, Scenario, Value};

const PINS_JSON: &str = include_str!("../pins.json");

/// Every lockstep-ineligibility reason, by the name metrics use.
pub const INELIGIBLE_REASONS: [&str; 5] =
    ["kind", "sharing", "noise", "hierarchy", "way-predictor"];

fn reason_name(r: LockstepIneligible) -> &'static str {
    match r {
        LockstepIneligible::Kind => "kind",
        LockstepIneligible::Sharing => "sharing",
        LockstepIneligible::Noise => "noise",
        LockstepIneligible::Hierarchy(_) => "hierarchy",
        LockstepIneligible::WayPredictor => "way-predictor",
    }
}

/// The kind a cell's time is attributed to: the experiment tag, with
/// covert cells split into the lockstep and the scalar path.
pub fn kind_key(sc: &Scenario) -> String {
    match (&sc.kind, sc.lockstep_spec().is_ok()) {
        (ExperimentKind::Covert, true) => "covert.lockstep".into(),
        (ExperimentKind::Covert, false) => "covert.scalar".into(),
        (kind, _) => kind.tag().into(),
    }
}

/// The trials a cell runs: `Scenario::trials` times the repetitions
/// the kind takes per trial (covert: message bits; otherwise its
/// samples, rounds, trials, frames, accesses or bits).
pub fn trials(sc: &Scenario) -> u64 {
    let per_trial = match &sc.kind {
        ExperimentKind::Covert => sc.message.len(),
        ExperimentKind::PercentOnes { samples }
        | ExperimentKind::PrimeProbe { samples }
        | ExperimentKind::FlushReload { samples, .. }
        | ExperimentKind::ProbeHistogram { samples, .. }
        | ExperimentKind::L2Channel { samples } => *samples,
        ExperimentKind::Spectre { rounds, .. } => *rounds,
        ExperimentKind::DefenseEval { trials }
        | ExperimentKind::PlruEviction { trials, .. }
        | ExperimentKind::InclusionVictim { trials } => *trials,
        ExperimentKind::MultiSet { frames, .. } => *frames,
        ExperimentKind::PolicyPerf { accesses } => *accesses as usize,
        ExperimentKind::SenderMissRates { bits, .. } => *bits,
        ExperimentKind::LatencyCheck
        | ExperimentKind::PlatformSpec
        | ExperimentKind::EncodingLatency { .. }
        | ExperimentKind::SpectreMissRates { .. } => 1,
    };
    (sc.trials.max(1) * per_trial.max(1)) as u64
}

/// Counts over the registry's grids that must repeat exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryCounts {
    pub cells: BTreeMap<String, u64>,
    pub trials: BTreeMap<String, u64>,
    pub ineligible: BTreeMap<String, u64>,
}

impl RegistryCounts {
    pub fn measure<'a>(grids: impl IntoIterator<Item = &'a [Scenario]>) -> RegistryCounts {
        let mut c = RegistryCounts::default();
        for r in INELIGIBLE_REASONS {
            c.ineligible.insert(r.into(), 0);
        }
        for sc in grids.into_iter().flatten() {
            let k = kind_key(sc);
            *c.cells.entry(k.clone()).or_insert(0) += 1;
            *c.trials.entry(k).or_insert(0) += trials(sc);
            if let Err(r) = sc.lockstep_spec() {
                *c.ineligible
                    .get_mut(reason_name(r))
                    .expect("every reason is listed") += 1;
            }
        }
        c
    }

    fn to_json(&self) -> Value {
        let map = |m: &BTreeMap<String, u64>| {
            m.iter()
                .fold(Value::obj(), |v, (k, n)| v.with(k.as_str(), *n))
        };
        Value::obj()
            .with("cells", map(&self.cells))
            .with("trials", map(&self.trials))
            .with("ineligible", map(&self.ineligible))
    }

    fn from_json(v: &Value) -> Result<RegistryCounts, String> {
        let map = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            match v.get(key) {
                Some(Value::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, n)| {
                        n.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| format!("registry.{key}.{k} is not a count"))
                    })
                    .collect(),
                _ => Err(format!("registry.{key} is missing")),
            }
        };
        Ok(RegistryCounts {
            cells: map("cells")?,
            trials: map("trials")?,
            ineligible: map("ineligible")?,
        })
    }

    /// Human-readable differences against `pinned` (empty when equal).
    pub fn drift(&self, pinned: &RegistryCounts) -> Vec<String> {
        let mut out = Vec::new();
        for (what, got, want) in [
            ("cells", &self.cells, &pinned.cells),
            ("trials", &self.trials, &pinned.trials),
            ("ineligible", &self.ineligible, &pinned.ineligible),
        ] {
            let keys: std::collections::BTreeSet<&String> = got.keys().chain(want.keys()).collect();
            for k in keys {
                let (g, w) = (got.get(k).copied(), want.get(k).copied());
                if g != w {
                    out.push(format!("registry {what}.{k}: pinned {w:?}, measured {g:?}"));
                }
            }
        }
        out
    }
}

/// One pinned service request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServicePin {
    pub label: String,
    pub hash: u64,
    pub cells: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pins {
    pub artifacts: BTreeMap<String, u64>,
    pub registry: RegistryCounts,
    pub service: Vec<ServicePin>,
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

fn parse_hex(v: &Value, what: &str) -> Result<u64, String> {
    v.as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("{what} is not a hex hash"))
}

impl Pins {
    /// The pins compiled into this binary.
    pub fn load() -> Result<Pins, String> {
        Pins::parse(PINS_JSON)
    }

    pub fn parse(text: &str) -> Result<Pins, String> {
        let v = Value::parse(text).map_err(|e| format!("pins.json: {e}"))?;
        let artifacts = match v.get("artifacts") {
            Some(Value::Obj(pairs)) => pairs
                .iter()
                .map(|(id, h)| Ok((id.clone(), parse_hex(h, id)?)))
                .collect::<Result<_, String>>()?,
            _ => return Err("pins.json: no artifacts".into()),
        };
        let registry =
            RegistryCounts::from_json(v.get("registry").ok_or("pins.json: no registry")?)?;
        let service = v
            .get("service")
            .and_then(Value::as_arr)
            .ok_or("pins.json: no service pool")?
            .iter()
            .map(|row| {
                let row = row.as_arr().filter(|r| r.len() == 3);
                let row = row.ok_or("pins.json: a service row is not [label, hash, cells]")?;
                let label = row[0].as_str().ok_or("service label")?.to_string();
                Ok(ServicePin {
                    hash: parse_hex(&row[1], &label)?,
                    cells: row[2].as_u64().ok_or("service cells")?,
                    label,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Pins {
            artifacts,
            registry,
            service,
        })
    }

    pub fn to_json(&self) -> Value {
        let artifacts = self
            .artifacts
            .iter()
            .fold(Value::obj(), |v, (id, h)| v.with(id.as_str(), hex(*h)));
        let service: Vec<Value> = self
            .service
            .iter()
            .map(|p| {
                Value::Arr(vec![
                    p.label.as_str().into(),
                    hex(p.hash).into(),
                    p.cells.into(),
                ])
            })
            .collect();
        Value::obj()
            .with("artifacts", artifacts)
            .with("registry", self.registry.to_json())
            .with("service", Value::Arr(service))
    }

    /// The gate: whether `bytes` are exactly the pinned output of
    /// artifact `id`.
    pub fn artifact_ok(&self, id: &str, bytes: &str) -> bool {
        self.artifacts.get(id) == Some(&content_hash64(bytes.as_bytes()))
    }
}

/// The bytes `lru-leak run <id> --json` prints for these outcomes.
pub fn artifact_bytes(
    a: &Artifact,
    opts: &RunOpts,
    grid: &[Scenario],
    outcomes: &[Value],
) -> String {
    format!(
        "{}\n",
        a.render_report(opts, grid, outcomes).metrics.pretty()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::registry;

    #[test]
    fn pins_round_trip_through_json() {
        let pins = Pins::load().unwrap();
        assert_eq!(pins.artifacts.len(), registry::ids().len());
        assert_eq!(Pins::parse(&pins.to_json().to_string()).unwrap(), pins);
    }

    #[test]
    fn the_gate_fails_when_one_byte_flips() {
        let pins = Pins::load().unwrap();
        let a = registry::get("fig5").unwrap();
        let opts = RunOpts::default();
        let grid = a.scenarios(&opts);
        let outcomes: Vec<Value> = grid.iter().map(Scenario::run).collect();
        let bytes = artifact_bytes(a, &opts, &grid, &outcomes);
        assert!(
            pins.artifact_ok("fig5", &bytes),
            "fig5 no longer matches its pin"
        );
        let mut flipped = bytes.into_bytes();
        let at = (flipped.len() / 2..)
            .find(|&i| flipped[i].is_ascii_alphanumeric())
            .unwrap();
        flipped[at] ^= 0x01;
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(!pins.artifact_ok("fig5", &flipped));
    }

    #[test]
    fn registry_counts_match_their_pin() {
        let pins = Pins::load().unwrap();
        let opts = RunOpts::default();
        let grids: Vec<Vec<Scenario>> = registry::ARTIFACTS
            .iter()
            .map(|a| a.scenarios(&opts))
            .collect();
        let counts = RegistryCounts::measure(grids.iter().map(Vec::as_slice));
        assert_eq!(counts.drift(&pins.registry), Vec::<String>::new());
        let mut off = pins.registry.clone();
        *off.cells.values_mut().next().unwrap() += 1;
        assert_eq!(counts.drift(&off).len(), 1);
    }
}
