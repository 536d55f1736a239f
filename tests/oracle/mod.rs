//! Buffered reference oracles shared by the equivalence suites.
//!
//! They keep the pre-streaming execution shape: run every trial
//! sequentially on the calling thread, collect all outcomes, then
//! wrap or render. No scheduler, worker pool, lockstep routing or
//! panic isolation is involved (and memory is `O(trials)`), so a
//! production run that matches an oracle byte for byte owes nothing
//! to the trial driver.

use lru_leak::lru_channel::trials::derive_seed;
use lru_leak::scenario::registry::{Artifact, Report, RunOpts};
use lru_leak::scenario::{Scenario, Value};

/// `Scenario::run`, buffered: the bare metrics tree for one trial,
/// an array of per-trial trees for several.
pub fn run_scenario(sc: &Scenario) -> Value {
    if sc.trials <= 1 {
        return sc.run_once(sc.seed).metrics;
    }
    let outs = (0..sc.trials)
        .map(|i| sc.run_once(derive_seed(sc.seed, i as u64)).metrics)
        .collect();
    Value::Arr(outs)
}

/// `Artifact::run`, buffered: every grid cell through
/// [`run_scenario`] in grid order, then rendered.
pub fn run_artifact(artifact: &Artifact, opts: &RunOpts) -> Report {
    let grid = artifact.scenarios(opts);
    let outcomes: Vec<Value> = grid.iter().map(run_scenario).collect();
    artifact.render_report(opts, &grid, &outcomes)
}
