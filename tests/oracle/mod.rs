//! Buffered reference oracles shared by the equivalence suites.
//!
//! They keep the pre-streaming execution shape: run every trial
//! sequentially on the calling thread, collect all outcomes, then
//! wrap or render. No scheduler, worker pool, lockstep routing or
//! panic isolation is involved (and memory is `O(trials)`), so a
//! production run that matches an oracle byte for byte owes nothing
//! to the trial driver.

use lru_leak::exec_sim::sched::Engine;
use lru_leak::lru_channel::trials::derive_seed;
use lru_leak::scenario::registry::{Artifact, Report, RunOpts};
use lru_leak::scenario::{Scenario, Value};

/// `Scenario::run`, buffered, with every scheduler on `engine`: the
/// bare metrics tree for one trial, an array of per-trial trees for
/// several.
pub fn run_scenario(sc: &Scenario, engine: Engine) -> Value {
    let experiment = sc.experiment();
    if sc.trials <= 1 {
        return experiment.run(sc.seed, engine).metrics;
    }
    let outs = (0..sc.trials)
        .map(|i| {
            experiment
                .run(derive_seed(sc.seed, i as u64), engine)
                .metrics
        })
        .collect();
    Value::Arr(outs)
}

/// `Artifact::run`, buffered: every grid cell through
/// [`run_scenario`] in grid order on `engine`, then rendered.
pub fn run_artifact(artifact: &Artifact, opts: &RunOpts, engine: Engine) -> Report {
    let grid = artifact.scenarios(opts);
    let outcomes: Vec<Value> = grid.iter().map(|sc| run_scenario(sc, engine)).collect();
    artifact.render_report(opts, &grid, &outcomes)
}
