//! The paper-artifact registry: every figure, table and ablation of
//! the reproduction, keyed by a stable ID, resolved to a scenario
//! grid plus a renderer.
//!
//! `lru-leak run <id>` prints [`Report::text`] and `lru-leak run <id>
//! --json` emits the same numbers as [`Report::metrics`], because both
//! come from the same grid run through the deterministic trial driver.

use std::fmt::Write;

use attacks::spectre::symbols_correct;
use cache_sim::replacement::PolicyKind;
use lru_channel::covert::{Sharing, Variant};
use lru_channel::params::ChannelParams;
use workloads::spec_like::SUITE;

use crate::engine::{CancelToken, Engine};
use crate::fmt::{geomean, header, kbps, pct, pct1, row, sparkline, BENCH_SEED};
use crate::json::Value;
use crate::spec::{
    Channel, DefenseId, ExperimentKind, Inclusion, InitCond, MessageSource, Named, NoiseModel,
    PlatformId, Scenario, ScenarioError, SequenceKind, WorkloadId,
};

/// Knobs the CLI and the service pass down to a grid.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Overrides the artifact's natural trial/sample count per grid
    /// point (interpretation is per artifact; trace-style artifacts
    /// without a trial axis ignore it).
    pub trials: Option<usize>,
    /// Master seed; every grid point derives its own from it.
    pub seed: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            trials: None,
            seed: BENCH_SEED,
        }
    }
}

impl RunOpts {
    fn count(&self, default: usize) -> usize {
        self.trials.unwrap_or(default).max(1)
    }
}

/// The result of running one artifact.
#[derive(Debug, Clone)]
pub struct Report {
    /// Artifact ID (`fig6`, `table4`, …).
    pub id: &'static str,
    /// The human tables, exactly what `lru-leak run <id>` prints.
    pub text: String,
    /// The same numbers as a deterministic JSON tree.
    pub metrics: Value,
}

/// Renders a grid's outcomes into the human table body plus a
/// summary metrics tree.
type RenderFn = fn(&RunOpts, &[Scenario], &[Value]) -> (String, Value);

/// One registered paper artifact.
#[derive(Debug)]
pub struct Artifact {
    /// Stable ID (`fig6`, `table4`, `ablation_multiset`, …).
    pub id: &'static str,
    /// Long name (`fig6_timesliced`, …), printed in the report
    /// header and accepted by [`get`] in place of the ID.
    pub bench: &'static str,
    /// Paper cross-reference.
    pub paper_ref: &'static str,
    /// One-line description, printed in the header.
    pub what: &'static str,
    grid: fn(&RunOpts) -> Result<Vec<Scenario>, ScenarioError>,
    render: RenderFn,
}

impl Artifact {
    /// The scenario grid this artifact runs at `opts`, every cell
    /// validated.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Incompatible`] when `opts.trials` scales one
    /// of the grid's counts past a validation bound, such as a
    /// message longer than [`crate::spec::MAX_COUNT`] bits. Every
    /// artifact validates at default trials.
    pub fn try_scenarios(&self, opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
        (self.grid)(opts)
    }

    /// [`Artifact::try_scenarios`] for options known to validate.
    ///
    /// # Panics
    ///
    /// Panics if the grid does not validate at `opts`.
    pub fn scenarios(&self, opts: &RunOpts) -> Vec<Scenario> {
        self.try_scenarios(opts)
            .unwrap_or_else(|e| panic!("{} at {opts:?}: {e}", self.id))
    }

    /// Runs the whole grid (fanned out over the host's cores through
    /// the work-stealing trial scheduler) and renders the report:
    /// [`Engine::run_artifact`] on a plain engine.
    ///
    /// # Panics
    ///
    /// Panics if a grid chunk panics on both its first run and its
    /// retry.
    pub fn run(&self, opts: &RunOpts) -> Report {
        match Engine::new().run_artifact(self, opts, None, &CancelToken::new()) {
            Ok((report, _status)) => report,
            Err(e) => panic!("{}: {e}", self.id),
        }
    }

    /// Renders already-computed grid outcomes into this artifact's
    /// [`Report`] — the pure presentation half of [`Artifact::run`],
    /// split out so callers that execute the grid elsewhere (the job
    /// engine, the experiment service) produce byte-identical
    /// reports. `grid` and `outcomes` must line up index-for-index.
    pub fn render_report(&self, opts: &RunOpts, grid: &[Scenario], outcomes: &[Value]) -> Report {
        let (body, summary) = (self.render)(opts, grid, outcomes);
        let mut text = String::new();
        header(&mut text, self.bench, self.paper_ref, self.what);
        text.push_str(&body);
        let scenarios: Vec<Value> = grid
            .iter()
            .zip(outcomes)
            .map(|(s, o)| {
                Value::obj()
                    .with("scenario", s.to_json())
                    .with("outcome", o.clone())
            })
            .collect();
        let metrics = Value::obj()
            .with("id", self.id)
            .with("bench", self.bench)
            .with("paper_ref", self.paper_ref)
            .with("what", self.what)
            .with("seed", opts.seed)
            .with("summary", summary)
            .with("scenarios", Value::Arr(scenarios));
        Report {
            id: self.id,
            text,
            metrics,
        }
    }
}

/// Looks an artifact up by ID or bench-target name.
pub fn get(id: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.id == id || a.bench == id)
}

/// All artifact IDs, in paper order.
pub fn ids() -> Vec<&'static str> {
    ARTIFACTS.iter().map(|a| a.id).collect()
}

/// The registry itself.
pub static ARTIFACTS: &[Artifact] = &[
    Artifact {
        id: "fig3",
        bench: "fig3_pointer_chase",
        paper_ref: "Paper Fig. 3 (§IV-D)",
        what: "pointer-chase readout histograms: 7 L1 hits + target hit-vs-miss (paper: separable on Intel, overlapping-but-shifted on AMD)",
        grid: fig3_grid,
        render: render_histograms,
    },
    Artifact {
        id: "fig4",
        bench: "fig4_error_rates",
        paper_ref: "Paper Fig. 4 (§V-A)",
        what: "error rate vs transmission rate, E5-2690 HT (paper: 0-15%, rising with rate)",
        grid: fig4_grid,
        render: fig4_render,
    },
    Artifact {
        id: "fig5",
        bench: "fig5_traces",
        paper_ref: "Paper Fig. 5 (§V-A)",
        what: "E5-2690 hyper-threaded traces, sender alternating 0/1 at 480Kbps-class rate",
        grid: fig5_grid,
        render: trace_render,
    },
    Artifact {
        id: "fig6",
        bench: "fig6_timesliced",
        paper_ref: "Paper Fig. 6 (§V-B)",
        what: "% of 1s received, E5-2690 time-sliced, Alg.1 (paper: ~0-5% sending 0; ~30% sending 1 at d=8, Tr=1e8)",
        grid: fig6_grid,
        render: timesliced_render,
    },
    Artifact {
        id: "fig7",
        bench: "fig7_amd_traces",
        paper_ref: "Paper Fig. 7 (§VI-B, §VI-C)",
        what: "EPYC 7571 hyper-threaded traces: raw readouts are murky, the moving average shows the wave",
        grid: fig7_grid,
        render: trace_render,
    },
    Artifact {
        id: "fig8",
        bench: "fig8_amd_timesliced",
        paper_ref: "Paper Fig. 8 (§VI-B)",
        what: "% of 1s received, EPYC 7571 time-sliced, Alg.1 via pthreads (paper: ~70% vs ~77% at Tr=1e8; gap widens with Tr)",
        grid: fig8_grid,
        render: timesliced_render,
    },
    Artifact {
        id: "fig9",
        bench: "fig9_policy_perf",
        paper_ref: "Paper Fig. 9 (§IX-A)",
        what: "replacement-policy cost on the GEM5 config (paper: CPI changes < 2% overall)",
        grid: fig9_grid,
        render: fig9_render,
    },
    Artifact {
        id: "fig11",
        bench: "fig11_pl_cache",
        paper_ref: "Paper Fig. 11 (§IX-B)",
        what: "Algorithm 2 vs PL cache with the sender's line locked (paper: original leaks; fixed = receiver always hits)",
        grid: fig11_grid,
        render: fig11_render,
    },
    Artifact {
        id: "fig13",
        bench: "fig13_rdtscp",
        paper_ref: "Paper Fig. 13 / Appendix A",
        what: "single-load rdtscp readouts: L1-hit and L1-miss distributions must coincide",
        grid: fig13_grid,
        render: render_histograms,
    },
    Artifact {
        id: "fig14",
        bench: "fig14_e3_traces",
        paper_ref: "Paper Fig. 14 (Appendix B)",
        what: "E3-1245 v5 hyper-threaded alternating-bit traces (paper: same behaviour as E5-2690)",
        grid: fig14_grid,
        render: trace_render,
    },
    Artifact {
        id: "fig15",
        bench: "fig15_e3_timesliced",
        paper_ref: "Paper Fig. 15 (Appendix B)",
        what: "% of 1s received, E3-1245 v5 time-sliced, Alg.1 (paper: similar to E5-2690)",
        grid: fig15_grid,
        render: timesliced_render,
    },
    Artifact {
        id: "table1",
        bench: "table1_plru_eviction",
        paper_ref: "Paper Table I (§IV-C)",
        what: "P(line 0 evicted) after k loop iterations, 8-way set, 10,000 trials",
        grid: table1_grid,
        render: table1_render,
    },
    Artifact {
        id: "table2",
        bench: "table2_latencies",
        paper_ref: "Paper Table II (§IV-D)",
        what: "L1D and L2 access latency in cycles (paper: SNB 4-5/12, SKL 4-5/12, Zen 4-5/17)",
        grid: table2_grid,
        render: table2_render,
    },
    Artifact {
        id: "table3",
        bench: "table3_platforms",
        paper_ref: "Paper Table III (§V)",
        what: "Simulated platform configurations (paper values: 32KB 8-way 64-set L1D on all three)",
        grid: table3_grid,
        render: table3_render,
    },
    Artifact {
        id: "table4",
        bench: "table4_rates",
        paper_ref: "Paper Table IV (§VI-D)",
        what: "transmission rates (paper: Intel HT ~500Kbps, AMD HT ~20Kbps, Intel TS ~2bps, AMD TS ~0.2bps, Alg.2 TS: none)",
        grid: table4_grid,
        render: table4_render,
    },
    Artifact {
        id: "table5",
        bench: "table5_encoding",
        paper_ref: "Paper Table V (§VII)",
        what: "encode latency in cycles (paper: E5-2690 336/35/31, E3-1245v5 288/40/35, EPYC 232/56/52)",
        grid: table5_grid,
        render: table5_render,
    },
    Artifact {
        id: "table6",
        bench: "table6_sender_miss",
        paper_ref: "Paper Table VI (§VII)",
        what: "sender-process miss rates (paper E5-2690: F+R(mem) L2 62% LLC 88%; LRU Alg.1 L2 9.6% LLC 0.7%; all L1D < 0.1%)",
        grid: table6_grid,
        render: table6_render,
    },
    Artifact {
        id: "table7",
        bench: "table7_spectre_miss",
        paper_ref: "Paper Table VII (§VIII)",
        what: "miss rates during Spectre v1 (paper E5-2690: F+R(mem) LLC 98%; LRU channels LLC < 1%, L2 ~0.1%)",
        grid: table7_grid,
        render: table7_render,
    },
    Artifact {
        id: "ablation_defenses",
        bench: "ablation_defenses",
        paper_ref: "Paper §IX",
        what: "every defense vs the channels: policy substitution, state partitioning, invisible speculation, detection",
        grid: ablation_defenses_grid,
        render: ablation_defenses_render,
    },
    Artifact {
        id: "ablation_multiset",
        bench: "ablation_multiset",
        paper_ref: "Paper §IV (parallel sets)",
        what: "Algorithm 1 over K sets at once, E5-2690 HT: rate scales ~K× while accuracy holds",
        grid: ablation_multiset_grid,
        render: ablation_multiset_render,
    },
    Artifact {
        id: "ablation_prefetcher",
        bench: "ablation_prefetcher",
        paper_ref: "Paper Appendix C",
        what: "Spectre + LRU Alg.2 under prefetcher noise: rounds + random-order scans + voting recover the signal",
        grid: ablation_prefetcher_grid,
        render: ablation_prefetcher_render,
    },
    Artifact {
        id: "ablation_noise_ber",
        bench: "ablation_noise_ber",
        paper_ref: "Extension of §V (environmental noise)",
        what: "Alg.1 vs Alg.2 bit-error rate + Shannon capacity under injected interference: random eviction, periodic bursts, Bernoulli touches",
        grid: ablation_noise_ber_grid,
        render: ablation_noise_ber_render,
    },
    Artifact {
        id: "ablation_noise_capacity",
        bench: "ablation_noise_capacity",
        paper_ref: "Extension of §V-A (capacity under noise)",
        what: "channel capacity (BSC bound) over the rate x noise-level grid: where the optimal operating point moves as interference grows",
        grid: ablation_noise_capacity_grid,
        render: ablation_noise_capacity_render,
    },
    Artifact {
        id: "ablation_noise_grid",
        bench: "ablation_noise_grid",
        paper_ref: "Extension of Fig. 6 (§V-B)",
        what: "dense time-sliced percent-of-ones grid at Tr=1e8 under a noise x intensity ladder: off-channel co-runners leave the gap intact, on-channel pollution closes it",
        grid: ablation_noise_grid_grid,
        render: ablation_noise_grid_render,
    },
    Artifact {
        id: "l2_lru_channel",
        bench: "l2_lru_channel",
        paper_ref: "Extension of §IV (cross-core, shared L2)",
        what: "cross-core LRU covert channel through a shared 2-way L2, per hierarchy backend: only back-invalidation makes the L2 replacement state receiver-visible",
        grid: l2_lru_channel_grid,
        render: l2_lru_channel_render,
    },
    Artifact {
        id: "l2_inclusion_victim",
        bench: "l2_inclusion_victim",
        paper_ref: "Extension of §IV (inclusion victims)",
        what: "inclusion-victim probe on the dual-core hierarchy: back-invalidation turns a sender-side L2 fill into a receiver-visible L1 flush; silent backends show nothing",
        grid: l2_inclusion_victim_grid,
        render: l2_inclusion_victim_render,
    },
];

// ---- strict Value accessors (registry outcomes are shaped by the
// ---- experiments above; a miss is a bug, so panic loudly) ----

fn f(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("outcome missing number {key:?}: {v}"))
}

fn u(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("outcome missing integer {key:?}: {v}"))
}

fn s<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("outcome missing string {key:?}: {v}"))
}

fn floats(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Value::as_arr)
        .map(|items| items.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_else(|| panic!("outcome missing array {key:?}: {v}"))
}

// ---- Figs. 3 / 13: readout histograms ----

fn histogram_grid(opts: &RunOpts, single_load: bool) -> Result<Vec<Scenario>, ScenarioError> {
    [PlatformId::E5_2690, PlatformId::Epyc7571]
        .into_iter()
        .map(|p| {
            Scenario::builder()
                .platform(p)
                .kind(ExperimentKind::ProbeHistogram {
                    samples: opts.count(10_000),
                    single_load,
                })
                .seed(opts.seed)
                .build()
        })
        .collect()
}

fn fig3_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    histogram_grid(opts, false)
}

fn fig13_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    histogram_grid(opts, true)
}

fn write_histogram(buf: &mut String, rows: &Value) {
    for pair in rows.as_arr().unwrap_or(&[]) {
        let items = pair.as_arr().expect("histogram row");
        let value = items[0].as_u64().expect("histogram value");
        let freq = items[1].as_f64().expect("histogram freq");
        let _ = writeln!(
            buf,
            "{value:>6}  {:>6.2}%  {}",
            freq * 100.0,
            "#".repeat((freq * 60.0) as usize)
        );
    }
}

fn render_histograms(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    let mut summary = Vec::new();
    for (sc, out) in grid.iter().zip(outs) {
        let model = sc.platform.platform().arch.model;
        let _ = writeln!(buf, "\n{model} — L1 HIT readouts:");
        write_histogram(&mut buf, out.get("hit_rows").expect("hit_rows"));
        let _ = writeln!(buf, "{model} — L1 MISS readouts:");
        write_histogram(&mut buf, out.get("miss_rows").expect("miss_rows"));
        let _ = writeln!(
            buf,
            "means: hit {:.1}, miss {:.1}; distribution overlap {:.1}%  (threshold {})",
            f(out, "hit_mean"),
            f(out, "miss_mean"),
            f(out, "overlap") * 100.0,
            u(out, "threshold"),
        );
        summary.push(
            Value::obj()
                .with("platform", sc.platform.name())
                .with("hit_mean", f(out, "hit_mean"))
                .with("miss_mean", f(out, "miss_mean"))
                .with("overlap", f(out, "overlap")),
        );
    }
    (buf, Value::Arr(summary))
}

// ---- Fig. 4: error rate vs transmission rate ----

const FIG4_TRS: [u64; 3] = [600, 1000, 3000];
const FIG4_TSS: [u64; 4] = [30000, 12000, 6000, 4500];

fn fig4_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let repeats = opts.count(4);
    let mut grid = Vec::new();
    for variant in [Variant::SharedMemory, Variant::NoSharedMemory] {
        for tr in FIG4_TRS {
            for d in 1..=8usize {
                for ts in FIG4_TSS {
                    grid.push(
                        Scenario::builder()
                            .variant(variant)
                            .params(ChannelParams {
                                d,
                                target_set: 0,
                                ts,
                                tr,
                            })
                            .message(MessageSource::Random { bits: 128, repeats })
                            .seed(opts.seed ^ d as u64 ^ ts ^ tr)
                            .build()?,
                    );
                }
            }
        }
    }
    Ok(grid)
}

fn fig4_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let platform = PlatformId::E5_2690.platform();
    let mut buf = String::new();
    let mut summary = Vec::new();
    let mut next = grid.iter().zip(outs);
    for name in [
        "Algorithm 1 (shared memory)",
        "Algorithm 2 (no shared memory)",
    ] {
        let _ = writeln!(buf, "\n--- {name} ---");
        for tr in FIG4_TRS {
            let _ = writeln!(buf, "\nTr = {tr} cycles:");
            let mut labels = vec!["d \\ rate".to_string()];
            for ts in FIG4_TSS {
                labels.push(kbps(platform.rate_bps(ts)));
            }
            row(&mut buf, &labels[0], &labels[1..]);
            for d in 1..=8usize {
                let vals: Vec<String> = FIG4_TSS
                    .iter()
                    .map(|_| {
                        let (sc, out) = next.next().expect("grid sized");
                        let err = f(out, "error_rate");
                        summary.push(
                            Value::obj()
                                .with("variant", sc.variant.name())
                                .with("d", sc.params.d)
                                .with("ts", sc.params.ts)
                                .with("tr", sc.params.tr)
                                .with("error_rate", err),
                        );
                        pct1(err)
                    })
                    .collect();
                row(&mut buf, &format!("d={d}"), &vals);
            }
        }
    }
    (buf, Value::Arr(summary))
}

// ---- Figs. 5 / 7 / 14: receiver traces ----

fn fig5_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    Ok(vec![
        Scenario::builder()
            .params(ChannelParams::paper_alg1_default())
            .seed(opts.seed)
            .build()?,
        Scenario::builder()
            .variant(Variant::NoSharedMemory)
            .params(ChannelParams::paper_alg2_default())
            .seed(opts.seed)
            .build()?,
    ])
}

fn fig7_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let params = ChannelParams {
        d: 8,
        target_set: 0,
        ts: 100_000,
        tr: 1_000,
    };
    Ok(vec![
        Scenario::builder()
            .platform(PlatformId::Epyc7571)
            .variant(Variant::SharedMemoryThreads)
            .params(params)
            .message(MessageSource::Alternating { bits: 14 })
            .seed(opts.seed)
            .build()?,
        Scenario::builder()
            .platform(PlatformId::Epyc7571)
            .variant(Variant::NoSharedMemory)
            .params(ChannelParams { d: 4, ..params })
            .message(MessageSource::Alternating { bits: 14 })
            .seed(opts.seed)
            .build()?,
    ])
}

fn fig14_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    fig5_grid(opts)?
        .into_iter()
        .map(|sc| {
            let mut b = Scenario::builder()
                .platform(PlatformId::E3_1245V5)
                .variant(sc.variant)
                .params(sc.params)
                .seed(opts.seed ^ 0xe3);
            b = b.message(sc.message);
            b.build()
        })
        .collect()
}

fn trace_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    let mut summary = Vec::new();
    for (sc, out) in grid.iter().zip(outs) {
        let _ = writeln!(
            buf,
            "\n{:?}, d={}, Tr={}, Ts={} (threshold {} cycles, nominal {:.0}Kbps):",
            sc.variant,
            sc.params.d,
            sc.params.tr,
            sc.params.ts,
            u(out, "hit_threshold"),
            f(out, "rate_bps") / 1e3
        );
        let trace = floats(out, "trace");
        let _ = writeln!(
            buf,
            "latency trace (first {} obs): {}",
            trace.len(),
            sparkline(&trace)
        );
        if let Some(avg) = out.get("avg_trace") {
            let avg: Vec<f64> = avg
                .as_arr()
                .unwrap()
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            let _ = writeln!(buf, "moving average: {}", sparkline(&avg));
        }
        let _ = writeln!(buf, "sent bits:    {}", s(out, "sent"));
        let _ = writeln!(buf, "decoded bits: {}", s(out, "decoded"));
        let _ = writeln!(
            buf,
            "edit-distance error rate: {:.1}%",
            f(out, "error_rate") * 100.0
        );
        summary.push(
            Value::obj()
                .with("variant", sc.variant.name())
                .with("error_rate", f(out, "error_rate"))
                .with("rate_bps", f(out, "rate_bps")),
        );
    }
    (buf, Value::Arr(summary))
}

// ---- Figs. 6 / 8 / 15: time-sliced percent-of-ones grids ----

/// The Tr grid in cycles (paper x-axis: up to ~5×10⁸).
const TS_TRS: [u64; 4] = [50_000_000, 100_000_000, 200_000_000, 400_000_000];

/// Samples per data point (paper: 1000; reduced to keep the grid
/// fast — the fractions stabilize well before that).
const TS_SAMPLES: usize = 150;

fn timesliced_grid(
    opts: &RunOpts,
    platform: PlatformId,
    variant: Variant,
    ds: &[usize],
) -> Result<Vec<Scenario>, ScenarioError> {
    let samples = opts.count(TS_SAMPLES);
    let mut grid = Vec::new();
    for bit in [false, true] {
        for &d in ds {
            for tr in TS_TRS {
                grid.push(
                    Scenario::builder()
                        .platform(platform)
                        .variant(variant)
                        .sharing(Sharing::TimeSliced)
                        .params(ChannelParams {
                            d,
                            target_set: 0,
                            ts: tr,
                            tr,
                        })
                        .message(MessageSource::Constant { bit, bits: 1 })
                        .kind(ExperimentKind::PercentOnes { samples })
                        .seed(opts.seed ^ tr ^ d as u64 ^ u64::from(bit))
                        .build()?,
                );
            }
        }
    }
    Ok(grid)
}

fn fig6_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    timesliced_grid(
        opts,
        PlatformId::E5_2690,
        Variant::SharedMemory,
        &[1, 2, 4, 7, 8],
    )
}

fn fig8_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    timesliced_grid(
        opts,
        PlatformId::Epyc7571,
        Variant::SharedMemoryThreads,
        &[1, 4, 8],
    )
}

fn fig15_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    timesliced_grid(
        opts,
        PlatformId::E3_1245V5,
        Variant::SharedMemory,
        &[1, 4, 7, 8],
    )
}

fn timesliced_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    if grid.first().map(|sc| sc.platform) == Some(PlatformId::Epyc7571) {
        let _ = writeln!(
            buf,
            "note: the coarse AMD timer pushes both percentages toward the threshold midpoint;"
        );
        let _ = writeln!(buf, "the sign of the 0-vs-1 gap is the reproduced shape");
    }
    // Recover the d-axis from the grid (bit-major, then d, then Tr).
    let ds: Vec<usize> = {
        let mut ds: Vec<usize> = grid
            .iter()
            .take(grid.len() / 2)
            .map(|sc| sc.params.d)
            .collect();
        ds.dedup();
        ds
    };
    let mut summary = Vec::new();
    let mut next = grid.iter().zip(outs);
    for bit in [false, true] {
        let _ = writeln!(buf, "\nSending {}:", u8::from(bit));
        let mut labels = vec!["d \\ Tr".to_string()];
        for tr in TS_TRS {
            labels.push(format!("{:.0e}", tr as f64));
        }
        row(&mut buf, &labels[0], &labels[1..]);
        for &d in &ds {
            let vals: Vec<String> = TS_TRS
                .iter()
                .map(|_| {
                    let (sc, out) = next.next().expect("grid sized");
                    let frac = f(out, "fraction");
                    summary.push(
                        Value::obj()
                            .with("bit", bit)
                            .with("d", sc.params.d)
                            .with("tr", sc.params.tr)
                            .with("fraction", frac),
                    );
                    pct1(frac)
                })
                .collect();
            row(&mut buf, &format!("d={d}"), &vals);
        }
    }
    (buf, Value::Arr(summary))
}

// ---- Fig. 9: replacement-policy performance ----

fn fig9_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    SUITE
        .iter()
        .map(|b| {
            Scenario::builder()
                .workload(WorkloadId::Benchmark(b.name.to_string()))
                .kind(ExperimentKind::PolicyPerf {
                    accesses: opts.count(120_000) as u64,
                })
                .seed(opts.seed)
                .build()
        })
        .collect()
}

fn fig9_render(_o: &RunOpts, _grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    buf.push_str("\nL1D miss rate per policy:\n");
    row(
        &mut buf,
        "benchmark",
        &["Tree-PLRU", "FIFO", "Random", "FIFO/base", "Rand/base"],
    );
    for out in outs {
        let miss = floats(out, "l1d_miss_rates");
        let norm = floats(out, "normalized_miss_rates");
        row(
            &mut buf,
            s(out, "benchmark"),
            &[
                pct(miss[0]),
                pct(miss[1]),
                pct(miss[2]),
                format!("{:.3}", norm[1]),
                format!("{:.3}", norm[2]),
            ],
        );
    }
    buf.push_str("\nnormalized CPI (Tree-PLRU = 1.0):\n");
    row(&mut buf, "benchmark", &["Tree-PLRU", "FIFO", "Random"]);
    for out in outs {
        let n = floats(out, "normalized_cpi");
        row(
            &mut buf,
            s(out, "benchmark"),
            &[
                format!("{:.3}", n[0]),
                format!("{:.3}", n[1]),
                format!("{:.3}", n[2]),
            ],
        );
    }
    // Geometric mean over benchmarks, per policy.
    let per_policy: Vec<Vec<f64>> = outs.iter().map(|o| floats(o, "normalized_cpi")).collect();
    let geo: [f64; 3] =
        [0, 1, 2].map(|k| geomean(&per_policy.iter().map(|n| n[k]).collect::<Vec<_>>()));
    let _ = writeln!(
        buf,
        "\ngeomean normalized CPI — Tree-PLRU {:.4}, FIFO {:.4}, Random {:.4}",
        geo[0], geo[1], geo[2]
    );
    buf.push_str("paper claim: overall CPI change < 2% — defense is essentially free\n");
    let summary = Value::obj()
        .with("geomean_normalized_cpi_tree_plru", geo[0])
        .with("geomean_normalized_cpi_fifo", geo[1])
        .with("geomean_normalized_cpi_random", geo[2]);
    (buf, summary)
}

// ---- Fig. 11: PL cache ----

fn fig11_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    [DefenseId::PlCacheOriginal, DefenseId::PlCacheFixed]
        .into_iter()
        .map(|defense| {
            Scenario::builder()
                .defense(defense)
                .d(1)
                .kind(ExperimentKind::DefenseEval {
                    trials: opts.count(240),
                })
                .seed(opts.seed)
                .build()
        })
        .collect()
}

fn fig11_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    let mut summary = Vec::new();
    for (sc, out) in grid.iter().zip(outs) {
        let design = if sc.defense == DefenseId::PlCacheOriginal {
            "Original"
        } else {
            "Fixed"
        };
        let _ = writeln!(buf, "\n{design} design:");
        let trace = floats(out, "trace");
        let _ = writeln!(buf, "receiver latency trace: {}", sparkline(&trace));
        let _ = writeln!(
            buf,
            "P(hit | sender=0) = {}, P(hit | sender=1) = {}, distinguishability = {}",
            pct1(f(out, "p_hit_given_0")),
            pct1(f(out, "p_hit_given_1")),
            pct1(f(out, "distinguishability"))
        );
        summary.push(
            Value::obj()
                .with("design", design)
                .with("distinguishability", f(out, "distinguishability")),
        );
    }
    buf.push_str("\nshape check: original distinguishability >> 0; fixed = 0 (always hit)\n");
    (buf, Value::Arr(summary))
}

// ---- Table I: PLRU eviction probabilities ----

fn table1_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let trials = opts.count(lru_channel::plru_study::PAPER_TRIALS);
    let mut grid = Vec::new();
    for init in InitCond::all() {
        for policy in PolicyKind::TABLE1 {
            for sequence in SequenceKind::all() {
                grid.push(
                    Scenario::builder()
                        .policy(policy)
                        .kind(ExperimentKind::PlruEviction {
                            sequence,
                            init,
                            iterations: 12,
                            trials,
                        })
                        .seed(opts.seed)
                        .build()?,
                );
            }
        }
    }
    Ok(grid)
}

fn table1_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    buf.push_str(
        "paper reference rows — LRU: 100% everywhere; Tree-PLRU Seq1 random: 50.4/82.8/99.2/100;\n\
         Tree-PLRU Seq2: ~62% steady; Bit-PLRU: converges to 100% (Seq1) / ~99% (Seq2)\n\n",
    );
    row(
        &mut buf,
        "init/policy/sequence",
        &["iter 1", "iter 2", "iter 3", ">= 8"],
    );
    let mut summary = Vec::new();
    for (sc, out) in grid.iter().zip(outs) {
        let ExperimentKind::PlruEviction { sequence, init, .. } = sc.kind else {
            unreachable!()
        };
        let probs = floats(out, "probabilities");
        let steady = f(out, "steady_state");
        // The quoted init and sequence are the table's historical bytes.
        let label = format!("\"{init:?}\"/{}/\"{sequence:?}\"", sc.policy);
        row(
            &mut buf,
            &label,
            &[pct1(probs[0]), pct1(probs[1]), pct1(probs[2]), pct1(steady)],
        );
        summary.push(
            Value::obj()
                .with("row", label.clone())
                .with("steady_state", steady),
        );
    }
    (buf, Value::Arr(summary))
}

// ---- Tables II / III: substrate checks ----

fn table2_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    PlatformId::all()
        .map(|p| {
            Scenario::builder()
                .platform(p)
                .kind(ExperimentKind::LatencyCheck)
                .seed(opts.seed)
                .build()
        })
        .collect()
}

fn table2_render(_o: &RunOpts, _grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    row(
        &mut buf,
        "platform",
        &["L1D (model)", "L2 (model)", "L1D (meas)", "L2 (meas)"],
    );
    let mut summary = Vec::new();
    for out in outs {
        row(
            &mut buf,
            s(out, "model"),
            &[
                u(out, "l1_model").to_string(),
                u(out, "l2_model").to_string(),
                u(out, "l1_measured").to_string(),
                u(out, "l2_measured").to_string(),
            ],
        );
        summary.push(out.clone());
    }
    (buf, Value::Arr(summary))
}

fn table3_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    PlatformId::all()
        .map(|p| {
            Scenario::builder()
                .platform(p)
                .kind(ExperimentKind::PlatformSpec)
                .seed(opts.seed)
                .build()
        })
        .collect()
}

fn table3_render(_o: &RunOpts, _grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    row(
        &mut buf,
        "platform",
        &["uarch", "freq", "L1D", "ways", "sets", "way-pred"],
    );
    for out in outs {
        row(
            &mut buf,
            s(out, "model"),
            &[
                s(out, "uarch").to_string(),
                format!("{:.1}GHz", f(out, "freq_ghz")),
                format!("{}KB", u(out, "l1d_kb")),
                u(out, "ways").to_string(),
                u(out, "sets").to_string(),
                if out.get("way_predictor").and_then(Value::as_bool) == Some(true) {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
            ],
        );
    }
    let amd_granularity = outs
        .last()
        .map(|o| u(o, "tsc_granularity"))
        .unwrap_or_default();
    let _ = writeln!(
        buf,
        "\ntimer models: Intel granularity 1 cycle; AMD granularity {amd_granularity} cycles (§VI-A)",
    );
    (buf, Value::Arr(outs.to_vec()))
}

// ---- Table IV: transmission rates ----

fn table4_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let intel = PlatformId::E5_2690;
    let amd = PlatformId::Epyc7571;
    let fast1 = ChannelParams::paper_alg1_default();
    let fast2 = ChannelParams::paper_alg2_default();
    // AMD needs the slower per-bit period of Fig. 7 (Ts = 1e5).
    let amd1 = ChannelParams {
        d: 8,
        target_set: 0,
        ts: 100_000,
        tr: 1_000,
    };
    let amd2 = ChannelParams { d: 4, ..amd1 };
    let mut grid = Vec::new();
    // Hyper-threaded rows: one covert run per cell.
    for (platform, variant, params) in [
        (intel, Variant::SharedMemory, fast1),
        (amd, Variant::SharedMemoryThreads, amd1),
        (intel, Variant::NoSharedMemory, fast2),
        (amd, Variant::NoSharedMemory, amd2),
    ] {
        grid.push(
            Scenario::builder()
                .platform(platform)
                .variant(variant)
                .params(params)
                .message(MessageSource::Alternating { bits: 64 })
                .seed(opts.seed)
                .build()?,
        );
    }
    // Time-sliced rows: a constant-bit pair per cell, then the
    // noisy Algorithm-2 pair (§V-B).
    let tr = 100_000_000u64;
    let ts_params = ChannelParams {
        d: 8,
        target_set: 0,
        ts: tr,
        tr,
    };
    for (noise, samples, variants) in [
        (
            false,
            opts.count(80),
            vec![
                (intel, Variant::SharedMemory),
                (amd, Variant::SharedMemoryThreads),
                (intel, Variant::NoSharedMemory),
                (amd, Variant::NoSharedMemory),
            ],
        ),
        (
            true,
            opts.count(60),
            vec![
                (intel, Variant::NoSharedMemory),
                (amd, Variant::NoSharedMemory),
            ],
        ),
    ] {
        for (platform, variant) in variants {
            for bit in [false, true] {
                let mut b = Scenario::builder()
                    .platform(platform)
                    .variant(variant)
                    .sharing(Sharing::TimeSliced)
                    .params(ts_params)
                    .message(MessageSource::Constant { bit, bits: 1 })
                    .kind(ExperimentKind::PercentOnes { samples })
                    .seed(opts.seed);
                if noise {
                    b = b.workload(WorkloadId::BenignNoise);
                }
                grid.push(b.build()?);
            }
        }
    }
    Ok(grid)
}

/// Converts a constant-bit fraction pair to the paper's effective
/// time-sliced rate: `k ≈ (3σ/Δp)²` measurements per bit at `Tr`
/// cycles each; `None` when the levels are indistinguishable (the
/// paper's "–").
fn ts_rate_from(p0: f64, p1: f64, tr: u64, platform: PlatformId, min_gap: f64) -> Option<f64> {
    let gap = (p1 - p0).abs();
    if gap < min_gap {
        return None;
    }
    let sigma = (p0 * (1.0 - p0) + p1 * (1.0 - p1)).sqrt().max(0.05);
    let k = ((3.0 * sigma / gap).powi(2)).ceil().max(1.0);
    let secs_per_meas = platform.platform().arch.cycles_to_seconds(tr);
    Some(1.0 / (k * secs_per_meas))
}

fn table4_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    row(
        &mut buf,
        "configuration",
        &["Intel E5-2690", "AMD EPYC 7571"],
    );
    // 4 covert cells, then 4 + 2 percent-ones pairs.
    let ht: Vec<f64> = outs[..4].iter().map(|o| f(o, "effective_bps")).collect();
    row(&mut buf, "HT / Algorithm 1", &[kbps(ht[0]), kbps(ht[1])]);
    row(&mut buf, "HT / Algorithm 2", &[kbps(ht[2]), kbps(ht[3])]);
    let pair = |i: usize| {
        let p0 = f(&outs[4 + 2 * i], "fraction");
        let p1 = f(&outs[4 + 2 * i + 1], "fraction");
        let sc = &grid[4 + 2 * i];
        (p0, p1, sc.params.tr, sc.platform)
    };
    let min_gap = [0.02, 0.02, 0.02, 0.02, 0.1, 0.1];
    let rate = |i: usize| {
        let (p0, p1, tr, platform) = pair(i);
        ts_rate_from(p0, p1, tr, platform, min_gap[i])
            .map(kbps)
            .unwrap_or_else(|| "-".into())
    };
    row(&mut buf, "Time-sliced / Algorithm 1", &[rate(0), rate(1)]);
    row(&mut buf, "Time-sliced / Algorithm 2", &[rate(2), rate(3)]);
    buf.push_str(
        "(paper reports \"-\" for time-sliced Algorithm 2: benign co-runners pollute the set)\n",
    );
    row(&mut buf, "TS / Alg.2 + benign noise", &[rate(4), rate(5)]);
    let summary = Value::obj()
        .with("ht_alg1_intel_bps", ht[0])
        .with("ht_alg1_amd_bps", ht[1])
        .with("ht_alg2_intel_bps", ht[2])
        .with("ht_alg2_amd_bps", ht[3])
        .with("ts_alg1_intel", rate(0))
        .with("ts_alg1_amd", rate(1))
        .with("ts_alg2_intel", rate(2))
        .with("ts_alg2_amd", rate(3))
        .with("ts_alg2_noisy_intel", rate(4))
        .with("ts_alg2_noisy_amd", rate(5));
    (buf, summary)
}

// ---- Table V: encode latencies ----

fn table5_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let mut grid = Vec::new();
    for channel in [
        Channel::FlushReload,
        Channel::FlushReloadL1,
        Channel::LruAlg1,
    ] {
        for platform in PlatformId::all() {
            grid.push(
                Scenario::builder()
                    .platform(platform)
                    .kind(ExperimentKind::EncodingLatency { channel })
                    .seed(opts.seed)
                    .build()?,
            );
        }
    }
    Ok(grid)
}

fn table5_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    let platforms: Vec<String> = PlatformId::all()
        .map(|p| p.platform().arch.model.to_string())
        .collect();
    row(&mut buf, "channel", &platforms);
    for rows in outs.chunks(PlatformId::NAMES.len()) {
        let vals: Vec<String> = rows.iter().map(|o| u(o, "cycles").to_string()).collect();
        row(&mut buf, s(&rows[0], "label"), &vals);
    }
    let _ = writeln!(
        buf,
        "\nshape check: L1 LRU (Alg.1&2) < F+R (L1) < F+R (mem) on every platform (LRU encodes with a cache hit)"
    );
    (
        buf,
        Value::Arr(grid.iter().zip(outs).map(|(_, o)| o.clone()).collect()),
    )
}

// ---- Tables VI / VII: miss-rate footprints ----

fn table6_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let bits = opts.count(400);
    let mut grid = Vec::new();
    for platform in [PlatformId::E5_2690, PlatformId::E3_1245V5] {
        for sender in 0..attacks::miss_rates::SenderScenario::ALL.len() {
            grid.push(
                Scenario::builder()
                    .platform(platform)
                    .kind(ExperimentKind::SenderMissRates { sender, bits })
                    .seed(opts.seed)
                    .build()?,
            );
        }
    }
    Ok(grid)
}

fn table6_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    let per_platform = attacks::miss_rates::SenderScenario::ALL.len();
    for (chunk_idx, rows) in outs.chunks(per_platform).enumerate() {
        let platform = grid[chunk_idx * per_platform].platform.platform();
        let _ = writeln!(buf, "\n{}:", platform.arch.model);
        row(&mut buf, "scenario", &["L1D", "L2", "LLC", "L2 accesses"]);
        for out in rows {
            row(
                &mut buf,
                s(out, "label"),
                &[
                    pct(f(out, "l1d_miss_rate")),
                    pct(f(out, "l2_miss_rate")),
                    pct(f(out, "llc_miss_rate")),
                    u(out, "l2_accesses").to_string(),
                ],
            );
        }
    }
    buf.push_str("\nshape check: the LRU senders' beyond-L1 traffic is tiny and their L1D rate\n");
    buf.push_str(
        "is within the benign-cosched band — a miss-rate detector cannot separate them (§VII)\n",
    );
    (buf, Value::Arr(outs.to_vec()))
}

const TABLE7_SECRET: &str = "The Magic Words are Squeamish Ossifrage";

fn table7_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let mut grid = Vec::new();
    for platform in [PlatformId::E5_2690, PlatformId::E3_1245V5] {
        for channel in [Channel::FlushReload, Channel::LruAlg1, Channel::LruAlg2] {
            grid.push(
                Scenario::builder()
                    .platform(platform)
                    .message(MessageSource::Text("secret".into()))
                    .kind(ExperimentKind::SpectreMissRates { channel })
                    .seed(opts.seed)
                    .build()?,
            );
        }
    }
    // The recovery demo rows (§VIII) on the E5-2690.
    for channel in [Channel::FlushReload, Channel::LruAlg1, Channel::LruAlg2] {
        grid.push(
            Scenario::builder()
                .message(MessageSource::Text(TABLE7_SECRET.into()))
                .kind(ExperimentKind::Spectre {
                    channel,
                    rounds: 7,
                    prefetcher: false,
                })
                .seed(opts.seed)
                .build()?,
        );
    }
    Ok(grid)
}

fn table7_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    for (chunk_idx, rows) in outs[..6].chunks(3).enumerate() {
        let platform = grid[chunk_idx * 3].platform.platform();
        let _ = writeln!(buf, "\n{}:", platform.arch.model);
        row(&mut buf, "channel", &["L1D", "L2", "LLC", "LLC accesses"]);
        for out in rows {
            row(
                &mut buf,
                s(out, "label"),
                &[
                    pct(f(out, "l1d_miss_rate")),
                    pct(f(out, "l2_miss_rate")),
                    pct(f(out, "llc_miss_rate")),
                    u(out, "llc_accesses").to_string(),
                ],
            );
        }
    }
    let _ = writeln!(
        buf,
        "\nSpectre-v1 secret recovery demo (§VIII), E5-2690 model:"
    );
    for (sc, out) in grid[6..].iter().zip(&outs[6..]) {
        let ExperimentKind::Spectre { channel, .. } = sc.kind else {
            unreachable!()
        };
        let secret = sc.message.text().unwrap_or_default();
        let text = s(out, "recovered");
        let correct = symbols_correct(secret, text);
        let _ = writeln!(
            buf,
            "  {:<14} recovered: {text:?}  ({correct}/{} symbols)",
            channel.label(),
            secret.len()
        );
    }
    (buf, Value::Arr(outs.to_vec()))
}

// ---- Ablations ----

fn ablation_defenses_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let mut grid = Vec::new();
    // §IX-A: the channel under substituted replacement policies.
    for policy in [
        PolicyKind::TreePlru,
        PolicyKind::BitPlru,
        PolicyKind::Fifo,
        PolicyKind::Random,
    ] {
        grid.push(
            Scenario::builder()
                .policy(policy)
                .message(MessageSource::Alternating { bits: 40 })
                .seed(opts.seed)
                .build()?,
        );
    }
    // §IX-B: partitioning, invisible speculation, randomization,
    // detection — one DefenseEval scenario each.
    for (defense, trials, message) in [
        (DefenseId::SharedPartition, opts.count(5_000), None),
        (DefenseId::DawgPartition, opts.count(5_000), None),
        (DefenseId::InvisibleSpeculation, 1, Some("leak")),
        (DefenseId::RandomFill, opts.count(4_000), None),
        (DefenseId::IndexRandomization, opts.count(1_000), None),
        (DefenseId::MissRateDetector, opts.count(200), None),
    ] {
        let mut b = Scenario::builder()
            .defense(defense)
            .kind(ExperimentKind::DefenseEval { trials })
            .seed(opts.seed);
        if let Some(secret) = message {
            b = b.message(MessageSource::Text(secret.into()));
        }
        grid.push(b.build()?);
    }
    Ok(grid)
}

fn ablation_defenses_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    buf.push_str(
        "\n[§IX-A] Alg.1 HT error rate per L1 replacement policy (high error = channel dead):\n",
    );
    for (sc, out) in grid[..4].iter().zip(&outs[..4]) {
        let _ = writeln!(
            buf,
            "  {:<12} error rate {}",
            sc.policy,
            pct1(f(out, "error_rate"))
        );
    }
    buf.push_str("  note: under the literal Bit-PLRU rollover (all MRU-bits reset to 0) the\n");
    buf.push_str("  receiver's own timed access parks line 0 in a high way and the *continuous*\n");
    buf.push_str("  covert loop fails, although the one-shot decode of Table I / Spectre works\n");
    buf.push_str("  on Bit-PLRU — see EXPERIMENTS.md\n");

    let by_defense = |d: DefenseId| {
        grid.iter()
            .zip(outs)
            .find(|(sc, _)| sc.defense == d)
            .map(|(_, o)| o)
            .expect("defense in grid")
    };
    buf.push_str("\n[§IX-B] replacement-state partitioning (victim-flip rate; 0 = no leak):\n");
    let _ = writeln!(
        buf,
        "  way-partitioned, shared Tree-PLRU   {}",
        pct1(f(
            by_defense(DefenseId::SharedPartition),
            "victim_flip_rate"
        ))
    );
    let _ = writeln!(
        buf,
        "  DAWG-partitioned Tree-PLRU state    {}",
        pct1(f(by_defense(DefenseId::DawgPartition), "victim_flip_rate"))
    );

    buf.push_str("\n[§IX-B] InvisiSpec-style invisible speculation vs Spectre:\n");
    row(&mut buf, "channel", &["baseline acc.", "invisible acc."]);
    let inv = by_defense(DefenseId::InvisibleSpeculation);
    let rows = inv.get("rows").and_then(Value::as_arr).expect("rows");
    for channel in ["FlushReload", "LruAlg1", "LruAlg2"] {
        let acc = |mode: &str| {
            rows.iter()
                .find(|r| s(r, "channel") == channel && s(r, "mode") == mode)
                .map(|r| f(r, "accuracy"))
                .expect("row present")
        };
        row(
            &mut buf,
            channel,
            &[pct1(acc("baseline")), pct1(acc("invisible"))],
        );
    }

    buf.push_str("\n[§IX-B] randomization defenses:\n");
    let rf = by_defense(DefenseId::RandomFill);
    let _ = writeln!(
        buf,
        "  random-fill cache: hit-channel (LRU) flip rate {} — SURVIVES (paper: 'the LRU channel could still work')",
        pct1(f(rf, "hit_channel_flip_rate"))
    );
    let _ = writeln!(
        buf,
        "  random-fill cache: contention-channel fill rate {} — removed",
        pct1(f(rf, "miss_channel_fill_rate"))
    );
    let ir = by_defense(DefenseId::IndexRandomization);
    let _ = writeln!(
        buf,
        "  keyed set mapping (RP/CEASER-style): Alg.1 eviction works {} baseline vs {} keyed",
        pct1(f(ir, "baseline_eviction_rate")),
        pct1(f(ir, "eviction_rate"))
    );

    buf.push_str("\n[§VII/§X] miss-rate detector verdicts over the Table VI sender scenarios:\n");
    let det = by_defense(DefenseId::MissRateDetector);
    for v in det.get("rows").and_then(Value::as_arr).expect("rows") {
        let _ = writeln!(
            buf,
            "  {:<16} flagged: {:<5}  (L2 {}, LLC {})",
            s(v, "label"),
            v.get("flagged").and_then(Value::as_bool).unwrap_or(false),
            pct1(f(v, "l2_miss_rate")),
            pct1(f(v, "llc_miss_rate"))
        );
    }
    buf.push_str(
        "\nshape check: detector flags F+R(mem) only; FIFO/Random kill the channel; DAWG flip rate = 0\n",
    );
    (buf, Value::Arr(outs.to_vec()))
}

fn ablation_multiset_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|k| {
            Scenario::builder()
                .params(ChannelParams {
                    d: 8,
                    target_set: 0,
                    // The receiver sweep grows with K: give it
                    // room in Ts/Tr.
                    ts: 4_000 + 2_000 * k as u64,
                    tr: 600 + 200 * k as u64,
                })
                .kind(ExperimentKind::MultiSet {
                    sets: k,
                    frames: opts.count(24),
                })
                .seed(opts.seed ^ k as u64)
                .build()
        })
        .collect()
}

fn ablation_multiset_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    row(&mut buf, "sets", &["agg. rate", "frame acc."]);
    for (sc, out) in grid.iter().zip(outs) {
        let ExperimentKind::MultiSet { sets, .. } = sc.kind else {
            unreachable!()
        };
        row(
            &mut buf,
            &sets.to_string(),
            &[kbps(f(out, "rate_bps")), pct1(f(out, "accuracy"))],
        );
    }
    buf.push_str(
        "\nshape check: aggregate rate grows with K at near-constant per-frame accuracy\n",
    );
    (buf, Value::Arr(outs.to_vec()))
}

fn ablation_prefetcher_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    [(1usize, false), (7, false), (1, true), (11, true)]
        .into_iter()
        .map(|(rounds, prefetcher)| {
            Scenario::builder()
                .message(MessageSource::Text("prefetchers are noisy".into()))
                .kind(ExperimentKind::Spectre {
                    channel: Channel::LruAlg2,
                    rounds,
                    prefetcher,
                })
                .seed(opts.seed)
                .build()
        })
        .collect()
}

// ---- Noise ablations: BER + channel capacity under injected
// ---- interference (extension of §V; see lru_channel::noise) ----

/// One noisy covert cell: `variant` at its paper-default parameters
/// under `noise`, sending a seed-derived random string. All cells of
/// a ladder share the master seed, so within a sweep the *only*
/// difference between cells is the interference — error-rate deltas
/// are attributable, not sampling noise.
fn noisy_covert_cell(
    opts: &RunOpts,
    variant: Variant,
    noise: NoiseModel,
    repeats: usize,
) -> Result<Scenario, ScenarioError> {
    let params = match variant {
        Variant::NoSharedMemory => ChannelParams::paper_alg2_default(),
        _ => ChannelParams::paper_alg1_default(),
    };

    Scenario::builder()
        .variant(variant)
        .params(params)
        .noise(noise)
        .message(MessageSource::Random { bits: 96, repeats })
        .seed(opts.seed)
        .build()
}

/// The interference ladder of `ablation_noise_ber`: each model at
/// three intensities, mild → hostile, after a noise-free baseline.
/// Intensities are tuned (empirically, at the Fig. 5 operating
/// point) so Algorithm 2's error rate climbs from its clean-channel
/// level into the tens of percent within each ladder.
fn noise_ladder() -> Vec<NoiseModel> {
    let mut ladder = vec![NoiseModel::None];
    // Diffuse pollution: 8-way pressure on every set, rate rising.
    for gap_cycles in [75, 40, 28] {
        ladder.push(NoiseModel::RandomEviction {
            lines: 512,
            gap_cycles,
        });
    }
    // Phase-structured co-runner: 2 lines/set per burst, ever denser.
    for period_cycles in [16_000, 3_700, 2_400] {
        ladder.push(NoiseModel::PeriodicBurst {
            period_cycles,
            burst_lines: 128,
        });
    }
    // Focused contention: a 4-line hot set overlapping the victim's
    // set region, touched per receiver observation with rising p.
    for p in [0.45, 0.6, 0.75] {
        ladder.push(NoiseModel::Bernoulli { p, lines: 4 });
    }
    ladder
}

/// Each ladder entry runs twice: Algorithm 1 (shared memory, the
/// robust single-line hit/miss readout) next to Algorithm 2 (whole-
/// set eviction readout, the noise-sensitive one).
fn ablation_noise_ber_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let repeats = opts.count(4);
    let mut grid = Vec::new();
    for noise in noise_ladder() {
        for variant in [Variant::SharedMemory, Variant::NoSharedMemory] {
            grid.push(noisy_covert_cell(opts, variant, noise, repeats)?);
        }
    }
    Ok(grid)
}

fn ablation_noise_ber_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    row(
        &mut buf,
        "interference",
        &["Alg.1 BER", "Alg.2 BER", "Alg.2 C", "Alg.2 capacity"],
    );
    let mut summary = Vec::new();
    let mut baseline_capacity = 0.0;
    for pair in grid.chunks(2).zip(outs.chunks(2)) {
        let ((sc1, out1), (sc2, out2)) = ((&pair.0[0], &pair.1[0]), (&pair.0[1], &pair.1[1]));
        debug_assert_eq!(sc1.variant, Variant::SharedMemory);
        let err1 = f(out1, "error_rate");
        let err2 = f(out2, "error_rate");
        let rate2 = f(out2, "rate_bps");
        let cap = crate::capacity::bsc_capacity(err2);
        let cap_bps = cap * rate2;
        if sc2.noise.is_none() {
            baseline_capacity = cap_bps;
        }
        row(
            &mut buf,
            &sc2.noise.label(),
            &[pct1(err1), pct1(err2), format!("{cap:.3}"), kbps(cap_bps)],
        );
        for (sc, err) in [(sc1, err1), (sc2, err2)] {
            summary.push(
                Value::obj()
                    .with("variant", sc.variant.name())
                    .with("noise", crate::spec::noise_to_json(&sc.noise))
                    .with("error_rate", err)
                    .with("capacity_bits_per_use", crate::capacity::bsc_capacity(err)),
            );
        }
        if let Some(v) = summary.last_mut() {
            *v = v.clone().with("capacity_bps", cap_bps);
        }
    }
    let _ = writeln!(
        buf,
        "\nshape check: Algorithm 1's single shared-line readout shrugs the interference off;\n\
         Algorithm 2's whole-set readout degrades with every ladder step, from its clean\n\
         capacity of {} down — mirroring the paper's §V-B noise argument",
        kbps(baseline_capacity)
    );
    (buf, Value::Arr(summary))
}

/// Noise levels of the capacity sweep (focused Bernoulli
/// per-observation interference; level 0 is the clean channel).
const NOISE_SWEEP_PS: [f64; 4] = [0.0, 0.3, 0.45, 0.75];

fn noise_sweep_model(p: f64) -> NoiseModel {
    if p == 0.0 {
        NoiseModel::None
    } else {
        NoiseModel::Bernoulli { p, lines: 4 }
    }
}

/// Algorithm 2 over noise level × sender period: the sweep behind
/// the capacity operating-point table. The seed depends only on the
/// column (`ts`), so every noise level of a column replays the same
/// clean run under heavier interference.
fn ablation_noise_capacity_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let repeats = opts.count(4);
    let mut grid = Vec::new();
    for p in NOISE_SWEEP_PS {
        for ts in FIG4_TSS {
            grid.push(
                Scenario::builder()
                    .variant(Variant::NoSharedMemory)
                    .params(ChannelParams {
                        ts,
                        ..ChannelParams::paper_alg2_default()
                    })
                    .noise(noise_sweep_model(p))
                    .message(MessageSource::Random { bits: 96, repeats })
                    .seed(opts.seed ^ ts)
                    .build()?,
            );
        }
    }
    Ok(grid)
}

fn ablation_noise_capacity_render(
    _o: &RunOpts,
    grid: &[Scenario],
    outs: &[Value],
) -> (String, Value) {
    let platform = PlatformId::E5_2690.platform();
    let mut buf = String::new();
    let rate_labels: Vec<String> = FIG4_TSS
        .iter()
        .map(|&ts| kbps(platform.rate_bps(ts)))
        .collect();
    let mut summary = Vec::new();
    let mut next = grid.iter().zip(outs);
    let mut tables = [String::new(), String::new()];
    row(&mut tables[0], "noise \\ nominal rate", &rate_labels);
    row(&mut tables[1], "noise \\ nominal rate", &rate_labels);
    for p in NOISE_SWEEP_PS {
        let label = noise_sweep_model(p).label();
        let mut errs = Vec::new();
        let mut caps = Vec::new();
        let mut best = (0.0f64, 0.0f64); // (capacity_bps, nominal rate)
        for _ in FIG4_TSS {
            let (sc, out) = next.next().expect("grid sized");
            let err = f(out, "error_rate");
            let rate = f(out, "rate_bps");
            let cap_bps = crate::capacity::capacity_bps(err, rate);
            if cap_bps > best.0 {
                best = (cap_bps, rate);
            }
            errs.push(pct1(err));
            caps.push(kbps(cap_bps));
            summary.push(
                Value::obj()
                    .with("noise", crate::spec::noise_to_json(&sc.noise))
                    .with("ts", sc.params.ts)
                    .with("rate_bps", rate)
                    .with("error_rate", err)
                    .with("capacity_bps", cap_bps),
            );
        }
        row(&mut tables[0], &label, &errs);
        row(&mut tables[1], &label, &caps);
        let _ = writeln!(
            &mut tables[1],
            "{:<28} best operating point: {} capacity at nominal {}",
            "",
            kbps(best.0),
            kbps(best.1)
        );
    }
    buf.push_str("\nbit-error rate:\n");
    buf.push_str(&tables[0]);
    buf.push_str("\nShannon capacity (BSC bound, C x nominal rate):\n");
    buf.push_str(&tables[1]);
    buf.push_str(
        "\nshape check: at the fastest nominal rate, capacity falls strictly with every noise\n\
         level; mid-ladder the optimum shifts off the fastest rate and the best/worst spread\n\
         narrows — the channel trades speed for reliability rather than dying outright\n",
    );
    (buf, Value::Arr(summary))
}

// ---- ablation_noise_grid: the dense time-sliced noise grid the
// ---- fast-forwarding execution engine unlocked (Fig. 6 extension) ----

/// Samples per grid cell. The paper takes 1000 per Fig. 6 point; the
/// fractions stabilize well before that, and 120 keeps the 26-cell
/// grid inside a bench run. Public so `bench_execsim_smoke` records
/// the workload it actually timed.
pub const NOISE_GRID_SAMPLES: usize = 120;

/// `Tr` (= `Ts`) of every cell: the paper's headline 1e8-cycle
/// time-sliced operating point.
const NOISE_GRID_TR: u64 = 100_000_000;

/// The noise × intensity axis: a clean baseline, then four
/// interference families at three intensities each (mild → hostile).
///
/// The channel sits on **set 32** so the off-channel family (16-line
/// buffer, sets 0–15) provably never touches the target set or the
/// probe's reserved set — the disjoint-footprint shape the execution
/// engine advances in closed form, which is what makes this grid
/// affordable to run densely.
fn noise_grid_axis() -> Vec<NoiseModel> {
    let mut axis = vec![NoiseModel::None];
    // Off-channel co-runner: busy, but provably outside the channel.
    for gap_cycles in [120_000, 60_000, 30_000] {
        axis.push(NoiseModel::RandomEviction {
            lines: 16,
            gap_cycles,
        });
    }
    // Diffuse eviction pressure: 8 lines per set cycling through
    // every set — the one family whose damage *grades* with rate
    // (the gap spans the onset: barely felt → halved → collapsed).
    for gap_cycles in [20_000_000, 3_000_000, 800_000] {
        axis.push(NoiseModel::RandomEviction {
            lines: 512,
            gap_cycles,
        });
    }
    // Occupancy bursts: 2 lines per set become L1-resident after the
    // first burst and permanently steal associativity — lethal at
    // *any* period (the interesting finding: displacement, not rate).
    for period_cycles in [300_000_000, 30_000_000, 3_000_000] {
        axis.push(NoiseModel::PeriodicBurst {
            period_cycles,
            burst_lines: 128,
        });
    }
    // Sparse per-observation touches over the whole cache: even at
    // p = 0.9 a single line install per Tr window cannot cycle an
    // 8-way set — harmless at this operating point.
    for p in [0.3, 0.6, 0.9] {
        axis.push(NoiseModel::Bernoulli { p, lines: 64 });
    }
    axis
}

fn ablation_noise_grid_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    let samples = opts.count(NOISE_GRID_SAMPLES);
    let mut grid = Vec::new();
    for (idx, noise) in noise_grid_axis().into_iter().enumerate() {
        for bit in [false, true] {
            grid.push(
                Scenario::builder()
                    .sharing(Sharing::TimeSliced)
                    .params(ChannelParams {
                        d: 8,
                        target_set: 32,
                        ts: NOISE_GRID_TR,
                        tr: NOISE_GRID_TR,
                    })
                    .noise(noise)
                    .message(MessageSource::Constant { bit, bits: 1 })
                    .kind(ExperimentKind::PercentOnes { samples })
                    .seed(opts.seed ^ ((idx as u64 + 1).wrapping_mul(0x9e37)) ^ u64::from(bit))
                    .build()?,
            );
        }
    }
    Ok(grid)
}

fn ablation_noise_grid_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    row(
        &mut buf,
        "interference",
        &["% 1s sent 0", "% 1s sent 1", "0/1 gap"],
    );
    let mut summary = Vec::new();
    let mut clean_gap = 0.0f64;
    for (pair_s, pair_o) in grid.chunks(2).zip(outs.chunks(2)) {
        let (sc0, sc1) = (&pair_s[0], &pair_s[1]);
        debug_assert!(sc0.noise == sc1.noise);
        let p0 = f(&pair_o[0], "fraction");
        let p1 = f(&pair_o[1], "fraction");
        let gap = p1 - p0;
        if sc0.noise.is_none() {
            clean_gap = gap;
        }
        row(
            &mut buf,
            &sc0.noise.label(),
            &[pct1(p0), pct1(p1), pct1(gap)],
        );
        summary.push(
            Value::obj()
                .with("noise", crate::spec::noise_to_json(&sc0.noise))
                .with("tr", sc0.params.tr)
                .with("p_ones_sent_0", p0)
                .with("p_ones_sent_1", p1)
                .with("gap", gap),
        );
    }
    let _ = writeln!(
        buf,
        "\nshape check: the off-channel co-runner (16 lines, sets 0-15) keeps the 0-vs-1 gap\n\
         near the clean {} — its quanta are fast-forwarded, not simulated. Of the on-channel\n\
         families, 512-line eviction pressure closes the gap gradually as its rate rises\n\
         (the §V-B pollution that killed time-sliced Alg.2), the 128-line bursts kill at\n\
         any period (2 resident lines/set displace the receiver's working set outright),\n\
         and sparse per-observation touches leave the channel intact even at p=0.9",
        pct1(clean_gap)
    );
    (buf, Value::Arr(summary))
}

fn ablation_prefetcher_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    for (sc, out) in grid.iter().zip(outs) {
        let ExperimentKind::Spectre {
            rounds, prefetcher, ..
        } = sc.kind
        else {
            unreachable!()
        };
        let label = format!(
            "{} prefetcher, {rounds} round{}",
            if prefetcher { "next-line" } else { "no" },
            if rounds == 1 { "" } else { "s" }
        );
        let _ = writeln!(
            buf,
            "{label:<34} accuracy {:>5.1}%   {:?}",
            f(out, "accuracy") * 100.0,
            s(out, "recovered")
        );
    }
    buf.push_str(
        "\nshape check: prefetcher + 1 round degrades; the Appendix-C mitigation restores accuracy\n",
    );
    (buf, Value::Arr(outs.to_vec()))
}

// ---- Cross-core L2 artifacts: the hierarchy-backend contrasts ----

fn l2_lru_channel_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    Inclusion::all()
        .map(|h| {
            Scenario::builder()
                .kind(ExperimentKind::L2Channel {
                    samples: opts.count(64),
                })
                .message(MessageSource::Alternating { bits: 16 })
                .hierarchy(h)
                .seed(opts.seed)
                .build()
        })
        .collect()
}

fn l2_lru_channel_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    row(&mut buf, "hierarchy", &["error rate", "decoded"]);
    let mut summary = Vec::new();
    for (sc, out) in grid.iter().zip(outs) {
        let err = f(out, "error_rate");
        let decoded = s(out, "decoded");
        let glimpse: String = decoded.chars().take(16).collect();
        row(&mut buf, sc.hierarchy.name(), &[pct1(err), glimpse]);
        summary.push(
            Value::obj()
                .with("hierarchy", sc.hierarchy.name())
                .with("error_rate", err),
        );
    }
    buf.push_str(
        "\nshape check: the silent backends read all-zeros (error = fraction of ones sent);\n\
         back-invalidation makes the L2 LRU state receiver-visible and the error collapses\n",
    );
    (buf, Value::Arr(summary))
}

fn l2_inclusion_victim_grid(opts: &RunOpts) -> Result<Vec<Scenario>, ScenarioError> {
    Inclusion::all()
        .map(|h| {
            Scenario::builder()
                .kind(ExperimentKind::InclusionVictim {
                    trials: opts.count(64),
                })
                .hierarchy(h)
                .seed(opts.seed)
                .build()
        })
        .collect()
}

fn l2_inclusion_victim_render(_o: &RunOpts, grid: &[Scenario], outs: &[Value]) -> (String, Value) {
    let mut buf = String::new();
    row(&mut buf, "hierarchy", &["signal rate", "reload cycles"]);
    let mut summary = Vec::new();
    for (sc, out) in grid.iter().zip(outs) {
        let signal = f(out, "signal_rate");
        let cycles = f(out, "reload_cycles_mean");
        row(
            &mut buf,
            sc.hierarchy.name(),
            &[pct1(signal), format!("{cycles:.1}")],
        );
        summary.push(
            Value::obj()
                .with("hierarchy", sc.hierarchy.name())
                .with("signal_rate", signal)
                .with("reload_cycles_mean", cycles),
        );
    }
    buf.push_str(
        "\nshape check: inclusion victims exist only under back-invalidation — 100% of\n\
         reloads miss L1 there, 0% under the silent inclusive/non-inclusive backends\n",
    );
    (buf, Value::Arr(summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_has_a_nonempty_valid_grid() {
        let opts = RunOpts {
            trials: Some(2),
            ..RunOpts::default()
        };
        for artifact in ARTIFACTS {
            let grid = artifact.scenarios(&opts);
            assert!(!grid.is_empty(), "{} grid is empty", artifact.id);
            for sc in &grid {
                // Every registry scenario survives a serialize →
                // revalidate round trip, in both encodings: the strict
                // reader accepts every key the encoder writes.
                for json in [sc.to_json(), sc.to_json_full()] {
                    let back = Scenario::from_json_str(&json.to_string())
                        .unwrap_or_else(|e| panic!("{}: {e}", artifact.id));
                    assert_eq!(&back, sc);
                }
            }
        }
    }

    #[test]
    fn lookup_resolves_ids_and_bench_names() {
        assert!(get("fig6").is_some());
        assert!(get("fig6_timesliced").is_some());
        assert!(get("table4").is_some());
        assert!(get("nope").is_none());
        assert_eq!(ids().len(), ARTIFACTS.len());
    }

    #[test]
    fn small_fig5_report_is_deterministic() {
        let opts = RunOpts::default();
        let a = get("fig5").unwrap();
        let r1 = a.run(&opts);
        let r2 = a.run(&opts);
        assert_eq!(r1.text, r2.text);
        assert_eq!(r1.metrics.to_string(), r2.metrics.to_string());
        assert!(r1.text.contains("sent bits:"));
    }

    #[test]
    fn table3_runs_fast_and_reports_specs() {
        let r = get("table3").unwrap().run(&RunOpts::default());
        assert!(r.text.contains("E5-2690") || r.text.contains("2690"));
        assert!(r.metrics.get("summary").is_some());
    }
}
