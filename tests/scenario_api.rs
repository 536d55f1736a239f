//! Integration tests of the unified scenario surface: the builder's
//! validation, lossless serialization, registry completeness, and
//! the CLI contract (deterministic JSON, registry-equivalent text).

use lru_leak::lru_channel::params::ParamError;
use lru_leak::lru_channel::trials::RunCtrl;
use lru_leak::scenario::registry::{self, RunOpts};
use lru_leak::scenario::spec::{ExperimentKind, MessageSource, PlatformId, Scenario};
use lru_leak::scenario::{ScenarioError, Value};

/// Every paper artifact's long `bench` name — the label each report
/// header prints, and an alias `registry::get` accepts for the ID.
const BENCH_TARGETS: [&str; 26] = [
    "fig3_pointer_chase",
    "fig4_error_rates",
    "fig5_traces",
    "fig6_timesliced",
    "fig7_amd_traces",
    "fig8_amd_timesliced",
    "fig9_policy_perf",
    "fig11_pl_cache",
    "fig13_rdtscp",
    "fig14_e3_traces",
    "fig15_e3_timesliced",
    "table1_plru_eviction",
    "table2_latencies",
    "table3_platforms",
    "table4_rates",
    "table5_encoding",
    "table6_sender_miss",
    "table7_spectre_miss",
    "ablation_defenses",
    "ablation_multiset",
    "ablation_prefetcher",
    "ablation_noise_ber",
    "ablation_noise_capacity",
    "ablation_noise_grid",
    "l2_lru_channel",
    "l2_inclusion_victim",
];

#[test]
fn registry_resolves_every_bench_artifact() {
    for bench in BENCH_TARGETS {
        let artifact = registry::get(bench)
            .unwrap_or_else(|| panic!("bench target {bench} has no registry artifact"));
        assert_eq!(artifact.bench, bench);
        // The short ID resolves to the same artifact.
        assert!(std::ptr::eq(registry::get(artifact.id).unwrap(), artifact));
        // And its grid is non-empty with pre-validated scenarios.
        let grid = artifact.scenarios(&RunOpts {
            trials: Some(2),
            ..RunOpts::default()
        });
        assert!(!grid.is_empty(), "{bench} grid is empty");
    }
    assert_eq!(
        registry::ids().len(),
        BENCH_TARGETS.len(),
        "registry and bench-target list must stay in sync"
    );
}

#[test]
fn builder_rejects_geometry_incompatible_params_via_param_error() {
    // d beyond the 8 ways of every simulated L1.
    let err = Scenario::builder().d(9).build().unwrap_err();
    assert!(matches!(
        err,
        ScenarioError::Param(ParamError::BadD { d: 9, ways: 8 })
    ));
    // Set index beyond the 64 sets.
    let err = Scenario::builder()
        .platform(PlatformId::Epyc7571)
        .target_set(1_000)
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        ScenarioError::Param(ParamError::BadTargetSet {
            set: 1_000,
            num_sets: 64
        })
    ));
    // Receiver period longer than the sender period.
    let err = Scenario::builder().ts(500).tr(600).build().unwrap_err();
    assert!(matches!(
        err,
        ScenarioError::Param(ParamError::BadTiming { ts: 500, tr: 600 })
    ));
}

#[test]
fn scenarios_round_trip_losslessly_through_json() {
    // Every scenario of every registered grid survives
    // serialize → parse → revalidate, and re-serializes to the
    // same bytes.
    let opts = RunOpts {
        trials: Some(2),
        ..RunOpts::default()
    };
    for id in registry::ids() {
        for sc in registry::get(id).unwrap().scenarios(&opts) {
            let text = sc.to_json().to_string();
            let back = Scenario::from_json_str(&text)
                .unwrap_or_else(|e| panic!("{id}: {e}\nscenario: {text}"));
            assert_eq!(back, sc, "{id} round trip");
            assert_eq!(back.to_json().to_string(), text, "{id} fixed point");
        }
    }
}

// ---- The noise axis: JSON edge cases and the backward-
// ---- compatibility pin ----

/// The exact bytes `Scenario::builder().build().to_json()` produced
/// *before* the noise subsystem existed. Default-noise scenarios
/// must keep encoding to these bytes forever — the noise axis is
/// omitted at its default, not serialized as a new field.
const PRE_NOISE_DEFAULT_JSON: &str = r#"{"platform":"e5-2690","policy":"tree-plru","variant":"alg1-shared-memory","sharing":"hyper-threaded","defense":"none","workload":"idle","params":{"d":8,"target_set":0,"ts":6000,"tr":600},"message":{"alternating":20},"kind":{"covert":{}},"trials":1,"seed":298501349}"#;

/// Same pin for a registry grid cell (the first fig6 scenario).
const PRE_NOISE_FIG6_CELL_JSON: &str = r#"{"platform":"e5-2690","policy":"tree-plru","variant":"alg1-shared-memory","sharing":"time-sliced","defense":"none","workload":"idle","params":{"d":1,"target_set":0,"ts":50000000,"tr":50000000},"message":{"constant":{"bit":false,"bits":1}},"kind":{"percent-ones":{"samples":150}},"trials":1,"seed":321926244}"#;

#[test]
fn default_noise_scenarios_keep_their_pre_noise_encoding() {
    let s = Scenario::builder().build().unwrap();
    assert_eq!(s.to_json().to_string(), PRE_NOISE_DEFAULT_JSON);
    // And the pre-noise bytes parse back to the same scenario.
    assert_eq!(Scenario::from_json_str(PRE_NOISE_DEFAULT_JSON).unwrap(), s);

    let fig6 = registry::get("fig6")
        .unwrap()
        .scenarios(&RunOpts::default());
    assert_eq!(fig6[0].to_json().to_string(), PRE_NOISE_FIG6_CELL_JSON);
    assert_eq!(
        Scenario::from_json_str(PRE_NOISE_FIG6_CELL_JSON).unwrap(),
        fig6[0]
    );
}

#[test]
fn unknown_noise_models_are_rejected_with_a_clear_error() {
    for noise in [
        r#""thermal""#,
        r#"{"thermal":{"degrees":451}}"#,
        r#"{"bernoulli":{"p":0.5,"lines":64},"extra":{}}"#,
        "42",
    ] {
        let text = PRE_NOISE_DEFAULT_JSON
            .replace(r#","params""#, &format!(r#","noise":{noise},"params""#));
        let err = Scenario::from_json_str(&text).unwrap_err();
        let ScenarioError::Parse(msg) = &err else {
            panic!("noise={noise}: expected a parse error, got {err:?}");
        };
        assert!(
            msg.contains("noise"),
            "noise={noise}: error should name the noise field, got {msg:?}"
        );
    }
    // Unknown model names list the valid ones.
    let text =
        PRE_NOISE_DEFAULT_JSON.replace(r#","params""#, r#","noise":{"thermal":{}},"params""#);
    let msg = Scenario::from_json_str(&text).unwrap_err().to_string();
    assert!(
        msg.contains("random-eviction") && msg.contains("bernoulli"),
        "error should list the valid models, got {msg:?}"
    );
}

#[test]
fn noise_axes_round_trip_losslessly() {
    use lru_leak::scenario::NoiseModel;
    for noise in [
        NoiseModel::RandomEviction {
            lines: 512,
            gap_cycles: 75,
        },
        NoiseModel::PeriodicBurst {
            period_cycles: 3_700,
            burst_lines: 128,
        },
        NoiseModel::Bernoulli { p: 0.45, lines: 4 },
    ] {
        let s = Scenario::builder()
            .noise(noise)
            .message(MessageSource::Random {
                bits: 16,
                repeats: 1,
            })
            .build()
            .unwrap();
        let text = s.to_json().to_string();
        assert!(text.contains("\"noise\""), "non-default noise serializes");
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json().to_string(), text, "fixed point");
    }
}

#[test]
fn noise_validation_rejects_degenerate_and_misplaced_models() {
    use lru_leak::scenario::NoiseModel;
    // Bad parameters surface as incompatible-scenario errors.
    let err = Scenario::builder()
        .noise(NoiseModel::Bernoulli { p: 2.0, lines: 4 })
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Incompatible(_)), "{err}");
    // Kinds outside the scheduled channel reject the axis.
    let err = Scenario::builder()
        .noise(NoiseModel::Bernoulli { p: 0.5, lines: 4 })
        .kind(ExperimentKind::PlatformSpec)
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Incompatible(_)), "{err}");
}

#[test]
fn to_json_full_spells_out_the_default_noise_axis() {
    let s = Scenario::builder().build().unwrap();
    let full = s.to_json_full();
    assert_eq!(
        full.get("noise").and_then(Value::as_str),
        Some("none"),
        "to_json_full must not hide the default axis"
    );
    // Explicit "none" parses back to the same scenario, whose
    // canonical encoding is still the pre-noise bytes.
    let back = Scenario::from_json(&full).unwrap();
    assert_eq!(back, s);
    assert_eq!(back.to_json().to_string(), PRE_NOISE_DEFAULT_JSON);
}

#[test]
fn cli_json_is_bit_identical_across_runs() {
    let args: Vec<String> = ["run", "table3", "--json", "--seed", "7"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let first = lru_leak_cli::run_cli(&args).expect("CLI run succeeds");
    let second = lru_leak_cli::run_cli(&args).expect("CLI run succeeds");
    assert_eq!(first, second, "JSON output must be byte-identical");
    let parsed = Value::parse(first.trim()).expect("CLI emits valid JSON");
    assert_eq!(parsed.get("id").and_then(Value::as_str), Some("table3"));
    assert_eq!(parsed.get("seed").and_then(Value::as_u64), Some(7));
    assert!(parsed.get("scenarios").and_then(Value::as_arr).is_some());
}

#[test]
fn cli_text_matches_the_registry_report() {
    let report = registry::get("table3").unwrap().run(&RunOpts::default());
    let args: Vec<String> = ["run", "table3"].iter().map(|s| s.to_string()).collect();
    let cli = lru_leak_cli::run_cli(&args).unwrap();
    assert_eq!(cli, report.text, "CLI `run` must print the bench text");
}

#[test]
fn cli_adhoc_runs_a_serialized_scenario_deterministically() {
    let sc = Scenario::builder()
        .kind(ExperimentKind::PlruEviction {
            sequence: lru_leak::scenario::spec::SequenceKind::Seq1,
            init: lru_leak::scenario::spec::InitCond::Random,
            iterations: 8,
            trials: 200,
        })
        .message(MessageSource::Alternating { bits: 1 })
        .seed(11)
        .build()
        .unwrap();
    let args: Vec<String> = ["adhoc", &sc.to_json().to_string(), "--json"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let first = lru_leak_cli::run_cli(&args).unwrap();
    let second = lru_leak_cli::run_cli(&args).unwrap();
    assert_eq!(first, second);
    let parsed = Value::parse(first.trim()).unwrap();
    let steady = parsed
        .get("outcome")
        .and_then(|o| o.get("steady_state"))
        .and_then(Value::as_f64)
        .expect("outcome carries the eviction curve");
    assert!(
        steady > 0.9,
        "Tree-PLRU Seq1 reaches eviction, got {steady}"
    );
}

#[test]
fn spectre_accuracy_scores_the_secret_as_transmitted() {
    // `encode_symbols` sends every character outside the alphabet as
    // a space, so a perfect recovery of "Hi!" reads "Hi " and must
    // score 1.0 (as `delayed_update::spectre_under_mode` does), not
    // the 2 of 3 a raw byte compare against the secret gives.
    let cell = registry::get("table7")
        .unwrap()
        .scenarios(&RunOpts::default())
        .pop()
        .unwrap();
    let secret = cell
        .message
        .text()
        .expect("table7's last cell is a text secret");
    let json = cell
        .to_json()
        .to_string()
        .replace(&format!("{:?}", secret), r#""Hi!""#);
    assert!(json.contains(r#""Hi!""#), "{json}");
    let out = cli(&["adhoc", &json, "--json"]).unwrap();
    let parsed = Value::parse(out.trim()).unwrap();
    let outcome = parsed.get("outcome").expect("adhoc prints the outcome");
    assert_eq!(
        outcome.get("recovered").and_then(Value::as_str),
        Some("Hi ")
    );
    assert_eq!(outcome.get("accuracy").and_then(Value::as_f64), Some(1.0));
}

// ---- CLI robustness: bad input must exit non-zero with a message,
// ---- never panic ----

fn cli(args: &[&str]) -> Result<String, lru_leak_cli::CliError> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    lru_leak_cli::run_cli(&args)
}

#[test]
fn unknown_artifact_ids_exit_nonzero_with_a_message() {
    for cmd in ["run", "show"] {
        let err = cli(&[cmd, "fig99"]).unwrap_err();
        assert_eq!(err.code, 1, "{cmd} fig99 must exit 1");
        assert!(
            err.message.contains("fig99") && err.message.contains("list"),
            "{cmd}: message should name the artifact and point at `list`, got {:?}",
            err.message
        );
    }
}

#[test]
fn malformed_adhoc_json_exits_nonzero_with_a_message() {
    // Truncated JSON, valid JSON of the wrong shape, an unknown
    // enum value, a geometry violation, a missing @file and a 2 MiB
    // @file (over the wire's frame cap): every one is a clean error,
    // not a panic.
    let big = std::env::temp_dir().join(format!("lru-leak-big-{}.json", std::process::id()));
    std::fs::write(&big, vec![b' '; 2 << 20]).unwrap();
    let big_arg = format!("@{}", big.display());
    for (bad, needle) in [
        (r#"{"platform":"#, "cannot parse"),
        ("[1,2,3]", "platform"),
        (r#"{"platform":"z80"}"#, "platform"),
        ("@/no/such/file.json", "cannot read"),
        (big_arg.as_str(), "byte scenario cap"),
    ] {
        let err = cli(&["adhoc", bad, "--json"]).unwrap_err();
        assert_eq!(err.code, 1, "adhoc {bad:?} must exit 1");
        assert!(
            err.message.contains(needle),
            "adhoc {bad:?}: expected {needle:?} in {:?}",
            err.message
        );
    }
    let _ = std::fs::remove_file(&big);
    // A structurally valid scenario that violates cache geometry.
    let mut sc = Scenario::builder()
        .message(MessageSource::Alternating { bits: 4 })
        .build()
        .unwrap();
    sc.params.d = 9;
    let err = cli(&["adhoc", &sc.to_json().to_string()]).unwrap_err();
    assert_eq!(err.code, 1);
    assert!(err.message.contains('d'), "got {:?}", err.message);
}

#[test]
fn run_all_rejects_bad_usage() {
    let err = cli(&["run-all", "fig5"]).unwrap_err();
    assert_eq!(
        err.code, 2,
        "run-all with a positional arg is a usage error"
    );
    let err = cli(&["run-all", "--frobnicate"]).unwrap_err();
    assert_eq!(err.code, 2);
    let err = cli(&["run-all", "--summary"]).unwrap_err();
    assert_eq!(err.code, 2, "--summary is adhoc-only");
    let err = cli(&["run", "fig5", "--summary"]).unwrap_err();
    assert_eq!(err.code, 2, "--summary is adhoc-only");
    let err = cli(&["show", "fig5", "--summary"]).unwrap_err();
    assert_eq!(err.code, 2, "--summary is adhoc-only");
    let err = cli(&["show", "fig5", "--progress"]).unwrap_err();
    assert_eq!(err.code, 2, "show has nothing to report progress on");
}

#[test]
fn run_all_executes_every_artifact_in_one_batch() {
    let out = cli(&["run-all", "--trials", "1", "--json", "--seed", "3"]).unwrap();
    let v = Value::parse(out.trim()).expect("run-all emits valid JSON");
    assert_eq!(v.get("command").and_then(Value::as_str), Some("run-all"));
    assert_eq!(v.get("seed").and_then(Value::as_u64), Some(3));
    let arts = v.get("artifacts").and_then(Value::as_arr).unwrap();
    assert_eq!(
        arts.len(),
        registry::ids().len(),
        "run-all must cover the whole registry"
    );
    for (artifact, id) in arts.iter().zip(registry::ids()) {
        assert_eq!(artifact.get("id").and_then(Value::as_str), Some(id));
        assert!(artifact.get("scenarios").is_some(), "{id} carries its grid");
    }
    // The summary block reports the batch and per-artifact wall
    // clocks: one timing entry per artifact, in registry order.
    assert!(v.get("wall_millis").and_then(Value::as_u64).is_some());
    let timings = v.get("timings").and_then(Value::as_arr).unwrap();
    assert_eq!(timings.len(), registry::ids().len());
    for (t, id) in timings.iter().zip(registry::ids()) {
        assert_eq!(t.get("id").and_then(Value::as_str), Some(id));
        assert!(t.get("millis").and_then(Value::as_u64).is_some());
        assert_eq!(t.get("status").and_then(Value::as_str), Some("ok"));
    }
}

#[test]
fn run_all_csv_dir_writes_one_csv_per_artifact() {
    let dir = std::env::temp_dir().join(format!("lru_leak_csv_{}", std::process::id()));
    let dir_s = dir.to_str().unwrap().to_string();
    let out = cli(&[
        "run-all",
        "--trials",
        "1",
        "--seed",
        "3",
        "--csv-dir",
        &dir_s,
    ])
    .unwrap();
    assert!(
        out.contains("run-all:"),
        "stdout keeps the text report alongside the CSV export"
    );
    for id in registry::ids() {
        let path = dir.join(format!("{id}.csv"));
        let csv = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{id}.csv must be written: {e}"));
        let mut lines = csv.lines();
        let headline = lines.next().unwrap_or_default();
        assert!(
            headline.starts_with("artifact"),
            "{id}.csv header row, got {headline:?}"
        );
        // Every data row is the artifact's and has the header's
        // column count (flattening is rectangular).
        let cols = headline.split(',').count();
        for line in lines {
            assert!(line.starts_with(id), "{id}.csv row {line:?}");
            // Quoted cells may embed commas; a simple count is only
            // valid for rows without quotes.
            if !line.contains('"') {
                assert_eq!(line.split(',').count(), cols, "{id}.csv row {line:?}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_goes_to_the_sink_not_stdout() {
    use std::sync::Mutex;
    let lines = Mutex::new(Vec::new());
    let sink = |line: &str| lines.lock().unwrap().push(line.to_string());
    let args: Vec<String> = ["run", "table3", "--progress"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let out = lru_leak_cli::run_cli_with(&args, &sink).unwrap();
    let progress = lines.into_inner().unwrap();
    assert!(
        progress
            .iter()
            .any(|l| l.contains("table3") && l.contains("scenarios")),
        "expected table3 progress lines, got {progress:?}"
    );
    // stdout is the same bytes as a run without --progress.
    let plain = cli(&["run", "table3"]).unwrap();
    assert_eq!(out, plain, "--progress must not change stdout");
}

#[test]
fn adhoc_summary_streams_a_constant_memory_aggregate() {
    let sc = Scenario::builder()
        .kind(ExperimentKind::PlruEviction {
            sequence: lru_leak::scenario::spec::SequenceKind::Seq1,
            init: lru_leak::scenario::spec::InitCond::Random,
            iterations: 2,
            trials: 1,
        })
        .message(MessageSource::Alternating { bits: 1 })
        .trials(300)
        .seed(21)
        .build()
        .unwrap();
    let out = cli(&["adhoc", &sc.to_json().to_string(), "--summary", "--json"]).unwrap();
    let v = Value::parse(out.trim()).unwrap();
    let outcome = v.get("outcome").unwrap();
    assert_eq!(
        outcome.get("aggregate").and_then(Value::as_str),
        Some("stats"),
        "summary must be the streaming aggregate, got {outcome}"
    );
    let stat = outcome
        .get("keys")
        .and_then(|k| k.get("steady_state"))
        .expect("steady_state stats");
    assert_eq!(stat.get("count").and_then(Value::as_u64), Some(300));
}

#[test]
fn trials_override_scales_grids() {
    let small = registry::get("fig6").unwrap().scenarios(&RunOpts {
        trials: Some(3),
        ..RunOpts::default()
    });
    for sc in &small {
        assert_eq!(sc.kind, ExperimentKind::PercentOnes { samples: 3 });
    }
}

#[test]
fn adhoc_threads_does_not_latch_the_default_worker_count() {
    // `--threads` sizes one run; later runs in the same process
    // (tests, or anything embedding the CLI) keep their own default.
    let before = RunCtrl::new().workers();
    let k = (before + 1).to_string();
    let sc = Scenario::builder()
        .kind(ExperimentKind::PlruEviction {
            sequence: lru_leak::scenario::spec::SequenceKind::Seq1,
            init: lru_leak::scenario::spec::InitCond::Random,
            iterations: 2,
            trials: 1,
        })
        .message(MessageSource::Alternating { bits: 1 })
        .trials(4)
        .build()
        .unwrap();
    cli(&["adhoc", &sc.to_json().to_string(), "--threads", &k]).unwrap();
    assert_eq!(RunCtrl::new().workers(), before);
}

// ---- Oversized element counts: a typed rejection, never an abort ----

/// `valid` re-serialized with `field` (which must appear in it) set
/// to 10^12, then run through `lru-leak adhoc`: it must exit 1 with
/// the typed error. Before the cap each of these asked for a
/// terabyte-scale buffer and aborted the process.
fn oversized_adhoc_is_incompatible(valid: &Scenario, field: &str, value: &str) {
    let json = valid.to_json().to_string();
    let huge = json.replace(&format!("{field}{value}"), &format!("{field}1000000000000"));
    assert_ne!(huge, json, "{field}{value} must appear in {json}");
    let err = cli(&["adhoc", &huge, "--json"]).unwrap_err();
    assert_eq!(err.code, 1, "{huge}");
    assert!(
        err.message.contains("incompatible scenario"),
        "{huge}: got {:?}",
        err.message
    );
}

fn plru_eviction(iterations: usize) -> Result<Scenario, ScenarioError> {
    Scenario::builder()
        .kind(ExperimentKind::PlruEviction {
            sequence: lru_leak::scenario::spec::SequenceKind::Seq1,
            init: lru_leak::scenario::spec::InitCond::Random,
            iterations,
            trials: 1,
        })
        .build()
}

#[test]
fn plru_eviction_iterations_are_capped() {
    use lru_leak::scenario::MAX_COUNT;
    plru_eviction(MAX_COUNT).expect("the cap itself validates");
    let err = plru_eviction(MAX_COUNT + 1).unwrap_err();
    assert!(matches!(err, ScenarioError::Incompatible(_)), "{err}");
    oversized_adhoc_is_incompatible(&plru_eviction(12).unwrap(), "\"iterations\":", "12");
}

#[test]
fn l2_channel_samples_are_capped() {
    use lru_leak::scenario::MAX_COUNT;
    let l2 = |samples| {
        Scenario::builder()
            .kind(ExperimentKind::L2Channel { samples })
            .message(MessageSource::Alternating { bits: 16 })
            .build()
    };
    l2(MAX_COUNT).expect("the cap itself validates");
    let err = l2(MAX_COUNT + 1).unwrap_err();
    assert!(matches!(err, ScenarioError::Incompatible(_)), "{err}");
    oversized_adhoc_is_incompatible(&l2(64).unwrap(), "\"samples\":", "64");
}

#[test]
fn covert_message_length_is_capped() {
    use lru_leak::scenario::MAX_COUNT;
    let covert = |bits, repeats| {
        Scenario::builder()
            .message(MessageSource::Random { bits, repeats })
            .build()
    };
    covert(MAX_COUNT, 1).expect("the cap itself validates");
    covert(MAX_COUNT / 4, 4).expect("so does a repeated message at the cap");
    for (bits, repeats) in [
        (MAX_COUNT + 1, 1),
        (MAX_COUNT, 2),
        // `bits` realizes one base string even with zero repeats.
        (MAX_COUNT + 1, 0),
        // bits × repeats overflows usize.
        (usize::MAX / 2, 3),
    ] {
        let err = covert(bits, repeats).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Incompatible(_)),
            "{bits}×{repeats}: {err}"
        );
    }
    oversized_adhoc_is_incompatible(&covert(128, 1).unwrap(), "\"bits\":", "128");
}

#[test]
fn every_message_sending_kind_rejects_an_empty_message() {
    // Each of these senders cycles through the message bit by bit;
    // an empty one used to build and then panic at run time, and so
    // did a multi-set run with nothing to send.
    let kinds = [
        ExperimentKind::Covert,
        ExperimentKind::PrimeProbe { samples: 64 },
        ExperimentKind::FlushReload {
            samples: 64,
            to_mem: false,
        },
        ExperimentKind::L2Channel { samples: 64 },
    ];
    for kind in kinds {
        let with = |message| {
            Scenario::builder()
                .kind(kind.clone())
                .message(message)
                .build()
        };
        let valid = with(MessageSource::Alternating { bits: 8 }).expect("a non-empty message");
        // Zero repeats still send the base string once.
        with(MessageSource::Random {
            bits: 8,
            repeats: 0,
        })
        .expect("a random string with zero repeats is not empty");
        let want = format!("{} needs a non-empty message", kind.tag());
        for (empty, empty_json) in [
            (
                MessageSource::Alternating { bits: 0 },
                r#"{"alternating":0}"#,
            ),
            (MessageSource::Text(String::new()), r#"{"text":""}"#),
        ] {
            let err = with(empty.clone()).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Incompatible(m) if *m == want),
                "{empty:?}: {err}"
            );
            let json = valid
                .to_json()
                .to_string()
                .replace(r#"{"alternating":8}"#, empty_json);
            assert!(json.contains(empty_json), "{json}");
            let err = cli(&["adhoc", &json, "--json"]).unwrap_err();
            assert_eq!(err.code, 1, "{json}");
            assert!(
                err.message.contains("incompatible scenario") && err.message.contains(&want),
                "{json}: got {:?}",
                err.message
            );
        }
    }
    // Multi-set sends a text payload one byte per frame, and random
    // frames otherwise: an empty text or zero frames sends nothing.
    let multi_set = |frames, message| {
        Scenario::builder()
            .kind(ExperimentKind::MultiSet { sets: 8, frames })
            .message(message)
            .build()
    };
    multi_set(0, MessageSource::Text("Hi".into())).expect("the text sets the frames");
    multi_set(2, MessageSource::Alternating { bits: 0 }).expect("random frames");
    for (frames, message, want) in [
        (
            2,
            MessageSource::Text(String::new()),
            "multi-set needs a non-empty message",
        ),
        (
            0,
            MessageSource::Alternating { bits: 8 },
            "multi-set needs frames >= 1",
        ),
    ] {
        let err = multi_set(frames, message).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Incompatible(m) if m == want),
            "{err}"
        );
    }
}

#[test]
fn trials_that_push_a_grid_past_a_count_cap_are_a_typed_error() {
    // l2_lru_channel sends one bit per trial; past the cap its grid
    // does not validate. `run` and `show` report that instead of
    // panicking in the grid builder.
    let over = (lru_leak::scenario::MAX_COUNT + 1).to_string();
    for cmd in ["run", "show"] {
        let err = cli(&[cmd, "l2_lru_channel", "--trials", &over]).unwrap_err();
        assert_eq!(err.code, 1, "{cmd}");
        assert!(
            err.message.contains("incompatible scenario"),
            "{cmd}: got {:?}",
            err.message
        );
    }
    // adhoc applies --trials before validating, so the same cap
    // bounds the trial count that would run.
    let sc = Scenario::builder().build().unwrap().to_json().to_string();
    let err = cli(&["adhoc", &sc, "--trials", &over]).unwrap_err();
    assert_eq!(err.code, 1);
    assert!(err.message.contains("trials must be <="), "{}", err.message);
    let opts = RunOpts {
        trials: Some(lru_leak::scenario::MAX_COUNT + 1),
        ..RunOpts::default()
    };
    let err = registry::get("l2_lru_channel")
        .unwrap()
        .try_scenarios(&opts)
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Incompatible(_)), "{err}");
}
