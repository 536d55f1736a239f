//! The wire protocol: newline-delimited JSON requests and events,
//! plus the canonical coalescing key.
//!
//! A client sends one JSON object per line; the server answers with
//! one or more event lines (every event object carries an `"event"`
//! discriminator). Requests:
//!
//! ```text
//! {"cmd":"run","artifact":"fig6"}                      registry artifact
//! {"cmd":"adhoc","scenario":{...}}                     ad-hoc scenario
//!     optional fields on both: "trials", "seed", "threads",
//!     "timeout_secs", "stream" (progress events)
//! {"cmd":"status"}                                     service counters
//! {"cmd":"shutdown"}                                   begin graceful drain
//! ```
//!
//! Events:
//!
//! ```text
//! {"event":"accepted","request":L,"cost":C,"lockstep":B,"coalesced":B}
//! {"event":"progress","cells_done":..,"cells":..,"trials_done":..,"trials":..}
//! {"event":"result","request":L,"body":S,"status":{...},"cache":{...},"wall_ms":N}
//! {"event":"error","status":T,"message":S}
//! {"event":"status", ...}   {"event":"shutdown","draining":true}
//! ```
//!
//! The `body` field of a `result` event is the *exact* text `lru-leak
//! run <id> --json` (or `adhoc --json`) prints — trailing newline
//! included — carried as one JSON string; `submit` prints it verbatim,
//! which is how the service's byte-identity guarantee reaches the
//! client. Event lines are compact (single-line) JSON; the embedded
//! body's newlines are escaped by the writer.

use std::time::Duration;

use scenario::engine::{content_hash64, CacheStats, JobProgress, JobStatus, ResultCache};
use scenario::registry::{self, Artifact, RunOpts};
use scenario::spec::{Scenario, ScenarioBuilder};
use scenario::{Job, Value};

/// A parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Run a job (registry artifact or ad-hoc scenario).
    Run(Box<RunRequest>),
    /// Report the service counters.
    Status,
    /// Begin the graceful drain.
    Shutdown,
}

/// A `run`/`adhoc` request resolved against the registry.
#[derive(Debug)]
pub struct RunRequest {
    /// The artifact, when the request named one.
    pub artifact: Option<&'static Artifact>,
    /// The options the artifact renders under ([`RunOpts::default`]
    /// unless the request overrode `trials`/`seed` — the server's
    /// defaults are the CLI's defaults, which is what makes the
    /// response body byte-identical to `lru-leak run <id> --json`).
    pub opts: RunOpts,
    /// The ad-hoc scenario, for `adhoc` requests.
    pub scenario: Option<Scenario>,
    /// The grid to execute.
    pub job: Job,
    /// Per-job worker-pool width override.
    pub threads: Option<usize>,
    /// Per-request deadline (covers credit queueing and execution).
    pub timeout: Option<Duration>,
    /// Whether to stream `progress` events while the job runs.
    pub stream: bool,
}

impl RunRequest {
    /// The request's admission cost in trial-units.
    ///
    /// The unit is *work* (`cells × trials`), deliberately not wall
    /// time: a trial costs one unit whether the engine simulates it on
    /// the scalar path or fast-forwards it in a lockstep batch lane.
    /// Lockstep batching makes eligible trials cheaper in wall-clock
    /// terms but never changes a request's admission price, so budgets
    /// stay comparable across eligible and ineligible jobs.
    pub fn cost(&self) -> usize {
        self.job.total_trials().max(1)
    }

    /// How many of the job's grid cells the engine routes through the
    /// lockstep batch path when it simulates them (cache hits skip
    /// simulation entirely). Reported per job in the `accepted` and
    /// `result` events.
    pub fn lockstep_cells(&self) -> usize {
        self.job
            .grid
            .iter()
            .filter(|cell| cell.lockstep_spec().is_ok())
            .count()
    }

    /// The canonical coalescing key: job label plus every grid
    /// cell's [`ResultCache::key`] — the same canonical scenario
    /// JSON the result cache hashes. Execution knobs that cannot
    /// change the response bytes (`threads`, `timeout_secs`,
    /// `stream`) are deliberately excluded, so requests differing
    /// only in those coalesce too.
    pub fn flight_key(&self) -> String {
        let mut key = self.job.label.clone();
        for cell in &self.job.grid {
            key.push('\n');
            key.push_str(&ResultCache::key(cell));
        }
        key
    }

    /// The request's durable identity: [`content_hash64`] of the
    /// [`RunRequest::flight_key`] — i.e. the same canonical
    /// `to_json_full` content hash the [`ResultCache`] addresses
    /// entries by, lifted to the whole job. The journal keys its
    /// records with this, which is what lets a retried submit dedupe
    /// against a crashed run of the same request.
    pub fn content_key(&self) -> u64 {
        content_hash64(self.flight_key().as_bytes())
    }

    /// Re-encodes the request as the minimal canonical JSON the
    /// journal persists — exactly the content-bearing fields, so
    /// replaying it through [`parse_request`] reconstructs a request
    /// with the same [`RunRequest::flight_key`] (and therefore the
    /// same response bytes). Execution knobs (`threads`,
    /// `timeout_secs`, `stream`) are connection-scoped and excluded:
    /// a recovered job runs with server defaults.
    pub fn journal_json(&self) -> Value {
        if let Some(artifact) = self.artifact {
            let mut v = Value::obj()
                .with("cmd", "run")
                .with("artifact", artifact.id);
            if let Some(trials) = self.opts.trials {
                v = v.with("trials", trials);
            }
            v.with("seed", self.opts.seed)
        } else {
            let sc = self
                .scenario
                .as_ref()
                .expect("a run request is an artifact or a scenario");
            Value::obj()
                .with("cmd", "adhoc")
                .with("scenario", sc.to_json())
        }
    }
}

fn parse_usize(v: &Value, field: &str, min: usize) -> Result<usize, String> {
    let n = v
        .as_u64()
        .ok_or_else(|| format!("{field:?} must be a non-negative integer"))?;
    let n = usize::try_from(n).map_err(|_| format!("{field:?} is out of range"))?;
    if n < min {
        return Err(format!("{field:?} must be >= {min}"));
    }
    Ok(n)
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message for malformed JSON, unknown commands or
/// fields, unknown artifacts, and invalid scenarios — the server
/// reports it as a `bad_request` error event.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Value::parse(line).map_err(|e| format!("malformed request JSON: {e}"))?;
    let cmd = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or("request needs a \"cmd\" field")?;
    match cmd {
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "run" | "adhoc" => {
            let trials = v
                .get("trials")
                .map(|t| parse_usize(t, "trials", 1))
                .transpose()?;
            let seed = v
                .get("seed")
                .map(|s| s.as_u64().ok_or("\"seed\" must be a non-negative integer"))
                .transpose()?;
            let threads = v
                .get("threads")
                .map(|t| parse_usize(t, "threads", 1))
                .transpose()?;
            let timeout = v
                .get("timeout_secs")
                .map(|t| parse_usize(t, "timeout_secs", 1))
                .transpose()?
                .map(|secs| Duration::from_secs(secs as u64));
            let stream = v
                .get("stream")
                .map(|s| s.as_bool().ok_or("\"stream\" must be a boolean"))
                .transpose()?
                .unwrap_or(false);
            let defaults = RunOpts::default();
            let opts = RunOpts {
                trials,
                seed: seed.unwrap_or(defaults.seed),
            };
            let (artifact, scenario, job) = if cmd == "run" {
                let id = v
                    .get("artifact")
                    .and_then(Value::as_str)
                    .ok_or("\"run\" needs an \"artifact\" field")?;
                let artifact = registry::get(id)
                    .ok_or_else(|| format!("unknown artifact {id:?} — see `lru-leak list`"))?;
                let job = Job {
                    label: artifact.id.to_string(),
                    grid: artifact
                        .try_scenarios(&opts)
                        .map_err(|e| format!("{id}: {e}"))?,
                };
                (Some(artifact), None, job)
            } else {
                let spec = v
                    .get("scenario")
                    .ok_or("\"adhoc\" needs a \"scenario\" field")?;
                // The overrides apply before validation, so the one
                // check bounds the counts that actually run.
                let invalid = |e| format!("invalid scenario: {e}");
                let mut builder = ScenarioBuilder::from_json(spec).map_err(invalid)?;
                if let Some(trials) = trials {
                    builder = builder.trials(trials);
                }
                if let Some(seed) = seed {
                    builder = builder.seed(seed);
                }
                let sc = builder.build().map_err(invalid)?;
                let job = Job::from_scenario("adhoc", sc.clone());
                (None, Some(sc), job)
            };
            Ok(Request::Run(Box::new(RunRequest {
                artifact,
                opts,
                scenario,
                job,
                threads,
                timeout,
                stream,
            })))
        }
        other => Err(format!(
            "unknown cmd {other:?} (expected run, adhoc, status or shutdown)"
        )),
    }
}

/// The `accepted` event: the request was parsed and keyed; `cost` is
/// its admission price in trial-units, `lockstep` whether any of the
/// job's cells run on the lockstep batch path, and `coalesced`
/// whether it joined an already-in-flight identical request.
pub fn accepted_event(label: &str, cost: usize, lockstep: bool, coalesced: bool) -> Value {
    Value::obj()
        .with("event", "accepted")
        .with("request", label)
        .with("cost", cost)
        .with("lockstep", lockstep)
        .with("coalesced", coalesced)
}

/// A `progress` event from the engine's job observer.
pub fn progress_event(p: JobProgress) -> Value {
    Value::obj()
        .with("event", "progress")
        .with("cells_done", p.cells_done)
        .with("cells", p.cells)
        .with("trials_done", p.trials_done)
        .with("trials", p.trials)
}

/// The trailing checksum carried on `result` events: hex
/// [`content_hash64`] over the body's bytes. A client verifies it
/// before trusting a frame — a response truncated or corrupted by the
/// network (or by the chaos proxy in tests) fails the check and is
/// retried instead of silently accepted.
pub fn body_crc(body: &str) -> String {
    format!("{:016x}", content_hash64(body.as_bytes()))
}

/// The `result` event: the verbatim CLI body plus how the job was
/// served (cache/compute split, lockstep routing, chunk retries,
/// fleet-wide cache counters, wall time). The `crc` field is
/// [`body_crc`] of `body`, so clients can detect torn frames.
pub fn result_event(
    label: &str,
    body: &str,
    status: &JobStatus,
    lockstep_cells: usize,
    cache: Option<CacheStats>,
    wall_ms: u64,
) -> Value {
    let mut event = Value::obj()
        .with("event", "result")
        .with("request", label)
        .with("body", body)
        .with("crc", body_crc(body))
        .with(
            "status",
            Value::obj()
                .with("cells", status.cells)
                .with("from_cache", status.from_cache)
                .with("computed", status.computed)
                .with("lockstep_cells", lockstep_cells)
                .with("retried_chunks", status.retried_chunks),
        );
    if let Some(stats) = cache {
        event = event.with("cache", stats.to_json());
    }
    event.with("wall_ms", wall_ms)
}

/// An `error` event with a machine-readable status tag
/// (`"bad_request"`, `"timeout"`, `"cancelled"`, `"panicked"`,
/// `"overloaded"`).
pub fn error_event(status: &str, message: &str) -> Value {
    Value::obj()
        .with("event", "error")
        .with("status", status)
        .with("message", message)
}

/// The structured shed response: an `error` event with status
/// `"overloaded"` and a machine-readable `retry_after_ms` hint (the
/// HTTP shim maps it to `503` + `Retry-After`). Clients running with
/// `--retries` honor the hint instead of their own backoff schedule.
pub fn overloaded_event(queued: usize, max_queued: usize, retry_after_ms: u64) -> Value {
    error_event(
        "overloaded",
        &format!("admission queue is full ({queued} waiting, bound {max_queued}) — retry later"),
    )
    .with("retry_after_ms", retry_after_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_run_request_with_all_knobs() {
        let req = parse_request(
            "{\"cmd\":\"run\",\"artifact\":\"fig5\",\"trials\":3,\"seed\":9,\
             \"threads\":2,\"timeout_secs\":30,\"stream\":true}",
        )
        .unwrap();
        let Request::Run(r) = req else {
            panic!("expected a run request");
        };
        assert_eq!(r.artifact.unwrap().id, "fig5");
        assert_eq!(r.opts.trials, Some(3));
        assert_eq!(r.opts.seed, 9);
        assert_eq!(r.threads, Some(2));
        assert_eq!(r.timeout, Some(Duration::from_secs(30)));
        assert!(r.stream);
        assert!(r.cost() >= 1);
    }

    #[test]
    fn rejects_bad_requests_with_a_reason() {
        assert!(parse_request("not json").unwrap_err().contains("malformed"));
        assert!(parse_request("{}").unwrap_err().contains("cmd"));
        assert!(parse_request("{\"cmd\":\"dance\"}")
            .unwrap_err()
            .contains("unknown cmd"));
        assert!(parse_request("{\"cmd\":\"run\",\"artifact\":\"fig99\"}")
            .unwrap_err()
            .contains("fig99"));
        assert!(
            parse_request("{\"cmd\":\"run\",\"artifact\":\"fig5\",\"threads\":0}")
                .unwrap_err()
                .contains("threads")
        );
        assert!(
            parse_request("{\"cmd\":\"adhoc\",\"scenario\":{\"platform\":\"moon\"}}")
                .unwrap_err()
                .contains("invalid scenario")
        );
    }

    #[test]
    fn a_non_boolean_stream_is_rejected() {
        let base = "{\"cmd\":\"run\",\"artifact\":\"fig5\"";
        let Request::Run(r) = parse_request(&format!("{base}}}")).unwrap() else {
            panic!("expected a run request");
        };
        assert!(!r.stream, "an absent stream keeps its default");
        for bad in ["\"yes\"", "1", "null"] {
            let err = parse_request(&format!("{base},\"stream\":{bad}}}")).unwrap_err();
            assert!(err.contains("\"stream\" must be a boolean"), "{bad}: {err}");
        }
    }

    #[test]
    fn flight_key_ignores_execution_knobs_but_not_content() {
        let base = parse_request("{\"cmd\":\"run\",\"artifact\":\"fig5\"}").unwrap();
        let knobs = parse_request(
            "{\"cmd\":\"run\",\"artifact\":\"fig5\",\"threads\":4,\"timeout_secs\":60,\
             \"stream\":true}",
        )
        .unwrap();
        let seeded = parse_request("{\"cmd\":\"run\",\"artifact\":\"fig5\",\"seed\":1}").unwrap();
        let (Request::Run(a), Request::Run(b), Request::Run(c)) = (base, knobs, seeded) else {
            panic!("expected run requests");
        };
        assert_eq!(a.flight_key(), b.flight_key(), "knobs must coalesce");
        assert_ne!(a.flight_key(), c.flight_key(), "seed changes content");
    }

    #[test]
    fn adhoc_overrides_land_in_the_scenario_and_the_key() {
        let sc = Scenario::builder()
            .message(scenario::MessageSource::Alternating { bits: 4 })
            .seed(1)
            .build()
            .unwrap();
        let line = format!(
            "{{\"cmd\":\"adhoc\",\"scenario\":{},\"trials\":7,\"seed\":5}}",
            sc.to_json()
        );
        let Request::Run(r) = parse_request(&line).unwrap() else {
            panic!("expected a run request");
        };
        let got = r.scenario.as_ref().unwrap();
        assert_eq!(got.trials, 7);
        assert_eq!(got.seed, 5);
        assert_eq!(r.job.label, "adhoc");
        assert_eq!(r.cost(), 7);
    }

    #[test]
    fn admission_cost_is_trial_units_unchanged_by_lockstep_routing() {
        // Two ad-hoc requests with identical trial counts: one rides
        // the lockstep batch path, the other (noisy) stays scalar.
        // Admission prices them identically — the unit is work
        // (cells × trials), not wall time, so the lockstep fast path
        // never discounts a request.
        let eligible = Scenario::builder().build().unwrap();
        let mut scalar = eligible.clone();
        scalar.noise = scenario::spec::NoiseModel::RandomEviction {
            lines: 64,
            gap_cycles: 500,
        };
        let parse = |sc: &Scenario| {
            let line = format!(
                "{{\"cmd\":\"adhoc\",\"scenario\":{},\"trials\":5}}",
                sc.to_json()
            );
            let Request::Run(r) = parse_request(&line).unwrap() else {
                panic!("expected a run request");
            };
            r
        };
        let (e, s) = (parse(&eligible), parse(&scalar));
        assert_eq!(e.lockstep_cells(), 1, "the eligible cell rides lockstep");
        assert_eq!(s.lockstep_cells(), 0, "the noisy cell stays scalar");
        assert_eq!(e.cost(), 5);
        assert_eq!(s.cost(), 5, "eligibility never changes the price");
    }

    #[test]
    fn journal_json_round_trips_to_the_same_content_key() {
        let lines = [
            "{\"cmd\":\"run\",\"artifact\":\"fig5\"}".to_string(),
            "{\"cmd\":\"run\",\"artifact\":\"fig5\",\"trials\":3,\"seed\":9,\
             \"threads\":2,\"stream\":true}"
                .to_string(),
            {
                let sc = Scenario::builder().seed(3).build().unwrap();
                format!(
                    "{{\"cmd\":\"adhoc\",\"scenario\":{},\"trials\":4}}",
                    sc.to_json()
                )
            },
        ];
        for line in lines {
            let Request::Run(orig) = parse_request(&line).unwrap() else {
                panic!("expected a run request");
            };
            let replayed = orig.journal_json().to_string();
            let Request::Run(back) = parse_request(&replayed).unwrap() else {
                panic!("expected a run request after replay");
            };
            assert_eq!(
                orig.content_key(),
                back.content_key(),
                "journal re-encoding changed the content key for {line}"
            );
            assert_eq!(orig.flight_key(), back.flight_key());
        }
    }

    #[test]
    fn result_event_carries_a_verifiable_crc() {
        let status = JobStatus {
            cells: 1,
            from_cache: 0,
            computed: 1,
            retried_chunks: 0,
        };
        let ev = result_event("fig5", "the body\n", &status, 0, None, 1);
        let crc = ev.get("crc").and_then(Value::as_str).unwrap();
        assert_eq!(crc, body_crc("the body\n"));
        assert_ne!(crc, body_crc("the bod"), "a truncated body fails the crc");
    }

    #[test]
    fn overloaded_event_is_a_structured_error_with_a_hint() {
        let ev = overloaded_event(7, 4, 500);
        assert_eq!(ev.get("event").and_then(Value::as_str), Some("error"));
        assert_eq!(ev.get("status").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(ev.get("retry_after_ms").and_then(Value::as_u64), Some(500));
        assert!(ev
            .get("message")
            .and_then(Value::as_str)
            .unwrap()
            .contains("bound 4"));
    }

    #[test]
    fn events_are_single_line_json() {
        let ev = result_event(
            "fig5",
            "{\n  \"id\": \"fig5\"\n}\n",
            &JobStatus {
                cells: 2,
                from_cache: 1,
                computed: 1,
                retried_chunks: 0,
            },
            2,
            None,
            12,
        );
        let line = ev.to_string();
        assert!(!line.contains('\n'), "event must be one line: {line}");
        let back = Value::parse(&line).unwrap();
        assert_eq!(
            back.get("body").and_then(Value::as_str),
            Some("{\n  \"id\": \"fig5\"\n}\n"),
            "body round-trips verbatim"
        );
    }
}
