//! The layer sweep of a traced run: timed calls into each layer's
//! public functions, the same on every workload.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use cache_sim::{Backend, Cache, CacheGeometry, HierarchyBackend, Inclusion, PhysAddr, PolicyKind};
use lru_channel::trials::RunCtrl;
use lru_leak_server::journal::{Journal, JOURNAL_FILE};
use lru_leak_server::proto;
use scenario::registry::{self, Artifact, RunOpts};
use scenario::{CancelToken, Engine, Job, JobStatus, ResultCache, Scenario, Value};

use crate::pins::{artifact_bytes, kind_key, Pins, RegistryCounts};
use crate::service::{self, Running, HEAVY};
use crate::trace::{SpanId, Tracer};
use crate::{ms, splitmix, stats, Measured};

const GRID_REPS: usize = 9;
const STREAM_ACCESSES: usize = 1 << 20;
const PROTO_REPS: usize = 3;

fn us_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// One artifact's grid, outcomes and checked bytes.
struct Ran {
    artifact: &'static Artifact,
    grid: Vec<Scenario>,
    outcomes: Vec<Value>,
    bytes: String,
}

fn check(m: &mut Measured, pins: &Pins, id: &str, bytes: &str) {
    m.attempted += 1;
    m.failed += u64::from(!pins.artifact_ok(id, bytes));
}

/// `Engine::run_job` per artifact at one worker, then the heavy three
/// at two workers (best of two); render time over the registry.
fn engine_layer(m: &mut Measured, pins: &Pins, tracer: &Tracer, root: Option<SpanId>) -> Vec<Ran> {
    let opts = RunOpts::default();
    let run = |a: &Artifact, workers: usize| {
        let job = Job::from_artifact(a, &opts);
        let t = Instant::now();
        let (outcomes, _) = Engine::new()
            .with_workers(workers)
            .run_job(&job, None, &CancelToken::new())
            .expect("a plain job never cancels");
        (ms(t.elapsed()), job.grid, outcomes)
    };
    let mut job_ms = BTreeMap::new();
    let mut render_ms = 0.0;
    let mut ran = Vec::new();
    tracer.span("scenario.engine.run_job@1", root, None, |_| {
        for a in registry::ARTIFACTS {
            let (t, grid, outcomes) = run(a, 1);
            let key = if HEAVY.contains(&a.id) { a.id } else { "rest" };
            *job_ms.entry(key).or_insert(0.0) += t;
            let r0 = Instant::now();
            let bytes = artifact_bytes(a, &opts, &grid, &outcomes);
            render_ms += ms(r0.elapsed());
            check(m, pins, a.id, &bytes);
            ran.push(Ran {
                artifact: a,
                grid,
                outcomes,
                bytes,
            });
        }
    });
    for (k, t) in &job_ms {
        m.layer(&format!("scenario.engine.job_ms.{k}"), *t);
    }
    m.layer("scenario.render_ms", render_ms);
    tracer.span("scenario.engine.run_job@2", root, None, |_| {
        for id in HEAVY {
            let a = registry::get(id).expect("heavy artifacts are registered");
            let mut best = f64::INFINITY;
            for _ in 0..2 {
                let (t, grid, outcomes) = run(a, 2);
                check(m, pins, id, &artifact_bytes(a, &opts, &grid, &outcomes));
                best = best.min(t);
            }
            m.layer(&format!("core.trials.scaling.{id}"), job_ms[id] / best);
        }
    });
    ran
}

/// `Scenario::run` (one worker) per grid cell, attributed to the
/// cell's kind; the rendered bytes are checked too.
fn scenario_layer(m: &mut Measured, pins: &Pins, tracer: &Tracer, root: Option<SpanId>) {
    let opts = RunOpts::default();
    let ctrl = RunCtrl::new().with_workers(1);
    let mut cell_ms: BTreeMap<String, f64> = BTreeMap::new();
    let mut grids = Vec::new();
    tracer.span("scenario.run", root, None, |_| {
        for a in registry::ARTIFACTS {
            let grid = a.scenarios(&opts);
            let outcomes: Vec<Value> = grid
                .iter()
                .map(|sc| {
                    let t = Instant::now();
                    let v = sc.run_ctrl(&ctrl).expect("a plain run never cancels");
                    *cell_ms.entry(kind_key(sc)).or_insert(0.0) += ms(t.elapsed());
                    v
                })
                .collect();
            check(m, pins, a.id, &artifact_bytes(a, &opts, &grid, &outcomes));
            grids.push(grid);
        }
    });
    let counts = RegistryCounts::measure(grids.iter().map(Vec::as_slice));
    for (k, n) in &counts.cells {
        m.layer(
            &format!("scenario.cell_ms.{k}"),
            cell_ms.get(k).copied().unwrap_or(0.0),
        );
        m.layer(&format!("scenario.cells.{k}"), *n as f64);
        m.layer(&format!("scenario.trials.{k}"), counts.trials[k] as f64);
    }
    for (r, n) in counts.ineligible.iter().filter(|(_, n)| **n > 0) {
        m.layer(&format!("scenario.lockstep.ineligible.{r}"), *n as f64);
    }
}

/// A seeded address stream through each `Backend`, in ns per access.
fn cache_layer(m: &mut Measured, seed: u64, tracer: &Tracer, root: Option<SpanId>) {
    let geom = CacheGeometry::l1d_paper();
    // Lines over twice the L1's capacity: a mix of hits and misses.
    let lines = 2 * geom.num_sets() * geom.ways() as u64;
    let mut s = seed;
    let stream: Vec<PhysAddr> = (0..STREAM_ACCESSES)
        .map(|_| PhysAddr::new((splitmix(&mut s) % lines) * geom.line_size()))
        .collect();
    fn drive(b: &mut dyn Backend, stream: &[PhysAddr]) -> f64 {
        let t = Instant::now();
        let hits = stream.iter().filter(|&&pa| b.access(pa).hit).count();
        black_box(hits);
        t.elapsed().as_secs_f64() * 1e9 / stream.len() as f64
    }
    tracer.span("cache_sim.access", root, None, |_| {
        for (name, policy) in [
            ("soa.tree-plru", PolicyKind::TreePlru),
            ("soa.lru", PolicyKind::Lru),
            ("soa.bit-plru", PolicyKind::BitPlru),
        ] {
            let ns = drive(&mut Cache::new(geom, policy, seed), &stream);
            m.layer(&format!("cache_sim.access_ns.{name}"), ns);
        }
        let mut h = HierarchyBackend::new(geom, PolicyKind::TreePlru, Inclusion::Inclusive, seed);
        m.layer(
            "cache_sim.access_ns.hierarchy-inclusive.tree-plru",
            drive(&mut h, &stream),
        );
    });
}

/// Request parsing and result-event encoding, in µs per call.
fn proto_layer(
    m: &mut Measured,
    pins: &Pins,
    seed: u64,
    light: &[&Ran],
    tracer: &Tracer,
    root: Option<SpanId>,
) {
    tracer.span("server.proto", root, None, |_| {
        let (seq, _) = service::sequence(pins, seed).unwrap_or_default();
        let lines: Vec<String> = seq.iter().take(64).map(|r| r.json.to_string()).collect();
        if !lines.is_empty() {
            let t = Instant::now();
            for _ in 0..PROTO_REPS {
                for l in &lines {
                    black_box(proto::parse_request(l).is_ok());
                }
            }
            m.layer("server.proto.parse_us", us_per(t, PROTO_REPS * lines.len()));
        }
        let t = Instant::now();
        for _ in 0..PROTO_REPS {
            for r in light {
                let status = JobStatus {
                    cells: r.grid.len(),
                    ..JobStatus::default()
                };
                black_box(
                    proto::result_event(r.artifact.id, &r.bytes, &status, 0, None, 1).to_string(),
                );
            }
        }
        m.layer(
            "server.proto.result_event_us",
            us_per(t, PROTO_REPS * light.len()),
        );
    });
}

/// `ResultCache` store and lookup, then the journal: one job's
/// `accepted` + `started` + `done` appends, and recovery over those
/// jobs verified against the cache.
fn storage_layer(
    m: &mut Measured,
    light: &[&Ran],
    dir: &Path,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let cells: Vec<(&Scenario, &Value)> = light
        .iter()
        .flat_map(|r| r.grid.iter().zip(&r.outcomes))
        .collect();
    let cache = ResultCache::open(dir).map_err(io)?;
    tracer.span(
        "scenario.result_cache",
        root,
        None,
        |_| -> Result<(), String> {
            let t = Instant::now();
            for (sc, out) in &cells {
                cache.store(sc, out).map_err(io)?;
            }
            m.layer("scenario.result_cache.store_us", us_per(t, cells.len()));
            let t = Instant::now();
            let hits = cells
                .iter()
                .filter(|(sc, out)| cache.lookup(sc).as_ref() == Some(*out))
                .count();
            m.layer("scenario.result_cache.lookup_us", us_per(t, cells.len()));
            m.attempted += cells.len() as u64;
            m.failed += (cells.len() - hits) as u64;
            Ok(())
        },
    )?;
    tracer.span("server.journal", root, None, |_| -> Result<(), String> {
        let journal = Journal::open(dir).map_err(io)?;
        let requests: Vec<Value> = light
            .iter()
            .map(|r| {
                Value::obj()
                    .with("cmd", "run")
                    .with("artifact", r.artifact.id)
            })
            .collect();
        let t = Instant::now();
        for req in &requests {
            let Ok(proto::Request::Run(run)) = proto::parse_request(&req.to_string()) else {
                return Err(format!("journal request {req} does not parse"));
            };
            let seq = journal.accepted(run.content_key(), req).map_err(io)?;
            journal.started(seq).map_err(io)?;
            journal.done(seq).map_err(io)?;
        }
        m.layer("server.journal.append_us", us_per(t, requests.len()));
        drop(journal);
        let bytes = fs::read(dir.join(JOURNAL_FILE)).map_err(io)?;
        let mut times = Vec::new();
        for _ in 0..3 {
            fs::write(dir.join(JOURNAL_FILE), &bytes).map_err(io)?;
            let t = Instant::now();
            let (_, report) = Journal::recover(dir, Some(&cache)).map_err(io)?;
            times.push(ms(t.elapsed()));
            m.attempted += 1;
            m.failed += u64::from(report.done_verified != requests.len());
        }
        m.layer("server.journal.recover_ms", stats::median(&times));
        Ok(())
    })
}

/// For workloads without a server: the first round of the seeded mix,
/// served cold and then warm, gives the wire and server metrics.
fn mini_exchange(
    m: &mut Measured,
    pins: &Pins,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let (mut pool, round_len) = service::sequence(pins, seed)?;
    pool.truncate(round_len);
    tracer.span("service.exchange", root, None, |_| -> Result<(), String> {
        let (server, _) = Running::start(service::config(Some(dir), false)).map_err(io)?;
        let mut samples = service::drive(&server.addr, &pool, 0..pool.len(), None);
        samples.extend(service::drive(&server.addr, &pool, 0..pool.len(), None));
        let status = server.status().map_err(io);
        server.stop().map_err(io)?;
        m.attempted += samples.len() as u64;
        m.failed += samples.iter().filter(|s| !s.ok).count() as u64;
        let cells: u64 = pool.iter().map(|r| r.cells).sum();
        service::check_counters(m, &status?, cells, cells);
        service::wire_metrics(m, &samples);
        Ok(())
    })
}

/// Every per-layer metric the workload itself does not produce.
pub fn run(
    m: &mut Measured,
    pins: &Pins,
    seed: u64,
    no_server: bool,
    tracer: &Tracer,
    work: &Path,
) -> Result<(), String> {
    let root = tracer.open("bench.sweep", None, None);
    let opts = RunOpts::default();
    let grid_ms: Vec<f64> = (0..GRID_REPS)
        .map(|_| {
            let t = Instant::now();
            for a in registry::ARTIFACTS {
                black_box(a.scenarios(&opts));
            }
            ms(t.elapsed())
        })
        .collect();
    m.layer("scenario.registry.grid_ms", stats::median(&grid_ms));
    let ran = engine_layer(m, pins, tracer, root);
    let light: Vec<&Ran> = ran
        .iter()
        .filter(|r| !HEAVY.contains(&r.artifact.id))
        .collect();
    scenario_layer(m, pins, tracer, root);
    cache_layer(m, seed, tracer, root);
    proto_layer(m, pins, seed, &light, tracer, root);
    storage_layer(m, &light, &work.join("sweep-store"), tracer, root)?;
    if no_server {
        mini_exchange(m, pins, seed, &work.join("sweep-service"), tracer, root)?;
    }
    tracer.close(root);
    Ok(())
}
