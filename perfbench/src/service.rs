//! The service workloads: an in-process `Server` driven by closed-loop
//! clients over loopback, one fresh connection per request.
//!
//! The request mix is a pinned pool of `run` requests over the light
//! artifacts (every artifact but fig4, fig9 and table1), each at its
//! own seed, plus ad-hoc covert scenarios, all with `threads: 1`. The
//! workload seed deals the pool into rounds of one fixed mix (see
//! [`sequence`]). No two pool requests share a grid cell, so on a
//! fresh cache every request simulates (`service-cold`), and on a
//! cache the cold pass filled every request is a hit (`service-warm`).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lru_leak_server::journal::JOURNAL_FILE;
use lru_leak_server::proto::{self, Request as Parsed};
use lru_leak_server::{client, Server, ServerConfig, ServerHandle, ServerSummary};
use scenario::registry;
use scenario::{content_hash64, MessageSource, PlatformId, ResultCache, Scenario, Value};

use crate::pins::{Pins, ServicePin};
use crate::trace::Tracer;
use crate::{arr, calib, ms, settle, shuffle, splitmix, stats, Args, Measured};

/// The artifacts too heavy for a request mix (75% of `run-all`).
pub const HEAVY: [&str; 3] = ["fig4", "fig9", "table1"];

/// Closed-loop clients, each waiting for its reply before the next
/// request.
const CLIENTS: usize = 2;

const SEEDS_PER_ARTIFACT: u64 = 32;
const ADHOC_REQUESTS: u64 = 192;

/// Ad-hoc requests in each round of the sequence.
const ADHOC_PER_ROUND: usize = 6;

/// Requests per second of `--seconds`: the run's fixed amount of work.
/// Warm stays under 1000 requests at the usual 16 s, so its tail is
/// read at p90: about 1% of warm requests wait out a second accept
/// slice when the host stalls, and a p99 resting on 12 samples beyond
/// it jumped between about 24 and 41 ms from run to run.
const COLD_PER_SECOND: f64 = 40.0;
const WARM_PER_SECOND: f64 = 60.0;

/// Rounds of distinct requests the warm workload cycles over.
const WARM_ROUNDS: usize = 2;

/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// One request of the mix.
#[derive(Debug, Clone)]
pub struct Request {
    pub label: String,
    pub json: Value,
    pub hash: u64,
    pub cells: u64,
}

fn adhoc_scenario(seed: u64) -> Scenario {
    let platform = [PlatformId::E5_2690, PlatformId::E3_1245V5][(seed % 2) as usize];
    Scenario::builder()
        .platform(platform)
        .message(MessageSource::Random {
            bits: 16 + 8 * (seed % 3) as usize,
            repeats: 1,
        })
        .trials(1 + (seed % 4) as usize)
        .seed(seed)
        .build()
        .expect("the ad-hoc covert template is a valid scenario")
}

/// Every request the pool is drawn from, labelled.
fn candidates() -> Vec<(String, Value)> {
    let light: Vec<&str> = registry::ids()
        .into_iter()
        .filter(|id| !HEAVY.contains(id))
        .collect();
    let mut out = Vec::new();
    for seed in 1..=SEEDS_PER_ARTIFACT {
        for id in &light {
            let req = Value::obj()
                .with("cmd", "run")
                .with("artifact", *id)
                .with("seed", seed)
                .with("threads", 1usize);
            out.push((format!("{id}@{seed}"), req));
        }
    }
    for seed in 1..=ADHOC_REQUESTS {
        let req = Value::obj()
            .with("cmd", "adhoc")
            .with("scenario", adhoc_scenario(seed).to_json())
            .with("threads", 1usize);
        out.push((format!("adhoc@{seed}"), req));
    }
    out
}

/// The candidates that share no grid cell with an earlier one (an
/// artifact whose grid ignores the seed appears once), with their
/// cell counts.
fn distinct_candidates() -> Vec<(String, Value, u64)> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (label, req) in candidates() {
        let Ok(Parsed::Run(run)) = proto::parse_request(&req.to_string()) else {
            panic!("pool request {label} does not parse");
        };
        let keys: Vec<String> = run.job.grid.iter().map(ResultCache::key).collect();
        let fresh: BTreeSet<&String> = keys.iter().collect();
        if fresh.len() == keys.len() && keys.iter().all(|k| !seen.contains(k)) {
            seen.extend(keys);
            out.push((label, req, run.job.grid.len() as u64));
        }
    }
    out
}

/// The pinned pool, in pin order.
fn pool(pins: &Pins) -> Result<Vec<Request>, String> {
    let mut by_label: BTreeMap<String, Value> = candidates().into_iter().collect();
    pins.service
        .iter()
        .map(|p: &ServicePin| {
            let json = by_label
                .remove(&p.label)
                .ok_or_else(|| format!("pinned request {} is no longer generated", p.label))?;
            Ok(Request {
                label: p.label.clone(),
                json,
                hash: p.hash,
                cells: p.cells,
            })
        })
        .collect()
}

/// The request sequence of a seed, in rounds: each round holds one
/// request per light artifact and [`ADHOC_PER_ROUND`] ad-hoc ones, in
/// a seeded order, so every whole number of rounds has the same mix
/// whatever the seed. Returns the sequence and the round length.
pub fn sequence(pins: &Pins, seed: u64) -> Result<(Vec<Request>, usize), String> {
    let mut groups: BTreeMap<String, Vec<Request>> = BTreeMap::new();
    for r in pool(pins)? {
        let group = r.label.split('@').next().unwrap_or_default().to_string();
        groups.entry(group).or_default().push(r);
    }
    let per_round = |g: &str| if g == "adhoc" { ADHOC_PER_ROUND } else { 1 };
    let rounds = groups
        .iter()
        .map(|(g, v)| v.len() / per_round(g))
        .min()
        .unwrap_or(0);
    let mut s = seed;
    for v in groups.values_mut() {
        shuffle(v, splitmix(&mut s));
    }
    let round_len: usize = groups.keys().map(|g| per_round(g)).sum();
    let mut seq = Vec::with_capacity(rounds * round_len);
    for r in 0..rounds {
        let mut round: Vec<Request> = groups
            .iter()
            .flat_map(|(g, v)| v[r * per_round(g)..(r + 1) * per_round(g)].iter().cloned())
            .collect();
        shuffle(&mut round, splitmix(&mut s));
        seq.extend(round);
    }
    if seq.is_empty() {
        return Err("the pinned service pool is empty".into());
    }
    Ok((seq, round_len))
}

/// What the client saw of one request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: usize,
    pub start: Instant,
    pub accepted: Option<Instant>,
    pub result: Instant,
    pub end: Instant,
    pub body_hash: Option<u64>,
    pub ok: bool,
    pub cells: u64,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        ms(self.end - self.start)
    }
}

/// Sends one request; `tracer` records its spans while it is in
/// flight: a root per request, its two wire phases and the
/// benchmark's byte check as children.
fn one(addr: &str, index: usize, req: &Request, tracer: &Tracer) -> Sample {
    let id = Some(index as u64);
    let root = tracer.open("service.request", None, id);
    let start = Instant::now();
    let mut accepted = None;
    let reply = client::request(addr, &req.json, |ev| {
        if accepted.is_none() && ev.get("event").and_then(Value::as_str) == Some("accepted") {
            let now = Instant::now();
            accepted = Some(now);
            tracer.record("server.wire.connect_to_accepted", start, now, root, id);
        }
    });
    let result = Instant::now();
    let since = accepted.unwrap_or(start);
    tracer.record("server.wire.accepted_to_result", since, result, root, id);
    let body_hash = tracer.span("bench.verify", root, id, |_| {
        reply.ok().and_then(|ev| {
            (ev.get("event").and_then(Value::as_str) == Some("result"))
                .then(|| {
                    ev.get("body")
                        .and_then(Value::as_str)
                        .map(|b| content_hash64(b.as_bytes()))
                })
                .flatten()
        })
    });
    tracer.close(root);
    Sample {
        index,
        start,
        accepted,
        result,
        end: Instant::now(),
        body_hash,
        ok: body_hash == Some(req.hash),
        cells: req.cells,
    }
}

/// Whether request `index` is traced when requests are traced in
/// alternate blocks of `block`: the odd-numbered blocks are.
pub fn traced(index: usize, block: usize) -> bool {
    (index / block.max(1)) % 2 == 1
}

/// Runs [`CLIENTS`] closed-loop clients over the requests at
/// `range` of `seq`, cycling through `seq` past its end. With
/// `trace = Some((tracer, block))` the requests of alternate blocks
/// (see [`traced`]) record their spans live, so traced and untraced
/// requests of one mix run side by side.
pub fn drive(
    addr: &str,
    seq: &[Request],
    range: Range<usize>,
    trace: Option<(&Tracer, usize)>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(range.start);
    let off = Tracer::new(false);
    let mut samples: Vec<Sample> = thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= range.end {
                            break;
                        }
                        let tracer = match trace {
                            Some((t, block)) if traced(i, block) => t,
                            _ => &off,
                        };
                        out.push(one(addr, i, &seq[i % seq.len()], tracer));
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("a client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

/// A server running on its own thread.
/// Dropping it without [`Running::stop`] (an error path) still drains
/// the server and waits for its thread.
pub struct Running {
    pub addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<io::Result<ServerSummary>>>,
}

impl Running {
    /// Binds and starts a server; returns it with its set-up time: bind
    /// (cache, journal and recovery included) up to the answer on the
    /// first accepted connection.
    pub fn start(config: ServerConfig) -> io::Result<(Running, Duration)> {
        let t0 = Instant::now();
        let server = Server::bind(config)?;
        let addr = server.local_addr()?.to_string();
        // Connect before the accept loop starts, so the first accept
        // never waits out the loop's poll sleep.
        let mut probe = TcpStream::connect(&addr)?;
        probe.write_all(b"{\"cmd\":\"status\"}\n")?;
        let running = Running {
            addr,
            handle: server.handle(),
            thread: Some(thread::spawn(move || server.run())),
        };
        let mut line = String::new();
        let read = BufReader::new(probe).read_line(&mut line);
        let setup = t0.elapsed();
        if read.is_err() || !line.contains("\"event\":\"status\"") {
            let _ = running.stop();
            return Err(io::Error::other(format!(
                "first reply was not a status: {line:?} ({read:?})"
            )));
        }
        Ok((running, setup))
    }

    pub fn status(&self) -> io::Result<Value> {
        client::status(&self.addr)
    }

    /// Drains the server and waits for its thread.
    pub fn stop(mut self) -> io::Result<ServerSummary> {
        self.handle.begin_shutdown();
        self.thread
            .take()
            .expect("a running server has its thread")
            .join()
            .map_err(|_| io::Error::other("the server thread panicked"))?
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.begin_shutdown();
            let _ = thread.join();
        }
    }
}

pub fn config(dir: Option<&Path>, recover: bool) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: dir.map(Path::to_path_buf),
        recover,
        ..ServerConfig::default()
    }
}

/// Wire-phase medians as per-layer metrics.
pub fn wire_metrics(m: &mut Measured, samples: &[Sample]) {
    let phase = |f: fn(&Sample) -> Option<f64>| {
        let v: Vec<f64> = samples.iter().filter_map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    m.layer(
        "server.wire.connect_to_accepted_ms",
        phase(|s| s.accepted.map(|a| ms(a - s.start))),
    );
    m.layer(
        "server.wire.accepted_to_result_ms",
        phase(|s| s.accepted.map(|a| ms(s.result - a))),
    );
}

/// Checks the server's `status` counters exactly — `computed` cells
/// simulated, `cached` cells served from the cache, nothing
/// coalesced, shed or failed — and keeps them, with the cache hit
/// ratio, in the result notes. A drift means a different program.
pub fn check_counters(m: &mut Measured, status: &Value, computed: u64, cached: u64) {
    let mut note = Value::obj();
    for (k, want) in [
        ("computed_cells", computed),
        ("cached_cells", cached),
        ("coalesced", 0),
        ("shed", 0),
        ("failed", 0),
    ] {
        let got = status.get(k).and_then(Value::as_u64);
        if got != Some(want) {
            m.drift
                .push(format!("server {k}: expected {want}, status says {got:?}"));
        }
        note = note.with(k, got.map_or(Value::Null, Value::from));
    }
    let ratio = cached as f64 / (computed + cached).max(1) as f64;
    m.note("server", note.with("cache_hit_ratio", ratio));
}

fn tally(m: &mut Measured, samples: &[Sample]) {
    m.attempted += samples.len() as u64;
    m.failed += samples.iter().filter(|s| !s.ok).count() as u64;
}

/// The `service-cold` (`warm == false`) and `service-warm` workloads.
pub fn run(
    warm: bool,
    args: &Args,
    pins: &Pins,
    tracer: &Tracer,
    work: &Path,
) -> Result<Measured, String> {
    let io = |e: io::Error| e.to_string();
    let (seq, round_len) = sequence(pins, args.seed)?;
    let dir = work.join("cache");
    let mut m = Measured::default();

    // Warm: a cold pass fills the cache and the journal first, one
    // request at a time, so its peak heap does not depend on how two
    // clients' simulations happened to overlap.
    let (requests, journal) = if warm {
        let prefix = &seq[..(WARM_ROUNDS * round_len).min(seq.len())];
        let (server, _) = Running::start(config(Some(&dir), false)).map_err(io)?;
        let off = Tracer::new(false);
        let samples: Vec<Sample> = (prefix.iter().enumerate())
            .map(|(i, r)| one(&server.addr, i, r, &off))
            .collect();
        server.stop().map_err(io)?;
        tally(&mut m, &samples);
        let journal = fs::read(dir.join(JOURNAL_FILE)).map_err(io)?;
        (prefix, Some(journal))
    } else {
        (&seq[..], None)
    };

    // A fresh server's set-up is a few hundred µs of file flush and
    // thread hand-off, whose cost on a shared host drifts by 3x from run
    // to run, so cold set-ups are scaled by a reference set-up timed
    // beside each (see `calib`); that halves the drift. Warm set-up is
    // mostly recovery's CPU work and stays wall time.
    let (mut setups, mut probes) = (Vec::new(), Vec::new());
    let mut server: Option<Running> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = server.take() {
            prev.stop().map_err(io)?;
        }
        // Reset the cache dir in place: recreating it each time made
        // the set-up's flush cost vary more from run to run.
        match &journal {
            Some(bytes) => fs::write(dir.join(JOURNAL_FILE), bytes).map_err(io)?,
            None => {
                for e in fs::read_dir(&dir).into_iter().flatten().flatten() {
                    let _ = fs::remove_dir_all(e.path()).or_else(|_| fs::remove_file(e.path()));
                }
            }
        }
        // Commit the reset first, so the set-up's own fsyncs do not
        // pay for it.
        settle(work);
        if !warm {
            probes.push(calib::setup_ms(work).map_err(io)?);
            settle(work);
        }
        let (s, t) = Running::start(config(Some(&dir), warm)).map_err(io)?;
        setups.push(t.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    // Measure whole rounds (warm: whole cycles), so every seed gets one
    // mix. A traced run traces alternate units live, so the tracing
    // overhead is the difference between the two interleaved halves.
    let unit = if warm { requests.len() } else { round_len };
    let rate = if warm {
        WARM_PER_SECOND
    } else {
        COLD_PER_SECOND
    };
    let n =
        (args.ops(rate / unit as f64) * unit).min(if warm { usize::MAX } else { requests.len() });
    let start = Instant::now();
    let trace = tracer.is_on().then_some((tracer, unit));
    let samples = drive(&server.addr, requests, 0..n, trace);
    let status = server.status().map_err(io);
    server.stop().map_err(io)?;
    let status = status?;
    tally(&mut m, &samples);

    // Exact counts: cold computes every cell of every request, warm
    // serves every cell from the cache.
    let cells: u64 = samples.iter().map(|s| s.cells).sum();
    let (computed, cached) = if warm { (0, cells) } else { (cells, 0) };
    check_counters(&mut m, &status, computed, cached);
    if tracer.is_on() {
        wire_metrics(&mut m, &samples);
        let p50 = |on: bool| {
            let lat: Vec<f64> = samples
                .iter()
                .filter(|s| traced(s.index, unit) == on)
                .map(Sample::latency_ms)
                .collect();
            (!lat.is_empty()).then(|| stats::median(&lat))
        };
        if let (Some(on), Some(off)) = (p50(true), p50(false)) {
            m.layer("trace.overhead_pct", 100.0 * (on / off - 1.0));
        }
    }

    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    if ok.is_empty() {
        return Err("no request succeeded".into());
    }
    let lat: Vec<f64> = ok.iter().map(|s| s.latency_ms()).collect();
    let window = ok.iter().map(|s| s.end).max().expect("non-empty") - start;
    // batch_s: the wall time of each round of the mix (by request
    // index; a round ends when it and every earlier round have).
    let mut rounds = Vec::new();
    let mut prev = start;
    for round in samples.chunks(round_len) {
        let end = round
            .iter()
            .map(|s| s.end)
            .max()
            .expect("non-empty")
            .max(prev);
        rounds.push((end - prev).as_secs_f64());
        prev = end;
    }
    let tail = stats::tail(&lat);
    let setup_scale = if warm {
        1.0
    } else {
        calib::REF_SETUP_MS / stats::median(&probes)
    };
    m.e2e("setup_s", stats::median(&setups) * setup_scale);
    m.e2e("batch_s", stats::median(&rounds));
    m.e2e("req_p50_ms", stats::median(&lat));
    m.e2e("req_tail_ms", tail.value);
    m.e2e("req_per_s", ok.len() as f64 / window.as_secs_f64());
    m.note_tail(tail);
    m.note("requests", (samples.len() as u64).into());
    m.note("round_requests", round_len.into());
    m.note("round_s", arr(&rounds));
    m.note("wall_setup_reps_s", arr(&setups));
    if !warm {
        m.note("setup_probe_ms", stats::median(&probes).into());
    }
    Ok(m)
}

/// Pins the pool: serves every distinct candidate once from a server
/// with no cache and records each body's hash.
pub fn pin() -> io::Result<Vec<ServicePin>> {
    let pool: Vec<Request> = distinct_candidates()
        .into_iter()
        .map(|(label, json, cells)| Request {
            label,
            json,
            hash: 0,
            cells,
        })
        .collect();
    let (server, _) = Running::start(config(None, false))?;
    let samples = drive(&server.addr, &pool, 0..pool.len(), None);
    server.stop()?;
    samples
        .iter()
        .map(|s| {
            let r = &pool[s.index];
            let hash = s
                .body_hash
                .ok_or_else(|| io::Error::other(format!("{} got no result", r.label)))?;
            Ok(ServicePin {
                label: r.label.clone(),
                hash,
                cells: r.cells,
            })
        })
        .collect()
}
