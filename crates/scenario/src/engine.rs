//! The resilient job layer: one execution core for the CLI and any
//! future server.
//!
//! A [`Job`] is a scenario grid — each [`Scenario`] already carries
//! its own `trials` and `seed` — and an [`Engine`] runs jobs with
//! four guarantees the one-shot CLI path never had:
//!
//! 1. **Panic isolation.** Grid cells execute through the chunked
//!    fold driver of [`lru_channel::trials`], which catches unwinds
//!    at chunk granularity, re-runs a failed chunk deterministically
//!    once, and surfaces a persistent failure as a structured
//!    [`EngineError::ChunkPanicked`] instead of aborting the process.
//!    Because the chunk/merge structure is a function of the grid
//!    alone, a faulted-then-retried run produces bytes identical to a
//!    fault-free run.
//! 2. **Cancellation and deadlines.** A cooperative
//!    [`CancelToken`] is polled at every chunk boundary (grid-cell
//!    *and* trial-chunk level); [`Engine::with_timeout`] derives a
//!    per-job deadline child token, so a batch can apply one external
//!    cancel handle and a per-job timeout at once. A fired deadline
//!    reports [`EngineError::DeadlineExceeded`], an explicit cancel
//!    [`EngineError::Cancelled`].
//! 3. **Content-addressed result caching.** The bit-identical-
//!    across-workers invariant makes every cell's outcome a pure
//!    function of its canonical scenario JSON (which embeds seed and
//!    trial count) — i.e. perfectly cacheable. [`ResultCache`] hashes
//!    that canonical encoding into an on-disk store with atomic
//!    rename publication, version-stamped entries and full-key
//!    verification; corrupt or stale entries are silently recomputed.
//!    An interrupted batch therefore *resumes* at the first uncached
//!    cell on the next run.
//! 4. **Fault injection (test-only).** A [`FaultPlan`] wires
//!    seed-derived injection points — panic-in-cell, delay-in-worker,
//!    cache-entry corruption — through the engine so the resilience
//!    suite can pin that recovery is byte-exact. Production callers
//!    simply never attach one.
//!
//! ```no_run
//! use scenario::engine::{CancelToken, Engine, ResultCache};
//! use scenario::registry::{self, RunOpts};
//! use std::time::Duration;
//!
//! let engine = Engine::new()
//!     .with_cache(ResultCache::open("/tmp/lru-leak-cache")?)
//!     .with_timeout(Duration::from_secs(300));
//! let artifact = registry::get("fig6").unwrap();
//! let (report, status) =
//!     engine.run_artifact(artifact, &RunOpts::default(), None, &CancelToken::new())?;
//! eprintln!("{} cells: {} cached, {} computed", status.cells, status.from_cache, status.computed);
//! print!("{}", report.text);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lru_channel::lockstep::LockstepMode;
use lru_channel::trials::{derive_seed, run_trials_fold_ctrl};
pub use lru_channel::trials::{CancelToken, FoldError, ProgressFn, RunCtrl};

use crate::json::Value;
use crate::registry::{Artifact, Report, RunOpts};
use crate::spec::Scenario;

/// Version stamp written into every cache entry; bump it whenever the
/// outcome encoding changes so stale stores are recomputed rather
/// than trusted.
pub const CACHE_FORMAT_VERSION: u64 = 1;

/// One schedulable unit of work: a labelled scenario grid. Seeds and
/// trial counts live inside each [`Scenario`], so a `Job` is the
/// complete, serializable description of a batch — exactly what a
/// server would accept over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Human-readable identity (artifact ID, `"adhoc"`, …).
    pub label: String,
    /// The grid to run, one outcome per cell.
    pub grid: Vec<Scenario>,
}

impl Job {
    /// The job behind a registry artifact at the given options.
    pub fn from_artifact(artifact: &Artifact, opts: &RunOpts) -> Job {
        Job {
            label: artifact.id.to_string(),
            grid: artifact.scenarios(opts),
        }
    }

    /// A single-scenario job (the `adhoc` shape).
    pub fn from_scenario(label: impl Into<String>, scenario: Scenario) -> Job {
        Job {
            label: label.into(),
            grid: vec![scenario],
        }
    }

    /// Total trial count across the grid.
    pub fn total_trials(&self) -> usize {
        self.grid.iter().map(|s| s.trials.max(1)).sum()
    }
}

/// How a completed job was served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStatus {
    /// Grid cells in the job.
    pub cells: usize,
    /// Cells served from the content-addressed cache.
    pub from_cache: usize,
    /// Cells actually simulated (and, with a cache, stored).
    pub computed: usize,
    /// Chunk retries the fold drivers performed (0 on a fault-free
    /// run; every retry is a caught panic that was recovered
    /// bit-exactly).
    pub retried_chunks: usize,
}

/// Why a job did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The external [`CancelToken`] fired; observed at a chunk
    /// boundary.
    Cancelled,
    /// The per-job deadline ([`Engine::with_timeout`]) expired.
    DeadlineExceeded {
        /// The configured per-job timeout.
        timeout: Duration,
    },
    /// A chunk panicked twice (original + deterministic retry). For a
    /// cell whose *trial* chunk died, the payload carries the nested
    /// cell/chunk coordinates.
    ChunkPanicked {
        /// Failing chunk index of the outermost (grid-cell) driver.
        chunk: usize,
        /// Half-open cell-index range the chunk covers.
        trial_range: (usize, usize),
        /// Stringified panic payload.
        payload: String,
    },
    /// `--lockstep=force` was demanded for a grid with a cell the
    /// lockstep path cannot run. Raised by front ends before
    /// execution starts ([`Engine`] itself treats `Force` like
    /// `Auto`), so the grid is never partially run.
    LockstepIneligible {
        /// Index of the first ineligible grid cell.
        cell: usize,
        /// Why that cell cannot run in lockstep.
        reason: crate::LockstepIneligible,
    },
    /// The artifact's grid does not validate at the requested
    /// options ([`Artifact::try_scenarios`]); nothing ran.
    Invalid(crate::ScenarioError),
}

impl EngineError {
    /// Short machine-readable status tag (`"cancelled"`, `"timeout"`,
    /// `"panicked"`, `"ineligible"`, `"invalid"`) for batch summaries.
    pub fn status(&self) -> &'static str {
        match self {
            EngineError::Cancelled => "cancelled",
            EngineError::DeadlineExceeded { .. } => "timeout",
            EngineError::ChunkPanicked { .. } => "panicked",
            EngineError::LockstepIneligible { .. } => "ineligible",
            EngineError::Invalid(_) => "invalid",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Cancelled => write!(f, "cancelled at a chunk boundary"),
            EngineError::DeadlineExceeded { timeout } => {
                write!(f, "deadline exceeded (timeout {}s)", timeout.as_secs())
            }
            EngineError::ChunkPanicked {
                chunk,
                trial_range: (lo, hi),
                payload,
            } => write!(
                f,
                "chunk {chunk} (cells {lo}..{hi}) panicked twice (original + retry): {payload}"
            ),
            EngineError::LockstepIneligible { cell, reason } => {
                write!(f, "--lockstep=force: cell {cell}: {reason}")
            }
            EngineError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Monotone counter making concurrent temp-file names unique within
/// the process; the process ID covers concurrent processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// FNV-1a 64-bit over arbitrary bytes — the content address every
/// durability layer in the workspace shares: [`ResultCache`] entry
/// names, the server's job-journal keys, and the wire protocol's
/// response checksums all hash with this one function, so "the same
/// content" means the same 64-bit address everywhere. Collisions are
/// harmless for the cache: every entry stores its full key and a
/// lookup verifies it, so a colliding entry reads as a miss.
pub fn content_hash64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A point-in-time snapshot of a cache's lookup counters — how many
/// lookups hit a verified entry, missed because no entry existed, or
/// found an entry that failed verification (unparsable, stale
/// version, or key mismatch) and was therefore recomputed.
///
/// Counters are shared by every clone of the [`ResultCache`] they
/// came from, so one cache serving many connections (the `lru-leak`
/// server) reports one fleet-wide tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a verified entry.
    pub hits: u64,
    /// Lookups that found no entry at all.
    pub misses: u64,
    /// Lookups that found an entry but rejected it (corrupt,
    /// stale-version, or hash-colliding) — each one recovered by
    /// recomputation and an overwrite.
    pub corrupt_recovered: u64,
}

impl CacheStats {
    /// The counters as a deterministic JSON object, the shape both
    /// `run-all --json` and the server's response metadata embed.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("corrupt_recovered", self.corrupt_recovered)
    }
}

/// Shared mutable counters behind [`CacheStats`] snapshots.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

/// An on-disk, content-addressed store of per-cell outcomes.
///
/// The key is the canonical scenario JSON with every axis spelled out
/// ([`Scenario::to_json_full`]), which embeds the seed and trial
/// count; the entry file name is the FNV-1a hash of that key. Every
/// entry is a JSON object `{version, key, outcome}` published by
/// write-to-temp + atomic rename, so a concurrently-read or
/// interrupted store can never expose a half-written entry. Lookups
/// verify both the version stamp and the *full* key, and treat any
/// unreadable, unparsable, stale or mismatched entry as a miss — the
/// engine then recomputes and overwrites it.
///
/// Every lookup is tallied into shared [`CacheStats`] counters
/// (hit / miss / corrupt-recovered); clones share the same counters,
/// so a cache passed to many engines or connections reports one
/// combined tally via [`ResultCache::stats`].
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    counters: Arc<CacheCounters>,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            counters: Arc::new(CacheCounters::default()),
        })
    }

    /// A snapshot of the lookup counters accumulated by this cache
    /// and every clone of it since it was opened.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            corrupt_recovered: self.counters.corrupt.load(Ordering::Relaxed),
        }
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The canonical content key of a scenario: its fully spelled-out
    /// JSON encoding (noise axis explicit, seed and trials included).
    pub fn key(scenario: &Scenario) -> String {
        scenario.to_json_full().to_string()
    }

    /// The 64-bit content address of a scenario — the hash its entry
    /// file name is derived from. The server's job journal keys its
    /// records with this same number, so "the journal and the cache
    /// agree about a cell" is an equality check, not a convention.
    pub fn key_hash(scenario: &Scenario) -> u64 {
        content_hash64(Self::key(scenario).as_bytes())
    }

    /// The entry file name a scenario hashes to.
    pub fn entry_name(scenario: &Scenario) -> String {
        format!("{:016x}.json", Self::key_hash(scenario))
    }

    /// Whether a *verified* entry for `scenario` is on disk, without
    /// touching the hit/miss counters — the peek journal recovery
    /// uses to decide whether a `done` record can be trusted or must
    /// degrade to recompute. Any unreadable, unparsable, stale or
    /// key-mismatched entry reads as absent, exactly like
    /// [`ResultCache::lookup`].
    pub fn contains(&self, scenario: &Scenario) -> bool {
        matches!(self.read_verified(scenario), Ok(Some(_)))
    }

    fn entry_path(&self, scenario: &Scenario) -> PathBuf {
        self.dir.join(Self::entry_name(scenario))
    }

    /// Fetches a verified outcome, or `None` on any miss: absent
    /// entry, I/O error, unparsable JSON, version mismatch, or a key
    /// that does not match the scenario byte-for-byte. Every call
    /// increments exactly one [`CacheStats`] counter: `hits` for a
    /// verified entry, `misses` when no entry could be read, and
    /// `corrupt_recovered` when an entry was present but failed
    /// verification (the caller recomputes and overwrites it).
    pub fn lookup(&self, scenario: &Scenario) -> Option<Value> {
        let (counter, outcome) = match self.read_verified(scenario) {
            Ok(Some(outcome)) => (&self.counters.hits, Some(outcome)),
            Ok(None) => (&self.counters.corrupt, None),
            Err(_) => (&self.counters.misses, None),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Reads `scenario`'s entry: `Err` when no entry could be read,
    /// `Ok(None)` when one was present but failed verification
    /// (non-UTF-8 or unparsable bytes, version or key mismatch, no
    /// outcome), and the outcome when it verified.
    fn read_verified(&self, scenario: &Scenario) -> io::Result<Option<Value>> {
        let bytes = fs::read(self.entry_path(scenario))?;
        let entry = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| Value::parse(text).ok());
        Ok(entry.and_then(|entry| {
            let verified = entry.get("version").and_then(Value::as_u64)
                == Some(CACHE_FORMAT_VERSION)
                && entry.get("key").and_then(Value::as_str) == Some(Self::key(scenario).as_str());
            verified.then(|| entry.get("outcome").cloned()).flatten()
        }))
    }

    /// Stores a cell outcome: serialize to a unique temp file in the
    /// cache directory, then atomically rename into place (last
    /// writer wins; identical content either way, because the outcome
    /// is a pure function of the key).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers may treat them as soft (a
    /// failed store only loses the cache benefit).
    pub fn store(&self, scenario: &Scenario, outcome: &Value) -> io::Result<()> {
        let entry = Value::obj()
            .with("version", CACHE_FORMAT_VERSION)
            .with("key", Self::key(scenario))
            .with("outcome", outcome.clone());
        let path = self.entry_path(scenario);
        let tmp = self.dir.join(format!(
            ".{:016x}.{}-{}.tmp",
            content_hash64(Self::key(scenario).as_bytes()),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp, entry.to_string())?;
        fs::rename(&tmp, &path)
    }

    /// Overwrites a scenario's entry with garbage (test support for
    /// the corrupt-entry-detection path).
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn corrupt_entry(&self, scenario: &Scenario) -> io::Result<()> {
        fs::write(
            self.entry_path(scenario),
            "{\"version\":1,\"key\":\"truncat",
        )
    }

    /// Number of published entries on disk.
    pub fn entry_count(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| {
                        e.file_name()
                            .to_str()
                            .is_some_and(|n| n.ends_with(".json") && !n.starts_with('.'))
                    })
                    .count()
            })
            .unwrap_or(0)
    }
}

/// Seed-derived fault injection for the resilience suite: the plan
/// decides per grid-cell index whether to panic (a configurable
/// number of times), sleep, or corrupt the just-written cache entry.
/// Deterministic by construction — the injection points are a pure
/// function of the plan seed — so a faulted run is reproducible.
///
/// Test-only by convention: nothing in the engine behaves differently
/// until a plan is attached with [`Engine::with_fault_plan`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    panic_every: u64,
    panic_cells: Vec<usize>,
    panic_fires: u32,
    delay_every: u64,
    delay: Duration,
    corrupt_writes: bool,
    fired: Mutex<BTreeMap<usize, u32>>,
}

/// Domain-separation salts so the panic and delay point sets are
/// independent draws from the same plan seed.
const PANIC_SALT: u64 = 0x70616e;
const DELAY_SALT: u64 = 0x64656c;

impl FaultPlan {
    /// A plan with no faults armed; combine with the builder methods.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Arms panic injection: each cell whose seed-derived draw
    /// satisfies `hash % every == 0` panics on its first `fires`
    /// executions (so `fires: 1` exercises the retry path and
    /// `u32::MAX` a persistent failure). `every: 1` faults every
    /// cell.
    #[must_use]
    pub fn panic_every(mut self, every: u64, fires: u32) -> FaultPlan {
        self.panic_every = every;
        self.panic_fires = fires;
        self
    }

    /// Arms panic injection at the exact cell indices given, each
    /// firing on its first `fires` executions (composes with
    /// [`FaultPlan::panic_every`]; the `fires` budget is shared).
    #[must_use]
    pub fn panic_at(mut self, cells: &[usize], fires: u32) -> FaultPlan {
        self.panic_cells = cells.to_vec();
        self.panic_fires = fires;
        self
    }

    /// Arms delay injection: matching cells sleep for `delay` before
    /// running (the worker-stall fault the timeout path needs).
    #[must_use]
    pub fn delay_every(mut self, every: u64, delay: Duration) -> FaultPlan {
        self.delay_every = every;
        self.delay = delay;
        self
    }

    /// Arms cache corruption: every entry the engine writes is
    /// immediately overwritten with garbage, so a subsequent warm run
    /// must detect and recompute.
    #[must_use]
    pub fn corrupt_cache_writes(mut self) -> FaultPlan {
        self.corrupt_writes = true;
        self
    }

    fn targets(&self, every: u64, salt: u64, cell: usize) -> bool {
        every > 0 && derive_seed(self.seed ^ salt, cell as u64).is_multiple_of(every)
    }

    /// Whether `cell` is an armed panic injection point (regardless
    /// of how often it already fired) — lets tests assert coverage.
    pub fn panics_at(&self, cell: usize) -> bool {
        self.panic_cells.contains(&cell) || self.targets(self.panic_every, PANIC_SALT, cell)
    }

    /// Injection hook the engine calls before executing a cell.
    fn before_cell(&self, cell: usize) {
        if self.targets(self.delay_every, DELAY_SALT, cell) {
            std::thread::sleep(self.delay);
        }
        if self.panics_at(cell) {
            let mut fired = self
                .fired
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let count = fired.entry(cell).or_insert(0);
            if *count < self.panic_fires {
                *count += 1;
                drop(fired);
                panic!("injected fault: panic in cell {cell}");
            }
        }
    }
}

/// The job engine: executes [`Job`]s with panic isolation,
/// cooperative cancellation, per-job deadlines, and an optional
/// content-addressed result cache. `Engine::new()` with no options is
/// byte-identical to the historical direct path — the resilient
/// machinery only *changes* behaviour when a fault, cancel, timeout
/// or cache is actually present.
#[derive(Debug, Default)]
pub struct Engine {
    cache: Option<ResultCache>,
    timeout: Option<Duration>,
    workers: Option<usize>,
    fault: Option<FaultPlan>,
    lockstep: LockstepMode,
}

impl Engine {
    /// A plain engine: no cache, no deadline, no faults.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Serves cells from (and stores computed cells into) `cache`.
    #[must_use]
    pub fn with_cache(mut self, cache: ResultCache) -> Engine {
        self.cache = Some(cache);
        self
    }

    /// Applies a per-job deadline: each [`Engine::run_job`] call gets
    /// a fresh child token that auto-cancels after `timeout`.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Engine {
        self.timeout = Some(timeout);
        self
    }

    /// Sizes this engine's jobs to `workers` threads via the per-run
    /// [`RunCtrl`] pin, so a long-lived host (the `lru-leak` server)
    /// can run consecutive jobs at different widths without one
    /// request's setting sticking. Results are bit-identical for any
    /// width.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Engine {
        self.workers = (workers > 0).then_some(workers);
        self
    }

    /// Attaches a fault-injection plan (test support).
    #[must_use]
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Engine {
        self.fault = Some(fault);
        self
    }

    /// Sets how cells use the lockstep trial path (`Auto` by
    /// default). Results are bit-identical for every mode — `Off`
    /// exists to bisect a suspected lockstep regression, and run
    /// drivers treat `Force` like `Auto` (front ends reject
    /// ineligible scenarios up front via
    /// [`Scenario::lockstep_spec`](crate::Scenario::lockstep_spec)).
    #[must_use]
    pub fn with_lockstep(mut self, mode: LockstepMode) -> Engine {
        self.lockstep = mode;
        self
    }

    /// Runs every cell of `job` through the chunked, panic-isolated,
    /// cancellable fold driver and returns the outcomes in grid
    /// order — byte-identical for any worker count, with a cache for
    /// any interleaving of hits and misses, and across any recovered
    /// (retried) fault.
    ///
    /// `progress` is invoked as `(completed, total)` cells from
    /// worker threads; cached cells count as completed.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] / [`EngineError::DeadlineExceeded`]
    /// when the token (external or deadline child) fires before the
    /// grid completes, [`EngineError::ChunkPanicked`] when a chunk
    /// panics on both its original run and its deterministic retry.
    pub fn run_job(
        &self,
        job: &Job,
        progress: Option<ProgressFn>,
        cancel: &CancelToken,
    ) -> Result<(Vec<Value>, JobStatus), EngineError> {
        self.run_job_inner(job, progress, None, cancel)
    }

    /// [`Engine::run_job`] with a rich [`JobProgress`] observer
    /// instead of the cell-count callback: the observer sees cell
    /// *and* trial completion counts (cached cells contribute their
    /// whole trial count at once), which is what a streaming server
    /// reports as progress events. The observer never influences the
    /// result — bytes are identical to [`Engine::run_job`].
    ///
    /// # Errors
    ///
    /// See [`Engine::run_job`].
    pub fn run_job_observed(
        &self,
        job: &Job,
        observer: Option<JobProgressFn>,
        cancel: &CancelToken,
    ) -> Result<(Vec<Value>, JobStatus), EngineError> {
        self.run_job_inner(job, None, observer, cancel)
    }

    /// Shared body of the `run_job*` entry points. One job's control
    /// block: a deadline child token when a timeout is configured,
    /// the engine's worker pin and lockstep mode.
    fn run_job_inner(
        &self,
        job: &Job,
        progress: Option<ProgressFn>,
        observer: Option<JobProgressFn>,
        cancel: &CancelToken,
    ) -> Result<(Vec<Value>, JobStatus), EngineError> {
        let token = match self.timeout {
            Some(t) => cancel.child_with_timeout(t),
            None => cancel.clone(),
        };
        let ctrl = &RunCtrl::with_cancel(token)
            .with_workers(self.workers.unwrap_or(0))
            .with_lockstep(self.lockstep);
        let run = JobRun {
            engine: self,
            job,
            ctrl,
            progress,
            observer,
            trials_total: job.total_trials(),
            done: AtomicUsize::new(0),
            trials_done: AtomicUsize::new(0),
            from_cache: AtomicUsize::new(0),
            computed: AtomicUsize::new(0),
        };
        let total = job.grid.len();
        let outcomes = run_trials_fold_ctrl(
            ctrl,
            total,
            |i| run.cell(i),
            Vec::new,
            |acc: &mut Vec<Value>, _i, v| acc.push(v),
            |acc, mut part| acc.append(&mut part),
        );
        let status = JobStatus {
            cells: total,
            from_cache: run.from_cache.load(Ordering::Relaxed),
            computed: run.computed.load(Ordering::Relaxed),
            retried_chunks: ctrl.retried_chunks(),
        };
        match outcomes {
            // A cell that observed cancellation mid-run returns a
            // placeholder; never hand placeholders to a renderer.
            Ok(_) if ctrl.cancel_token().is_cancelled() => Err(self.terminal(ctrl.cancel_token())),
            Ok(outcomes) => Ok((outcomes, status)),
            Err(FoldError::Cancelled) => Err(self.terminal(ctrl.cancel_token())),
            Err(FoldError::ChunkPanicked {
                chunk,
                trial_range,
                payload,
            }) => Err(EngineError::ChunkPanicked {
                chunk,
                trial_range,
                payload,
            }),
        }
    }

    /// [`Engine::run_job`] for a registry artifact, rendered into the
    /// artifact's [`Report`] (what [`Artifact::run`] calls on a plain
    /// engine).
    ///
    /// # Errors
    ///
    /// [`EngineError::Invalid`] if the artifact's grid does not
    /// validate at `opts`; otherwise see [`Engine::run_job`].
    pub fn run_artifact(
        &self,
        artifact: &Artifact,
        opts: &RunOpts,
        progress: Option<ProgressFn>,
        cancel: &CancelToken,
    ) -> Result<(Report, JobStatus), EngineError> {
        let job = Job {
            label: artifact.id.to_string(),
            grid: artifact.try_scenarios(opts).map_err(EngineError::Invalid)?,
        };
        let (outcomes, status) = self.run_job(&job, progress, cancel)?;
        Ok((artifact.render_report(opts, &job.grid, &outcomes), status))
    }

    /// Classifies a fired token: deadline → timeout, otherwise an
    /// explicit cancel.
    fn terminal(&self, token: &CancelToken) -> EngineError {
        if token.timed_out() {
            EngineError::DeadlineExceeded {
                timeout: self.timeout.unwrap_or_default(),
            }
        } else {
            EngineError::Cancelled
        }
    }
}

/// A live snapshot of how far a running job has progressed, reported
/// from worker threads. Trial counts are monotone but their
/// interleaving with cell counts is scheduling-dependent — progress
/// is advisory; the job's *result* stays bit-identical regardless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobProgress {
    /// Grid cells fully completed (cached cells count).
    pub cells_done: usize,
    /// Grid cells in the job.
    pub cells: usize,
    /// Trial-units completed across all cells; a cell served from
    /// the cache contributes its whole trial count at once.
    pub trials_done: usize,
    /// Total trial-units in the job ([`Job::total_trials`]).
    pub trials: usize,
}

/// Observer invoked from worker threads after every completed trial
/// and cell; see [`Engine::run_job_observed`].
pub type JobProgressFn<'a> = &'a (dyn Fn(JobProgress) + Sync);

/// Per-run state shared by the cell closures.
struct JobRun<'a> {
    engine: &'a Engine,
    job: &'a Job,
    ctrl: &'a RunCtrl<'a>,
    progress: Option<ProgressFn<'a>>,
    observer: Option<JobProgressFn<'a>>,
    trials_total: usize,
    done: AtomicUsize,
    trials_done: AtomicUsize,
    from_cache: AtomicUsize,
    computed: AtomicUsize,
}

impl JobRun<'_> {
    fn snapshot(&self) -> JobProgress {
        JobProgress {
            cells_done: self.done.load(Ordering::Relaxed),
            cells: self.job.grid.len(),
            trials_done: self.trials_done.load(Ordering::Relaxed),
            trials: self.trials_total,
        }
    }

    fn note_done(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(p) = self.progress {
            p(done, self.job.grid.len());
        }
        if let Some(obs) = self.observer {
            obs(self.snapshot());
        }
    }

    /// Executes one grid cell: fault hooks, cache lookup, simulate,
    /// cache store. Runs inside the outer driver's `catch_unwind`, so
    /// a panic here (injected or nested) is chunk-isolated and
    /// retried once before surfacing.
    fn cell(&self, i: usize) -> Value {
        if let Some(fault) = &self.engine.fault {
            fault.before_cell(i);
        }
        let scenario = &self.job.grid[i];
        if let Some(cache) = &self.engine.cache {
            if let Some(outcome) = cache.lookup(scenario) {
                self.from_cache.fetch_add(1, Ordering::Relaxed);
                self.trials_done
                    .fetch_add(scenario.trials.max(1), Ordering::Relaxed);
                self.note_done();
                return outcome;
            }
        }
        // Trial-level progress only when someone is listening: the
        // callback path costs one atomic per trial otherwise. The
        // clone shares the job's token and retry counter.
        let trial_cb = |_done: usize, _total: usize| {
            self.trials_done.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = self.observer {
                obs(self.snapshot());
            }
        };
        let observed;
        let ctrl = if self.observer.is_some() {
            observed = self.ctrl.clone().with_progress(&trial_cb);
            &observed
        } else {
            self.ctrl
        };
        match scenario.run_ctrl(ctrl) {
            Ok(outcome) => {
                if let Some(cache) = &self.engine.cache {
                    // A failed store only loses the cache benefit.
                    let _ = cache.store(scenario, &outcome);
                    if self.engine.fault.as_ref().is_some_and(|f| f.corrupt_writes) {
                        let _ = cache.corrupt_entry(scenario);
                    }
                }
                self.computed.fetch_add(1, Ordering::Relaxed);
                self.note_done();
                outcome
            }
            // The token fired mid-cell. Return a placeholder — the
            // post-run cancellation check in run_job discards the
            // whole result, so it can never reach a renderer.
            Err(FoldError::Cancelled) => Value::Null,
            // The cell's *trial* driver already retried this chunk
            // once. Rethrow so the outer (cell-level) driver retries
            // the entire cell deterministically, then surfaces it
            // with nested coordinates if it still fails.
            Err(FoldError::ChunkPanicked {
                chunk,
                trial_range: (lo, hi),
                payload,
            }) => std::panic::panic_any(format!(
                "cell {i} ({label}): trial chunk {chunk} (trials {lo}..{hi}) panicked: {payload}",
                label = self.job.label,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MessageSource;

    fn tiny_scenario(seed: u64) -> Scenario {
        Scenario::builder()
            .message(MessageSource::Alternating { bits: 4 })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lru-leak-engine-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cache_round_trips_an_outcome_bit_exactly() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let sc = tiny_scenario(11);
        assert!(cache.lookup(&sc).is_none(), "cold cache misses");
        let outcome = sc.run();
        cache.store(&sc, &outcome).unwrap();
        let back = cache.lookup(&sc).expect("warm cache hits");
        assert_eq!(back, outcome);
        assert_eq!(back.to_string(), outcome.to_string());
        assert_eq!(cache.entry_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_key_covers_every_field() {
        let a = tiny_scenario(11);
        let mut b = a.clone();
        b.seed = 12;
        let mut c = a.clone();
        c.trials = a.trials + 1;
        assert_ne!(ResultCache::key(&a), ResultCache::key(&b), "seed in key");
        assert_ne!(ResultCache::key(&a), ResultCache::key(&c), "trials in key");
        assert_ne!(ResultCache::entry_name(&a), ResultCache::entry_name(&b));
    }

    #[test]
    fn corrupt_and_stale_entries_read_as_misses() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        let sc = tiny_scenario(13);
        let outcome = sc.run();
        cache.store(&sc, &outcome).unwrap();
        cache.corrupt_entry(&sc).unwrap();
        assert!(cache.lookup(&sc).is_none(), "corrupt entry must miss");
        // A version from the future must miss too.
        let entry = Value::obj()
            .with("version", CACHE_FORMAT_VERSION + 1)
            .with("key", ResultCache::key(&sc))
            .with("outcome", outcome.clone());
        fs::write(
            cache.dir().join(ResultCache::entry_name(&sc)),
            entry.to_string(),
        )
        .unwrap();
        assert!(cache.lookup(&sc).is_none(), "future version must miss");
        // And a hash collision (right name, wrong key) must miss.
        let entry = Value::obj()
            .with("version", CACHE_FORMAT_VERSION)
            .with("key", "not the scenario")
            .with("outcome", outcome);
        fs::write(
            cache.dir().join(ResultCache::entry_name(&sc)),
            entry.to_string(),
        )
        .unwrap();
        assert!(cache.lookup(&sc).is_none(), "key mismatch must miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_is_deterministic_and_one_shot() {
        let plan = FaultPlan::seeded(42).panic_every(1, 1);
        assert!(plan.panics_at(0) && plan.panics_at(5));
        let first = std::panic::catch_unwind(|| plan.before_cell(3));
        assert!(first.is_err(), "armed cell panics once");
        plan.before_cell(3); // second call: fault exhausted, no panic
    }
}
