//! Deterministic parallel trial driver.
//!
//! Every figure and table of the paper is an aggregate over many
//! *independent* simulator runs — percent-of-ones grids (Figs. 6, 8,
//! 15), error-rate sweeps (Fig. 4), eviction-probability studies
//! (Table I). Each trial builds its own [`exec_sim::machine::Machine`]
//! from an explicit seed, so trials share no state and can run on as
//! many cores as the host offers — *provided the results do not
//! depend on execution order*.
//!
//! Two entry points share one scheduler, and both take a [`RunCtrl`]:
//!
//! * [`run_trials_fold_ctrl`] *streams*: trial results are folded into
//!   per-chunk accumulators as they are produced and the chunk
//!   accumulators are combined **in fixed chunk order**, so live
//!   memory stays `O(workers × chunk)` no matter how many trials run.
//!   Million-trial sweeps reduce to a few counters. (A caller that
//!   wants every result folds into a `Vec`.)
//! * [`run_trials_lockstep`] is the same fold with a per-chunk batch
//!   function in place of the per-index trial function.
//!
//! The scheduler claims *chunks* of consecutive indices and hands
//! finished chunk accumulators over through a **two-phase wave**: in
//! the compute phase, workers claim the chunks of the current wave (a
//! window of consecutive chunks) and fill one pre-allocated slot per
//! chunk; when the wave's last chunk lands, that worker runs the merge
//! phase — draining the slots in ascending chunk order into the global
//! accumulator — then opens the next wave. There is no queueing and no
//! bounded-buffer backpressure: a wave *is* the buffer, its slots are
//! written exactly once, and the wave width caps live memory at
//! `O(workers × chunk)` regardless of `n`. Work-stealing survives
//! inside each wave (a worker that drew a long trial simply claims
//! fewer of the wave's chunks). Determinism survives because
//! scheduling only decides *who* computes a chunk, never *how* results
//! combine: the chunk layout is a function of `n` alone
//! ([`fold_chunk_size`]), each chunk folds its indices in ascending
//! order, and the merge phase drains slots in ascending chunk order.
//! Sequential execution uses the *same* chunk/merge structure, so
//! parallel and sequential runs are bit-identical even for
//! non-associative (floating-point) reductions — the
//! `trial_driver_determinism` suite asserts it.
//!
//! The worker count is a property of one run: [`RunCtrl::with_workers`]
//! pins it, and without a pin the run uses the host's available
//! parallelism. There is no process-wide override, so one run's width
//! never leaks into the next run of a long-lived process.
//!
//! ## Resilience
//!
//! The scheduler is *panic-isolated* and *cancellable* at chunk
//! granularity. Every claimed chunk runs inside
//! [`std::panic::catch_unwind`]; a chunk that panics is deterministically
//! re-run **once** from a fresh accumulator (the chunk/merge structure
//! makes the re-run bit-identical, so a transient fault leaves no trace
//! in the result), and a chunk that panics twice surfaces as a
//! structured [`FoldError::ChunkPanicked`] instead of aborting the
//! process. A dying worker can never deadlock the wave handoff:
//! failure is recorded in the shared fold state, every condvar waiter is
//! woken, and the remaining workers drain (drop their in-flight
//! accumulators) instead of waiting on a wave that will never
//! complete. Mutex poisoning is likewise drained (`PoisonError::into_inner`)
//! rather than cascaded.
//!
//! Cancellation is cooperative: a [`CancelToken`] (optionally carrying a
//! deadline) is checked **at chunk boundaries** — between chunks, never
//! inside one — so a cancelled run stops within one chunk's worth of
//! work and returns [`FoldError::Cancelled`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Derives the seed of trial `index` from the experiment's master
/// seed (SplitMix64 finalizer over the pair — consecutive indices
/// yield statistically independent streams).
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Largest worker count a front door accepts for one run (`--threads`
/// on the CLI, `threads` on the wire). Each worker of a fold is an OS
/// thread, so an unbounded request could make a process spawn
/// thousands of them; 256 is far above any host this runs on.
pub const MAX_WORKERS: usize = 256;

/// Worker count of a run whose [`RunCtrl`] pins none: the host's
/// available parallelism.
fn default_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Chunk size the schedulers use for `n` trials.
///
/// A function of `n` **only** — never the worker count — so the
/// chunk/merge structure (and with it the floating-point combination
/// order of [`run_trials_fold_ctrl`]) is identical for any `--threads`
/// value. Small sweeps get chunk 1 (every index steals
/// independently); large sweeps cap at 64 indices per chunk so the
/// claim counter is touched ~once per 64 trials while plenty of
/// chunks remain for balancing.
pub fn fold_chunk_size(n: usize) -> usize {
    (n / 64).clamp(1, 64)
}

/// Wave width per worker: how many chunk slots one two-phase wave
/// holds for each worker. Bounds live memory at
/// `PENDING_PER_WORKER × workers` slot accumulators plus one
/// in-flight chunk per worker plus the global accumulator.
const PENDING_PER_WORKER: usize = 2;

/// Shared cancellation state. A token is cancelled when its own flag
/// is set, its own deadline has passed, or any ancestor token is
/// cancelled.
#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<Arc<CancelInner>>,
}

impl CancelInner {
    fn cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.parent.as_ref().is_some_and(|p| p.cancelled())
    }

    fn timed_out(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.parent.as_ref().is_some_and(|p| p.timed_out())
    }
}

/// A cooperative cancellation handle, checked by the schedulers at
/// chunk boundaries (never inside a chunk, so a fired token stops a
/// run within one chunk's worth of work).
///
/// Tokens are cheap `Arc` handles: clone one into whoever should be
/// able to [`CancelToken::cancel`] the run. A token can carry a
/// deadline ([`CancelToken::with_timeout`]), after which it reports
/// cancelled on its own; [`CancelToken::child_with_timeout`] derives
/// a deadline-bearing child that also honours its parent, which is
/// how a batch applies one external cancel handle *and* a per-job
/// timeout.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh token, never cancelled until someone calls
    /// [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that auto-cancels once `timeout` has elapsed.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                deadline: Instant::now().checked_add(timeout),
                ..CancelInner::default()
            }),
        }
    }

    /// A child token that auto-cancels once `timeout` has elapsed
    /// *and* reports cancelled whenever `self` does. Cancelling the
    /// child does not cancel the parent.
    pub fn child_with_timeout(&self, timeout: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                deadline: Instant::now().checked_add(timeout),
                parent: Some(Arc::clone(&self.inner)),
                ..CancelInner::default()
            }),
        }
    }

    /// Requests cancellation. Idempotent; takes effect at the next
    /// chunk boundary of any run holding this token (or a child).
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has fired (explicit cancel, own deadline, or
    /// a cancelled ancestor).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled()
    }

    /// Whether a deadline (own or ancestral) has expired —
    /// distinguishes a timeout from an explicit cancel.
    pub fn timed_out(&self) -> bool {
        self.inner.timed_out()
    }
}

/// Progress callback: `(completed, total)` trials (or grid cells, at
/// the job layer). Invoked from worker threads, hence `Sync`.
pub type ProgressFn<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// Control surface for one scheduled run: the [`CancelToken`] the
/// workers poll at chunk boundaries, an optional worker-count pin,
/// an optional per-trial progress callback, and a retry counter the driver
/// increments every time a panicked chunk is deterministically re-run.
///
/// Clones share the token and the retry counter, so a nested run
/// (the job engine's per-cell trial sweep) can carry its own progress
/// callback while its retries still count toward the outer run.
#[derive(Clone, Default)]
pub struct RunCtrl<'a> {
    cancel: CancelToken,
    workers: Option<usize>,
    progress: Option<ProgressFn<'a>>,
    retried: Arc<AtomicUsize>,
}

impl std::fmt::Debug for RunCtrl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCtrl")
            .field("cancel", &self.cancel)
            .field("workers", &self.workers)
            .field("progress", &self.progress.is_some())
            .field("retried", &self.retried)
            .finish()
    }
}

impl<'a> RunCtrl<'a> {
    /// A control block that never cancels.
    pub fn new() -> RunCtrl<'a> {
        RunCtrl::default()
    }

    /// A control block driven by an existing token.
    pub fn with_cancel(cancel: CancelToken) -> RunCtrl<'a> {
        RunCtrl {
            cancel,
            ..RunCtrl::default()
        }
    }

    /// Pins this run to `workers` threads (`0` clears the pin). A
    /// long-lived process (the `lru-leak` server) sizes each job this
    /// way, so one request's width never leaks into the next.
    /// Results are bit-identical for any value — the chunk/merge
    /// structure is a function of the trial count alone.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> RunCtrl<'a> {
        self.workers = (workers > 0).then_some(workers);
        self
    }

    /// Reports `(completed, total)` to `progress` after every trial.
    /// The callback never influences the result.
    #[must_use]
    pub fn with_progress(mut self, progress: ProgressFn<'a>) -> RunCtrl<'a> {
        self.progress = Some(progress);
        self
    }

    /// The worker count this run uses: the pin if one is set, else
    /// the host's available parallelism.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }

    /// The token workers poll.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// How many chunk retries the run performed so far (a retry is a
    /// caught panic followed by a deterministic re-run; a fault-free
    /// run reports 0).
    pub fn retried_chunks(&self) -> usize {
        self.retried.load(Ordering::Relaxed)
    }

    fn note_retry(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    /// A per-run reporter for `n` trials: calls the progress callback,
    /// if any, with a running count.
    fn ticker(&self, n: usize) -> impl Fn() + Sync + '_ {
        let done = AtomicUsize::new(0);
        move || {
            if let Some(p) = self.progress {
                p(done.fetch_add(1, Ordering::Relaxed) + 1, n);
            }
        }
    }
}

/// Why a controlled fold stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FoldError {
    /// The [`CancelToken`] fired (explicit cancel or deadline) and a
    /// worker observed it at a chunk boundary before every chunk had
    /// merged.
    Cancelled,
    /// A chunk panicked on its first run **and** on its deterministic
    /// retry; the run was drained without deadlocking and the panic
    /// surfaced here instead of aborting the process.
    ChunkPanicked {
        /// Index of the failed chunk (chunks are
        /// [`fold_chunk_size`]`(n)` consecutive trial indices).
        chunk: usize,
        /// Half-open `[lo, hi)` range of trial indices the chunk
        /// covers.
        trial_range: (usize, usize),
        /// The panic payload, stringified (`&str`/`String` payloads
        /// verbatim, anything else a placeholder).
        payload: String,
    },
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldError::Cancelled => write!(f, "cancelled at a chunk boundary"),
            FoldError::ChunkPanicked {
                chunk,
                trial_range: (lo, hi),
                payload,
            } => write!(
                f,
                "chunk {chunk} (trials {lo}..{hi}) panicked twice (original + retry): {payload}"
            ),
        }
    }
}

impl std::error::Error for FoldError {}

/// Stringifies a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Drains a possibly-poisoned lock: a panic elsewhere must not
/// cascade into every thread that later touches the mutex (the fold
/// state stays consistent because chunk panics are caught *before*
/// the lock is taken and merge panics are caught while the
/// accumulator is checked out).
fn drain_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The streaming reduce pipeline: runs `trial(i)` for `i in 0..n` on
/// `ctrl`'s workers and folds the results into one accumulator
/// without ever materializing all `n` of them.
///
/// The index range is cut into chunks of [`fold_chunk_size`]`(n)`
/// consecutive indices and processed in two-phase *waves*: workers
/// claim the current wave's chunks, fold each chunk's trials **in
/// ascending index order** into a fresh `init()` accumulator, and park
/// it in the chunk's pre-assigned slot (compute phase); the worker
/// that fills the wave's last slot drains every slot **in ascending
/// chunk order** into the global accumulator and opens the next wave
/// (merge phase). No queue, no backpressure waits — the wave is the
/// buffer. Live memory is therefore `O(workers × chunk)` trial
/// results plus `O(workers)` accumulators, regardless of `n`.
///
/// Sequential execution (one worker) walks the *same* chunk/merge
/// structure, so the result is bit-identical for every worker count
/// even when `merge` is only left-to-right deterministic
/// (floating-point sums), not truly associative.
///
/// The driver
///
/// * checks `ctrl`'s [`CancelToken`] at every chunk boundary and
///   returns [`FoldError::Cancelled`] once it fires;
/// * catches a panicking chunk, re-runs it **once** from a fresh
///   accumulator (`ctrl` counts the retry), and only if it panics
///   again returns [`FoldError::ChunkPanicked`] — after draining the
///   other workers, so the wave handoff never deadlocks on a dead
///   worker;
/// * reports each folded trial to `ctrl`'s progress callback, if any.
///
/// # Errors
///
/// [`FoldError::Cancelled`] on cooperative cancellation,
/// [`FoldError::ChunkPanicked`] when a chunk fails twice.
pub fn run_trials_fold_ctrl<T, A, F, I, Fo, M>(
    ctrl: &RunCtrl,
    n: usize,
    trial: F,
    init: I,
    fold: Fo,
    merge: M,
) -> Result<A, FoldError>
where
    T: Send,
    A: Send,
    F: Fn(usize) -> T + Sync,
    I: Fn() -> A + Sync,
    Fo: Fn(&mut A, usize, T) + Sync,
    M: Fn(&mut A, A) + Sync,
{
    let tick = ctrl.ticker(n);
    fold_chunked_impl(
        ctrl,
        n,
        |lo, hi, part: &mut A| {
            for i in lo..hi {
                fold(part, i, trial(i));
                tick();
            }
        },
        init,
        merge,
    )
}

/// The lockstep fold driver: [`run_trials_fold_ctrl`] with the
/// per-index trial function replaced by a **per-chunk batch
/// function** — `batch(lo, hi)` produces the results of trials
/// `lo..hi` in one call, in ascending index order.
///
/// This is the scheduling half of lockstep batched simulation: the
/// chunk layout ([`fold_chunk_size`]), fold order and merge order are
/// *identical* to [`run_trials_fold_ctrl`], so as long as
/// `batch(lo, hi)` returns exactly `[trial(lo), …, trial(hi-1)]`, the
/// accumulated result is bit-identical to the per-index driver for
/// any worker count — while the batch implementation amortizes setup
/// (one allocation, one warmup) across the whole chunk.
///
/// Resilience is inherited unchanged, at the same granularity: the
/// whole `batch` call runs inside the chunk's `catch_unwind`, so a
/// panicking lane takes down one chunk attempt, which is retried
/// deterministically once before surfacing as
/// [`FoldError::ChunkPanicked`]; the [`CancelToken`] is polled at
/// chunk — here, batch — boundaries.
///
/// # Panics
///
/// Panics if `batch` returns a result slice of the wrong length.
///
/// # Errors
///
/// [`FoldError::Cancelled`] on cooperative cancellation,
/// [`FoldError::ChunkPanicked`] when a batch fails twice.
pub fn run_trials_lockstep<T, A, B, I, Fo, M>(
    ctrl: &RunCtrl,
    n: usize,
    batch: B,
    init: I,
    fold: Fo,
    merge: M,
) -> Result<A, FoldError>
where
    T: Send,
    A: Send,
    B: Fn(usize, usize) -> Vec<T> + Sync,
    I: Fn() -> A + Sync,
    Fo: Fn(&mut A, usize, T) + Sync,
    M: Fn(&mut A, A) + Sync,
{
    let tick = ctrl.ticker(n);
    fold_chunked_impl(
        ctrl,
        n,
        |lo, hi, part: &mut A| {
            let results = batch(lo, hi);
            assert_eq!(
                results.len(),
                hi - lo,
                "batch(lo, hi) must yield hi-lo results"
            );
            for (k, v) in results.into_iter().enumerate() {
                fold(part, lo + k, v);
                tick();
            }
        },
        init,
        merge,
    )
}

/// Shared scheduler body. `fill` computes one chunk: it folds the
/// results of trials `lo..hi` (in ascending index order) into the
/// fresh accumulator it is handed. See [`run_trials_fold_ctrl`] for
/// the resilience contract.
fn fold_chunked_impl<A, Fill, I, M>(
    ctrl: &RunCtrl,
    n: usize,
    fill: Fill,
    init: I,
    merge: M,
) -> Result<A, FoldError>
where
    A: Send,
    Fill: Fn(usize, usize, &mut A) + Sync,
    I: Fn() -> A + Sync,
    M: Fn(&mut A, A) + Sync,
{
    let chunk = fold_chunk_size(n);
    let chunks = n.div_ceil(chunk);
    let workers = ctrl.workers().min(chunks.max(1));
    let cancel = ctrl.cancel_token();
    let chunk_range = |c: usize| (c * chunk, ((c + 1) * chunk).min(n));
    // One guarded attempt at chunk `c`: fill a fresh accumulator with
    // the chunk's trials, catching unwinds so a panicking trial takes
    // down this chunk attempt, not the process.
    let attempt_chunk = |c: usize| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let mut part = init();
            let (lo, hi) = chunk_range(c);
            fill(lo, hi, &mut part);
            part
        }))
    };
    // Panic isolation with one deterministic retry: the chunk/merge
    // structure is a function of `n` alone, so re-running a chunk
    // from a fresh accumulator is bit-identical — a transient fault
    // (caught once, clean on retry) leaves no trace in the result.
    let run_chunk = |c: usize| -> Result<A, FoldError> {
        match attempt_chunk(c) {
            Ok(part) => Ok(part),
            Err(_first) => {
                ctrl.note_retry();
                match attempt_chunk(c) {
                    Ok(part) => Ok(part),
                    Err(second) => Err(FoldError::ChunkPanicked {
                        chunk: c,
                        trial_range: chunk_range(c),
                        payload: panic_message(second.as_ref()),
                    }),
                }
            }
        }
    };
    if workers <= 1 || chunks <= 1 {
        let mut acc = init();
        for c in 0..chunks {
            if cancel.is_cancelled() {
                return Err(FoldError::Cancelled);
            }
            let part = run_chunk(c)?;
            panic::catch_unwind(AssertUnwindSafe(|| merge(&mut acc, part))).map_err(|p| {
                FoldError::ChunkPanicked {
                    chunk: c,
                    trial_range: chunk_range(c),
                    payload: panic_message(p.as_ref()),
                }
            })?;
        }
        return Ok(acc);
    }

    // ---- Two-phase wave handoff (SwapChannel-style) ----
    //
    // The chunk range is processed in waves of `wave_cap` consecutive
    // chunks. Compute phase: workers claim the current wave's chunks
    // and park each finished accumulator in the chunk's pre-assigned
    // slot (`slots[c % wave_cap]` — wave starts are multiples of
    // `wave_cap`, so slots never collide within a wave). Merge phase:
    // the worker that fills the wave's *last* slot drains every slot
    // in ascending chunk order into the global accumulator, then
    // advances the wave and wakes the others. There is no queue and
    // no backpressure wait; the only blocking is a worker arriving at
    // an exhausted wave while a sibling still computes.
    let wave_cap = (PENDING_PER_WORKER * workers).min(chunks);

    /// Shared wave state.
    struct FoldState<A> {
        /// First chunk of the current wave (a multiple of the wave
        /// width; `== chunks` once every wave has merged).
        wave_start: usize,
        /// Next chunk to hand out (claims never pass the wave end).
        next_claim: usize,
        /// Slots of the current wave already filled.
        filled: usize,
        /// The global accumulator (taken only during a merge phase).
        acc: Option<A>,
        /// First terminal failure (cancellation or a twice-panicked
        /// chunk). Once set, every worker drains and exits instead of
        /// waiting on a wave that will never complete.
        failed: Option<FoldError>,
    }

    let slots: Vec<Mutex<Option<A>>> = (0..wave_cap).map(|_| Mutex::new(None)).collect();
    let state = Mutex::new(FoldState {
        wave_start: 0,
        next_claim: 0,
        filled: 0,
        acc: Some(init()),
        failed: None,
    });
    let wave_open = Condvar::new();
    let fail_with = |e: FoldError| {
        let mut st = drain_lock(&state);
        st.failed.get_or_insert(e);
        drop(st);
        // Wake every wave waiter so nobody blocks on a wave that will
        // never complete.
        wave_open.notify_all();
    };
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Claim a chunk of the current wave, or wait for the
                // next wave to open. A recorded failure releases the
                // wait — drop-aware draining.
                let c = {
                    let mut st = drain_lock(&state);
                    loop {
                        if st.failed.is_some() || st.next_claim >= chunks {
                            return;
                        }
                        let wave_end = (st.wave_start + wave_cap).min(chunks);
                        if st.next_claim < wave_end {
                            st.next_claim += 1;
                            break st.next_claim - 1;
                        }
                        st = wave_open.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                // Chunk boundary: the only cancellation point.
                if cancel.is_cancelled() {
                    fail_with(FoldError::Cancelled);
                    return;
                }
                let part = match run_chunk(c) {
                    Ok(part) => part,
                    Err(e) => {
                        fail_with(e);
                        return;
                    }
                };
                *drain_lock(&slots[c % wave_cap]) = Some(part);
                let mut st = drain_lock(&state);
                if st.failed.is_some() {
                    // A sibling already failed: the parked slot will
                    // never merge; exit (slots drop with the scope).
                    return;
                }
                st.filled += 1;
                let wave_end = (st.wave_start + wave_cap).min(chunks);
                if st.wave_start + st.filled < wave_end {
                    continue;
                }
                // Merge phase: this worker filled the wave's last
                // slot. Every sibling is computing a claimed chunk of
                // *this* wave (all are filled) or waiting for the
                // next, so draining under the lock races nobody.
                // Strictly ascending chunk order keeps the reduction
                // deterministic; a panicking merge is caught with the
                // accumulator checked out, so the lock is never
                // poisoned mid-merge.
                let mut acc = st.acc.take().expect("accumulator present");
                let mut merge_err = None;
                for chunk in st.wave_start..wave_end {
                    let ready = drain_lock(&slots[chunk % wave_cap])
                        .take()
                        .expect("wave slot filled");
                    match panic::catch_unwind(AssertUnwindSafe(|| merge(&mut acc, ready))) {
                        Ok(()) => {}
                        Err(p) => {
                            merge_err = Some(FoldError::ChunkPanicked {
                                chunk,
                                trial_range: chunk_range(chunk),
                                payload: panic_message(p.as_ref()),
                            });
                            break;
                        }
                    }
                }
                st.acc = Some(acc);
                if let Some(e) = merge_err {
                    st.failed.get_or_insert(e);
                    drop(st);
                    wave_open.notify_all();
                    return;
                }
                st.wave_start = wave_end;
                st.filled = 0;
                drop(st);
                wave_open.notify_all();
            });
        }
    });
    let mut st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = st.failed.take() {
        return Err(e);
    }
    debug_assert_eq!(st.wave_start, chunks, "every wave merged");
    Ok(st.acc.take().expect("accumulator present"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on(workers: usize) -> RunCtrl<'static> {
        RunCtrl::new().with_workers(workers)
    }

    /// Every trial result in index order, on exactly `workers` threads.
    fn collect<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        run_trials_fold_ctrl(
            &on(workers),
            n,
            f,
            Vec::new,
            |acc, _i, v| acc.push(v),
            |acc, mut part| acc.append(&mut part),
        )
        .unwrap()
    }

    #[test]
    fn results_are_in_index_order() {
        let out = collect(4, 37, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential() {
        let f = |i: usize| derive_seed(0xabcd, i as u64);
        let seq = collect(1, 100, f);
        let par = collect(8, 100, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_and_one_trials() {
        assert!(collect(4, 0, |i| i).is_empty());
        assert_eq!(collect(4, 1, |i| i), vec![0]);
    }

    #[test]
    fn derive_seed_spreads_indices() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // A flipped master bit changes every trial's seed.
        assert_ne!(derive_seed(1, 7), derive_seed(3, 7));
    }

    #[test]
    fn default_worker_count_is_positive() {
        assert!(default_workers() >= 1);
        assert!(RunCtrl::new().workers() >= 1);
    }

    #[test]
    fn chunk_size_depends_on_n_only() {
        assert_eq!(fold_chunk_size(0), 1);
        assert_eq!(fold_chunk_size(63), 1);
        assert_eq!(fold_chunk_size(256), 4);
        assert_eq!(fold_chunk_size(1_000_000), 64);
    }

    #[test]
    fn fold_streams_a_float_sum_identically_on_any_worker_count() {
        // A deliberately non-associative reduction: floating-point
        // sums only reproduce if the combination order is fixed.
        let sum_on = |workers: usize| {
            run_trials_fold_ctrl(
                &on(workers),
                10_000,
                |i| (derive_seed(0xf0, i as u64) % 1_000) as f64 / 7.0,
                || 0.0f64,
                |acc, _i, x| *acc += x,
                |acc, part| *acc += part,
            )
            .unwrap()
        };
        let seq = sum_on(1);
        for workers in [2, 3, 4, 8] {
            assert_eq!(
                seq.to_bits(),
                sum_on(workers).to_bits(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn fold_handles_zero_and_one_trials() {
        let count = |n: usize| {
            run_trials_fold_ctrl(
                &on(4),
                n,
                |i| i,
                || 0usize,
                |acc, _i, _v| *acc += 1,
                |acc, part| *acc += part,
            )
            .unwrap()
        };
        assert_eq!(count(0), 0);
        assert_eq!(count(1), 1);
    }

    #[test]
    fn fold_live_accumulators_stay_bounded() {
        use std::sync::atomic::AtomicIsize;
        // init() births an accumulator, merge() consumes one: the
        // difference is how many are alive. The wave handoff must
        // keep that number O(workers), far below the chunk count of
        // a large sweep.
        let live = AtomicIsize::new(0);
        let max_live = AtomicIsize::new(0);
        let workers = 4;
        let n = 40_000; // chunk 64 → 625 chunks
        let total: u64 = run_trials_fold_ctrl(
            &on(workers),
            n,
            |i| i as u64,
            || {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                max_live.fetch_max(now, Ordering::SeqCst);
                0u64
            },
            |acc, _i, v| *acc += v,
            |acc, part| {
                live.fetch_sub(1, Ordering::SeqCst);
                *acc += part;
            },
        )
        .unwrap();
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
        let bound = (1 + PENDING_PER_WORKER * workers + 2 * workers) as isize;
        let seen = max_live.load(Ordering::SeqCst);
        assert!(
            seen <= bound,
            "live accumulators {seen} exceed the O(workers) bound {bound}"
        );
    }

    #[test]
    fn skewed_trial_lengths_still_give_index_ordered_results() {
        // Trial 0 is ~1000× the others: chunked claiming lets the
        // other workers drain the rest. Either way the output must
        // stay index-ordered and bit-identical.
        let f = |i: usize| {
            let spins = if i == 0 { 200_000 } else { 200 };
            let mut acc = derive_seed(0xbeef, i as u64);
            for _ in 0..spins {
                acc = acc.rotate_left(9) ^ acc.wrapping_mul(0x2545_f491_4f6c_dd1d);
            }
            (i, acc)
        };
        let seq = collect(1, 200, f);
        let par = collect(4, 200, f);
        assert_eq!(seq, par);
        assert!(par.iter().enumerate().all(|(i, &(j, _))| i == j));
    }

    #[test]
    fn per_run_worker_pin_leaves_the_default_alone() {
        let before = RunCtrl::new().workers();
        let ctrl = on(before + 1);
        assert_eq!(ctrl.workers(), before + 1);
        // The pin is scoped to the RunCtrl, not the process.
        assert_eq!(RunCtrl::new().workers(), before);
        // Zero clears the pin back to the default.
        assert_eq!(on(2).with_workers(0).workers(), before);
        // And the run itself is bit-identical either way.
        let sum = |ctrl: &RunCtrl| {
            run_trials_fold_ctrl(
                ctrl,
                1000,
                |i| (derive_seed(0xaa, i as u64) % 97) as f64 / 3.0,
                || 0.0f64,
                |acc, _i, v| *acc += v,
                |acc, part| *acc += part,
            )
            .unwrap()
        };
        let pinned = sum(&on(2));
        let default = sum(&RunCtrl::new());
        assert_eq!(pinned.to_bits(), default.to_bits());
    }

    #[test]
    fn progress_reports_every_trial_once() {
        for workers in [1, 4] {
            let calls = AtomicUsize::new(0);
            let highest = AtomicUsize::new(0);
            let cb = |done: usize, total: usize| {
                assert_eq!(total, 1000);
                calls.fetch_add(1, Ordering::SeqCst);
                highest.fetch_max(done, Ordering::SeqCst);
            };
            let ctrl = on(workers).with_progress(&cb);
            let per_index = run_trials_fold_ctrl(
                &ctrl,
                1000,
                |i| i as u64,
                || 0u64,
                |acc, _i, v| *acc += v,
                |acc, part| *acc += part,
            );
            let batched = run_trials_lockstep(
                &ctrl,
                1000,
                |lo, hi| (lo..hi).map(|i| i as u64).collect::<Vec<_>>(),
                || 0u64,
                |acc, _i, v| *acc += v,
                |acc, part| *acc += part,
            );
            assert_eq!(per_index, batched);
            assert_eq!(calls.load(Ordering::SeqCst), 2000, "workers={workers}");
            assert_eq!(highest.load(Ordering::SeqCst), 1000, "workers={workers}");
        }
    }

    /// Sums 0..n with an optional injected one-shot panic.
    fn sum_ctrl(n: usize, ctrl: &RunCtrl, boom: &AtomicUsize) -> Result<u64, FoldError> {
        run_trials_fold_ctrl(
            ctrl,
            n,
            |i| {
                if i == 7
                    && boom
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                        .is_ok()
                {
                    panic!("injected trial panic at {i}");
                }
                i as u64
            },
            || 0u64,
            |acc, _i, v| *acc += v,
            |acc, part| *acc += part,
        )
    }

    #[test]
    fn one_shot_panic_is_retried_to_an_identical_result() {
        let expected = (0..1000u64).sum::<u64>();
        for workers in [1, 4] {
            let ctrl = on(workers);
            let boom = AtomicUsize::new(1); // fire once
            assert_eq!(sum_ctrl(1000, &ctrl, &boom), Ok(expected));
            assert_eq!(ctrl.retried_chunks(), 1, "workers={workers}");
            assert_eq!(boom.load(Ordering::SeqCst), 0, "fault consumed");
        }
    }

    #[test]
    fn clones_count_retries_into_the_same_run() {
        let outer = on(2);
        let nested = outer.clone().with_progress(&|_, _| {});
        let boom = AtomicUsize::new(1);
        assert!(sum_ctrl(1000, &nested, &boom).is_ok());
        assert_eq!(outer.retried_chunks(), 1);
    }

    #[test]
    fn persistent_panic_surfaces_a_structured_error() {
        for workers in [1, 4] {
            let ctrl = on(workers);
            let boom = AtomicUsize::new(usize::MAX); // fire every time
            let err = sum_ctrl(1000, &ctrl, &boom).unwrap_err();
            let FoldError::ChunkPanicked {
                chunk,
                trial_range: (lo, hi),
                payload,
            } = err
            else {
                panic!("expected ChunkPanicked, got {err:?}");
            };
            // n=1000 → chunk size 15; trial 7 lives in chunk 0.
            assert_eq!(chunk, 0, "workers={workers}");
            assert!(lo <= 7 && 7 < hi, "{lo}..{hi} must contain trial 7");
            assert!(payload.contains("injected trial panic at 7"), "{payload}");
            assert!(ctrl.retried_chunks() >= 1);
        }
    }

    #[test]
    fn persistent_panic_under_backpressure_does_not_deadlock() {
        // Chunk 0 always fails while later chunks keep filling the
        // waves behind it; the drain logic must wake and release
        // every worker.
        let err = run_trials_fold_ctrl(
            &on(4),
            40_000, // chunk 64 → 625 chunks, many waves
            |i| {
                if i == 0 {
                    panic!("frontier chunk dies");
                }
                std::hint::black_box(i as u64)
            },
            || 0u64,
            |acc, _i, v| *acc += v,
            |acc, part| *acc += part,
        )
        .unwrap_err();
        assert!(
            matches!(err, FoldError::ChunkPanicked { chunk: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_trial() {
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        let out = run_trials_fold_ctrl(
            &RunCtrl::with_cancel(token).with_workers(4),
            10_000,
            |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                i
            },
            || 0usize,
            |acc, _i, _v| *acc += 1,
            |acc, part| *acc += part,
        );
        assert_eq!(out, Err(FoldError::Cancelled));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "no chunk may start");
    }

    #[test]
    fn mid_run_cancel_stops_at_a_chunk_boundary() {
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let out = run_trials_fold_ctrl(
            &RunCtrl::with_cancel(token.clone()).with_workers(2),
            100_000,
            |i| {
                if ran.fetch_add(1, Ordering::SeqCst) == 500 {
                    token.cancel();
                }
                i as u64
            },
            || 0u64,
            |acc, _i, v| *acc += v,
            |acc, part| *acc += part,
        );
        assert_eq!(out, Err(FoldError::Cancelled));
        // Cooperative: the run stopped well short of the sweep.
        assert!(ran.load(Ordering::SeqCst) < 100_000);
    }

    #[test]
    fn deadline_token_reports_timed_out() {
        let token = CancelToken::with_timeout(Duration::ZERO);
        assert!(token.is_cancelled());
        assert!(token.timed_out());
        let fresh = CancelToken::new();
        assert!(!fresh.is_cancelled());
        assert!(!fresh.timed_out());
        // An explicit cancel is not a timeout.
        fresh.cancel();
        assert!(fresh.is_cancelled() && !fresh.timed_out());
        // Children honour the parent flag and own deadline alike.
        let parent = CancelToken::new();
        let child = parent.child_with_timeout(Duration::from_secs(3600));
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled() && !child.timed_out());
        assert!(!parent.timed_out());
        let expired = parent.child_with_timeout(Duration::ZERO);
        assert!(expired.timed_out());
    }

    #[test]
    fn merge_panic_is_terminal_but_structured() {
        for workers in [1, 4] {
            let out = run_trials_fold_ctrl(
                &on(workers),
                1000,
                |i| i as u64,
                || 0u64,
                |acc, _i, v| *acc += v,
                |_acc, _part| panic!("merge dies"),
            );
            let err = out.unwrap_err();
            assert!(
                matches!(err, FoldError::ChunkPanicked { ref payload, .. } if payload.contains("merge dies")),
                "workers={workers}: {err:?}"
            );
        }
    }

    #[test]
    fn lockstep_driver_matches_per_index_fold_bit_exactly() {
        // Same non-associative float reduction as the per-index test:
        // the chunk/fold/merge structure must line up exactly.
        let trial = |i: usize| (derive_seed(0xf0, i as u64) % 1_000) as f64 / 7.0;
        let per_index = run_trials_fold_ctrl(
            &on(3),
            10_000,
            trial,
            || 0.0f64,
            |acc, _i, x| *acc += x,
            |acc, part| *acc += part,
        )
        .unwrap();
        for workers in [1, 4, 8] {
            let batched = run_trials_lockstep(
                &on(workers),
                10_000,
                |lo, hi| (lo..hi).map(trial).collect::<Vec<_>>(),
                || 0.0f64,
                |acc, _i, x| *acc += x,
                |acc, part| *acc += part,
            )
            .unwrap();
            assert_eq!(per_index.to_bits(), batched.to_bits(), "workers={workers}");
        }
    }

    #[test]
    fn lockstep_batch_panic_is_retried_once_then_structured() {
        // One-shot fault: the whole batch is retried and the result
        // is indistinguishable from a fault-free run.
        let expected = (0..1000u64).sum::<u64>();
        let boom = AtomicUsize::new(1);
        let ctrl = on(4);
        let batch = |lo: usize, hi: usize| {
            if lo <= 7
                && 7 < hi
                && boom
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                    .is_ok()
            {
                panic!("injected batch panic");
            }
            (lo..hi).map(|i| i as u64).collect::<Vec<_>>()
        };
        let sum = run_trials_lockstep(
            &ctrl,
            1000,
            batch,
            || 0u64,
            |acc, _i, v| *acc += v,
            |acc, part| *acc += part,
        )
        .unwrap();
        assert_eq!(sum, expected);
        assert_eq!(ctrl.retried_chunks(), 1);
        // Persistent fault: surfaces as the chunk's structured error.
        let err = run_trials_lockstep(
            &on(4),
            1000,
            |lo: usize, hi: usize| {
                if lo <= 7 && 7 < hi {
                    panic!("persistent batch panic");
                }
                (lo..hi).map(|i| i as u64).collect::<Vec<_>>()
            },
            || 0u64,
            |acc, _i, v| *acc += v,
            |acc, part| *acc += part,
        )
        .unwrap_err();
        assert!(
            matches!(err, FoldError::ChunkPanicked { ref payload, .. }
                if payload.contains("persistent batch panic")),
            "{err:?}"
        );
    }

    #[test]
    fn lockstep_driver_honours_cancellation_at_batch_boundaries() {
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        let out = run_trials_lockstep(
            &RunCtrl::with_cancel(token).with_workers(4),
            10_000,
            |lo, hi| {
                ran.fetch_add(hi - lo, Ordering::SeqCst);
                (lo..hi).collect::<Vec<_>>()
            },
            || 0usize,
            |acc, _i, _v| *acc += 1,
            |acc, part| *acc += part,
        );
        assert_eq!(out, Err(FoldError::Cancelled));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "no batch may start");
    }
}
