//! Heap pins for the simulated machine.
//!
//! One E5-2690 machine is almost all LLC rows (about 4.3 MiB), so a
//! run that holds a second hierarchy next to the one it uses doubles
//! its peak heap. These pins hold every run that needs a non-default
//! hierarchy to one machine's worth of heap, and hold a fresh machine
//! to its set rows: the PL-lock and µtag side arrays are allocated on
//! first use, which a quiet E5-2690 machine never reaches.
//!
//! Everything is measured in one `#[test]`, so no other test thread
//! allocates while the counters run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lru_leak::cache_sim::hierarchy::Inclusion;
use lru_leak::cache_sim::profiles::MicroArch;
use lru_leak::cache_sim::replacement::PolicyKind;
use lru_leak::cache_sim::Cache;
use lru_leak::exec_sim::sched::Engine;
use lru_leak::exec_sim::Machine;
use lru_leak::lru_channel::covert::{percent_ones, PercentOnesOpts, Variant};
use lru_leak::lru_channel::params::{ChannelParams, Platform};
use lru_leak::scenario::registry::{self, RunOpts};
use lru_leak::scenario::spec::{ExperimentKind, Scenario};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with live-byte and peak accounting.
struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (so from `System`)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Runs `f` and returns its result with the most heap bytes it had
/// live at once beyond what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// Bytes of one cache level's set rows: per set, one word per way
/// tag, the valid word and the replacement-state words.
fn row_bytes(cache: &Cache) -> usize {
    let g = cache.geometry();
    g.num_sets() as usize * (g.ways() + 1 + cache.set(0).repl_words().len()) * 8
}

#[test]
fn every_run_holds_one_machine_and_no_idle_side_arrays() {
    let arch = MicroArch::sandy_bridge_e5_2690();
    let (machine, one_machine) = peak_of(|| Machine::new(arch, PolicyKind::TreePlru, 1));

    // A fresh machine is its set rows: the smallest side array (the
    // L1's lock masks, one word per set) would overshoot this slack.
    let h = machine.hierarchy();
    let rows = row_bytes(h.l1()) + row_bytes(h.l2()) + h.llc().map_or(0, row_bytes);
    let slack = h.l1().geometry().num_sets() as usize * 8;
    drop(machine);
    assert!(
        one_machine >= rows && one_machine < rows + slack,
        "Machine::new(E5-2690) holds {one_machine} bytes, its set rows {rows}: \
         a side array was allocated before first use"
    );

    let bound = one_machine + one_machine / 4;
    let check = |what: &str, peak: usize| {
        assert!(
            peak <= bound,
            "{what}: peak {peak} bytes > 1.25 × one machine ({one_machine} bytes)"
        );
    };

    let prefetch = registry::get("ablation_prefetcher")
        .expect("registered")
        .scenarios(&RunOpts::default())
        .into_iter()
        .find(|s| {
            matches!(
                s.kind,
                ExperimentKind::Spectre {
                    prefetcher: true,
                    ..
                }
            )
        })
        .expect("ablation_prefetcher has a prefetcher cell");
    let (_, peak) = peak_of(|| prefetch.run_trial(prefetch.seed, Engine::FastForward));
    check("ablation_prefetcher prefetcher cell", peak);

    let covert = Scenario::builder()
        .hierarchy(Inclusion::NonInclusive)
        .seed(5)
        .build()
        .unwrap();
    assert_eq!(covert.kind, ExperimentKind::Covert);
    let (_, peak) = peak_of(|| covert.run_trial(covert.seed, Engine::FastForward));
    check("non-inclusive covert cell", peak);

    let params = ChannelParams {
        d: 8,
        target_set: 32,
        ts: 100_000_000,
        tr: 100_000_000,
    };
    let opts = PercentOnesOpts {
        inclusion: Inclusion::NonInclusive,
        ..PercentOnesOpts::default()
    };
    let (_, peak) = peak_of(|| {
        percent_ones(
            Platform::e5_2690(),
            params,
            Variant::SharedMemory,
            true,
            20,
            13,
            opts,
        )
        .unwrap()
    });
    check("non-inclusive percent_ones", peak);
}
