//! Host-speed calibration.
//!
//! A shared host's speed drifts by up to 1.5x for minutes at a time
//! (other tenants on the same cores), which no best-of-passes can undo
//! when the drift covers a whole run. So the batch workloads run a
//! fixed reference computation between their timed calls — a small
//! tree-PLRU cache simulation over a SplitMix64 address stream, the
//! same kind of work the simulator does, on one thread per engine
//! worker — and scale each pass by it. The kernel is the benchmark's
//! own code, so no change to the library moves it. A time `t` measured
//! while the kernel takes `k` ms (the median of its runs in that pass)
//! is reported as `t * (REF_MS / k)^SLOWDOWN_EXPONENT`: the time on a
//! host where the kernel takes [`REF_MS`]. The simulator slows more
//! than the kernel when the host is contended; over 50 runs of
//! `batch-seq` the exponent [`SLOWDOWN_EXPONENT`] fitted best, and it
//! cut the spread of `batch_s` within sets of ten runs from 8-40% (wall
//! time) to 7-13%, against 4-22% with an exponent of 1.
//!
//! A fresh server's set-up is scaled the same way by a reference
//! set-up ([`setup_ms`], against [`REF_SETUP_MS`]): its file flush and
//! thread hand-off cost drifted by 3x from run to run, and about 30%
//! once scaled.

use std::fs;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use crate::{ms, splitmix};

/// About the kernel's time on a quiet 2-vCPU Xeon (Sapphire Rapids,
/// KVM) host.
pub const REF_MS: f64 = 2.0;

/// How much more the simulator slows than the kernel, in log terms.
pub const SLOWDOWN_EXPONENT: f64 = 1.5;

/// The factor that scales a time measured while the kernel took the
/// `kernel_ms` samples to a host where it takes [`REF_MS`].
pub fn scale(kernel_ms: &[f64]) -> f64 {
    (REF_MS / crate::stats::median(kernel_ms)).powf(SLOWDOWN_EXPONENT)
}

/// About [`setup_ms`] on the same host.
pub const REF_SETUP_MS: f64 = 1.0;

const SETS: usize = 64;
const WAYS: usize = 8;
const ACCESSES: usize = 100_000;

/// The way a tree-PLRU row points to.
fn victim(row: u8) -> usize {
    let mut node = 0;
    for _ in 0..3 {
        node = 2 * node + 1 + usize::from(row >> node & 1);
    }
    node - 7
}

/// The row after an access to `way`: every node on its path points away.
fn touch(mut row: u8, way: usize) -> u8 {
    let mut node = way + 7;
    while node > 0 {
        let parent = (node - 1) / 2;
        let right = node == 2 * parent + 2;
        row = (row & !(1 << parent)) | (u8::from(!right) << parent);
        node = parent;
    }
    row
}

/// The kernel on `threads` threads at once (one per engine worker),
/// in ms: the mean of their times.
pub fn kernel_ms(threads: usize) -> f64 {
    let times: Vec<f64> = thread::scope(|s| {
        let runs: Vec<_> = (1..threads).map(|_| s.spawn(run_ms)).collect();
        let mut times = vec![run_ms()];
        times.extend(
            runs.into_iter()
                .map(|r| r.join().expect("the kernel never panics")),
        );
        times
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// One run of the kernel, in ms.
fn run_ms() -> f64 {
    let t = Instant::now();
    let mut tags = [[u64::MAX; WAYS]; SETS];
    let mut rows = [0u8; SETS];
    let mut s = 0x5eed;
    let mut hits = 0u64;
    for _ in 0..ACCESSES {
        let line = splitmix(&mut s) % (3 * (SETS * WAYS) as u64 / 2);
        let (set, tag) = ((line % SETS as u64) as usize, line / SETS as u64);
        let way = match tags[set].iter().position(|&t| t == tag) {
            Some(w) => {
                hits += 1;
                w
            }
            None => {
                let w = victim(rows[set]);
                tags[set][w] = tag;
                w
            }
        };
        rows[set] = touch(rows[set], way);
    }
    black_box(hits);
    ms(t.elapsed())
}

/// A reference server set-up, in ms: what a fresh server's start costs
/// the host without the library, built the way the server is — a
/// durable file checkpoint (write, `fsync`, rename) in `dir`, a
/// loopback listener, an accept thread that hands the first connection
/// to a thread of its own, whose reader thread passes it the request
/// line over a channel, the reply, and the client's read of it.
pub fn setup_ms(dir: &Path) -> io::Result<f64> {
    let t = Instant::now();
    let tmp = dir.join("probe.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(b"{}\n")?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join("probe"))?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(b"{}\n")?;
    let server = thread::spawn(move || -> io::Result<()> {
        let (conn, _) = listener.accept()?;
        let handler = thread::spawn(move || -> io::Result<()> {
            let (tx, rx) = mpsc::channel();
            let input = conn.try_clone()?;
            let reader = thread::spawn(move || {
                let mut line = String::new();
                let _ = BufReader::new(input).read_line(&mut line);
                let _ = tx.send(line);
            });
            let line = rx.recv().unwrap_or_default();
            (&conn).write_all(line.as_bytes())?;
            reader
                .join()
                .map_err(|_| io::Error::other("the probe reader panicked"))
        });
        handler
            .join()
            .map_err(|_| io::Error::other("the probe handler panicked"))?
    });
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line)?;
    server
        .join()
        .map_err(|_| io::Error::other("the probe thread panicked"))??;
    Ok(ms(t.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_plru_never_evicts_the_way_just_touched() {
        // In-order touches leave the first way the victim.
        let row = (0..WAYS).fold(0, touch);
        assert_eq!(victim(row), 0);
        for row in 0..=u8::MAX >> 1 {
            for w in 0..WAYS {
                assert_ne!(victim(touch(row, w)), w);
            }
        }
    }
}
