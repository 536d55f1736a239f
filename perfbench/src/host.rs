//! The host record written beside every result.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use scenario::{content_hash64, Value};

/// The commit at the working directory, read from `.git` without
/// running git (a benchmark checkout usually has no `.git`).
fn git_rev() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            files_under(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// A content hash of the library sources (`crates/` and the lock
/// file), which names the measured program where there is no git.
fn source_digest() -> String {
    let mut files = vec![PathBuf::from("Cargo.lock")];
    files_under(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", content_hash64(&bytes))
}

/// The filesystem type holding `dir`, from `/proc/self/mountinfo`
/// (the longest mount point that prefixes it).
fn fs_type(dir: &Path) -> String {
    let dir = fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let info = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|l| {
            let fields: Vec<&str> = l.split(' ').collect();
            let mount = fields.get(4)?;
            let sep = fields.iter().position(|f| *f == "-")?;
            let fstype = fields.get(sep + 1)?;
            dir.starts_with(mount)
                .then_some((mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn record(seed: u64, cache_dir: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::obj()
        .with("nproc", nproc)
        .with("git_rev", git_rev())
        .with("source_digest", source_digest())
        .with("rustc", rustc_version())
        .with("seed", seed)
        .with("cache_dir_fs", fs_type(cache_dir))
}
