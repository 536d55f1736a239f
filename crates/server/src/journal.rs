//! The durable job journal: a write-ahead log that makes `serve`
//! crash-safe.
//!
//! Living beside the [`ResultCache`] in `--cache-dir`, the journal is
//! an append-only NDJSON file (`journal.ndjson`) recording each
//! accepted job's lifecycle:
//!
//! ```text
//! {"rec":"accepted","v":1,"seq":0,"key":"91ab…","request":{"cmd":"run",…}}
//! {"rec":"started","v":1,"seq":0}
//! {"rec":"done","v":1,"seq":0}          // or {"rec":"cancelled",…}
//! ```
//!
//! * `seq` is the admission order — recovery replays pending jobs in
//!   exactly this order through the credit ledger, so a restarted
//!   server re-runs its backlog with the same queueing discipline an
//!   uninterrupted one would have used.
//! * `key` is [`scenario::engine::content_hash64`] of the request's flight key — the
//!   same canonical `to_json_full` scenario JSON the [`ResultCache`]
//!   hashes for its entry names. One content address spans cache
//!   entries, journal records, and wire checksums, which is what lets
//!   a client's retried submit dedupe against a crashed run: the
//!   retry coalesces in flight or hits the cache, never recomputes.
//! * `request` is the minimal canonical re-encoding
//!   (`RunRequest::journal_json`) that replays through the normal
//!   request parser.
//!
//! **Fsync discipline**: every appended record is `sync_data`'d
//! before the append returns, so an `accepted` record survives any
//! crash after the server acknowledged the job. **Checkpointing** is
//! an atomic tmp-write + fsync + rename (the same idiom as
//! [`ResultCache`] entries): on open, the journal compacts to just
//! the still-pending `accepted` records, re-numbered from zero.
//!
//! **Recovery is tolerant by construction** — the journal is advisory
//! state, the result cache is the source of truth for bytes:
//!
//! * a torn final record (crash mid-append) is ignored;
//! * the file is read one line at a time, and a line longer than
//!   [`MAX_RECORD_BYTES`] is skipped without being held in memory;
//! * an unparsable or stale-version record is skipped;
//! * a `done` record whose result-cache entries are missing or
//!   corrupt demotes the job back to pending — it recomputes rather
//!   than serving wrong bytes;
//! * a truncated file simply yields fewer records.
//!
//! Every degradation lands on "recompute", never on a crash and never
//! on non-canonical bytes, mirroring the cache-corruption posture in
//! `tests/resilience.rs`.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use scenario::engine::ResultCache;
use scenario::Value;

use crate::proto::{self, Request};
use crate::MAX_FRAME_BYTES;

/// The journal file name inside `--cache-dir`.
pub const JOURNAL_FILE: &str = "journal.ndjson";

/// The longest journal line recovery reads; a longer one is skipped
/// without being held in memory. An `accepted` record embeds its
/// request's canonical re-encoding, which can take up to three times
/// the [`MAX_FRAME_BYTES`] frame the request arrived in (the two-byte
/// escapes `\b` and `\f` are written back as the six-byte `\u0008`
/// and `\u000c`), so one frame would cut off records the server wrote
/// itself; four frames cover that and the record's envelope.
pub const MAX_RECORD_BYTES: usize = 4 * MAX_FRAME_BYTES;

/// Version stamp on every record; records from other versions are
/// skipped on load (and therefore degrade to recompute).
pub const JOURNAL_FORMAT_VERSION: u64 = 1;

/// An accepted-but-not-done job reconstructed from the journal.
#[derive(Debug)]
pub struct PendingJob {
    /// The job's (re-numbered) sequence in the compacted journal.
    pub seq: u64,
    /// [`scenario::engine::content_hash64`] of the request's flight key.
    pub key: u64,
    /// The canonical request JSON, ready for `parse_request`.
    pub request: Value,
}

/// What a journal load found, for the recovery log line and the
/// server's `recovered_*` counters.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Jobs still pending — re-enqueued in original admission order.
    pub pending: Vec<PendingJob>,
    /// `done` jobs whose cache entries all verified: nothing to do,
    /// any retry is served straight from the result cache.
    pub done_verified: usize,
    /// `done` jobs demoted to pending because at least one result
    /// cache entry was missing or corrupt.
    pub demoted: usize,
    /// Records tolerated-and-skipped: torn final line, unparsable
    /// JSON, stale version stamps, unreplayable requests.
    pub skipped: usize,
}

#[derive(Debug)]
struct Inner {
    file: fs::File,
    next_seq: u64,
}

/// The append side of the write-ahead log. Thread-safe; the server
/// shares one journal across connections.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    inner: Mutex<Inner>,
}

/// Per-key lifecycle folded from the record stream.
#[derive(Debug, Default, Clone, Copy)]
struct KeyState {
    done: bool,
    cancelled: bool,
}

impl Journal {
    /// Opens (creating if absent) the journal in `dir`, compacting it
    /// to the still-pending records. Pending jobs stay on disk — a
    /// plain open does **not** replay them; that is `--recover`'s
    /// job via [`Journal::recover`].
    pub fn open(dir: &Path) -> io::Result<Journal> {
        Ok(Self::load(dir, None)?.0)
    }

    /// Opens the journal and reconstructs the recovery plan: pending
    /// jobs in original admission order, with `done` records verified
    /// against `cache` (a missing or corrupt entry demotes the job
    /// back to pending — recompute, never wrong bytes).
    pub fn recover(
        dir: &Path,
        cache: Option<&ResultCache>,
    ) -> io::Result<(Journal, RecoveryReport)> {
        Self::load(dir, cache)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn load(dir: &Path, verify: Option<&ResultCache>) -> io::Result<(Journal, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        // A missing journal reads as an empty one.
        let mut reader: Box<dyn BufRead> = match fs::File::open(&path) {
            Ok(file) => Box::new(BufReader::new(file)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Box::new(io::empty()),
            Err(e) => return Err(e),
        };
        let mut report = RecoveryReport::default();

        // Fold the record stream, one capped line at a time.
        let mut accepted: BTreeMap<u64, (u64, Value)> = BTreeMap::new();
        let mut states: BTreeMap<u64, KeyState> = BTreeMap::new();
        let mut line = Vec::new();
        loop {
            match read_record_line(&mut reader, &mut line)? {
                RecordLine::End => break,
                RecordLine::Unusable => {
                    report.skipped += 1;
                    continue;
                }
                RecordLine::Line if line.is_empty() => continue,
                RecordLine::Line => {}
            }
            // A non-UTF-8 line is as unparsable as malformed JSON.
            let Some(rec) = std::str::from_utf8(&line)
                .ok()
                .and_then(|line| Value::parse(line).ok())
            else {
                report.skipped += 1;
                continue;
            };
            if rec.get("v").and_then(Value::as_u64) != Some(JOURNAL_FORMAT_VERSION) {
                report.skipped += 1;
                continue;
            }
            let (kind, seq) = match (
                rec.get("rec").and_then(Value::as_str),
                rec.get("seq").and_then(Value::as_u64),
            ) {
                (Some(kind), Some(seq)) => (kind, seq),
                _ => {
                    report.skipped += 1;
                    continue;
                }
            };
            match kind {
                "accepted" => {
                    let key = rec
                        .get("key")
                        .and_then(Value::as_str)
                        .and_then(|k| u64::from_str_radix(k, 16).ok());
                    match (key, rec.get("request")) {
                        (Some(key), Some(request)) => {
                            accepted.insert(seq, (key, request.clone()));
                            states.entry(seq).or_default();
                        }
                        _ => report.skipped += 1,
                    }
                }
                "started" => {
                    states.entry(seq).or_default();
                }
                "done" => states.entry(seq).or_default().done = true,
                "cancelled" => states.entry(seq).or_default().cancelled = true,
                _ => report.skipped += 1,
            }
        }

        // A content key is settled when any of its accepted records
        // reached `done`; recovery replays the earliest unsettled,
        // uncancelled record per key — original admission order,
        // deduplicated by content.
        let mut key_done: BTreeMap<u64, bool> = BTreeMap::new();
        for (seq, (key, _)) in &accepted {
            let done = states.get(seq).copied().unwrap_or_default().done;
            *key_done.entry(*key).or_insert(false) |= done;
        }
        let mut seen: BTreeMap<u64, ()> = BTreeMap::new();
        let mut pending = Vec::new();
        for (seq, (key, request)) in &accepted {
            let state = states.get(seq).copied().unwrap_or_default();
            if seen.contains_key(key) {
                continue;
            }
            if key_done.get(key).copied().unwrap_or(false) {
                seen.insert(*key, ());
                // `done` is only as good as the bytes behind it: every
                // grid cell must still verify in the result cache.
                if Self::cache_holds(verify, request) {
                    report.done_verified += 1;
                } else {
                    report.demoted += 1;
                    pending.push(PendingJob {
                        seq: *seq,
                        key: *key,
                        request: request.clone(),
                    });
                }
                continue;
            }
            if state.cancelled {
                seen.insert(*key, ());
                continue;
            }
            seen.insert(*key, ());
            pending.push(PendingJob {
                seq: *seq,
                key: *key,
                request: request.clone(),
            });
        }
        pending.sort_by_key(|p| p.seq);

        // Checkpoint: atomically rewrite the journal as just the
        // pending records, re-numbered from zero.
        for (fresh, job) in pending.iter_mut().enumerate() {
            job.seq = fresh as u64;
        }
        let tmp = dir.join(format!("{JOURNAL_FILE}.tmp"));
        {
            let mut out = fs::File::create(&tmp)?;
            for job in &pending {
                let line = accepted_record(job.seq, job.key, &job.request);
                out.write_all(line.as_bytes())?;
            }
            out.sync_all()?;
        }
        fs::rename(&tmp, &path)?;

        let file = fs::OpenOptions::new().append(true).open(&path)?;
        let journal = Journal {
            path,
            inner: Mutex::new(Inner {
                file,
                next_seq: pending.len() as u64,
            }),
        };
        report.pending = pending;
        Ok((journal, report))
    }

    /// Whether every grid cell of `request` has a verified entry in
    /// the result cache. An unreplayable request counts as missing —
    /// but the caller treats that as demote-to-pending, where the
    /// replay failure is then surfaced (and skipped) by the recovery
    /// executor, never a crash.
    fn cache_holds(cache: Option<&ResultCache>, request: &Value) -> bool {
        let Some(cache) = cache else {
            // No cache to verify against: trust the record (a server
            // without a cache dir never journals in the first place;
            // this arm exists for tests).
            return true;
        };
        match proto::parse_request(&request.to_string()) {
            Ok(Request::Run(run)) => run.job.grid.iter().all(|cell| cache.contains(cell)),
            _ => false,
        }
    }

    /// Appends an `accepted` record (fsync'd) and returns its `seq`.
    pub fn accepted(&self, key: u64, request: &Value) -> io::Result<u64> {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let line = accepted_record(seq, key, request);
        inner.file.write_all(line.as_bytes())?;
        inner.file.sync_data()?;
        Ok(seq)
    }

    /// Appends a `started` record for `seq` (fsync'd).
    pub fn started(&self, seq: u64) -> io::Result<()> {
        self.mark(seq, "started")
    }

    /// Appends a `done` record for `seq` (fsync'd). Written *after*
    /// the result cache entries, so a `done` in the journal implies
    /// the bytes were durable first — the recovery verifier double
    /// checks anyway.
    pub fn done(&self, seq: u64) -> io::Result<()> {
        self.mark(seq, "done")
    }

    /// Appends a `cancelled` record for `seq` (fsync'd): the job
    /// terminated without a result (client gone, timeout, panic) and
    /// must not be replayed on recovery.
    pub fn cancelled(&self, seq: u64) -> io::Result<()> {
        self.mark(seq, "cancelled")
    }

    fn mark(&self, seq: u64, rec: &str) -> io::Result<()> {
        let mut line = Value::obj()
            .with("rec", rec)
            .with("v", JOURNAL_FORMAT_VERSION)
            .with("seq", seq)
            .to_string();
        line.push('\n');
        let mut inner = self.lock();
        inner.file.write_all(line.as_bytes())?;
        inner.file.sync_data()?;
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

fn accepted_record(seq: u64, key: u64, request: &Value) -> String {
    let mut line = Value::obj()
        .with("rec", "accepted")
        .with("v", JOURNAL_FORMAT_VERSION)
        .with("seq", seq)
        .with("key", format!("{key:016x}"))
        .with("request", request.clone())
        .to_string();
    line.push('\n');
    line
}

/// What [`read_record_line`] found.
enum RecordLine {
    /// A complete line, now in the buffer without its `\n`.
    Line,
    /// A line that cannot hold a record: longer than
    /// [`MAX_RECORD_BYTES`] (the rest of it is read past, never
    /// buffered), or the file's unterminated tail — a crash
    /// mid-append tears the final record.
    Unusable,
    /// End of file.
    End,
}

/// Reads the next journal line into `line`, buffering at most
/// [`MAX_RECORD_BYTES`] of it, so a corrupt or hostile journal cannot
/// make recovery hold a whole file in memory.
fn read_record_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<RecordLine> {
    line.clear();
    let cap = MAX_RECORD_BYTES as u64 + 1;
    reader.by_ref().take(cap).read_until(b'\n', line)?;
    if line.is_empty() {
        return Ok(RecordLine::End);
    }
    if line.ends_with(b"\n") {
        line.pop();
        return Ok(RecordLine::Line);
    }
    if line.len() > MAX_RECORD_BYTES {
        // Over the cap: discard through the next newline.
        loop {
            let chunk = reader.fill_buf()?;
            match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    reader.consume(i + 1);
                    break;
                }
                None if chunk.is_empty() => break,
                None => {
                    let n = chunk.len();
                    reader.consume(n);
                }
            }
        }
    }
    Ok(RecordLine::Unusable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lru-leak-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_request(artifact: &str) -> Value {
        Value::obj().with("cmd", "run").with("artifact", artifact)
    }

    #[test]
    fn done_jobs_are_settled_and_pending_jobs_replay_in_order() {
        let dir = tmpdir("order");
        {
            let journal = Journal::open(&dir).unwrap();
            let a = journal.accepted(1, &run_request("fig5")).unwrap();
            let b = journal.accepted(2, &run_request("fig6")).unwrap();
            let c = journal.accepted(3, &run_request("fig3")).unwrap();
            journal.started(a).unwrap();
            journal.done(a).unwrap();
            journal.started(b).unwrap();
            journal.cancelled(c).unwrap();
            assert!((a, b) == (0, 1));
        }
        let (_journal, report) = Journal::recover(&dir, None).unwrap();
        // a is done (trusted: no cache to verify), c cancelled; only
        // the started-but-not-done b replays.
        assert_eq!(report.done_verified, 1);
        assert_eq!(report.pending.len(), 1);
        assert_eq!(report.pending[0].key, 2);
        assert_eq!(report.pending[0].seq, 0, "checkpoint renumbers from zero");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_keys_dedupe_to_one_pending_job() {
        let dir = tmpdir("dedupe");
        {
            let journal = Journal::open(&dir).unwrap();
            journal.accepted(7, &run_request("fig5")).unwrap();
            journal.accepted(7, &run_request("fig5")).unwrap();
            journal.accepted(7, &run_request("fig5")).unwrap();
        }
        let (_journal, report) = Journal::recover(&dir, None).unwrap();
        assert_eq!(report.pending.len(), 1, "content hash dedupes retries");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_anywhere_settles_every_record_of_that_key() {
        let dir = tmpdir("settle");
        {
            let journal = Journal::open(&dir).unwrap();
            journal.accepted(7, &run_request("fig5")).unwrap();
            let later = journal.accepted(7, &run_request("fig5")).unwrap();
            journal.done(later).unwrap();
        }
        let (_journal, report) = Journal::recover(&dir, None).unwrap();
        assert!(report.pending.is_empty(), "a done retry settles the key");
        assert_eq!(report.done_verified, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_settled_records_away() {
        let dir = tmpdir("compact");
        {
            let journal = Journal::open(&dir).unwrap();
            let a = journal.accepted(1, &run_request("fig5")).unwrap();
            journal.done(a).unwrap();
            journal.accepted(2, &run_request("fig6")).unwrap();
        }
        let (_journal, _report) = Journal::recover(&dir, None).unwrap();
        let text = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(text.lines().count(), 1, "compacted to the pending record");
        assert!(text.contains("fig6"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_ignored_not_fatal() {
        let dir = tmpdir("torn");
        {
            let journal = Journal::open(&dir).unwrap();
            journal.accepted(1, &run_request("fig5")).unwrap();
        }
        // Crash mid-append: half a record, no trailing newline.
        let path = dir.join(JOURNAL_FILE);
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"rec\":\"done\",\"v\":1,\"se").unwrap();
        drop(file);
        let (_journal, report) = Journal::recover(&dir, None).unwrap();
        assert_eq!(report.skipped, 1, "the torn record is skipped");
        assert_eq!(report.pending.len(), 1, "the intact record survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_non_utf8_line_is_skipped_not_fatal() {
        let dir = tmpdir("utf8");
        {
            let journal = Journal::open(&dir).unwrap();
            journal.accepted(1, &run_request("fig5")).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"\xff\xfe garbage\n").unwrap();
        drop(file);
        let (_journal, report) = Journal::recover(&dir, None).unwrap();
        assert_eq!(report.skipped, 1, "the invalid line is skipped");
        assert_eq!(report.pending.len(), 1, "the intact record survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_long_newline_free_line_is_skipped_and_every_other_record_recovers() {
        // 2 MiB (unparsable, under the cap) and one byte over the cap
        // (read past unbuffered).
        for len in [2 << 20, MAX_RECORD_BYTES + 1] {
            let dir = tmpdir("long-line");
            {
                let journal = Journal::open(&dir).unwrap();
                journal.accepted(1, &run_request("fig5")).unwrap();
                // A line with no newline inside it, between two valid
                // records.
                let path = dir.join(JOURNAL_FILE);
                let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
                file.write_all(&vec![b'{'; len]).unwrap();
                file.write_all(b"\n").unwrap();
                drop(file);
                journal.accepted(2, &run_request("fig6")).unwrap();
            }
            let (_journal, report) = Journal::recover(&dir, None).unwrap();
            let keys: Vec<u64> = report.pending.iter().map(|job| job.key).collect();
            assert_eq!(keys, [1, 2], "{len}: both valid records recover, in order");
            assert_eq!(report.skipped, 1, "{len}: the long line is skipped");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn over_cap_and_torn_lines_count_as_skipped() {
        let dir = tmpdir("overcap-skip");
        let record = |seq: u64, key: &str| {
            format!(
                "{{\"rec\":\"accepted\",\"v\":1,\"seq\":{seq},\"key\":\"{key}\",\
                 \"request\":{{\"cmd\":\"run\",\"artifact\":\"fig5\"}}}}\n"
            )
        };
        let mut bytes = record(0, "00000000000000aa").into_bytes();
        bytes.extend(vec![b'x'; MAX_RECORD_BYTES + 1]);
        bytes.push(b'\n');
        bytes.extend(record(1, "00000000000000bb").into_bytes());
        // A final over-cap line that the file ends inside.
        bytes.extend(vec![b'y'; MAX_RECORD_BYTES + 2]);
        fs::write(dir.join(JOURNAL_FILE), bytes).unwrap();
        let (_journal, report) = Journal::recover(&dir, None).unwrap();
        let keys: Vec<u64> = report.pending.iter().map(|job| job.key).collect();
        assert_eq!(keys, [0xaa, 0xbb]);
        assert_eq!(report.skipped, 2, "one over-cap line, one over-cap tail");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_longer_than_its_request_frame_recovers() {
        // A request line of about 400 KB whose string holds 200,000
        // `\b` escapes is re-encoded with `\u0008`: its record is
        // about 1.2 MB, past one frame.
        let long = Value::obj()
            .with("cmd", "adhoc")
            .with("text", "\u{8}".repeat(200_000));
        let dir = tmpdir("long-record");
        {
            let journal = Journal::open(&dir).unwrap();
            journal.accepted(9, &long).unwrap();
        }
        let len = fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert!(len > MAX_FRAME_BYTES as u64, "record is {len} bytes");
        let (_journal, report) = Journal::recover(&dir, None).unwrap();
        assert_eq!(report.skipped, 0);
        assert_eq!(report.pending.len(), 1, "the long record recovers");
        assert_eq!(report.pending[0].request, long);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_version_records_are_skipped() {
        let dir = tmpdir("stale");
        fs::write(
            dir.join(JOURNAL_FILE),
            "{\"rec\":\"accepted\",\"v\":99,\"seq\":0,\"key\":\"00000000000000aa\",\
             \"request\":{\"cmd\":\"run\",\"artifact\":\"fig5\"}}\n",
        )
        .unwrap();
        let (_journal, report) = Journal::recover(&dir, None).unwrap();
        assert_eq!(report.skipped, 1);
        assert!(report.pending.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_lines_never_crash_the_load() {
        let dir = tmpdir("garbage");
        fs::write(
            dir.join(JOURNAL_FILE),
            "not json at all\n\u{0}\u{1}\u{2}\n{\"rec\":\"mystery\",\"v\":1,\"seq\":0}\n",
        )
        .unwrap();
        let (journal, report) = Journal::recover(&dir, None).unwrap();
        assert_eq!(report.skipped, 3);
        assert!(report.pending.is_empty());
        // And the journal is usable for appends afterwards.
        journal.accepted(5, &run_request("fig5")).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
