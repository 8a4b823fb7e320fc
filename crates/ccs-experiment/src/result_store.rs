//! A persistent, on-disk memo store of completed [`RunRecord`]s.
//!
//! This is the durable layer the ROADMAP's sweep-service item asked for on
//! top of PR 5's in-memory [`build_cache`](crate::build_cache): where the
//! build cache shares *computations* within one process, the result store
//! shares finished *records* across processes and restarts.  The `ccs-serve`
//! daemon fronts every sweep point with it, so a repeated request is served
//! from disk byte-identical to a fresh run.
//!
//! # Correctness
//!
//! Every record is a deterministic function of its canonical key
//! ([`crate::canon::record_key`]), and record JSON serialisation is
//! lossless for all serialised fields ([`RunRecord::write_json`] /
//! [`RunRecord::parse_json`]; the wall-clock `compile_ms` annotation is
//! excluded from JSON *and* equality by design).  A stored record therefore
//! reserialises to exactly the bytes a cold run would produce — the
//! property the daemon's `cmp`-based CI smoke and e2e tests pin.
//!
//! # On-disk format and integrity
//!
//! One file per record under the store directory:
//!
//! ```text
//! <fnv1a64(key) as 16 hex digits>.json
//! { "ccs-store": 2, "key": "<full canonical key>", "sum": "<16 hex digits>", "record": { ... } }
//! ```
//!
//! The full key is stored in the file and compared on every read, so an
//! FNV collision (or a key-grammar change, see
//! [`canon::KEY_VERSION`](crate::canon::KEY_VERSION)) is detected and
//! treated as a miss rather than served wrong.  `sum` is the FNV-1a hash
//! ([`canon::fnv1a64`](crate::canon::fnv1a64)) of the stored key plus the
//! record's compact JSON, so silent corruption of either is caught.
//! Writes go through a process-unique temporary file that is `sync_all`ed
//! and then atomically renamed into place, so concurrent writers (daemon
//! workers, parallel daemons sharing a store directory) can never expose a
//! torn file, and a crash cannot leave a half-written entry behind the
//! rename; racing writers of the same key produce identical bytes, so
//! last-rename-wins is harmless.
//!
//! Reads distinguish three outcomes: *miss* (no file, a stale-version
//! entry, or a key mismatch), *hit*, and *corrupt* (unreadable,
//! unparseable, checksum mismatch).  Corrupt entries are quarantined —
//! renamed once to `<hash>.corrupt` with a stderr note — instead of being
//! silently recomputed forever; opening a store also runs a recovery scan
//! that deletes stale `.tmp-*` writer files and quarantines corrupt
//! entries up front, so a `kill -9`'d daemon restarts onto a clean store.
//!
//! A small in-memory map fronts the disk so repeated hits in one process
//! skip the file system after the first read.  It keeps each record as its
//! canonical compact JSON — the text the checksum covers, and the bytes a
//! `result` frame carries — so [`ResultStore::get_json`] serves a hit with
//! no decode and no re-encode; [`ResultStore::get`] decodes on demand.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ccs_runtime::fault::{self, FaultKind};

use crate::canon::{fnv1a64, key_hash_hex};
use crate::json::{Reader, Value, ValueWriter};
use crate::RunRecord;

/// Version tag of the file format (the `"ccs-store"` field).  Version 2
/// added the embedded `"sum"` checksum; version-1 files read as stale
/// misses and are overwritten by the next put of their key.
pub const STORE_VERSION: u64 = 2;

/// A durable key → [`RunRecord`] store rooted at one directory, optionally
/// byte-bounded with LRU-by-mtime eviction (see
/// [`ResultStore::open_bounded`]).
pub struct ResultStore {
    dir: PathBuf,
    /// Disk byte budget; `None` grows unboundedly (the historical default).
    max_bytes: Option<u64>,
    /// In-memory front: canonical key → the record's canonical compact
    /// JSON ([`RunRecord::to_json_line`]), filled by hits and puts.
    mem: Mutex<HashMap<String, Arc<str>>>,
    /// Distinguishes concurrent writers' temporary files within the process.
    tmp_seq: AtomicU64,
}

impl ResultStore {
    /// Open (creating if needed) the store rooted at `dir`, unbounded.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        Self::open_bounded(dir, None)
    }

    /// Open the store with an optional disk budget.  When `max_bytes` is
    /// `Some`, every [`ResultStore::put`] that leaves the entry files over
    /// budget evicts least-recently-used entries (by file mtime — disk read
    /// hits and rewrites both refresh it) until the store fits, never
    /// evicting the entry just written.  Eviction is crash-safe by
    /// construction: an entry either exists whole or not at all, and a
    /// re-run of an evicted key deterministically regenerates its record.
    pub fn open_bounded(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> io::Result<ResultStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = ResultStore {
            dir,
            max_bytes,
            mem: Mutex::new(HashMap::new()),
            tmp_seq: AtomicU64::new(0),
        };
        store.recover();
        Ok(store)
    }

    /// Startup recovery scan: delete stale `.tmp-*` files a crashed writer
    /// left behind and quarantine corrupt entries, so damage is surfaced
    /// once at open instead of re-read on every miss.  Best-effort — scan
    /// failures leave the files for the per-read quarantine path.
    ///
    /// (A *live* concurrent daemon's in-flight `.tmp-*` file can be swept
    /// here too; its rename then fails and it loses only that one
    /// memoisation, which a later run regenerates deterministically.)
    fn recover(&self) {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for item in dir.flatten() {
            let path = item.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(".tmp-") {
                let _ = std::fs::remove_file(&path);
                continue;
            }
            if path.extension().is_some_and(|ext| ext == "json") {
                let outcome = match std::fs::read_to_string(&path) {
                    Ok(text) => check_entry(&text).map(|_| ()),
                    Err(e) => Err(format!("unreadable: {e}")),
                };
                if let Err(reason) = outcome {
                    quarantine(&path, &reason);
                }
            }
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured disk budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    fn front(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<str>>> {
        self.mem.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up the record stored under `key`, if any: [`ResultStore::get_json`]
    /// decoded.  (A stored record whose text does not decode — one with a
    /// non-finite required float, which no disk entry can hold either —
    /// reads as a miss.)
    pub fn get(&self, key: &str) -> Option<RunRecord> {
        RunRecord::parse_json(&self.get_json(key)?).ok()
    }

    /// The canonical compact JSON of the record stored under `key`, if any
    /// — byte for byte what [`RunRecord::to_json_line`] renders for it, so
    /// it can be spliced into a frame as is.  Disk hits are verified
    /// against their checksum, promoted into the in-memory front and have
    /// their file mtime refreshed (so a bounded store's eviction order
    /// tracks use, not just write age).  Missing files, stale-version
    /// entries and key mismatches are misses; unreadable or corrupt files
    /// are quarantined (renamed to `<hash>.corrupt`, once, with a stderr
    /// note) and then miss.
    pub fn get_json(&self, key: &str) -> Option<Arc<str>> {
        if let Some(hit) = self.front().get(key) {
            return Some(Arc::clone(hit));
        }
        let path = self.entry_path(key);
        let text: Arc<str> = match read_entry(&path, key) {
            ReadOutcome::Hit(text) => text.into(),
            ReadOutcome::Miss => return None,
            ReadOutcome::Corrupt(reason) => {
                quarantine(&path, &reason);
                return None;
            }
        };
        touch(&path);
        self.front().insert(key.to_string(), Arc::clone(&text));
        Some(text)
    }

    /// Whether an entry for `key` is in the in-memory front or on disk —
    /// a cheap probe: nothing is read, verified, promoted or touched, so a
    /// `true` can still turn out a miss in [`ResultStore::get_json`] (a
    /// stale, colliding or corrupt file).
    pub fn contains(&self, key: &str) -> bool {
        self.front().contains_key(key) || self.entry_path(key).is_file()
    }

    /// Persist `record` under `key` (memory + synced atomic disk write),
    /// then enforce the disk budget when one was configured.  A disk
    /// failure leaves the in-memory front intact, so the running process
    /// keeps serving the record; only durability is lost.
    pub fn put(&self, key: &str, record: &RunRecord) -> io::Result<()> {
        let compact: Arc<str> = record.to_json_line().into();
        self.front().insert(key.to_string(), Arc::clone(&compact));
        if let Some(err) = fault::injected_io_error(FaultKind::StoreIo) {
            return Err(err);
        }
        let text = entry_text(key, record, &compact);
        let path = self.entry_path(key);
        if fault::should_inject(FaultKind::TornWrite) {
            // Simulate a writer that died mid-write *without* the
            // tmp+rename protocol (a crashed legacy daemon, a failing
            // disk): truncated bytes land at the entry path directly, for
            // the recovery scan and quarantine path to find.
            return std::fs::write(&path, &text.as_bytes()[..text.len() / 2]);
        }
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        {
            use std::io::Write as _;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            // Data must be on disk before the rename publishes the entry,
            // or a crash could expose a whole-looking but empty file.
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        if let Some(max) = self.max_bytes {
            self.evict_to_fit(max, &path);
        }
        Ok(())
    }

    /// Number of records in the in-memory front (not a disk census).
    pub fn cached_records(&self) -> usize {
        self.front().len()
    }

    /// Total bytes of entry files currently on disk (temporary files
    /// excluded) — what [`ResultStore::put`] bounds against `max_bytes`.
    pub fn disk_bytes(&self) -> u64 {
        self.entry_files().into_iter().map(|e| e.bytes).sum()
    }

    /// Delete oldest-mtime entries until the entry files fit in `budget`,
    /// sparing `keep` (the entry just written).  Best-effort: scan or
    /// remove failures (e.g. a concurrent daemon already evicted the file)
    /// are skipped, never surfaced — the store stays a cache either way.
    fn evict_to_fit(&self, budget: u64, keep: &Path) {
        let mut entries = self.entry_files();
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        if total <= budget {
            return;
        }
        // Oldest first; equal mtimes (coarse clocks) break by file name so
        // concurrent evictors converge on the same victims.
        entries.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.path.cmp(&b.path)));
        for entry in entries {
            if total <= budget {
                break;
            }
            if entry.path == keep {
                continue;
            }
            if std::fs::remove_file(&entry.path).is_ok() {
                total = total.saturating_sub(entry.bytes);
            }
        }
    }

    /// The store's current entry files (`<hash>.json`; in-flight `.tmp-*`
    /// writer files are not entries and are skipped).
    fn entry_files(&self) -> Vec<EntryFile> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        dir.filter_map(|item| {
            let item = item.ok()?;
            let path = item.path();
            if path.extension().is_none_or(|ext| ext != "json") {
                return None;
            }
            let meta = item.metadata().ok()?;
            if !meta.is_file() {
                return None;
            }
            Some(EntryFile {
                bytes: meta.len(),
                mtime: meta.modified().ok()?,
                path,
            })
        })
        .collect()
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{}.json", key_hash_hex(key)))
    }
}

/// One on-disk entry, as seen by the eviction scan.
struct EntryFile {
    path: PathBuf,
    bytes: u64,
    mtime: std::time::SystemTime,
}

/// Refresh `path`'s mtime (best-effort; a vanished file is fine).
fn touch(path: &Path) {
    if let Ok(file) = std::fs::File::options().write(true).open(path) {
        let _ = file.set_modified(std::time::SystemTime::now());
    }
}

/// Result of reading one store file.
enum ReadOutcome {
    /// No usable entry for this key: absent file, stale version (to be
    /// overwritten by the next put) or a stored-key mismatch (FNV
    /// collision — a *valid* entry for a different key, not damage).
    Miss,
    /// A verified current-version entry for this key: its record's
    /// canonical compact JSON.
    Hit(String),
    /// The file is damaged (unreadable, unparseable, failed checksum):
    /// real I/O trouble the caller must quarantine, not silently retry.
    Corrupt(String),
}

/// Read and verify one store file against `key`.
fn read_entry(path: &Path, key: &str) -> ReadOutcome {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return ReadOutcome::Miss,
        Err(e) => return ReadOutcome::Corrupt(format!("unreadable: {e}")),
    };
    match check_entry(&text) {
        Ok(Some((stored_key, compact))) if stored_key == key => ReadOutcome::Hit(compact),
        Ok(_) => ReadOutcome::Miss,
        Err(reason) => ReadOutcome::Corrupt(reason),
    }
}

/// The entry file's text: `{"ccs-store", "key", "sum", "record"}`,
/// pretty-printed with a trailing newline, written in one pass.  `compact`
/// is the record's canonical compact JSON, which the checksum covers.
fn entry_text(key: &str, record: &RunRecord, compact: &str) -> String {
    let sum = entry_checksum(key, compact);
    let mut text = String::with_capacity(key.len() + 1024);
    ValueWriter::pretty(&mut text, 0).object(|doc| {
        doc.key("ccs-store").u64(STORE_VERSION);
        doc.key("key").str(key);
        doc.key("sum").str(&sum);
        doc.key("record").object(|object| record.write_json(object));
    });
    text.push('\n');
    text
}

/// Validate one store document: `Ok(Some((key, compact)))` for a verified
/// current-version entry — `compact` is the record's canonical compact
/// JSON, re-rendered from the decoded record — `Ok(None)` for a stale
/// (older-version) one, and `Err(reason)` for damage.
fn check_entry(text: &str) -> Result<Option<(String, String)>, String> {
    let mut reader = Reader::new(text);
    let mut record = None;
    let [version, stored_key, sum] = reader
        .object_fields_with(&["ccs-store", "key", "sum"], |key, reader| {
            if key == "record" && record.is_none() {
                record = Some(RunRecord::read_json(reader)?);
                Ok(())
            } else {
                reader.skip_value()
            }
        })
        .and_then(|fields| reader.finish().map(|()| fields))
        .map_err(|e| format!("malformed JSON: {e}"))?;
    let version = version
        .as_ref()
        .and_then(Value::as_u64)
        .ok_or_else(|| "no \"ccs-store\" version field".to_string())?;
    if version != STORE_VERSION {
        return Ok(None);
    }
    let stored_key = stored_key
        .and_then(Value::into_string)
        .ok_or_else(|| "no \"key\" field".to_string())?;
    let sum = sum
        .as_ref()
        .and_then(Value::as_str)
        .ok_or_else(|| "no \"sum\" field".to_string())?;
    let record = record
        .ok_or_else(|| "no \"record\" field".to_string())?
        .map_err(|e| format!("bad record: {e}"))?;
    let compact = record.to_json_line();
    if sum != entry_checksum(&stored_key, &compact) {
        return Err("checksum mismatch".to_string());
    }
    Ok(Some((stored_key, compact)))
}

/// The embedded integrity checksum: FNV-1a over the stored key and the
/// record's compact JSON.  Compact serialisation is deterministic and
/// round-trips through the decoder, so the hash is independent of the
/// pretty formatting the file uses, and a stored record that decodes to
/// anything but the record the sum was taken over fails the check.
fn entry_checksum(key: &str, compact: &str) -> String {
    let material = format!("{key}\n{compact}");
    format!("{:016x}", fnv1a64(material.as_bytes()))
}

/// Move a damaged entry aside to `<hash>.corrupt` so it is inspected (or
/// deleted) by an operator instead of being re-read on every miss.  The
/// rename makes the stderr note once-per-file by construction.
fn quarantine(path: &Path, reason: &str) {
    let target = path.with_extension("corrupt");
    match std::fs::rename(path, &target) {
        Ok(()) => eprintln!(
            "ccs-store: quarantined corrupt entry {} -> {} ({reason})",
            path.display(),
            target.display(),
        ),
        // A concurrent reader may have quarantined it first; anything else
        // is still worth a note, but never fatal — the record regenerates.
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => eprintln!(
            "ccs-store: failed to quarantine {} ({reason}): {e}",
            path.display(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use ccs_sched::SchedulerSpec;

    fn unique_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "ccs-store-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ))
    }

    fn sample_record() -> RunRecord {
        let report = crate::Experiment::new("mergesort")
            .cores(2)
            .scale(1024)
            .schedulers(["pdf"])
            .run();
        report.records[0].clone()
    }

    #[test]
    fn put_get_round_trips_across_store_instances() {
        let dir = unique_dir("roundtrip");
        let record = sample_record();
        let key = crate::canon::record_key(
            "mergesort",
            &ccs_sim::CmpConfig::default_with_cores(2).unwrap(),
            1024,
            ccs_sim::SimEngine::EventDriven,
            &SchedulerSpec::new("pdf"),
            true,
        );
        {
            let store = ResultStore::open(&dir).unwrap();
            assert!(store.get(&key).is_none());
            store.put(&key, &record).unwrap();
            assert_eq!(store.get(&key).unwrap(), record);
        }
        // A fresh instance (fresh process, in spirit) reads it from disk —
        // and the stored record reserialises byte-identically.
        let store = ResultStore::open(&dir).unwrap();
        let stored = store.get(&key).expect("persisted record");
        assert_eq!(stored, record);
        assert_eq!(
            stored.to_json().to_string_pretty(),
            record.to_json().to_string_pretty()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The front holds each record's canonical compact JSON — what a
    /// `result` frame splices — whichever way the record got there.
    #[test]
    fn front_text_is_the_canonical_compact_encoding() {
        let dir = unique_dir("front");
        let record = sample_record();
        let canonical = record.to_json_line();
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put("key-a", &record).unwrap();
            assert_eq!(store.get_json("key-a").as_deref(), Some(canonical.as_str()));
            assert_eq!(store.get("key-a").unwrap(), record);
        }

        // Reloaded from disk: verified, promoted, same text.
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.cached_records(), 0);
        assert_eq!(store.get_json("key-a").as_deref(), Some(canonical.as_str()));
        assert_eq!(store.cached_records(), 1);
        assert_eq!(store.get("key-a").unwrap(), record);

        // An entry corrupted under an open store is quarantined on read,
        // misses, and leaves nothing in the front; the next put stores the
        // canonical text again.
        let store = ResultStore::open(&dir).unwrap();
        let path = dir.join(format!("{}.json", key_hash_hex("key-a")));
        let doc = Json::object([
            ("ccs-store", STORE_VERSION.into()),
            ("key", "key-a".into()),
            ("sum", "0000000000000000".into()),
            ("record", record.to_json()),
        ]);
        std::fs::write(&path, doc.to_string_pretty()).unwrap();
        assert!(store.get_json("key-a").is_none());
        assert!(
            path.with_extension("corrupt").exists(),
            "quarantined on read"
        );
        assert_eq!(store.cached_records(), 0);
        store.put("key-a", &record).unwrap();
        assert_eq!(store.get_json("key-a").as_deref(), Some(canonical.as_str()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entry_files_match_the_tree_rendering() {
        // The single-pass writer must leave the on-disk format — pretty
        // tree rendering, checksum over the tree's compact record — exactly
        // as it was, so existing stores keep verifying.
        let mut record = sample_record();
        record.workload = "quote\" back\\slash\u{1}→".to_string();
        record.seed = Some(u64::MAX);
        let key = "ccs-key/2|workload=x|tricky\"key";
        let tree_sum = format!(
            "{:016x}",
            fnv1a64(format!("{key}\n{}", record.to_json().to_string_compact()).as_bytes())
        );
        let tree = Json::object([
            ("ccs-store", STORE_VERSION.into()),
            ("key", key.into()),
            ("sum", tree_sum.into()),
            ("record", record.to_json()),
        ]);
        let text = entry_text(key, &record, &record.to_json_line());
        assert_eq!(text, tree.to_string_pretty());
        let (stored_key, compact) = check_entry(&text).unwrap().unwrap();
        assert_eq!(stored_key, key);
        assert_eq!(compact, record.to_json_line());
        assert_eq!(RunRecord::parse_json(&compact).unwrap(), record);
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_mismatches_miss() {
        let dir = unique_dir("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        let record = sample_record();
        store.put("key-a", &record).unwrap();

        // A different key hashing to a different file: plain miss, and
        // nothing gets quarantined.
        assert!(store.get("key-b").is_none());

        // Overwrite key-a's file with garbage; a fresh store's recovery
        // scan must quarantine it to `<hash>.corrupt`, and the key misses.
        let path = dir.join(format!("{}.json", key_hash_hex("key-a")));
        std::fs::write(&path, "not json at all").unwrap();
        let fresh = ResultStore::open(&dir).unwrap();
        assert!(fresh.get("key-a").is_none());
        assert!(!path.exists(), "corrupt file moved aside");
        assert!(path.with_extension("corrupt").exists(), "quarantine file");
        std::fs::remove_file(path.with_extension("corrupt")).unwrap();

        // A checksum that does not match the payload: quarantined, this
        // time via the read path of an already-open store.
        let store = ResultStore::open(&dir).unwrap();
        let doc = Json::object([
            ("ccs-store", STORE_VERSION.into()),
            ("key", "key-a".into()),
            ("sum", "0000000000000000".into()),
            ("record", record.to_json()),
        ]);
        std::fs::write(&path, doc.to_string_pretty()).unwrap();
        assert!(store.get("key-a").is_none());
        assert!(path.with_extension("corrupt").exists());
        std::fs::remove_file(path.with_extension("corrupt")).unwrap();

        // A well-formed, correctly-checksummed file whose *stored key*
        // disagrees (hash collision stand-in): a miss, but NOT damage —
        // it must survive unquarantined.
        let doc = Json::object([
            ("ccs-store", STORE_VERSION.into()),
            ("key", "some-other-key".into()),
            (
                "sum",
                entry_checksum("some-other-key", &record.to_json_line()).into(),
            ),
            ("record", record.to_json()),
        ]);
        std::fs::write(&path, doc.to_string_pretty()).unwrap();
        let fresh = ResultStore::open(&dir).unwrap();
        assert!(fresh.get("key-a").is_none());
        assert!(path.exists(), "collision entry is not quarantined");

        // A stale-version entry: a miss (the next put overwrites it), and
        // also not quarantined.
        let doc = Json::object([
            ("ccs-store", 1u64.into()),
            ("key", "key-a".into()),
            ("record", record.to_json()),
        ]);
        std::fs::write(&path, doc.to_string_pretty()).unwrap();
        let fresh = ResultStore::open(&dir).unwrap();
        assert!(fresh.get("key-a").is_none());
        assert!(path.exists(), "stale entry is not quarantined");
        fresh.put("key-a", &record).unwrap();
        assert_eq!(fresh.get("key-a").unwrap(), record);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_scan_sweeps_tmp_files_and_torn_writes() {
        let dir = unique_dir("recover");
        let record = sample_record();
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put("key-a", &record).unwrap();
        }
        // Simulate a crashed writer: a leftover tmp file plus an entry
        // whose bytes stop mid-document.
        std::fs::write(dir.join(".tmp-99999-0"), "half a docum").unwrap();
        let torn = dir.join(format!("{}.json", key_hash_hex("key-b")));
        let whole =
            std::fs::read_to_string(dir.join(format!("{}.json", key_hash_hex("key-a")))).unwrap();
        std::fs::write(&torn, &whole[..whole.len() / 2]).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert!(!dir.join(".tmp-99999-0").exists(), "tmp file swept");
        assert!(!torn.exists(), "torn entry quarantined at open");
        assert!(torn.with_extension("corrupt").exists());
        // The intact entry survived recovery and still round-trips.
        assert_eq!(store.get("key-a").unwrap(), record);
        // Quarantine files are invisible to the entry census.
        assert_eq!(
            store.disk_bytes(),
            std::fs::metadata(dir.join(format!("{}.json", key_hash_hex("key-a"))))
                .unwrap()
                .len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Backdate an entry's mtime so eviction order is deterministic even on
    /// coarse-clock file systems.
    fn set_age(store: &ResultStore, key: &str, seconds_old: u64) {
        let path = store.dir().join(format!("{}.json", key_hash_hex(key)));
        let when = std::time::SystemTime::now() - std::time::Duration::from_secs(seconds_old);
        std::fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(when)
            .unwrap();
    }

    fn on_disk(store: &ResultStore, key: &str) -> bool {
        store
            .dir()
            .join(format!("{}.json", key_hash_hex(key)))
            .exists()
    }

    #[test]
    fn bounded_store_evicts_lru_by_mtime() {
        let dir = unique_dir("evict");
        let record = sample_record();
        let entry_bytes = {
            let probe = ResultStore::open(&dir).unwrap();
            probe.put("probe", &record).unwrap();
            probe.disk_bytes()
        };
        std::fs::remove_dir_all(&dir).unwrap();

        // Budget for three entries: the fourth put must evict exactly one.
        let store = ResultStore::open_bounded(&dir, Some(3 * entry_bytes)).unwrap();
        assert_eq!(store.max_bytes(), Some(3 * entry_bytes));
        store.put("key-a", &record).unwrap();
        store.put("key-b", &record).unwrap();
        store.put("key-c", &record).unwrap();
        set_age(&store, "key-a", 300);
        set_age(&store, "key-b", 200);
        set_age(&store, "key-c", 100);
        store.put("key-d", &record).unwrap();
        assert!(!on_disk(&store, "key-a"), "oldest entry is the victim");
        for key in ["key-b", "key-c", "key-d"] {
            assert!(on_disk(&store, key), "{key} survives");
        }
        assert!(store.disk_bytes() <= 3 * entry_bytes);

        // A disk read refreshes the entry's mtime, so the *unread* one is
        // now the LRU victim.
        set_age(&store, "key-b", 200);
        set_age(&store, "key-c", 100);
        let fresh = ResultStore::open_bounded(&dir, Some(3 * entry_bytes)).unwrap();
        assert!(fresh.get("key-b").is_some(), "read promotes key-b");
        fresh.put("key-e", &record).unwrap();
        assert!(!on_disk(&fresh, "key-c"), "unread entry is the victim");
        assert!(on_disk(&fresh, "key-b"), "recently read entry survives");
        assert!(on_disk(&fresh, "key-e"), "just-written entry never evicted");

        // The unbounded default never evicts.
        let unbounded = ResultStore::open(&dir).unwrap();
        assert_eq!(unbounded.max_bytes(), None);
        unbounded.put("key-f", &record).unwrap();
        unbounded.put("key-g", &record).unwrap();
        assert!(unbounded.disk_bytes() > 3 * entry_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
