//! Append-only ingest journal layered on the engine snapshot format.
//!
//! A snapshot is a *compacted* past: re-deriving from it is byte-identical
//! to re-ingesting every document it absorbed. The journal supplies the
//! uncompacted present: every document ingested since the last snapshot is
//! appended as one length-prefixed, CRC-checksummed record, so a session
//! survives a crash by loading the snapshot and replaying the journal.
//!
//! ## File layout
//!
//! ```text
//! #dtdinfer-journal v1 base <N>\n      (text header)
//! [u32 len][u32 crc32][payload]...     (binary records, little-endian)
//! ```
//!
//! `base` is the `num_documents` count of the snapshot this journal layers
//! on *at the moment the journal was started*. Recovery replays only the
//! records the snapshot has not absorbed yet: with a snapshot holding `D`
//! documents and a journal based at `B`, the first `D − B` records are
//! skipped (they are already inside the snapshot) and the rest re-absorbed.
//! That makes compaction crash-safe without a sidecar: the snapshot is
//! atomically renamed into place *before* the journal is reset, and if the
//! process dies between the two steps the stale journal's records are all
//! skipped on the next recovery instead of double-absorbed.
//!
//! ## Failure rules (fail closed, tolerate torn tails)
//!
//! * A record whose checksum mismatches **with more bytes after it** is
//!   corruption in the middle of the file: recovery fails closed (the
//!   journal was damaged, not merely cut short) rather than silently
//!   dropping data.
//! * A record cut short by the end of the file — a partial header, a
//!   payload shorter than its length prefix, or a checksum mismatch on
//!   the final record — is a *torn tail*: the expected shape of a crash
//!   mid-append. Recovery keeps everything before it and truncates the
//!   tear away.
//! * A missing or foreign header fails closed; a zero-byte file (crash
//!   between create and header write) counts as an empty journal.

use crate::{snapshot, EngineState};
use std::fs::{File, OpenOptions};
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};

/// The magic prefix every journal header line starts with.
pub const JOURNAL_MAGIC: &str = "#dtdinfer-journal v1";

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven; the table
/// is built at compile time so the hot path is one lookup per byte.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `bytes` (IEEE polynomial, standard init/finalize).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes one journal record: length prefix, checksum, payload.
pub fn encode_record(doc: &str) -> Vec<u8> {
    let payload = doc.as_bytes();
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The parsed shape of a journal byte sequence.
#[derive(Debug)]
pub struct ParsedJournal {
    /// The header's base document count (`num_documents` of the snapshot
    /// the journal was started over).
    pub base: u64,
    /// Every structurally valid record payload, in append order.
    pub records: Vec<String>,
    /// Byte length of the valid prefix. Anything beyond it is a torn
    /// tail a writer should truncate away before appending again.
    pub valid_len: u64,
    /// Whether a torn tail was cut off (crash mid-append).
    pub torn_tail: bool,
}

/// Parses raw journal bytes per the failure rules above. An empty input
/// parses as an empty journal with `base` 0 — callers that layer over a
/// snapshot treat "no journal" and "empty journal" as base = snapshot.
pub fn parse_journal(bytes: &[u8]) -> Result<ParsedJournal, String> {
    if bytes.is_empty() {
        return Ok(ParsedJournal {
            base: 0,
            records: Vec::new(),
            valid_len: 0,
            torn_tail: false,
        });
    }
    let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
        // Crash while writing the header itself: a torn tail before any
        // record ever landed — unless the bytes cannot be a header prefix,
        // in which case this is a foreign file.
        return if JOURNAL_MAGIC.as_bytes().starts_with(bytes) || is_header_prefix(bytes) {
            Ok(ParsedJournal {
                base: 0,
                records: Vec::new(),
                valid_len: 0,
                torn_tail: true,
            })
        } else {
            Err("not a dtdinfer journal (bad header)".to_owned())
        };
    };
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| "journal header is not UTF-8")?;
    let base = parse_header(header)?;
    let mut at = nl + 1;
    let mut records = Vec::new();
    let mut torn_tail = false;
    let mut valid_len = at as u64;
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        if remaining < 8 {
            torn_tail = true; // partial record header at EOF
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let want = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if remaining - 8 < len {
            torn_tail = true; // payload cut short at EOF
            break;
        }
        let payload = &bytes[at + 8..at + 8 + len];
        let got = crc32(payload);
        if got != want {
            if at + 8 + len == bytes.len() {
                torn_tail = true; // checksum tear on the final record
                break;
            }
            return Err(format!(
                "corrupt journal record at offset {at}: checksum {got:#010x} != {want:#010x} \
                 with {} byte(s) following — refusing to replay past damage",
                bytes.len() - (at + 8 + len)
            ));
        }
        let doc = std::str::from_utf8(payload)
            .map_err(|_| format!("journal record at offset {at} is not UTF-8"))?
            .to_owned();
        records.push(doc);
        at += 8 + len;
        valid_len = at as u64;
    }
    Ok(ParsedJournal {
        base,
        records,
        valid_len,
        torn_tail,
    })
}

/// Whether truncated header bytes could still grow into a valid header
/// line (`#dtdinfer-journal v1 base <digits>`).
fn is_header_prefix(bytes: &[u8]) -> bool {
    let full = format!("{JOURNAL_MAGIC} base ");
    let full = full.as_bytes();
    if bytes.len() <= full.len() {
        return full.starts_with(bytes);
    }
    bytes.starts_with(full) && bytes[full.len()..].iter().all(u8::is_ascii_digit)
}

fn parse_header(header: &str) -> Result<u64, String> {
    let rest = header
        .strip_prefix(JOURNAL_MAGIC)
        .ok_or_else(|| {
            if header.starts_with("#dtdinfer-journal ") {
                let version = header.trim_start_matches("#dtdinfer-journal ").trim();
                format!("unsupported journal version {version:?} (this build reads v1)")
            } else {
                "not a dtdinfer journal (bad header)".to_owned()
            }
        })?
        .trim();
    let base = rest
        .strip_prefix("base ")
        .ok_or("journal header missing base count")?;
    base.parse()
        .map_err(|e| format!("bad journal base count: {e}"))
}

/// The result of [`Store::recover`].
#[derive(Debug)]
pub struct Recovered {
    /// The recovered engine state: snapshot plus replayed journal.
    pub state: EngineState,
    /// Journal records re-absorbed on top of the snapshot.
    pub replayed: u64,
    /// Journal records skipped because the snapshot already held them
    /// (the compaction crash window).
    pub skipped: u64,
    /// Whether a torn tail was truncated off the journal file.
    pub truncated_tail: bool,
}

/// Durable storage for one session: a `<name>.snap` engine snapshot plus a
/// `<name>.journal` of documents ingested since. All mutation goes
/// through the store so the two files never disagree beyond the
/// documented crash windows.
#[derive(Debug)]
pub struct Store {
    snap_path: PathBuf,
    journal_path: PathBuf,
    /// Open append handle; `None` until the first append after open.
    journal: Option<File>,
    /// Documents covered by the journal header's base count.
    journal_base: u64,
    /// Records currently in the journal file.
    journal_records: u64,
    /// Bytes currently in the journal file.
    journal_bytes: u64,
    /// Bytes in the snapshot file (0 when absent).
    snapshot_bytes: u64,
}

impl Store {
    /// A store for session `name` under `dir`. No files are touched until
    /// recovery or the first append.
    pub fn new(dir: &Path, name: &str) -> Store {
        Store {
            snap_path: dir.join(format!("{name}.snap")),
            journal_path: dir.join(format!("{name}.journal")),
            journal: None,
            journal_base: 0,
            journal_records: 0,
            journal_bytes: 0,
            snapshot_bytes: 0,
        }
    }

    /// The snapshot path (for reporting).
    pub fn snapshot_path(&self) -> &Path {
        &self.snap_path
    }

    /// The journal path (for reporting).
    pub fn journal_path(&self) -> &Path {
        &self.journal_path
    }

    /// Whether either backing file exists on disk.
    pub fn exists(&self) -> bool {
        self.snap_path.exists() || self.journal_path.exists()
    }

    /// Bytes on disk across snapshot and journal — the quantity admission
    /// control caps.
    pub fn disk_bytes(&self) -> u64 {
        self.snapshot_bytes + self.journal_bytes
    }

    /// Records currently waiting in the journal (replayed on recovery).
    pub fn journal_records(&self) -> u64 {
        self.journal_records
    }

    /// Loads the snapshot (if any), replays the journal over it (skipping
    /// records the snapshot already absorbed, truncating a torn tail),
    /// and leaves the store positioned to append. Fails closed on any
    /// corruption that is not a torn tail.
    pub fn recover(&mut self) -> Result<Recovered, String> {
        let mut state = match std::fs::read_to_string(&self.snap_path) {
            Ok(text) => {
                self.snapshot_bytes = text.len() as u64;
                snapshot::load(&text).map_err(|e| format!("{}: {e}", self.snap_path.display()))?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.snapshot_bytes = 0;
                EngineState::new()
            }
            Err(e) => return Err(format!("{}: {e}", self.snap_path.display())),
        };
        let bytes = match std::fs::read(&self.journal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("{}: {e}", self.journal_path.display())),
        };
        let journal_exists = !bytes.is_empty();
        let parsed =
            parse_journal(&bytes).map_err(|e| format!("{}: {e}", self.journal_path.display()))?;
        let base = if journal_exists && parsed.valid_len > 0 {
            parsed.base
        } else {
            // No journal (or a tear before the header finished): layered
            // directly on whatever the snapshot holds.
            state.num_documents
        };
        if base > state.num_documents {
            return Err(format!(
                "{}: journal base {} is ahead of the snapshot's {} document(s) — \
                 the snapshot file was replaced or rolled back",
                self.journal_path.display(),
                base,
                state.num_documents
            ));
        }
        let skip = usize::try_from(state.num_documents - base).unwrap_or(usize::MAX);
        if skip > parsed.records.len() {
            return Err(format!(
                "{}: snapshot absorbed {} document(s) past the journal base but the \
                 journal only holds {} record(s)",
                self.journal_path.display(),
                skip,
                parsed.records.len()
            ));
        }
        let mut replayed = 0u64;
        for (i, doc) in parsed.records.iter().enumerate().skip(skip) {
            state.absorb_document(doc).map_err(|e| {
                format!(
                    "{}: replay of record {} failed: {e}",
                    self.journal_path.display(),
                    i + 1
                )
            })?;
            replayed += 1;
        }
        if parsed.torn_tail {
            // Cut the tear off so the next append lands on a clean tail.
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.journal_path)
                .map_err(|e| format!("{}: {e}", self.journal_path.display()))?;
            file.set_len(parsed.valid_len)
                .map_err(|e| format!("{}: {e}", self.journal_path.display()))?;
        }
        self.journal = None;
        self.journal_base = base;
        self.journal_records = parsed.records.len() as u64;
        self.journal_bytes = parsed.valid_len;
        dtdinfer_obs::count("engine.journal.replayed", replayed);
        Ok(Recovered {
            state,
            replayed,
            skipped: skip as u64,
            truncated_tail: parsed.torn_tail,
        })
    }

    /// Opens (or creates) the journal for appending, writing the header
    /// for a fresh file. `base` is used only when the file is new.
    fn open_journal(&mut self, base: u64) -> Result<&mut File, String> {
        if self.journal.is_none() {
            let mut file = OpenOptions::new()
                .append(true)
                .create(true)
                .open(&self.journal_path)
                .map_err(|e| format!("{}: {e}", self.journal_path.display()))?;
            let len = file
                .seek(std::io::SeekFrom::End(0))
                .map_err(|e| format!("{}: {e}", self.journal_path.display()))?;
            if len == 0 {
                let header = format!("{JOURNAL_MAGIC} base {base}\n");
                file.write_all(header.as_bytes())
                    .map_err(|e| format!("{}: {e}", self.journal_path.display()))?;
                self.journal_base = base;
                self.journal_bytes = header.len() as u64;
                self.journal_records = 0;
            }
            self.journal = Some(file);
        }
        Ok(self.journal.as_mut().expect("just opened"))
    }

    /// Appends one document record. `state_documents` is the session's
    /// document count *before* this document is absorbed — it becomes the
    /// journal base when this append creates a fresh file.
    pub fn append(&mut self, doc: &str, state_documents: u64) -> Result<(), String> {
        let record = encode_record(doc);
        let path = self.journal_path.clone();
        let file = self.open_journal(state_documents)?;
        file.write_all(&record)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        file.flush()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        self.journal_records += 1;
        self.journal_bytes += record.len() as u64;
        dtdinfer_obs::count("engine.journal.appends", 1);
        dtdinfer_obs::observe("engine.journal.record_bytes", record.len() as u64);
        Ok(())
    }

    /// Compacts: writes a fresh snapshot of `state` (atomic temp + rename)
    /// and resets the journal to an empty file based at the snapshot's
    /// document count. Crash-safe in both windows: before the rename the
    /// old snapshot + full journal still recover; between rename and
    /// journal reset the new snapshot covers every journal record, so
    /// recovery skips them all.
    pub fn compact(&mut self, state: &EngineState) -> Result<(), String> {
        let text = snapshot::save(state);
        let tmp = self.snap_path.with_extension("snap.tmp");
        std::fs::write(&tmp, &text).map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &self.snap_path)
            .map_err(|e| format!("{}: {e}", self.snap_path.display()))?;
        self.snapshot_bytes = text.len() as u64;
        // Reset the journal: drop the append handle, rewrite the header.
        self.journal = None;
        let header = format!("{JOURNAL_MAGIC} base {}\n", state.num_documents);
        std::fs::write(&self.journal_path, &header)
            .map_err(|e| format!("{}: {e}", self.journal_path.display()))?;
        self.journal_base = state.num_documents;
        self.journal_records = 0;
        self.journal_bytes = header.len() as u64;
        dtdinfer_obs::count("engine.journal.compactions", 1);
        Ok(())
    }

    /// Whether the journal has grown enough relative to the snapshot to
    /// be worth compacting: more than `min_bytes` of journal and more
    /// journal than snapshot (so compaction at least halves the disk
    /// footprint), or any journal over a missing snapshot once past
    /// `min_bytes`.
    pub fn wants_compaction(&self, min_bytes: u64) -> bool {
        self.journal_bytes >= min_bytes.max(1) && self.journal_bytes > self.snapshot_bytes
    }

    /// Deletes both backing files (session teardown). Missing files are
    /// fine; other IO errors are reported.
    pub fn remove(&mut self) -> Result<(), String> {
        self.journal = None;
        for path in [&self.snap_path, &self.journal_path] {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("{}: {e}", path.display())),
            }
        }
        self.snapshot_bytes = 0;
        self.journal_bytes = 0;
        self.journal_records = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn encode_parse_round_trip() {
        let mut bytes = format!("{JOURNAL_MAGIC} base 7\n").into_bytes();
        bytes.extend_from_slice(&encode_record("<a/>"));
        bytes.extend_from_slice(&encode_record("<b x=\"1\">text</b>"));
        let parsed = parse_journal(&bytes).unwrap();
        assert_eq!(parsed.base, 7);
        assert_eq!(parsed.records, vec!["<a/>", "<b x=\"1\">text</b>"]);
        assert_eq!(parsed.valid_len, bytes.len() as u64);
        assert!(!parsed.torn_tail);
    }

    #[test]
    fn empty_and_torn_header_are_empty_journals() {
        let parsed = parse_journal(b"").unwrap();
        assert_eq!((parsed.base, parsed.records.len()), (0, 0));
        // Crash mid-header: a prefix of the magic is a tear, not damage.
        let parsed = parse_journal(b"#dtdinfer-jour").unwrap();
        assert!(parsed.torn_tail);
        assert_eq!(parsed.valid_len, 0);
        // A foreign file is damage.
        assert!(parse_journal(b"<html>").is_err());
        assert!(parse_journal(b"#dtdinfer-journal v9 base 0\n").is_err());
    }

    #[test]
    fn torn_tail_is_tolerated_and_measured() {
        let mut bytes = format!("{JOURNAL_MAGIC} base 0\n").into_bytes();
        bytes.extend_from_slice(&encode_record("<a/>"));
        let good_len = bytes.len() as u64;
        // Append half a record: header only.
        bytes.extend_from_slice(&7u32.to_le_bytes());
        let parsed = parse_journal(&bytes).unwrap();
        assert!(parsed.torn_tail);
        assert_eq!(parsed.valid_len, good_len);
        assert_eq!(parsed.records, vec!["<a/>"]);
        // Payload shorter than its length prefix.
        let mut bytes = format!("{JOURNAL_MAGIC} base 0\n").into_bytes();
        bytes.extend_from_slice(&encode_record("<a/>"));
        let mut partial = encode_record("<bbbb/>");
        partial.truncate(partial.len() - 3);
        bytes.extend_from_slice(&partial);
        let parsed = parse_journal(&bytes).unwrap();
        assert!(parsed.torn_tail);
        assert_eq!(parsed.records, vec!["<a/>"]);
        // Checksum tear on the *final* record is also a torn tail.
        let mut bytes = format!("{JOURNAL_MAGIC} base 0\n").into_bytes();
        bytes.extend_from_slice(&encode_record("<a/>"));
        let mut last = encode_record("<b/>");
        let n = last.len();
        last[n - 1] ^= 0xFF;
        bytes.extend_from_slice(&last);
        let parsed = parse_journal(&bytes).unwrap();
        assert!(parsed.torn_tail);
        assert_eq!(parsed.records, vec!["<a/>"]);
    }

    #[test]
    fn corrupt_middle_record_fails_closed() {
        let mut bytes = format!("{JOURNAL_MAGIC} base 0\n").into_bytes();
        bytes.extend_from_slice(&encode_record("<a/>"));
        let start = bytes.len();
        bytes.extend_from_slice(&encode_record("<b/>"));
        bytes.extend_from_slice(&encode_record("<c/>"));
        bytes[start + 9] ^= 0xFF; // flip a payload byte of the middle record
        let err = parse_journal(&bytes).unwrap_err();
        assert!(err.contains("corrupt journal record"), "{err}");
        assert!(err.contains("refusing to replay"), "{err}");
    }

    #[test]
    fn store_append_recover_round_trip() {
        let dir = std::env::temp_dir().join(format!("dtdinfer-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::new(&dir, "t1");
        store.remove().unwrap();
        let mut state = EngineState::new();
        for doc in ["<r><a/></r>", "<r><a/><b/></r>", "<r><b/></r>"] {
            store.append(doc, state.num_documents).unwrap();
            state.absorb_document(doc).unwrap();
        }
        let mut fresh = Store::new(&dir, "t1");
        let recovered = fresh.recover().unwrap();
        assert_eq!(recovered.replayed, 3);
        assert_eq!(recovered.skipped, 0);
        assert!(!recovered.truncated_tail);
        assert_eq!(snapshot::save(&recovered.state), snapshot::save(&state));
        store.remove().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_crash_window_skips_absorbed_records() {
        let dir = std::env::temp_dir().join(format!("dtdinfer-jwin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::new(&dir, "w");
        store.remove().unwrap();
        let mut state = EngineState::new();
        for doc in ["<r><a/></r>", "<r><b/></r>"] {
            store.append(doc, state.num_documents).unwrap();
            state.absorb_document(doc).unwrap();
        }
        // Simulate the crash window: snapshot written and renamed, journal
        // NOT yet reset. Recovery must skip both journal records.
        std::fs::write(store.snapshot_path(), snapshot::save(&state)).unwrap();
        let mut fresh = Store::new(&dir, "w");
        let recovered = fresh.recover().unwrap();
        assert_eq!(recovered.skipped, 2);
        assert_eq!(recovered.replayed, 0);
        assert_eq!(snapshot::save(&recovered.state), snapshot::save(&state));
        // And appending afterwards still recovers correctly.
        fresh
            .append("<r><a/><a/></r>", recovered.state.num_documents)
            .unwrap();
        let mut again = Store::new(&dir, "w");
        let r2 = again.recover().unwrap();
        assert_eq!(r2.replayed, 1);
        assert_eq!(r2.state.num_documents, 3);
        again.remove().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_over_v3_base_snapshot_matches_one_shot() {
        let dir = std::env::temp_dir().join(format!("dtdinfer-jv3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::new(&dir, "v3");
        store.remove().unwrap();
        let docs = [
            "<r><a/><b/></r>",
            "<r><a/><b/></r>",
            "<r><b/></r>",
            "<r><a/><a/><b/></r>",
        ];
        // Compact after two documents: the base snapshot is v3 (counted
        // multiset rows included), then journal two more on top.
        let mut state = EngineState::new();
        for doc in &docs[..2] {
            state.absorb_document(doc).unwrap();
        }
        store.compact(&state).unwrap();
        let snap = std::fs::read_to_string(store.snapshot_path()).unwrap();
        assert!(snap.starts_with(snapshot::HEADER), "{}", &snap[..40]);
        assert!(snap.contains("\nw "), "v3 base carries multiset rows");
        for doc in &docs[2..] {
            store.append(doc, state.num_documents).unwrap();
            state.absorb_document(doc).unwrap();
        }
        let recovered = Store::new(&dir, "v3").recover().unwrap();
        assert_eq!(recovered.replayed, 2);
        let mut one_shot = EngineState::new();
        for doc in &docs {
            one_shot.absorb_document(doc).unwrap();
        }
        // Snapshot equality covers the multisets too: replayed documents
        // extended the bags the v3 base carried.
        assert_eq!(snapshot::save(&recovered.state), snapshot::save(&one_shot));
        store.remove().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_ahead_of_snapshot_fails_closed() {
        let dir = std::env::temp_dir().join(format!("dtdinfer-jahead-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = Store::new(&dir, "x");
        store.remove().unwrap();
        let header = format!("{JOURNAL_MAGIC} base 5\n");
        std::fs::write(store.journal_path(), header).unwrap();
        let err = Store::new(&dir, "x").recover().unwrap_err();
        assert!(err.contains("ahead of the snapshot"), "{err}");
        store.remove().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
