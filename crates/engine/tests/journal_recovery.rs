//! Journal recovery guarantees, end to end against real files.
//!
//! The contract under test (see `dtdinfer_engine::journal`):
//!
//! * replaying snapshot + journal is **byte-identical** (at the snapshot
//!   level, hence schema level) to cold re-ingesting the same documents;
//! * a torn tail — crash mid-append — is truncated and tolerated;
//! * a corrupt record that is *not* the tail fails closed;
//! * compaction is idempotent and crash-safe in both of its windows.

use dtdinfer_engine::journal::{encode_record, Store, JOURNAL_MAGIC};
use dtdinfer_engine::snapshot;
use dtdinfer_xml::extract::Corpus;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtdinfer-jrec-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 3 {
            0 => format!("<cat><book id=\"b{i}\"><title>t</title></book></cat>"),
            1 => format!(
                "<cat><book id=\"b{i}\"><title>t</title><author>a</author></book><book><title>u</title></book></cat>"
            ),
            _ => format!("<cat><note>n{i}</note><book><title>v</title></book></cat>"),
        })
        .collect()
}

/// Cold re-ingest of the same documents gives the same snapshot bytes as
/// snapshot + journal replay, across interleaved compactions.
#[test]
fn replay_over_snapshot_matches_cold_reingest_bytes() {
    let dir = scratch("bytes");
    let docs = corpus(24);
    let mut store = Store::new(&dir, "s");
    store.remove().unwrap();
    let mut live = Corpus::new();
    for (i, doc) in docs.iter().enumerate() {
        store.append(doc, live.num_documents).unwrap();
        live.add_document(doc).unwrap();
        if i % 7 == 6 {
            store.compact(&live).unwrap();
        }
    }
    let recovered = Store::new(&dir, "s").recover().unwrap().state;
    let mut cold = Corpus::new();
    for doc in &docs {
        cold.add_document(doc).unwrap();
    }
    let cold_bytes = snapshot::save(&cold);
    assert_eq!(snapshot::save(&recovered), cold_bytes);
    assert_eq!(snapshot::save(&live), cold_bytes);
    store.remove().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash mid-append (torn tail in any of its three shapes) loses only
/// the torn record; recovery truncates the tear so appends continue.
#[test]
fn truncated_tail_is_tolerated_and_repaired_on_disk() {
    let dir = scratch("tail");
    let docs = corpus(5);
    let mut store = Store::new(&dir, "t");
    store.remove().unwrap();
    let mut state = Corpus::new();
    for doc in &docs {
        store.append(doc, state.num_documents).unwrap();
        state.add_document(doc).unwrap();
    }
    // Tear the file: keep the header + first record + half of a record.
    let journal_path = store.journal_path().to_owned();
    let bytes = std::fs::read(&journal_path).unwrap();
    let torn_at = bytes.len() - 3;
    std::fs::write(&journal_path, &bytes[..torn_at]).unwrap();
    let mut fresh = Store::new(&dir, "t");
    let recovered = fresh.recover().unwrap();
    assert!(recovered.truncated_tail);
    assert_eq!(recovered.replayed, docs.len() as u64 - 1);
    // The tear is gone from disk: a second recovery sees a clean file.
    let again = Store::new(&dir, "t").recover().unwrap();
    assert!(!again.truncated_tail);
    assert_eq!(again.state.num_documents, docs.len() as u64 - 1);
    // Appending after the repair resumes normally.
    fresh
        .append(&docs[docs.len() - 1], recovered.state.num_documents)
        .unwrap();
    let full = Store::new(&dir, "t").recover().unwrap().state;
    let mut cold = Corpus::new();
    for doc in &docs {
        cold.add_document(doc).unwrap();
    }
    assert_eq!(snapshot::save(&full), snapshot::save(&cold));
    fresh.remove().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Damage strictly before the tail means the file cannot be trusted at
/// all: recovery refuses rather than silently dropping records.
#[test]
fn corrupt_middle_record_fails_closed_via_store() {
    let dir = scratch("mid");
    let mut store = Store::new(&dir, "m");
    store.remove().unwrap();
    let mut state = Corpus::new();
    for doc in corpus(3) {
        store.append(&doc, state.num_documents).unwrap();
        state.add_document(&doc).unwrap();
    }
    let journal_path = store.journal_path().to_owned();
    let mut bytes = std::fs::read(&journal_path).unwrap();
    // Flip one payload byte of the FIRST record (well before the tail).
    let header_len = format!("{JOURNAL_MAGIC} base 0\n").len();
    bytes[header_len + 8 + 2] ^= 0xFF;
    std::fs::write(&journal_path, &bytes).unwrap();
    let err = Store::new(&dir, "m").recover().unwrap_err();
    assert!(err.contains("corrupt journal record"), "{err}");
    store.remove().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Compacting repeatedly (including with nothing new in between) always
/// converges on the same snapshot bytes and an empty journal.
#[test]
fn compaction_is_idempotent() {
    let dir = scratch("idem");
    let mut store = Store::new(&dir, "c");
    store.remove().unwrap();
    let mut state = Corpus::new();
    for doc in corpus(6) {
        store.append(&doc, state.num_documents).unwrap();
        state.add_document(&doc).unwrap();
    }
    store.compact(&state).unwrap();
    let snap1 = std::fs::read(store.snapshot_path()).unwrap();
    let journal1 = std::fs::read(store.journal_path()).unwrap();
    store.compact(&state).unwrap();
    assert_eq!(std::fs::read(store.snapshot_path()).unwrap(), snap1);
    assert_eq!(std::fs::read(store.journal_path()).unwrap(), journal1);
    assert_eq!(store.journal_records(), 0);
    // Recovery after compaction replays nothing and matches exactly.
    let recovered = Store::new(&dir, "c").recover().unwrap();
    assert_eq!(recovered.replayed, 0);
    assert_eq!(snapshot::save(&recovered.state), snapshot::save(&state));
    store.remove().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The compaction crash window *between* snapshot rename and journal
/// reset: every journal record is already inside the snapshot, so
/// recovery must skip them all — and must keep working when only *some*
/// records are covered (a journal based before the snapshot).
#[test]
fn compaction_crash_window_partial_overlap() {
    let dir = scratch("window");
    let docs = corpus(4);
    let mut store = Store::new(&dir, "w");
    store.remove().unwrap();
    let mut state = Corpus::new();
    for doc in &docs {
        store.append(doc, state.num_documents).unwrap();
        state.add_document(doc).unwrap();
    }
    // Simulate: snapshot covering only the first 2 documents appears
    // (base 0 journal holds all 4) — e.g. an operator restored an older
    // snapshot that the journal still fully covers.
    let mut half = Corpus::new();
    half.add_document(&docs[0]).unwrap();
    half.add_document(&docs[1]).unwrap();
    std::fs::write(store.snapshot_path(), snapshot::save(&half)).unwrap();
    let recovered = Store::new(&dir, "w").recover().unwrap();
    assert_eq!(recovered.skipped, 2);
    assert_eq!(recovered.replayed, 2);
    assert_eq!(snapshot::save(&recovered.state), snapshot::save(&state));
    store.remove().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal claiming documents the snapshot never had fails closed.
#[test]
fn journal_ahead_of_snapshot_is_rejected() {
    let dir = scratch("ahead");
    let mut store = Store::new(&dir, "a");
    store.remove().unwrap();
    let mut header = format!("{JOURNAL_MAGIC} base 9\n").into_bytes();
    header.extend_from_slice(&encode_record("<r/>"));
    std::fs::write(store.journal_path(), header).unwrap();
    let err = Store::new(&dir, "a").recover().unwrap_err();
    assert!(err.contains("ahead of the snapshot"), "{err}");
    store.remove().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
