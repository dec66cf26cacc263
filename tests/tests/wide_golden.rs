//! A golden for a wide alphabet and overflowing reservoirs: a seeded
//! corpus over about 300 element names, whose hottest text and attribute
//! reservoirs see hundreds of distinct values against a cap of 64, holds
//! every datatype the viability masks track. Its v5 snapshot and its
//! `--engine auto` XSD are pinned byte for byte
//! (`testdata/golden/wide.v5.snap`, `testdata/golden/wide.auto.xsd`) at
//! 1, 2 and 4 workers and on reversed document order.
//!
//! To remake the goldens, write `corpus()`'s documents to files and run
//! `dtdinfer snapshot save --out wide.v5.snap FILES` and
//! `dtdinfer infer --engine auto --xsd FILES` over them.

use dtdinfer_engine::pool::ingest;
use dtdinfer_engine::snapshot;
use dtdinfer_engine::EngineState;
use dtdinfer_xml::datatype::XsdType;
use dtdinfer_xml::infer::InferenceEngine;
use dtdinfer_xml::samples::{SampleBag, DEFAULT_SAMPLE_CAP};
use dtdinfer_xml::xsd::{generate_xsd, XsdOptions};

const SNAPSHOT: &str = include_str!("../../testdata/golden/wide.v5.snap");
const XSD: &str = include_str!("../../testdata/golden/wide.auto.xsd");

/// Documents in the corpus.
const DOCUMENTS: usize = 700;
/// Record types: each document's one record is of one of them.
const RECORDS: usize = 50;
/// Fields per record type: record type `r` owns fields `5r` to `5r + 4`.
const PER_RECORD: usize = 5;

/// splitmix64: the corpus depends on nothing but this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, values: &[&'a str]) -> &'a str {
        values[self.below(values.len())]
    }
}

/// A few values per field kind: field `f` holds kind `f % 8` (boolean,
/// integer, double, date, time, dateTime, NMTOKEN, free text). The pools
/// overlap where the lexical spaces do (`0` is a boolean, an integer and
/// a double), so a mask can keep several bits or drop them midway.
const KINDS: [&[&str]; 8] = [
    &["true", "false", "1", "0"],
    &["42", "-3", "+7", "0"],
    &["1.5", "-2e3", ".5", "INF", "7"],
    &["2006-09-12", "1999-12-31", "2024-02-29"],
    &["23:59:59", "00:00:00.5", "12:30:00"],
    &["2006-09-12T10:30:00", "2024-02-29T00:00:00.25"],
    &["alpha-1", "b_2:c", "x.y"],
    &["two words", "é accent", "  padded  "],
];

/// `n` days after 2000-01-01 on a 28-day, 12-month calendar.
fn date(n: usize) -> String {
    format!(
        "{}-{:02}-{:02}",
        2000 + n / 336,
        n / 28 % 12 + 1,
        n % 28 + 1
    )
}

/// A time of day from a counter.
fn time(n: usize) -> String {
    format!("{:02}:{:02}:{:02}", n % 24, n * 7 % 60, n * 13 % 60)
}

/// One `batch` document: a `seq`/`stamp` envelope around one record and
/// a `trailer` whose six fields take a new value in nearly every
/// document, so those reservoirs run far past their cap.
fn document(i: usize, rng: &mut Rng) -> String {
    let record = rng.below(RECORDS);
    let mut doc = format!(
        "<batch seq=\"{i}\" stamp=\"{}T{}\"><r{record:02} flag=\"{}\" kind=\"{}\">",
        date(i),
        time(i),
        rng.pick(&["true", "false"]),
        rng.pick(&["a", "b", "c"]),
    );
    let fields = PER_RECORD * record;
    // Field 0 always; field 1 optional; field 2 once or twice; fields 3
    // and 4 optional; and in every fifth record type field 0 may come
    // back at the end (an `a b c a`-style repeat only a k-ORE says
    // exactly).
    let mut sequence = vec![fields];
    if rng.below(2) == 0 {
        sequence.push(fields + 1);
    }
    sequence.extend(std::iter::repeat_n(fields + 2, 1 + rng.below(2)));
    for optional in [fields + 3, fields + 4] {
        if rng.below(3) != 0 {
            sequence.push(optional);
        }
    }
    if record.is_multiple_of(5) && rng.below(2) == 0 {
        sequence.push(fields);
    }
    for field in sequence {
        let value = rng.pick(KINDS[field % 8]);
        doc.push_str(&format!("<f{field:03}>{value}</f{field:03}>"));
    }
    doc.push_str(&format!(
        "</r{record:02}><trailer><amount>{}</amount><price>{}.{:02}</price><day>{}</day>\
         <at>{}.{}</at><code>c-{}</code><note>note number {i}</note></trailer></batch>",
        i * 37 % 10_007,
        i % 500,
        i * 11 % 100,
        date(i * 3),
        time(i * 5),
        i % 10,
        i * 13 % 1_000,
    ));
    doc
}

/// The seeded corpus.
fn corpus() -> Vec<String> {
    let mut rng = Rng(0x0005_eed0_fd7d);
    (0..DOCUMENTS).map(|i| document(i, &mut rng)).collect()
}

/// Asserts `actual == golden` and names the first line that differs.
fn assert_golden(actual: &str, golden: &str, what: &str) {
    if actual == golden {
        return;
    }
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "{what} differs from its golden at line {}: {:?} != {:?}",
        line + 1,
        actual.lines().nth(line),
        golden.lines().nth(line)
    );
}

fn auto_xsd(state: &EngineState) -> String {
    let dtd = state.derive(InferenceEngine::Auto).0;
    generate_xsd(
        &dtd,
        Some(&state.corpus),
        XsdOptions {
            numeric_threshold: None,
        },
    )
}

#[test]
fn snapshot_and_auto_xsd_match_the_goldens_for_every_worker_count_and_order() {
    let forward = corpus();
    let reversed: Vec<String> = forward.iter().rev().cloned().collect();
    for (order, docs) in [("forward", &forward), ("reversed", &reversed)] {
        for jobs in [1, 2, 4] {
            let state = ingest(docs, jobs).expect("the corpus parses").state;
            let what = format!("{order} order at {jobs} worker(s)");
            assert_golden(
                &snapshot::save(&state),
                SNAPSHOT,
                &format!("snapshot, {what}"),
            );
            assert_golden(&auto_xsd(&state), XSD, &format!("auto XSD, {what}"));
        }
    }
}

#[test]
fn the_golden_snapshot_reloads_to_the_same_schema() {
    let state = snapshot::load(SNAPSHOT).expect("the golden loads");
    assert_golden(&snapshot::save(&state), SNAPSHOT, "re-saved snapshot");
    assert_golden(&auto_xsd(&state), XSD, "auto XSD of the loaded snapshot");
}

#[test]
fn the_corpus_is_wide_and_overflows_its_reservoirs() {
    let state = ingest(&corpus(), 1).expect("the corpus parses").state;
    assert!(
        state.alphabet.len() >= 300,
        "{} names",
        state.alphabet.len()
    );
    let bags: Vec<&SampleBag> = state
        .elements
        .values()
        .flat_map(|facts| std::iter::once(&facts.text_samples).chain(facts.attributes.values()))
        .filter(|bag| !bag.is_empty())
        .collect();
    let far_past_cap = bags
        .iter()
        .filter(|bag| bag.total() >= 10 * DEFAULT_SAMPLE_CAP as u64 && bag.overflowed())
        .count();
    assert!(
        far_past_cap >= 6,
        "{far_past_cap} reservoirs far past the cap"
    );
    for ty in [
        XsdType::Boolean,
        XsdType::Integer,
        XsdType::Double,
        XsdType::Date,
        XsdType::Time,
        XsdType::DateTime,
        XsdType::NmToken,
        XsdType::String,
    ] {
        assert!(
            bags.iter().any(|bag| bag.datatype() == ty),
            "no reservoir of type {ty:?}"
        );
    }
    assert!(state.elements.len() == state.alphabet.len());
}
