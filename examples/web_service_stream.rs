//! Incremental schema maintenance for trickling data (§1.2, §9).
//!
//! When XML arrives as answers to queries or web-service calls, only a few
//! strings are available at first and the schema must be updated as more
//! arrive — without re-reading old data. This example simulates a stream
//! of `result` documents and keeps the schema current the way
//! `dtdinfer serve` does: one `Corpus`, whose per-element memory is the
//! counted child-word multiset, and one `Derivation` per engine, updated
//! after each batch so that only the elements the batch touched are
//! re-learned.
//!
//! ```sh
//! cargo run --example web_service_stream
//! ```

use dtdinfer::regex::alphabet::{Alphabet, Word};
use dtdinfer::regex::display::render;
use dtdinfer::regex::sample::{sample_word, SampleConfig};
use dtdinfer::xml::infer::Derivation;
use dtdinfer::xml::{ContentSpec, Corpus, Dtd, InferenceEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One response: a `result` element whose children spell `word`.
fn response(al: &Alphabet, word: &Word) -> String {
    let children: String = word.iter().map(|&s| format!("<{}/>", al.name(s))).collect();
    format!("<result>{children}</result>")
}

/// The content model the schema gives `result`.
fn result_model(dtd: &Dtd) -> String {
    let result = dtd.alphabet.get("result").expect("streamed");
    match &dtd.elements[&result] {
        ContentSpec::Children(r) => render(r, &dtd.alphabet),
        other => format!("{other:?}"),
    }
}

fn main() {
    let mut al = Alphabet::new();
    // Ground truth the service follows (hidden from the learner):
    // status (warning | info)* payload+ (next | done)
    let truth =
        dtdinfer::regex::parser::parse("status (warning | info)* payload+ (next | done)", &mut al)
            .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = SampleConfig::default();

    let mut corpus = Corpus::new();
    let mut crx = Derivation::new(InferenceEngine::Crx);
    let mut idtd = Derivation::new(InferenceEngine::Idtd);
    let mut streamed = Vec::new();

    println!("streaming responses; schema after each batch that changed it:\n");
    let mut last = (String::new(), String::new());
    for batch in 1..=12 {
        // Each web-service call yields a handful of responses.
        for _ in 0..4 {
            let doc = response(&al, &sample_word(&truth, &cfg, &mut rng));
            corpus.add_document(&doc).expect("well-formed response");
            streamed.push(doc);
        }
        crx.update(&corpus);
        idtd.update(&corpus);
        let now = (result_model(crx.dtd()), result_model(idtd.dtd()));
        if now != last {
            println!("after {:>2} responses:", batch * 4);
            println!("  crx : {}", now.0);
            println!("  idtd: {}", now.1);
            last = now;
        }
    }

    // Every streamed response is valid against both final schemas.
    for doc in &streamed {
        for derivation in [&crx, &idtd] {
            assert_eq!(
                derivation.dtd().validate(doc).unwrap(),
                Vec::<String>::new()
            );
        }
    }
    println!(
        "\nall {} streamed responses satisfy both final schemas ✓",
        streamed.len()
    );

    // The memory is the counted multiset of child sequences (§9): repeated
    // response shapes cost a count, not another copy.
    let words = corpus.sequences_of("result").expect("streamed");
    println!(
        "memory: {} distinct child sequences for {} responses",
        words.distinct(),
        words.total()
    );
}
