//! The metamorphic oracle battery.
//!
//! Each oracle is a machine-checked form of one of the paper's semantic
//! claims (or an implementation invariant of this workspace):
//!
//! | oracle | claim |
//! |---|---|
//! | `membership.*` | corpus ⊆ L(inferred) — closed-loop soundness |
//! | `theorem5.sore-recovery` | representative sample ⇒ iDTD returns the target SORE, repair-free (Theorems 1/5) |
//! | `superset.soa-containment` | iDTD output ⊇ L(learned SOA): rewriting preserves, repairs only generalize |
//! | `ordering.idtd-within-crx` | L(SOA) ⊆ L(CRX) always, and L(iDTD) ⊆ L(CRX) when the SORE needed no repairs |
//! | `ordering.kore-within-idtd` | when both derivations are repair-free, L(k-ORE) ⊆ L(SORE): folding occurrences only generalizes |
//! | `identity.shards` | `--jobs N` derivation is byte-identical to sequential inference |
//! | `identity.snapshot` | snapshot save → load → save is the identity and derives identically |
//! | `identity.incremental` | a derivation updated step by step equals a cold derive after every step |
//! | `determinism.one-unambiguous` | every emitted content model is deterministic (XML spec appendix E) |
//! | `roundtrip.dtd` | serialize → parse → serialize is a fixpoint and still validates the corpus |
//! | `roundtrip.xsd` | emitted XSD is well-formed XML and emission is stable |
//!
//! A [`PlantedBug`] deliberately corrupts the membership simulation so the
//! reducer ([`crate::reduce`]) can be tested end to end against a known
//! synthetic failure.

use crate::doc;
use dtdinfer_automata::dfa::{soa_minus_regex_witness, soa_subset_of_regex};
use dtdinfer_automata::glushkov::soa_of_sore;
use dtdinfer_automata::soa::Soa;
use dtdinfer_engine::pool::ingest;
use dtdinfer_engine::snapshot;
use dtdinfer_regex::alphabet::Alphabet;
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::display::render_dtd;
use dtdinfer_xml::diff::{compare_regexes, Relation};
use dtdinfer_xml::dtd::{ContentSpec, Dtd};
use dtdinfer_xml::extract::Corpus;
use dtdinfer_xml::infer::{infer_dtd_with_stats, Derivation, InferenceEngine};
use dtdinfer_xml::parser::XmlPullParser;
use dtdinfer_xml::xsd::{generate_xsd, XsdOptions};

/// Every oracle name, in report order. `corpus.generate` is charged by the
/// driver (a target DTD that cannot produce documents is itself a bug);
/// the rest are charged by [`check_case`].
pub const ORACLES: [&str; 16] = [
    "corpus.generate",
    "corpus.parse",
    "membership.crx",
    "membership.idtd",
    "membership.kore",
    "membership.auto",
    "theorem5.sore-recovery",
    "superset.soa-containment",
    "ordering.idtd-within-crx",
    "ordering.kore-within-idtd",
    "identity.shards",
    "identity.snapshot",
    "identity.incremental",
    "determinism.one-unambiguous",
    "roundtrip.dtd",
    "roundtrip.xsd",
];

/// A synthetic, deliberately wrong oracle behavior, reachable only through
/// the hidden `--plant-bug` flag / test configuration. Used to prove the
/// reducer shrinks real failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// The membership oracle falsely rejects any document containing two
    /// adjacent same-name sibling elements.
    RepeatedSibling,
}

impl PlantedBug {
    /// Parses the hidden CLI spelling.
    pub fn parse(spec: &str) -> Result<PlantedBug, String> {
        match spec {
            "repeated-sibling" => Ok(PlantedBug::RepeatedSibling),
            other => Err(format!("unknown planted bug {other:?}")),
        }
    }
}

/// Oracle-run options.
#[derive(Debug, Default, Clone, Copy)]
pub struct OracleOptions {
    /// Inject a known-wrong oracle behavior (reducer testing only).
    pub planted: Option<PlantedBug>,
    /// Run only the named oracle (used by the reducer's predicate so
    /// shrinking does not pay for the full battery).
    pub only: Option<&'static str>,
}

/// One oracle violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which oracle fired (one of [`ORACLES`]).
    pub oracle: &'static str,
    /// Deterministic human-readable evidence.
    pub detail: String,
}

/// The outcome of one case: which oracles ran and what they found.
#[derive(Debug, Default)]
pub struct CaseResult {
    /// Oracles that ran to completion on this case.
    pub checked: Vec<&'static str>,
    /// All violations, in oracle order.
    pub violations: Vec<Violation>,
}

impl CaseResult {
    fn violation(&mut self, oracle: &'static str, detail: String) {
        self.violations.push(Violation { oracle, detail });
    }

    /// Whether the named oracle fired at least once.
    pub fn failed(&self, oracle: &str) -> bool {
        self.violations.iter().any(|v| v.oracle == oracle)
    }
}

/// Runs the oracle battery over one case. `target` is the generating DTD
/// when known (fuzz cases and replays have it; ad-hoc corpora may not) —
/// without it the target-relative oracles are skipped.
pub fn check_case(target: Option<&Dtd>, docs: &[String], opts: &OracleOptions) -> CaseResult {
    let mut out = CaseResult::default();
    let want = |name: &'static str| opts.only.is_none_or(|only| only == name);

    // Parse the corpus once; every downstream oracle needs it.
    let mut corpus = Corpus::new();
    let mut parse_failed = false;
    for (i, d) in docs.iter().enumerate() {
        if let Err(e) = corpus.add_document(d) {
            out.violation("corpus.parse", format!("document {i}: {e}"));
            parse_failed = true;
        }
    }
    // Parsing always runs (every downstream oracle needs the corpus), so
    // it is always recorded as checked, even under an `only` filter.
    out.checked.push("corpus.parse");
    if parse_failed {
        return out;
    }
    let canon = corpus.canonicalized();
    let (crx_dtd, _) = infer_dtd_with_stats(&canon, InferenceEngine::Crx);
    let (idtd_dtd, idtd_reports) = infer_dtd_with_stats(&canon, InferenceEngine::Idtd);
    let (kore_dtd, kore_reports) = infer_dtd_with_stats(&canon, InferenceEngine::Kore);
    let (auto_dtd, _) = infer_dtd_with_stats(&canon, InferenceEngine::Auto);

    // membership.{crx,idtd,kore,auto}: every document of the corpus must
    // be in the language of the DTD inferred from that corpus (Glushkov
    // simulation inside Dtd::validate).
    for (name, dtd) in [
        ("membership.crx", &crx_dtd),
        ("membership.idtd", &idtd_dtd),
        ("membership.kore", &kore_dtd),
        ("membership.auto", &auto_dtd),
    ] {
        if !want(name) {
            continue;
        }
        for (i, d) in docs.iter().enumerate() {
            match dtd.validate(d) {
                Ok(violations) => {
                    for v in violations {
                        out.violation(name, format!("document {i}: {v}"));
                    }
                }
                Err(e) => out.violation(name, format!("document {i}: {e}")),
            }
            if name == "membership.idtd" && opts.planted == Some(PlantedBug::RepeatedSibling) {
                if let Ok(tree) = doc::parse_doc(d) {
                    if doc::has_adjacent_repeated_siblings(&tree) {
                        out.violation(
                            name,
                            format!("document {i}: adjacent repeated siblings (planted bug)"),
                        );
                    }
                }
            }
        }
        out.checked.push(name);
    }

    // theorem5.sore-recovery: when the sample is representative of the
    // target content model (the learned SOA equals the target's Glushkov
    // SOA), iDTD must return a language-equal expression without repairs.
    if want("theorem5.sore-recovery") {
        if let Some(target) = target {
            for (&sym, spec) in &target.elements {
                let ContentSpec::Children(target_regex) = spec else {
                    continue;
                };
                let name = target.alphabet.name(sym);
                let Some(words) = canon.sequences_of(name) else {
                    continue; // element never observed
                };
                let Some(mapped) = remap_regex(target_regex, &target.alphabet, &canon.alphabet)
                else {
                    continue; // some target child never observed: not representative
                };
                let Some(target_soa) = soa_of_sore(&mapped) else {
                    continue; // target model not single-occurrence (scenario shapes)
                };
                if Soa::learn(words.words()) != target_soa {
                    continue; // not representative: Theorem 5 makes no promise
                }
                let inferred = idtd_dtd
                    .alphabet
                    .get(name)
                    .and_then(|s| idtd_dtd.elements.get(&s));
                match inferred {
                    Some(ContentSpec::Children(r)) => {
                        let rel =
                            compare_regexes(target_regex, &target.alphabet, r, &idtd_dtd.alphabet);
                        if rel != Relation::Equal {
                            out.violation(
                                "theorem5.sore-recovery",
                                format!(
                                    "element {name}: representative sample but inferred {} is {rel} vs target {}",
                                    render_dtd(r, &idtd_dtd.alphabet),
                                    render_dtd(target_regex, &target.alphabet)
                                ),
                            );
                        }
                        if let Some(report) = idtd_reports.iter().find(|r| r.name == name) {
                            if report.repairs > 0 || report.fallbacks > 0 {
                                out.violation(
                                    "theorem5.sore-recovery",
                                    format!(
                                        "element {name}: representative sample needed {} repair(s), {} fallback(s)",
                                        report.repairs, report.fallbacks
                                    ),
                                );
                            }
                        }
                    }
                    other => out.violation(
                        "theorem5.sore-recovery",
                        format!(
                            "element {name}: representative sample of a child model but inferred {other:?}"
                        ),
                    ),
                }
            }
            out.checked.push("theorem5.sore-recovery");
        }
    }

    // superset.soa-containment: the iDTD expression for an element must
    // contain the language of the SOA learned from that element's child
    // words — rewriting is language-preserving and repairs only add.
    if want("superset.soa-containment") {
        for (&sym, spec) in &idtd_dtd.elements {
            let ContentSpec::Children(r) = spec else {
                continue;
            };
            let name = idtd_dtd.alphabet.name(sym);
            let Some(words) = canon.sequences_of(name) else {
                continue;
            };
            let soa = Soa::learn(words.words());
            if !soa_subset_of_regex(&soa, r) {
                let witness = soa_minus_regex_witness(&soa, r)
                    .map(|w| canon.alphabet.render_word(&w, " "))
                    .unwrap_or_default();
                out.violation(
                    "superset.soa-containment",
                    format!(
                        "element {name}: SOA word [{witness}] not in {}",
                        render_dtd(r, &idtd_dtd.alphabet)
                    ),
                );
            }
        }
        out.checked.push("superset.soa-containment");
    }

    // ordering.idtd-within-crx: the CHARE always contains the learned SOA
    // (CRX's classes and multiplicities come from exactly the precedence
    // pairs the SOA's edges record), and a repair-free SORE is
    // language-equal to the SOA — so it must then sit within the CHARE.
    // Repaired SOREs may generalize past the CHARE (repairs add edges the
    // precedence order never produced), so the direct SORE-vs-CHARE
    // comparison is gated on a repair-free derivation.
    if want("ordering.idtd-within-crx") {
        for (&sym, crx_spec) in &crx_dtd.elements {
            let name = crx_dtd.alphabet.name(sym);
            let idtd_spec = idtd_dtd
                .alphabet
                .get(name)
                .and_then(|s| idtd_dtd.elements.get(&s));
            match (crx_spec, idtd_spec) {
                (ContentSpec::Children(rc), Some(ContentSpec::Children(ri))) => {
                    if let Some(words) = canon.sequences_of(name) {
                        let soa = Soa::learn(words.words());
                        if !soa_subset_of_regex(&soa, rc) {
                            let witness = soa_minus_regex_witness(&soa, rc)
                                .map(|w| canon.alphabet.render_word(&w, " "))
                                .unwrap_or_default();
                            out.violation(
                                "ordering.idtd-within-crx",
                                format!(
                                    "element {name}: SOA word [{witness}] not in CRX {}",
                                    render_dtd(rc, &crx_dtd.alphabet)
                                ),
                            );
                        }
                    }
                    let repair_free = idtd_reports
                        .iter()
                        .find(|r| r.name == name)
                        .map(|r| r.repairs == 0 && r.fallbacks == 0)
                        .unwrap_or(false);
                    if repair_free {
                        let rel = compare_regexes(rc, &crx_dtd.alphabet, ri, &idtd_dtd.alphabet);
                        if rel != Relation::Equal && rel != Relation::Stricter {
                            out.violation(
                                "ordering.idtd-within-crx",
                                format!(
                                    "element {name}: repair-free iDTD {} is {rel} vs CRX {}",
                                    render_dtd(ri, &idtd_dtd.alphabet),
                                    render_dtd(rc, &crx_dtd.alphabet)
                                ),
                            );
                        }
                    }
                }
                (crx_spec, Some(idtd_spec)) => {
                    if std::mem::discriminant(crx_spec) != std::mem::discriminant(idtd_spec) {
                        out.violation(
                            "ordering.idtd-within-crx",
                            format!(
                                "element {name}: engines disagree on content kind \
                                 ({crx_spec:?} vs {idtd_spec:?})"
                            ),
                        );
                    }
                }
                (_, None) => out.violation(
                    "ordering.idtd-within-crx",
                    format!("element {name}: inferred by CRX but absent from iDTD output"),
                ),
            }
        }
        out.checked.push("ordering.idtd-within-crx");
    }

    // ordering.kore-within-idtd: the k-ORE distinguishes occurrences the
    // SORE merges, so folding marks away can only generalize — when *both*
    // derivations are repair- and fallback-free, L(k-ORE) ⊆ L(SORE).
    // (Repairs on either side add language outside the other's view, so
    // the comparison is gated exactly like the CRX ordering above.)
    if want("ordering.kore-within-idtd") {
        for (&sym, kore_spec) in &kore_dtd.elements {
            let name = kore_dtd.alphabet.name(sym);
            let idtd_spec = idtd_dtd
                .alphabet
                .get(name)
                .and_then(|s| idtd_dtd.elements.get(&s));
            let (ContentSpec::Children(rk), Some(ContentSpec::Children(ri))) =
                (kore_spec, idtd_spec)
            else {
                continue;
            };
            let repair_free = |reports: &[dtdinfer_xml::infer::ElementReport]| {
                reports
                    .iter()
                    .find(|r| r.name == name)
                    .map(|r| r.repairs == 0 && r.fallbacks == 0)
                    .unwrap_or(false)
            };
            if !repair_free(&kore_reports) || !repair_free(&idtd_reports) {
                continue;
            }
            let rel = compare_regexes(ri, &idtd_dtd.alphabet, rk, &kore_dtd.alphabet);
            if rel != Relation::Equal && rel != Relation::Stricter {
                out.violation(
                    "ordering.kore-within-idtd",
                    format!(
                        "element {name}: repair-free k-ORE {} is {rel} vs SORE {}",
                        render_dtd(rk, &kore_dtd.alphabet),
                        render_dtd(ri, &idtd_dtd.alphabet)
                    ),
                );
            }
        }
        out.checked.push("ordering.kore-within-idtd");
    }

    // identity.shards: sharded ingestion + derivation must be
    // byte-identical to the sequential pipeline for every worker count.
    if want("identity.shards") && !docs.is_empty() {
        for jobs in [2usize, 5] {
            match ingest(docs, jobs) {
                Ok(ingested) => {
                    for (engine, sequential) in [
                        (InferenceEngine::Crx, &crx_dtd),
                        (InferenceEngine::Idtd, &idtd_dtd),
                        (InferenceEngine::Kore, &kore_dtd),
                        (InferenceEngine::Auto, &auto_dtd),
                    ] {
                        let sharded = ingested.state.derive(engine).0.serialize();
                        if sharded != sequential.serialize() {
                            out.violation(
                                "identity.shards",
                                format!(
                                    "jobs={jobs} {engine:?}: sharded output differs from sequential"
                                ),
                            );
                        }
                    }
                }
                Err(e) => out.violation("identity.shards", format!("jobs={jobs}: {e}")),
            }
        }
        out.checked.push("identity.shards");
    }

    // identity.snapshot: save → load → save is the identity, and the
    // loaded state derives the same DTD as the live pipeline.
    if want("identity.snapshot") && !docs.is_empty() {
        match ingest(docs, 3) {
            Ok(ingested) => {
                let text = snapshot::save(&ingested.state);
                match snapshot::load(&text) {
                    Ok(loaded) => {
                        if snapshot::save(&loaded) != text {
                            out.violation(
                                "identity.snapshot",
                                "save(load(save(state))) is not the identity".to_owned(),
                            );
                        }
                        for (engine, sequential) in [
                            (InferenceEngine::Idtd, &idtd_dtd),
                            (InferenceEngine::Kore, &kore_dtd),
                            (InferenceEngine::Auto, &auto_dtd),
                        ] {
                            let derived = loaded.derive(engine).0.serialize();
                            if derived != sequential.serialize() {
                                out.violation(
                                    "identity.snapshot",
                                    format!(
                                        "snapshot-derived {engine:?} DTD differs from sequential"
                                    ),
                                );
                            }
                        }
                    }
                    Err(e) => out.violation(
                        "identity.snapshot",
                        format!("load of fresh save failed: {e}"),
                    ),
                }
            }
            Err(e) => out.violation("identity.snapshot", format!("ingest: {e}")),
        }
        out.checked.push("identity.snapshot");
    }

    // identity.incremental: serve's warm path. One derivation per engine
    // absorbs the documents in steps ending at documents 1, 2, 4, 8, …
    // and the last; after each step it must equal a cold derive of the
    // same prefix (after the last, the sequential DTD). Serve's default
    // engine and `auto`, which runs every learner and whose model cost
    // reads the alphabet size, cover the cache's cases.
    if want("identity.incremental") && !docs.is_empty() {
        let engines = [
            (InferenceEngine::Idtd, &idtd_dtd),
            (InferenceEngine::Auto, &auto_dtd),
        ];
        let mut warm = engines.map(|(engine, _)| Derivation::new(engine));
        let mut prefix = Corpus::new();
        for (i, d) in docs.iter().enumerate() {
            prefix.add_document(d).expect("the corpus parsed above");
            let seen = i + 1;
            if !seen.is_power_of_two() && seen != docs.len() {
                continue;
            }
            for ((engine, sequential), derivation) in engines.iter().zip(&mut warm) {
                derivation.update(&prefix);
                let cold = if seen == docs.len() {
                    sequential.serialize()
                } else {
                    infer_dtd_with_stats(&prefix, *engine).0.serialize()
                };
                if derivation.dtd().serialize() != cold {
                    out.violation(
                        "identity.incremental",
                        format!("{engine:?} after {seen} document(s): warm DTD differs from cold"),
                    );
                }
            }
        }
        out.checked.push("identity.incremental");
    }

    // determinism.one-unambiguous: every emitted content model must be
    // deterministic (SOREs and CHAREs are, by construction — this guards
    // the construction).
    if want("determinism.one-unambiguous") {
        for (engine, dtd) in [
            ("crx", &crx_dtd),
            ("idtd", &idtd_dtd),
            ("kore", &kore_dtd),
            ("auto", &auto_dtd),
        ] {
            for issue in dtd.lint() {
                out.violation("determinism.one-unambiguous", format!("{engine}: {issue}"));
            }
        }
        out.checked.push("determinism.one-unambiguous");
    }

    // roundtrip.dtd: serialize → parse → serialize is a fixpoint, and the
    // re-parsed DTD still validates every document.
    if want("roundtrip.dtd") {
        for (engine, dtd) in [
            ("crx", &crx_dtd),
            ("idtd", &idtd_dtd),
            ("kore", &kore_dtd),
            ("auto", &auto_dtd),
        ] {
            let text = dtd.serialize();
            match Dtd::parse(&text) {
                Ok(reparsed) => {
                    if reparsed.serialize() != text {
                        out.violation(
                            "roundtrip.dtd",
                            format!("{engine}: serialize is not a fixpoint under re-parse"),
                        );
                    }
                    for (i, d) in docs.iter().enumerate() {
                        match reparsed.validate(d) {
                            Ok(v) if v.is_empty() => {}
                            Ok(v) => out.violation(
                                "roundtrip.dtd",
                                format!("{engine}: document {i} invalid after re-parse: {}", v[0]),
                            ),
                            Err(e) => out
                                .violation("roundtrip.dtd", format!("{engine}: document {i}: {e}")),
                        }
                    }
                }
                Err(e) => out.violation("roundtrip.dtd", format!("{engine}: {e}")),
            }
        }
        out.checked.push("roundtrip.dtd");
    }

    // roundtrip.xsd: the emitted schema must be well-formed XML and
    // emission must be stable.
    if want("roundtrip.xsd") {
        let opts_x = XsdOptions {
            numeric_threshold: None,
        };
        let xsd = generate_xsd(&idtd_dtd, Some(&canon), opts_x);
        match XmlPullParser::new(&xsd).collect_events() {
            Ok(events) => {
                if events.is_empty() {
                    out.violation("roundtrip.xsd", "emitted XSD has no XML events".to_owned());
                }
            }
            Err(e) => out.violation(
                "roundtrip.xsd",
                format!("emitted XSD is not well-formed: {e}"),
            ),
        }
        if generate_xsd(&idtd_dtd, Some(&canon), opts_x) != xsd {
            out.violation("roundtrip.xsd", "XSD emission is not stable".to_owned());
        }
        out.checked.push("roundtrip.xsd");
    }

    out
}

/// Maps `r` from one alphabet into another by name, without interning:
/// `None` when some symbol's name is absent from `to`.
fn remap_regex(r: &Regex, from: &Alphabet, to: &Alphabet) -> Option<Regex> {
    Some(match r {
        Regex::Symbol(s) => Regex::Symbol(to.get(from.name(*s))?),
        Regex::Concat(parts) => Regex::Concat(
            parts
                .iter()
                .map(|p| remap_regex(p, from, to))
                .collect::<Option<Vec<_>>>()?,
        ),
        Regex::Union(parts) => Regex::Union(
            parts
                .iter()
                .map(|p| remap_regex(p, from, to))
                .collect::<Option<Vec<_>>>()?,
        ),
        Regex::Optional(inner) => Regex::Optional(Box::new(remap_regex(inner, from, to)?)),
        Regex::Plus(inner) => Regex::Plus(Box::new(remap_regex(inner, from, to)?)),
        Regex::Star(inner) => Regex::Star(Box::new(remap_regex(inner, from, to)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(sources: &[&str]) -> Vec<String> {
        sources.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn clean_case_has_no_violations() {
        let target = Dtd::parse(
            "<!ELEMENT r (a, b?, c+)><!ELEMENT a (#PCDATA)>\
             <!ELEMENT b EMPTY><!ELEMENT c (#PCDATA)>",
        )
        .unwrap();
        let corpus = docs(&[
            "<r><a>x</a><b/><c>1</c></r>",
            "<r><a>y</a><c>2</c><c>3</c></r>",
            "<r><a>z</a><b/><c>4</c><c>5</c></r>",
        ]);
        let result = check_case(Some(&target), &corpus, &OracleOptions::default());
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        assert!(result.checked.contains(&"theorem5.sore-recovery"));
    }

    #[test]
    fn planted_bug_fires_only_when_enabled() {
        let corpus = docs(&["<r><x/><x/></r>", "<r><x/></r>"]);
        let clean = check_case(None, &corpus, &OracleOptions::default());
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
        let planted = check_case(
            None,
            &corpus,
            &OracleOptions {
                planted: Some(PlantedBug::RepeatedSibling),
                only: None,
            },
        );
        assert!(planted.failed("membership.idtd"));
    }

    #[test]
    fn only_filter_restricts_the_battery() {
        let corpus = docs(&["<r><x/></r>"]);
        let result = check_case(
            None,
            &corpus,
            &OracleOptions {
                planted: None,
                only: Some("membership.idtd"),
            },
        );
        assert_eq!(result.checked, vec!["corpus.parse", "membership.idtd"]);
    }

    #[test]
    fn parse_failure_reported() {
        let result = check_case(None, &docs(&["<r><open></r>"]), &OracleOptions::default());
        assert!(result.failed("corpus.parse"));
    }

    #[test]
    fn remap_by_name() {
        let mut a = Alphabet::new();
        let r = dtdinfer_regex::parser::parse("(x | y) z?", &mut a).unwrap();
        let mut b = Alphabet::new();
        for n in ["z", "y", "x"] {
            b.intern(n);
        }
        let mapped = remap_regex(&r, &a, &b).unwrap();
        assert_eq!(render_dtd(&mapped, &b), render_dtd(&r, &a));
        let sparse = Alphabet::from_names(["x", "y"]);
        assert!(remap_regex(&r, &a, &sparse).is_none());
    }
}
