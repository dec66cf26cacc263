//! The iDTD algorithm (§6, Algorithm 2, Theorem 2).
//!
//! `rewrite` only succeeds when the input SOA has an equivalent SORE; with
//! incomplete data 2T-INF produces sub-automata (missing edges) for which it
//! gets stuck. iDTD alternates `rewrite` with *repair rules* that add a
//! minimal set of edges — growing the language — until rewriting completes,
//! so the result is always a SORE with `L(A) ⊆ L(r)`.
//!
//! Two repair rules, each parameterized by a fuzziness bound `k`:
//!
//! * **enable-disjunction** — near-miss candidates for the disjunction rule
//!   (predecessor/successor sets differing in at most `k` elements, or
//!   mutually connected states) get the missing edges added so their sets
//!   become equal.
//! * **enable-optional** — a state with at least one bypass edge (or a
//!   single predecessor with few other successors) gets all bypass edges
//!   added, enabling the optional rule.
//!
//! Following the paper's implementation notes, enable-disjunction(a) is
//! tried for pairs only, rules are tried in the order 1 then 2, and `k`
//! grows when no rule applies. Unlike the fixed-`k` variant in the paper
//! (which can fail), the default configuration is unrestricted and
//! guarantees success via a final merge-everything fallback.

use crate::model::InferredModel;
use crate::rewrite::{rewrite_exhaust_traced, Step};
use dtdinfer_automata::gfa::{Gfa, NodeId, SINK, SOURCE};
use dtdinfer_automata::soa::Soa;
use dtdinfer_regex::alphabet::Word;
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::normalize::{normalize, simplify, star_form};

/// Tuning parameters for iDTD.
#[derive(Debug, Clone, Copy)]
pub struct IdtdConfig {
    /// Initial fuzziness; Algorithm 2 starts at 1 and grows it on demand.
    pub initial_k: usize,
    /// Upper bound on `k`. When exceeded the merge-everything fallback
    /// fires (`None` = grow until the fallback threshold of 2·nodes).
    pub max_k: Option<usize>,
}

impl Default for IdtdConfig {
    fn default() -> Self {
        Self {
            initial_k: 1,
            max_k: None,
        }
    }
}

impl IdtdConfig {
    /// The configuration of the paper's own implementation (§6): `k` fixed
    /// at 2, repairs for pairs only. Where this configuration gets stuck
    /// the paper's system fails; ours falls back to the coarse
    /// merge-everything superset (still a valid Theorem 2 answer, but one
    /// the generalization experiment counts as a miss).
    pub fn paper_faithful() -> Self {
        Self {
            initial_k: 2,
            max_k: Some(2),
        }
    }
}

/// One event of an iDTD derivation (for explanation traces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A rewrite rule fired.
    Rewrite(Step),
    /// A repair rule added edges to the automaton.
    Repair {
        /// Which repair fired.
        kind: RepairKind,
        /// The fuzziness parameter in force.
        k: usize,
        /// Number of edges the repair added.
        edges_added: usize,
    },
    /// The last-resort merge-everything fallback fired.
    Fallback,
}

/// The two repair rules of §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// enable-disjunction.
    EnableDisjunction,
    /// enable-optional.
    EnableOptional,
}

impl RepairKind {
    /// The paper's name for the rule.
    pub fn name(self) -> &'static str {
        match self {
            RepairKind::EnableDisjunction => "enable-disjunction",
            RepairKind::EnableOptional => "enable-optional",
        }
    }
}

/// Runs iDTD on an SOA: always yields a SORE `r` with `L(A) ⊆ L(r)`
/// (Theorem 2), or a degenerate [`InferredModel`] for the ∅ / {ε}
/// languages.
pub fn idtd(soa: &Soa) -> InferredModel {
    idtd_with(soa, IdtdConfig::default())
}

/// Like [`idtd_with`], additionally returning the full derivation (rewrite
/// steps and repairs) — the machine-readable form of Figure 3 and the §6
/// repair example.
pub fn idtd_traced(soa: &Soa, cfg: IdtdConfig) -> (InferredModel, Vec<Event>) {
    let mut trace = Vec::new();
    let model = idtd_core(soa, cfg, &mut trace);
    (model, trace)
}

/// Example (the §6 walkthrough: the Figure 2 sample still yields the
/// intended SORE thanks to the repair rules):
///
/// ```
/// use dtdinfer_regex::alphabet::Alphabet;
/// use dtdinfer_regex::display::render;
///
/// let mut al = Alphabet::new();
/// let words: Vec<_> = ["bacacdacde", "cbacdbacde"]
///     .iter()
///     .map(|w| al.word_from_chars(w))
///     .collect();
/// let sore = dtdinfer_core::idtd::idtd_from_words(&words)
///     .into_regex()
///     .unwrap();
/// assert_eq!(render(&sore, &al), "((b? (a | c))+ d)+ e");
/// ```
/// Runs 2T-INF then iDTD on raw example words.
pub fn idtd_from_words<'a, I>(words: I) -> InferredModel
where
    I: IntoIterator<Item = &'a Word>,
{
    idtd(&Soa::learn(words))
}

/// iDTD with explicit configuration.
pub fn idtd_with(soa: &Soa, cfg: IdtdConfig) -> InferredModel {
    let mut trace = Vec::new();
    idtd_core(soa, cfg, &mut trace)
}

fn idtd_core(soa: &Soa, cfg: IdtdConfig, trace: &mut Vec<Event>) -> InferredModel {
    let _span = dtdinfer_obs::span("core.idtd");
    let before = trace.len();
    let model = idtd_core_inner(soa, cfg, trace);
    if dtdinfer_obs::is_enabled() {
        record_derivation(soa, &trace[before..]);
    }
    model
}

/// Telemetry for one completed derivation: rewrite-rule applications by
/// rule name, repair invocations by kind, fallback firings, and input
/// automaton size. Only called when recording is on.
fn record_derivation(soa: &Soa, events: &[Event]) {
    // Pre-register the fixed derivation counters at zero so the emitted
    // JSON has a stable key set whether or not each rule fired.
    for rule in [
        crate::rewrite::Rule::Disjunction,
        crate::rewrite::Rule::Concatenation,
        crate::rewrite::Rule::SelfLoop,
        crate::rewrite::Rule::Optional,
    ] {
        dtdinfer_obs::count_labeled("core.rewrite.rule", rule.name(), 0);
    }
    for kind in [RepairKind::EnableDisjunction, RepairKind::EnableOptional] {
        dtdinfer_obs::count_labeled("core.idtd.repair", kind.name(), 0);
    }
    dtdinfer_obs::count("core.idtd.fallback", 0);
    dtdinfer_obs::count("core.idtd.runs", 1);
    dtdinfer_obs::observe("core.idtd.soa_states", soa.num_states() as u64);
    dtdinfer_obs::observe("core.idtd.soa_edges", soa.num_edges() as u64);
    for e in events {
        match e {
            Event::Rewrite(step) => {
                dtdinfer_obs::count_labeled("core.rewrite.rule", step.rule.name(), 1);
            }
            Event::Repair {
                kind,
                k,
                edges_added,
            } => {
                dtdinfer_obs::count_labeled("core.idtd.repair", kind.name(), 1);
                dtdinfer_obs::count("core.idtd.repair.edges_added", *edges_added as u64);
                dtdinfer_obs::event(
                    "core.idtd.repair",
                    &[
                        ("kind", kind.name().to_owned()),
                        ("k", k.to_string()),
                        ("edges_added", edges_added.to_string()),
                    ],
                );
            }
            Event::Fallback => {
                dtdinfer_obs::count("core.idtd.fallback", 1);
                dtdinfer_obs::event("core.idtd.fallback", &[]);
            }
        }
    }
}

fn idtd_core_inner(soa: &Soa, cfg: IdtdConfig, trace: &mut Vec<Event>) -> InferredModel {
    if soa.states.is_empty() {
        return if soa.accepts_empty {
            InferredModel::EpsilonOnly
        } else {
            InferredModel::Empty
        };
    }
    let (mut g, _) = Gfa::from_soa(soa);
    let mut k = cfg.initial_k;
    loop {
        let mut steps = Vec::new();
        rewrite_exhaust_traced(&mut g, &mut steps);
        trace.extend(steps.into_iter().map(Event::Rewrite));
        if g.is_final() {
            let r = g.final_regex().expect("final").clone();
            return InferredModel::Regex(simplify(&star_form(&r)));
        }
        if let Some((kind, edges_added)) = apply_repair(&mut g, k) {
            trace.push(Event::Repair {
                kind,
                k,
                edges_added,
            });
            continue;
        }
        // No repair at this k: grow the fuzziness (Algorithm 2, line 5).
        let limit = cfg.max_k.unwrap_or(2 * g.num_inner() + 4);
        if k < limit {
            k += 1;
        } else {
            // Unrestricted fallback: merge all remaining states into one
            // repeated disjunction — always a SORE superset.
            trace.push(Event::Fallback);
            merge_everything(&mut g);
        }
    }
}

/// Tries the repair rules in the paper's order: enable-disjunction first,
/// enable-optional only when the former cannot be applied. Returns the
/// repair that fired and how many edges it added (repairs that would add
/// nothing are skipped — the corresponding rewrite rule would already have
/// fired).
fn apply_repair(g: &mut Gfa, k: usize) -> Option<(RepairKind, usize)> {
    if let Some(n) = enable_disjunction(g, k) {
        return Some((RepairKind::EnableDisjunction, n));
    }
    enable_optional(g, k).map(|n| (RepairKind::EnableOptional, n))
}

/// **enable-disjunction** (pairs only, as in the paper's implementation).
///
/// Preconditions for `W = {r1, r2}`:
/// (a) predecessor sets overlap and differ by at most `k` on each side, and
///     likewise for successor sets; or
/// (b) the states are mutually connected (`r1 → r2` and `r2 → r1` in `G`).
///
/// Action: add the minimal edge set making `Pred(r1) = Pred(r2)` and
/// `Succ(r1) = Succ(r2)`.
fn enable_disjunction(g: &mut Gfa, k: usize) -> Option<usize> {
    let closure = g.closure();
    let nodes: Vec<NodeId> = g.inner_nodes().collect();
    let mut best: Option<(usize, NodeId, NodeId)> = None;
    for (i, &r1) in nodes.iter().enumerate() {
        for &r2 in &nodes[i + 1..] {
            let p1 = closure.pred(r1);
            let p2 = closure.pred(r2);
            let s1 = closure.succ(r1);
            let s2 = closure.succ(r2);
            let pd1 = p1.difference_len(p2);
            let pd2 = p2.difference_len(p1);
            let sd1 = s1.difference_len(s2);
            let sd2 = s2.difference_len(s1);
            let missing = pd1 + pd2 + sd1 + sd2;
            if missing == 0 {
                continue; // rewrite's disjunction rule handles this itself
            }
            let cond_a = !p1.is_disjoint(p2)
                && !s1.is_disjoint(s2)
                && pd1 <= k
                && pd2 <= k
                && sd1 <= k
                && sd2 <= k;
            let cond_b = g.has_edge(r1, r2) && g.has_edge(r2, r1);
            if cond_a || cond_b {
                // Prefer the pair needing the fewest added edges: iDTD aims
                // for the smallest possible superset.
                if best.is_none_or(|(m, _, _)| missing < m) {
                    best = Some((missing, r1, r2));
                }
            }
        }
    }
    let (_, r1, r2) = best?;
    // Each of the pair gets the other's closure predecessors and
    // successors that it lacks.
    let mut added = 0usize;
    for (r, other) in [(r1, r2), (r2, r1)] {
        for p in closure.pred(other).iter() {
            if !closure.pred(r).contains(&p) && p != SINK {
                g.add_edge(p, r);
                added += 1;
            }
        }
        for s in closure.succ(other).iter() {
            if !closure.succ(r).contains(&s) && s != SOURCE {
                g.add_edge(r, s);
                added += 1;
            }
        }
    }
    (added > 0).then_some(added)
}

/// **enable-optional**.
///
/// Preconditions for state `r`:
/// (a) at least one bypass edge from a predecessor of `r` to a successor of
///     `r` already exists; or
/// (b) `Pred(r) = {r'}` and `r'` has at most `k` successors besides `r` and
///     itself.
///
/// Action: add all missing edges from `Pred(r)` to `Succ(r)` (the optional
/// rule then fires on `r` and removes them again, leaving `r?`).
fn enable_optional(g: &mut Gfa, k: usize) -> Option<usize> {
    let closure = g.closure();
    let mut best: Option<(usize, NodeId)> = None;
    for r in g.inner_nodes() {
        if g.label(r).nullable() {
            continue; // already optional; repairing it gains nothing
        }
        let preds: Vec<NodeId> = closure.pred(r).iter().filter(|&p| p != r).collect();
        let succs: Vec<NodeId> = closure.succ(r).iter().filter(|&s| s != r).collect();
        if preds.is_empty() || succs.is_empty() {
            continue;
        }
        let mut missing = 0usize;
        let mut existing = 0usize;
        for &p in &preds {
            for s in &succs {
                if closure.succ(p).contains(s) {
                    existing += 1;
                } else {
                    missing += 1;
                }
            }
        }
        if missing == 0 {
            continue; // optional rule applies without repair
        }
        let cond_a = existing > 0;
        let cond_b = preds.len() == 1 && {
            let p = preds[0];
            closure.succ(p).iter().filter(|&s| s != r && s != p).count() <= k
        };
        if (cond_a || cond_b) && best.is_none_or(|(m, _)| missing < m) {
            best = Some((missing, r));
        }
    }
    let (_, r) = best?;
    let mut added = 0usize;
    for p in closure.pred(r).iter().filter(|&p| p != r) {
        for s in closure.succ(r).iter().filter(|&s| s != r) {
            if !g.has_edge(p, s) && p != SINK && s != SOURCE {
                g.add_edge(p, s);
                added += 1;
            }
        }
    }
    (added > 0).then_some(added)
}

/// Last-resort repair guaranteeing success: merge all remaining inner
/// states into `(r1 + … + rn)` with a self-edge — the coarsest SORE
/// superset of the remaining language.
fn merge_everything(g: &mut Gfa) {
    let nodes: Vec<NodeId> = g.inner_nodes().collect();
    if nodes.len() <= 1 {
        // One stubborn node: force every edge shape optional/self-loop can
        // consume by wiring source→node→sink directly.
        if let Some(&n) = nodes.first() {
            g.add_edge(SOURCE, n);
            g.add_edge(n, SINK);
        }
        return;
    }
    let accepts_empty = g.has_edge(SOURCE, SINK);
    let label = normalize(&Regex::union(
        nodes.iter().map(|&n| g.label(n).clone()).collect(),
    ));
    for &n in &nodes {
        g.remove_node(n);
    }
    let merged = g.add_node(label);
    g.add_edge(SOURCE, merged);
    g.add_edge(merged, merged);
    g.add_edge(merged, SINK);
    if accepts_empty {
        g.add_edge(SOURCE, SINK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_automata::dfa::{soa_minus_regex_witness, soa_subset_of_regex};
    use dtdinfer_regex::alphabet::Alphabet;
    use dtdinfer_regex::classify::is_sore;
    use dtdinfer_regex::display::render;
    use dtdinfer_regex::normalize::equiv_commutative;
    use dtdinfer_regex::parser::parse;

    fn learned(words: &[&str]) -> (Soa, Alphabet) {
        let mut al = Alphabet::new();
        let ws: Vec<_> = words.iter().map(|w| al.word_from_chars(w)).collect();
        (Soa::learn(&ws), al)
    }

    /// §6's worked example: iDTD started on the Figure 2 automaton still
    /// derives the intended SORE ((b?(a|c))+d)+e.
    #[test]
    fn figure2_repaired_to_intended_sore() {
        let (soa, mut al) = learned(&["bacacdacde", "cbacdbacde"]);
        let r = idtd(&soa).into_regex().expect("regex");
        let target = parse("((b? (a|c))+ d)+ e", &mut al).unwrap();
        assert!(equiv_commutative(&r, &target), "got {}", render(&r, &al));
    }

    /// On representative samples iDTD coincides with rewrite.
    #[test]
    fn representative_sample_needs_no_repair() {
        let (soa, mut al) = learned(&["bacacdacde", "cbacdbacde", "abccaadcde"]);
        let r = idtd(&soa).into_regex().unwrap();
        let target = parse("((b? (a|c))+ d)+ e", &mut al).unwrap();
        assert!(equiv_commutative(&r, &target));
    }

    /// Theorem 2: L(A) ⊆ L(iDTD(A)) on a pile of partial samples.
    #[test]
    fn theorem2_superset_battery() {
        let samples: &[&[&str]] = &[
            &["ab", "ba"],
            &["abc", "cab"],
            &["ab", "cd"],
            &["aab", "abb", "b"],
            &["abcd", "acbd", "abd"],
            &["xy", "yx", "xyx"],
            &["abcde", "edcba"],
            &["aa", "bb", "ab"],
            &["abc"],
            &["a", "ab", "abb", "ba"],
        ];
        for words in samples {
            let (soa, al) = learned(words);
            let model = idtd(&soa);
            let r = model.as_regex().unwrap_or_else(|| panic!("{words:?}"));
            assert!(is_sore(r), "{words:?} gave non-SORE {}", render(r, &al));
            if let Some(w) = soa_minus_regex_witness(&soa, r) {
                panic!(
                    "{words:?}: witness {:?} in L(A) \\ L({})",
                    al.render_word(&w, ""),
                    render(r, &al)
                );
            }
        }
    }

    /// Degenerate inputs.
    #[test]
    fn degenerate_models() {
        let soa = Soa::new();
        assert_eq!(idtd(&soa), InferredModel::Empty);
        let mut soa = Soa::new();
        soa.accepts_empty = true;
        assert_eq!(idtd(&soa), InferredModel::EpsilonOnly);
    }

    #[test]
    fn idtd_from_words_api() {
        let mut al = Alphabet::new();
        let words = vec![al.word_from_chars("ab"), al.word_from_chars("b")];
        let r = idtd_from_words(&words).into_regex().unwrap();
        assert_eq!(render(&r, &al), "a? b");
    }

    /// The fallback fires even on adversarial automata and yields a SORE.
    #[test]
    fn fallback_always_succeeds() {
        // A dense "random" automaton unlikely to be SORE-equivalent.
        let (soa, al) = learned(&["abcd", "dcba", "bdac", "cadb", "acbd", "dbca"]);
        let model = idtd(&soa);
        let r = model.as_regex().expect("always succeeds");
        assert!(is_sore(r));
        assert!(soa_subset_of_regex(&soa, r), "fallback must be a superset");
        let _ = al;
    }

    /// With a restrictive max_k the fallback produces the coarse superset.
    #[test]
    fn restricted_k_uses_fallback() {
        let (soa, _) = learned(&["abcd", "dcba", "bdac", "cadb"]);
        let model = idtd_with(
            &soa,
            IdtdConfig {
                initial_k: 1,
                max_k: Some(1),
            },
        );
        let r = model.as_regex().unwrap();
        assert!(is_sore(r));
        assert!(soa_subset_of_regex(&soa, r));
    }

    /// Derivation traces: Figure 3 needs no repairs; Figure 2 needs the
    /// enable-disjunction repair the paper walks through in §6.
    #[test]
    fn derivation_traces() {
        let (full, _) = learned(&["bacacdacde", "cbacdbacde", "abccaadcde"]);
        let (model, trace) = idtd_traced(&full, IdtdConfig::default());
        assert!(model.as_regex().is_some());
        assert!(
            trace.iter().all(|e| matches!(e, Event::Rewrite(_))),
            "representative sample repaired: {trace:?}"
        );
        let rules: Vec<_> = trace
            .iter()
            .filter_map(|e| match e {
                Event::Rewrite(s) => Some(s.rule),
                _ => None,
            })
            .collect();
        assert!(rules.contains(&crate::rewrite::Rule::Disjunction));
        assert!(rules.contains(&crate::rewrite::Rule::Optional));
        assert!(rules.contains(&crate::rewrite::Rule::SelfLoop));
        assert!(rules.contains(&crate::rewrite::Rule::Concatenation));

        let (partial, _) = learned(&["bacacdacde", "cbacdbacde"]);
        let (_, trace) = idtd_traced(&partial, IdtdConfig::default());
        assert!(
            trace.iter().any(|e| matches!(
                e,
                Event::Repair {
                    kind: RepairKind::EnableDisjunction,
                    ..
                }
            )),
            "Figure 2 needs enable-disjunction: {trace:?}"
        );
    }

    /// iDTD generalizes (a1+…+an)* from ~n·(n−1) of the n² pairs (the §7
    /// comparison against CRX's O(n) requirement).
    #[test]
    fn repeated_disjunction_with_missing_pairs() {
        let mut al = Alphabet::new();
        let syms: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        // All ordered pairs except (d, a) and a few; still enough for repair.
        let mut words = Vec::new();
        for x in &syms {
            for y in &syms {
                if (x.as_str(), y.as_str()) != ("d", "a") {
                    words.push(al.word_from_chars(&format!("{x}{y}")));
                }
            }
        }
        let soa = Soa::learn(&words);
        let r = idtd(&soa).into_regex().unwrap();
        let target = parse("(a | b | c | d)+", &mut al).unwrap();
        assert!(equiv_commutative(&r, &target), "got {}", render(&r, &al));
    }
}
