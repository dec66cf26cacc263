//! The `rewrite` algorithm (§5, Algorithm 1, Theorem 1).
//!
//! Transforms a single occurrence automaton into an equivalent SORE when one
//! exists, via four graph-rewrite rules on the generalized automaton:
//!
//! 1. **disjunction** — merge a set of states with identical closure
//!    predecessor and successor sets into `r1 + … + rn`;
//! 2. **concatenation** — merge a maximal chain into `r1 · … · rn`;
//! 3. **self-loop** — delete a self-edge, relabeling `r` to `r+`;
//! 4. **optional** — relabel `r` to `r?` and delete the bypass edges it
//!    makes redundant.
//!
//! The rules work on normalized expressions (no Kleene star; `r*` is
//! `(r+)?`); [`dtdinfer_regex::normalize::star_form`] is applied to the
//! final result as the paper's post-processing step.
//!
//! Termination: disjunction and concatenation decrease the node count;
//! self-loop decreases the edge count; optional either removes at least one
//! edge or turns a non-nullable label nullable (and only applies to
//! non-nullable labels), so the measure (nodes, edges + non-nullable labels)
//! decreases lexicographically with every step.

use dtdinfer_automata::gfa::{Closure, Gfa, NodeBits, NodeId};
use dtdinfer_automata::soa::Soa;
use dtdinfer_regex::ast::Regex;
use dtdinfer_regex::normalize::{normalize, simplify, star_form};
use std::collections::BTreeSet;

/// Which rewrite rule fired (reported by [`rewrite_step`] for tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// States merged into a union.
    Disjunction,
    /// States merged into a concatenation.
    Concatenation,
    /// A self-edge became `r+`.
    SelfLoop,
    /// A state became optional, bypass edges removed.
    Optional,
}

impl Rule {
    /// The rule's name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Disjunction => "disjunction",
            Rule::Concatenation => "concatenation",
            Rule::SelfLoop => "self-loop",
            Rule::Optional => "optional",
        }
    }
}

/// One applied rewrite step, for Figure 3-style derivation traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The rule that fired.
    pub rule: Rule,
    /// Labels of the states the rule consumed.
    pub operands: Vec<Regex>,
    /// The label produced (for self-loop/optional: the relabeling).
    pub result: Regex,
}

/// Applies one rewrite rule if any applies; returns which.
///
/// Claim 2 of the paper shows the application order does not affect
/// *success* on SORE-equivalent automata, but it does affect conciseness:
/// firing self-loop before disjunction turns `(a|c)+` into `(a+|c+)+`.
/// Self-loop therefore goes last, letting disjunction absorb direct
/// self-edges into the merged node and letting optional delete self-edges
/// that are mere bypasses.
pub fn rewrite_step(g: &mut Gfa) -> Option<Step> {
    rewrite_step_with(g, RulePriority::SelfLoopLast)
}

/// Rule application priority (ablation knob; see `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RulePriority {
    /// Self-loop tried last (the default): direct self-edges are absorbed
    /// by disjunction merges and optional's bypass removal, keeping outputs
    /// in the concise `(a|c)+` shape.
    #[default]
    SelfLoopLast,
    /// Self-loop tried first (the naive order): correct per Claim 2, but
    /// produces `(a+|c+)+`-style outputs with superfluous operators.
    SelfLoopFirst,
}

/// [`rewrite_step`] with an explicit rule priority.
pub fn rewrite_step_with(g: &mut Gfa, priority: RulePriority) -> Option<Step> {
    if priority == RulePriority::SelfLoopFirst {
        if let Some(step) = try_self_loop(g) {
            return Some(step);
        }
    }
    if let Some(step) = try_concatenation(g) {
        return Some(step);
    }
    let closure = g.closure();
    if let Some(step) = try_disjunction(g, &closure) {
        return Some(step);
    }
    if let Some(step) = try_optional(g, &closure) {
        return Some(step);
    }
    try_self_loop(g)
}

/// Full rewriting under an explicit rule priority; the simplify/star-form
/// post-passes are *not* applied, so the raw effect of the order is
/// observable (ablation use).
pub fn rewrite_soa_with(soa: &Soa, priority: RulePriority) -> Option<Regex> {
    let (mut g, _) = Gfa::from_soa(soa);
    while rewrite_step_with(&mut g, priority).is_some() {}
    g.final_regex().map(star_form)
}

/// Runs the rewrite system to exhaustion on `g`.
pub fn rewrite_exhaust(g: &mut Gfa) {
    while rewrite_step(g).is_some() {}
}

/// Runs the rewrite system to exhaustion, collecting the derivation.
pub fn rewrite_exhaust_traced(g: &mut Gfa, trace: &mut Vec<Step>) {
    while let Some(step) = rewrite_step(g) {
        trace.push(step);
    }
}

/// Algorithm 1: rewrites a GFA into an equivalent SORE.
///
/// Returns `Err` with the irreducible GFA when the automaton has no
/// equivalent SORE (iDTD's repair rules take over from there).
pub fn rewrite(mut g: Gfa) -> Result<Regex, Gfa> {
    rewrite_exhaust(&mut g);
    match g.final_regex() {
        Some(r) => Ok(simplify(&star_form(r))),
        None => Err(g),
    }
}

/// Example (Figure 3: the Figure 1 automaton rewrites to (‡)):
///
/// ```
/// use dtdinfer_automata::soa::Soa;
/// use dtdinfer_regex::alphabet::Alphabet;
/// use dtdinfer_regex::display::render;
///
/// let mut al = Alphabet::new();
/// let words: Vec<_> = ["bacacdacde", "cbacdbacde", "abccaadcde"]
///     .iter()
///     .map(|w| al.word_from_chars(w))
///     .collect();
/// let soa = Soa::learn(&words);
/// let sore = dtdinfer_core::rewrite::rewrite_soa(&soa).unwrap();
/// assert_eq!(render(&sore, &al), "((b? (a | c))+ d)+ e");
/// ```
/// Convenience: rewrites an SOA (`fail` = `None`, matching the paper's
/// Algorithm 1 interface).
pub fn rewrite_soa(soa: &Soa) -> Option<Regex> {
    let (g, _) = Gfa::from_soa(soa);
    rewrite(g).ok()
}

/// **self-loop**: precondition `(r, r) ∈ E`; delete the edge and relabel
/// `r` to `r+`.
fn try_self_loop(g: &mut Gfa) -> Option<Step> {
    let n = g.inner_nodes().find(|&n| g.has_edge(n, n))?;
    g.remove_edge(n, n);
    let old = g.label(n).clone();
    let new_label = normalize(&Regex::Plus(Box::new(old.clone())));
    g.set_label(n, new_label.clone());
    Some(Step {
        rule: Rule::SelfLoop,
        operands: vec![old],
        result: new_label,
    })
}

/// **concatenation**: find a maximal chain `r1 → … → rn` (n ≥ 2) where
/// every node besides `r1` has exactly one incoming edge and every node
/// besides `rn` exactly one outgoing edge; merge into `r1 · … · rn`.
fn try_concatenation(g: &mut Gfa) -> Option<Step> {
    let nodes: Vec<NodeId> = g.inner_nodes().collect();
    for &start in &nodes {
        if let Some(chain) = chain_from(g, start) {
            let operands: Vec<Regex> = chain.iter().map(|&n| g.label(n).clone()).collect();
            let result = merge_chain(g, &chain);
            return Some(Step {
                rule: Rule::Concatenation,
                operands,
                result,
            });
        }
    }
    None
}

/// Whether `n` has exactly one outgoing edge, to an inner node; returns it.
fn sole_inner_succ(g: &Gfa, n: NodeId) -> Option<NodeId> {
    let succ = g.direct_succ(n);
    if succ.len() != 1 {
        return None;
    }
    let &t = succ.iter().next().expect("len 1");
    (!t.is_endpoint()).then_some(t)
}

fn sole_inner_pred(g: &Gfa, n: NodeId) -> Option<NodeId> {
    let pred = g.direct_pred(n);
    if pred.len() != 1 {
        return None;
    }
    let &t = pred.iter().next().expect("len 1");
    (!t.is_endpoint()).then_some(t)
}

/// Builds the maximal chain containing `start`, if a valid chain of length
/// ≥ 2 exists.
fn chain_from(g: &Gfa, start: NodeId) -> Option<Vec<NodeId>> {
    // Grow forward: each extension q must be the unique successor of the
    // current tail, and must have exactly one incoming edge.
    let mut chain = vec![start];
    loop {
        let tail = *chain.last().expect("non-empty");
        match sole_inner_succ(g, tail) {
            Some(q) if q != start && !chain.contains(&q) && g.direct_pred(q).len() == 1 => {
                chain.push(q);
            }
            _ => break,
        }
    }
    // Grow backward from `start` for maximality: p can be prepended when
    // `start` (currently the head) has exactly one incoming edge from p and
    // p has exactly one outgoing edge.
    loop {
        let head = chain[0];
        match sole_inner_pred(g, head) {
            Some(p) if !chain.contains(&p) && g.direct_succ(p).len() == 1 => {
                chain.insert(0, p);
            }
            _ => break,
        }
    }
    (chain.len() >= 2).then_some(chain)
}

fn merge_chain(g: &mut Gfa, chain: &[NodeId]) -> Regex {
    let label = normalize(&Regex::concat(
        chain.iter().map(|&n| g.label(n).clone()).collect(),
    ));
    let first = chain[0];
    let last = *chain.last().expect("chain non-empty");
    let incoming: Vec<NodeId> = g
        .direct_pred(first)
        .iter()
        .copied()
        .filter(|p| !chain.contains(p))
        .collect();
    let outgoing: Vec<NodeId> = g
        .direct_succ(last)
        .iter()
        .copied()
        .filter(|s| !chain.contains(s))
        .collect();
    let closing = g.has_edge(last, first);
    for &n in chain {
        g.remove_node(n);
    }
    let merged = g.add_node(label.clone());
    for p in incoming {
        g.add_edge(p, merged);
    }
    for s in outgoing {
        g.add_edge(merged, s);
    }
    if closing {
        // "if G has an edge (rn, r1) then (r, r) is added"
        g.add_edge(merged, merged);
    }
    label
}

/// **disjunction**: a set `W` (|W| ≥ 2) of states whose closure predecessor
/// and successor sets coincide is merged into `r1 + … + rn`; when `G` has
/// edges between members of `W`, the merged node gets a self-edge.
fn try_disjunction(g: &mut Gfa, closure: &Closure) -> Option<Step> {
    #[cfg(test)]
    let found = if reference::ENABLED.get() {
        reference::disjunction_members(g, closure)
    } else {
        disjunction_members(g, closure)
    };
    #[cfg(not(test))]
    let found = disjunction_members(g, closure);
    let (members, internal) = found?;
    let member_set: BTreeSet<NodeId> = members.iter().copied().collect();
    let operands: Vec<Regex> = members.iter().map(|&m| g.label(m).clone()).collect();
    let label = normalize(&Regex::union(operands.clone()));
    let incoming: BTreeSet<NodeId> = members
        .iter()
        .flat_map(|&m| g.direct_pred(m).iter().copied())
        .filter(|p| !member_set.contains(p))
        .collect();
    let outgoing: BTreeSet<NodeId> = members
        .iter()
        .flat_map(|&m| g.direct_succ(m).iter().copied())
        .filter(|s| !member_set.contains(s))
        .collect();
    for &m in &members {
        g.remove_node(m);
    }
    let merged = g.add_node(label.clone());
    for p in incoming {
        g.add_edge(p, merged);
    }
    for s in outgoing {
        g.add_edge(merged, s);
    }
    if internal {
        g.add_edge(merged, merged);
    }
    Some(Step {
        rule: Rule::Disjunction,
        operands,
        result: label,
    })
}

/// The set `W` the disjunction rule merges, and whether `G` has a direct
/// edge between its members (case ii). `W` satisfies the precondition:
/// identical closure predecessor/successor sets outside `W`, and either no
/// direct edges among members (case i) or closure-complete
/// interconnection including self-edges (case ii).
///
/// The search takes the first compatible pair `r1 < r2` in node order and
/// extends it by trying every other node in node order, keeping each one
/// that leaves the set compatible. Extension is incremental: the members'
/// external sets are equal, and removing one more node from equal sets
/// keeps them equal, so a candidate `r` only needs its own external sets
/// compared with `r1`'s. "Some direct edge inside `W`" and "every ordered
/// pair linked in `G*`" are carried as two flags and updated with each
/// added node. `W` is a bit set as wide as the closure's rows, so each
/// test is a word-wise pass and nothing is allocated per pair.
fn disjunction_members(g: &Gfa, closure: &Closure) -> Option<(Vec<NodeId>, bool)> {
    let nodes: Vec<NodeId> = g.inner_nodes().collect();
    let mut in_w = closure.empty_set();
    for (i, &r1) in nodes.iter().enumerate() {
        for &r2 in &nodes[i + 1..] {
            in_w.insert(r1);
            in_w.insert(r2);
            let pair = in_w.as_set();
            if closure.pred(r1).eq_outside(closure.pred(r2), pair)
                && closure.succ(r1).eq_outside(closure.succ(r2), pair)
            {
                let direct = [r1, r2]
                    .iter()
                    .any(|&a| g.has_edge(a, r1) || g.has_edge(a, r2));
                let linked = pair.is_subset(closure.succ(r1)) && pair.is_subset(closure.succ(r2));
                if !direct || linked {
                    return Some(grow_disjunction(g, closure, &nodes, in_w, (direct, linked)));
                }
            }
            in_w.remove(r1);
            in_w.remove(r2);
        }
    }
    None
}

/// Grows the compatible pair in `in_w` by every node, in node order, that
/// keeps the set compatible; `(direct, linked)` are the pair's two flags.
fn grow_disjunction(
    g: &Gfa,
    closure: &Closure,
    nodes: &[NodeId],
    mut in_w: NodeBits,
    (mut direct, mut linked): (bool, bool),
) -> (Vec<NodeId>, bool) {
    let mut w: Vec<NodeId> = in_w.as_set().iter().collect();
    let r1 = w[0];
    for &r in nodes {
        if in_w.as_set().contains(&r) {
            continue;
        }
        in_w.insert(r);
        let members = in_w.as_set();
        if closure.pred(r).eq_outside(closure.pred(r1), members)
            && closure.succ(r).eq_outside(closure.succ(r1), members)
        {
            let grown_direct = direct
                || g.direct_succ(r).iter().any(|n| members.contains(n))
                || g.direct_pred(r).iter().any(|n| members.contains(n));
            // Every member links to `r` and `r` to every member (itself
            // included) iff both of its sets hold all of `W ∪ {r}`.
            let grown_linked =
                linked && members.is_subset(closure.succ(r)) && members.is_subset(closure.pred(r));
            if !grown_direct || grown_linked {
                w.push(r);
                (direct, linked) = (grown_direct, grown_linked);
                continue;
            }
        }
        in_w.remove(r);
    }
    (w, direct)
}

/// The whole-set disjunction search that [`disjunction_members`]
/// replaced, kept as the oracle for it: each candidate set is checked
/// from scratch. Setting [`ENABLED`](reference::ENABLED) on a test thread
/// makes the rewrite rule use it.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use dtdinfer_automata::gfa::NodeSet;
    use std::cell::Cell;

    thread_local! {
        /// Whether this thread's disjunction rule runs the reference search.
        pub(crate) static ENABLED: Cell<bool> = const { Cell::new(false) };
    }

    /// The reference counterpart of [`disjunction_members`].
    pub(crate) fn disjunction_members(g: &Gfa, closure: &Closure) -> Option<(Vec<NodeId>, bool)> {
        let nodes: Vec<NodeId> = g.inner_nodes().collect();
        for (i, &r1) in nodes.iter().enumerate() {
            for &r2 in &nodes[i + 1..] {
                if !disjunction_compatible(g, closure, &[r1, r2]) {
                    continue;
                }
                // Extend to a maximal compatible set.
                let mut w = vec![r1, r2];
                for &r in &nodes {
                    if !w.contains(&r) {
                        w.push(r);
                        if !disjunction_compatible(g, closure, &w) {
                            w.pop();
                        }
                    }
                }
                let member_set: BTreeSet<NodeId> = w.iter().copied().collect();
                let internal = w
                    .iter()
                    .any(|&m| g.direct_succ(m).iter().any(|t| member_set.contains(t)));
                return Some((w, internal));
            }
        }
        None
    }

    /// Whether `w` satisfies the disjunction precondition.
    fn disjunction_compatible(g: &Gfa, closure: &Closure, w: &[NodeId]) -> bool {
        let wset: BTreeSet<NodeId> = w.iter().copied().collect();
        let external = |set: NodeSet<'_>| -> Vec<NodeId> {
            set.iter().filter(|n| !wset.contains(n)).collect()
        };
        let pred0 = external(closure.pred(w[0]));
        let succ0 = external(closure.succ(w[0]));
        for &r in &w[1..] {
            if external(closure.pred(r)) != pred0 || external(closure.succ(r)) != succ0 {
                return false;
            }
        }
        let any_direct = w
            .iter()
            .any(|&m| g.direct_succ(m).iter().any(|t| wset.contains(t)));
        if !any_direct {
            return true; // case (i): no edges in G between members at all
        }
        // Case (ii): every ordered pair (including self-pairs) connected in G*.
        w.iter()
            .all(|&a| w.iter().all(|&b| closure.succ(a).contains(&b)))
    }
}

/// **optional**: a non-nullable state `r` such that everything reachable
/// through `r` from any closure predecessor is also reachable directly
/// (`Succ(r) ⊆ Succ(r')` for every `r' ∈ Pred(r)`) becomes `r?`; the bypass
/// edges `(r', r'')` with `r' ∈ Pred(r) \ {r}`, `r'' ∈ Succ(r) \ {r}` are
/// deleted.
fn try_optional(g: &mut Gfa, closure: &Closure) -> Option<Step> {
    let candidate = g.inner_nodes().find(|&n| {
        let preds = closure.pred(n);
        if preds.is_empty() {
            return false;
        }
        let succs = closure.succ(n);
        let precondition = preds
            .iter()
            .filter(|&p| p != n)
            .all(|p| succs.is_subset(closure.succ(p)));
        if !precondition {
            return false;
        }
        if !g.label(n).nullable() {
            return true; // relabeling to r? is progress by itself
        }
        // Already-nullable labels only qualify when the action removes at
        // least one bypass edge (otherwise the rule would loop forever).
        preds
            .iter()
            .filter(|&p| p != n)
            .any(|p| succs.iter().any(|s| s != n && g.has_edge(p, s)))
    });
    let n = candidate?;
    let preds: Vec<NodeId> = closure.pred(n).iter().filter(|&p| p != n).collect();
    let succs: Vec<NodeId> = closure.succ(n).iter().filter(|&s| s != n).collect();
    let old = g.label(n).clone();
    let new_label = normalize(&Regex::Optional(Box::new(old.clone())));
    g.set_label(n, new_label.clone());
    for &p in &preds {
        for &s in &succs {
            g.remove_edge(p, s);
        }
    }
    Some(Step {
        rule: Rule::Optional,
        operands: vec![old],
        result: new_label,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_automata::dfa::soa_equiv_regex;
    use dtdinfer_automata::glushkov::soa_of_sore;
    use dtdinfer_regex::alphabet::Alphabet;
    use dtdinfer_regex::alphabet::Sym;
    use dtdinfer_regex::classify::is_sore;
    use dtdinfer_regex::display::render;
    use dtdinfer_regex::normalize::equiv_commutative;
    use dtdinfer_regex::parser::parse;
    use proptest::prelude::*;

    fn learned(words: &[&str]) -> (Soa, Alphabet) {
        let mut al = Alphabet::new();
        let ws: Vec<_> = words.iter().map(|w| al.word_from_chars(w)).collect();
        (Soa::learn(&ws), al)
    }

    /// §1.3 / Figure 3: the Figure 1 automaton rewrites to (‡).
    #[test]
    fn figure3_execution() {
        let (soa, mut al) = learned(&["bacacdacde", "cbacdbacde", "abccaadcde"]);
        let r = rewrite_soa(&soa).expect("equivalent SORE exists");
        let target = parse("((b? (a|c))+ d)+ e", &mut al).unwrap();
        assert!(
            equiv_commutative(&r, &target),
            "got {} instead",
            render(&r, &al)
        );
    }

    /// Theorem 1 on a battery of SOREs: Glushkov → rewrite recovers an
    /// equivalent SORE.
    #[test]
    fn roundtrip_battery() {
        for src in [
            "a",
            "a b",
            "a | b",
            "a+",
            "a?",
            "a*",
            "(a | b)+ c",
            "a? b? c",
            "((b? (a|c))+ d)+ e",
            "a (b | c)* d+ (e | f)?",
            "(a+ | b)? c",
            "((a b) | c)+",
            "a1 (a2 | a3)+ (a4 | a5)",
            "(a (b | c)+)+",
            "((a? b)+ c?)+ d",
        ] {
            let mut al = Alphabet::new();
            let target = parse(src, &mut al).unwrap();
            let soa = soa_of_sore(&target).unwrap();
            let r = rewrite_soa(&soa).unwrap_or_else(|| panic!("rewrite failed on {src}"));
            assert!(is_sore(&r), "{src} produced non-SORE {}", render(&r, &al));
            assert!(
                soa_equiv_regex(&soa, &r),
                "{src}: language changed, got {}",
                render(&r, &al)
            );
        }
    }

    /// Figure 2's automaton has no equivalent SORE → rewrite must fail.
    #[test]
    fn figure2_fails() {
        let (soa, _) = learned(&["bacacdacde", "cbacdbacde"]);
        assert!(rewrite_soa(&soa).is_none());
    }

    #[test]
    fn single_symbol() {
        let (soa, al) = learned(&["a"]);
        let r = rewrite_soa(&soa).unwrap();
        assert_eq!(render(&r, &al), "a");
    }

    #[test]
    fn empty_word_only_has_no_regex() {
        let mut soa = Soa::new();
        soa.accepts_empty = true;
        assert!(rewrite_soa(&soa).is_none());
    }

    #[test]
    fn epsilon_in_language_handled_via_optional() {
        let (soa, al) = learned(&["a", ""]);
        let r = rewrite_soa(&soa).unwrap();
        assert_eq!(render(&r, &al), "a?");
    }

    #[test]
    fn star_output_postprocessed() {
        let mut al = Alphabet::new();
        let target = parse("a* b", &mut al).unwrap();
        let soa = soa_of_sore(&target).unwrap();
        let r = rewrite_soa(&soa).unwrap();
        // (a+)? must have been star-formed back to a*.
        assert_eq!(render(&r, &al), "a* b");
    }

    #[test]
    fn figure3_alternative_order_from_caption() {
        // Applying disjunction on the original automaton (before optional)
        // yields ((b?(a|c)+)+d)+e — same language.
        let (soa, mut al) = learned(&["bacacdacde", "cbacdbacde", "abccaadcde"]);
        let alt = parse("((b? (a|c)+)+ d)+ e", &mut al).unwrap();
        let r = rewrite_soa(&soa).unwrap();
        assert!(dtdinfer_automata::dfa::regex_equiv(&r, &alt));
    }

    #[test]
    fn rule_trace_reaches_final() {
        let (soa, _) = learned(&["ab", "b"]);
        let (mut g, _) = Gfa::from_soa(&soa);
        let mut rules = Vec::new();
        while let Some(step) = rewrite_step(&mut g) {
            rules.push(step.rule);
        }
        assert!(g.is_final(), "stuck after {rules:?}");
        assert!(!rules.is_empty());
    }

    #[test]
    fn concatenation_chain_merging() {
        let (soa, al) = learned(&["abcde"]);
        let r = rewrite_soa(&soa).unwrap();
        assert_eq!(render(&r, &al), "a b c d e");
    }

    #[test]
    fn disjunction_simple() {
        let (soa, al) = learned(&["a", "b", "c"]);
        let r = rewrite_soa(&soa).unwrap();
        let mut alts: Vec<&str> = Vec::new();
        if let Regex::Union(parts) = &r {
            for p in parts {
                if let Regex::Symbol(s) = p {
                    alts.push(al.name(*s));
                }
            }
        }
        alts.sort_unstable();
        assert_eq!(alts, vec!["a", "b", "c"]);
    }

    #[test]
    fn self_loop_plus() {
        let (soa, al) = learned(&["a", "aa"]);
        let r = rewrite_soa(&soa).unwrap();
        assert_eq!(render(&r, &al), "a+");
    }

    #[test]
    fn alternating_language_has_no_sore() {
        // {ab, ba, a, b, aba} induces the alternating-word automaton, whose
        // language is not expressible single-occurrence: rewrite must fail
        // (and iDTD then super-approximates it, see the idtd tests).
        let (soa, _) = learned(&["ab", "ba", "a", "b", "aba"]);
        assert!(rewrite_soa(&soa).is_none());
    }

    /// iDTD over `soa` with the incremental disjunction search and with
    /// the reference one: the models and every event, rewrite steps
    /// (rule, operands, result) and repairs alike, must agree.
    fn assert_searches_agree(soa: &Soa) {
        use crate::idtd::{idtd_traced, IdtdConfig};
        let fast = idtd_traced(soa, IdtdConfig::default());
        reference::ENABLED.set(true);
        let slow = idtd_traced(soa, IdtdConfig::default());
        reference::ENABLED.set(false);
        assert_eq!(fast, slow, "{soa:?}");
    }

    /// Every SOA over one and two symbols: the edge menu of
    /// `tests/tests/exhaustive_soa.rs` (source and sink edges, every inner
    /// pair including self-loops, and the ε edge), all subsets.
    #[test]
    fn disjunction_search_matches_reference_exhaustively() {
        for n in 1..=2u32 {
            let syms: Vec<Sym> = (0..n).map(Sym).collect();
            let mut menu: Vec<(Option<Sym>, Option<Sym>)> = Vec::new();
            for &s in &syms {
                menu.push((None, Some(s)));
                menu.push((Some(s), None));
            }
            for &a in &syms {
                for &b in &syms {
                    menu.push((Some(a), Some(b)));
                }
            }
            menu.push((None, None));
            for mask in 0..1u32 << menu.len() {
                let mut soa = Soa::new();
                for (i, &edge) in menu.iter().enumerate() {
                    if mask & (1 << i) == 0 {
                        continue;
                    }
                    match edge {
                        (None, None) => soa.accepts_empty = true,
                        (None, Some(b)) => {
                            soa.initial.insert(b);
                            soa.states.insert(b);
                        }
                        (Some(a), None) => {
                            soa.finals.insert(a);
                            soa.states.insert(a);
                        }
                        (Some(a), Some(b)) => {
                            soa.edges.insert((a, b));
                            soa.states.insert(a);
                            soa.states.insert(b);
                        }
                    }
                }
                assert_searches_agree(&soa);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random SOAs over up to 8 symbols, from sparse to dense.
        #[test]
        fn disjunction_search_matches_reference_on_random_soas(
            n in 1u32..9,
            initial in prop::collection::vec(0u32..8, 1..4),
            finals in prop::collection::vec(0u32..8, 1..4),
            edges in prop::collection::vec((0u32..8, 0u32..8), 0..40),
            accepts_empty in 0u32..2,
        ) {
            let sym = |i: u32| Sym(i % n);
            let soa = Soa::from_parts(
                initial.into_iter().map(sym),
                finals.into_iter().map(sym),
                edges.into_iter().map(|(a, b)| (sym(a), sym(b))),
                accepts_empty == 1,
            );
            assert_searches_agree(&soa);
        }
    }

    /// A 150-way union behind a header (the shape of a feed of record
    /// types), and a 40-way repeated union whose members all link to each
    /// other (case ii at scale).
    #[test]
    fn disjunction_search_matches_reference_on_wide_unions() {
        let header = Sym(0);
        let records: Vec<Sym> = (1..=150).map(Sym).collect();
        let union = Soa::from_parts(
            [header],
            records.iter().copied(),
            records.iter().map(|&r| (header, r)),
            false,
        );
        assert_searches_agree(&union);
        let looped: Vec<Sym> = (0..40).map(Sym).collect();
        let repeated = Soa::from_parts(
            looped.iter().copied(),
            looped.iter().copied(),
            looped
                .iter()
                .flat_map(|&a| looped.iter().map(move |&b| (a, b))),
            false,
        );
        assert_searches_agree(&repeated);
    }

    #[test]
    fn mutual_loop_with_repeats_is_repeated_disjunction() {
        let (soa, mut al) = learned(&["ab", "ba", "a", "b", "aa", "bb"]);
        let r = rewrite_soa(&soa).unwrap();
        assert!(soa_equiv_regex(&soa, &r));
        let target = parse("(a | b)+", &mut al).unwrap();
        assert!(equiv_commutative(&r, &target));
    }
}
