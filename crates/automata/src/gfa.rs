//! Generalized finite automata (§5).
//!
//! A GFA is an `RE(Σ)`-labeled graph with distinguished source and sink; the
//! semantics reads every edge as carrying the regular expression of the node
//! it points to. A GFA is *single occurrence* when every label is a SORE and
//! the labels use pairwise disjoint symbols. The `rewrite` system of
//! `dtdinfer-core` operates on this structure; this module provides the
//! graph itself plus the ε-closure and `Pred`/`Succ` sets the rule
//! preconditions are stated over.

use crate::soa::Soa;
use dtdinfer_regex::alphabet::Sym;
use dtdinfer_regex::ast::Regex;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Identifier of a GFA node. `SOURCE` and `SINK` are reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// The unique initial node (unlabeled).
pub const SOURCE: NodeId = NodeId(0);
/// The unique final node (unlabeled).
pub const SINK: NodeId = NodeId(1);

impl NodeId {
    /// Whether this is the source or sink.
    pub fn is_endpoint(self) -> bool {
        self == SOURCE || self == SINK
    }
}

/// A generalized finite automaton with RE-labeled states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gfa {
    labels: BTreeMap<NodeId, Regex>,
    succ: BTreeMap<NodeId, BTreeSet<NodeId>>,
    pred: BTreeMap<NodeId, BTreeSet<NodeId>>,
    next_id: u32,
}

impl Default for Gfa {
    fn default() -> Self {
        Self::new()
    }
}

impl Gfa {
    /// An empty GFA with only source and sink.
    pub fn new() -> Self {
        let mut succ = BTreeMap::new();
        let mut pred = BTreeMap::new();
        succ.insert(SOURCE, BTreeSet::new());
        succ.insert(SINK, BTreeSet::new());
        pred.insert(SOURCE, BTreeSet::new());
        pred.insert(SINK, BTreeSet::new());
        Gfa {
            labels: BTreeMap::new(),
            succ,
            pred,
            next_id: 2,
        }
    }

    /// Converts an SOA into the equivalent single occurrence GFA (every SOA
    /// is a single occurrence GFA whose labels are alphabet symbols).
    /// Returns the GFA and the node assigned to each symbol.
    pub fn from_soa(soa: &Soa) -> (Self, HashMap<Sym, NodeId>) {
        let mut g = Gfa::new();
        let mut node_of = HashMap::new();
        for &s in &soa.states {
            node_of.insert(s, g.add_node(Regex::sym(s)));
        }
        for &s in &soa.initial {
            g.add_edge(SOURCE, node_of[&s]);
        }
        for &(a, b) in &soa.edges {
            g.add_edge(node_of[&a], node_of[&b]);
        }
        for &s in &soa.finals {
            g.add_edge(node_of[&s], SINK);
        }
        if soa.accepts_empty {
            g.add_edge(SOURCE, SINK);
        }
        (g, node_of)
    }

    /// Adds a labeled inner node.
    pub fn add_node(&mut self, label: Regex) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.labels.insert(id, label);
        self.succ.insert(id, BTreeSet::new());
        self.pred.insert(id, BTreeSet::new());
        id
    }

    /// Adds an edge (idempotent).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.succ.get_mut(&from).expect("from exists").insert(to);
        self.pred.get_mut(&to).expect("to exists").insert(from);
    }

    /// Removes an edge if present.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) {
        if let Some(s) = self.succ.get_mut(&from) {
            s.remove(&to);
        }
        if let Some(p) = self.pred.get_mut(&to) {
            p.remove(&from);
        }
    }

    /// Removes an inner node and all incident edges.
    pub fn remove_node(&mut self, id: NodeId) {
        assert!(!id.is_endpoint(), "cannot remove source/sink");
        let outgoing: Vec<NodeId> = self
            .succ
            .remove(&id)
            .unwrap_or_default()
            .into_iter()
            .collect();
        for to in outgoing {
            if let Some(p) = self.pred.get_mut(&to) {
                p.remove(&id);
            }
        }
        let incoming: Vec<NodeId> = self
            .pred
            .remove(&id)
            .unwrap_or_default()
            .into_iter()
            .collect();
        for from in incoming {
            if let Some(s) = self.succ.get_mut(&from) {
                s.remove(&id);
            }
        }
        self.labels.remove(&id);
    }

    /// Whether the edge exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.succ.get(&from).is_some_and(|s| s.contains(&to))
    }

    /// Label of an inner node.
    pub fn label(&self, id: NodeId) -> &Regex {
        &self.labels[&id]
    }

    /// Replaces the label of an inner node.
    pub fn set_label(&mut self, id: NodeId, label: Regex) {
        *self.labels.get_mut(&id).expect("inner node") = label;
    }

    /// Inner (labeled) nodes in ascending id order (deterministic).
    pub fn inner_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.labels.keys().copied()
    }

    /// Number of inner nodes.
    pub fn num_inner(&self) -> usize {
        self.labels.len()
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.succ.values().map(BTreeSet::len).sum()
    }

    /// Direct successors.
    pub fn direct_succ(&self, id: NodeId) -> &BTreeSet<NodeId> {
        &self.succ[&id]
    }

    /// Direct predecessors.
    pub fn direct_pred(&self, id: NodeId) -> &BTreeSet<NodeId> {
        &self.pred[&id]
    }

    /// All edges in deterministic order.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        self.succ
            .iter()
            .flat_map(|(&from, tos)| tos.iter().map(move |&to| (from, to)))
            .collect()
    }

    /// Whether the GFA is *final*: exactly one inner node `r`, with edges
    /// exactly `source→r` and `r→sink`.
    pub fn is_final(&self) -> bool {
        if self.labels.len() != 1 {
            return false;
        }
        let r = *self.labels.keys().next().expect("one node");
        self.num_edges() == 2 && self.has_edge(SOURCE, r) && self.has_edge(r, SINK)
    }

    /// The expression of a final GFA.
    pub fn final_regex(&self) -> Option<&Regex> {
        if self.is_final() {
            self.labels.values().next()
        } else {
            None
        }
    }

    /// Whether a node's label can iterate (is `s+`, `s*` or `(s+)?`),
    /// contributing the closure self-edge of §5 rule (i).
    fn label_iterates(r: &Regex) -> bool {
        match r {
            Regex::Plus(_) | Regex::Star(_) => true,
            Regex::Optional(inner) => matches!(&**inner, Regex::Plus(_) | Regex::Star(_)),
            _ => false,
        }
    }

    /// Computes the ε-closure `G*` of §5: `E*` contains (i) self-edges
    /// `(r,r)` for iterating labels, and (ii) `(r,r')` whenever a path from
    /// `r` to `r'` passes only intermediate nodes with ε in their language.
    pub fn closure(&self) -> Closure {
        let ids = self.next_id as usize;
        let width = ids.div_ceil(64);
        let mut closure = Closure {
            width,
            succ: vec![0; ids * width],
            pred: vec![0; ids * width],
        };
        let mut nullable = vec![false; ids];
        for (&id, label) in &self.labels {
            nullable[id.0 as usize] = label.nullable();
        }
        let mut stack: Vec<NodeId> = Vec::new();
        for (&u, direct) in &self.succ {
            // DFS from u, continuing through nullable intermediates.
            let row = closure.row_mut(u);
            stack.extend(direct.iter().copied());
            while let Some(v) = stack.pop() {
                let (word, bit) = bit_of(v);
                if row[word] & bit != 0 {
                    continue;
                }
                row[word] |= bit;
                if nullable[v.0 as usize] {
                    stack.extend(self.succ[&v].iter().copied());
                }
            }
        }
        for (&id, label) in &self.labels {
            if Self::label_iterates(label) {
                let (word, bit) = bit_of(id);
                closure.row_mut(id)[word] |= bit;
            }
        }
        for &u in self.succ.keys() {
            let (word, bit) = bit_of(u);
            let start = u.0 as usize * closure.width;
            for v in NodeSet(&closure.succ[start..start + closure.width]).iter() {
                closure.pred[v.0 as usize * closure.width + word] |= bit;
            }
        }
        closure
    }

    /// Graphviz rendering.
    pub fn to_dot(&self, alphabet: &dtdinfer_regex::alphabet::Alphabet) -> String {
        use dtdinfer_regex::display::render;
        let mut out = String::from("digraph gfa {\n  rankdir=LR;\n  n0 [shape=point];\n  n1 [shape=doublecircle, label=\"\"];\n");
        for (&id, label) in &self.labels {
            out.push_str(&format!(
                "  n{} [label=\"{}\"];\n",
                id.0,
                render(label, alphabet).replace('"', "\\\"")
            ));
        }
        for (from, to) in self.edges() {
            out.push_str(&format!("  n{} -> n{};\n", from.0, to.0));
        }
        out.push_str("}\n");
        out
    }
}

/// The word and bit of `id` in a bit row.
fn bit_of(id: NodeId) -> (usize, u64) {
    (id.0 as usize / 64, 1 << (id.0 % 64))
}

/// The ε-closure `G*`: predecessor and successor sets per node (§5), as
/// dense bit rows indexed by node id, so the rule preconditions compare,
/// intersect and test sets a word at a time.
#[derive(Debug, Clone)]
pub struct Closure {
    /// Words per row: enough bits for every node id the GFA has allocated.
    width: usize,
    succ: Vec<u64>,
    pred: Vec<u64>,
}

impl Closure {
    /// `Pred(r)`: predecessors of `r` in `G*`.
    pub fn pred(&self, id: NodeId) -> NodeSet<'_> {
        let start = id.0 as usize * self.width;
        NodeSet(&self.pred[start..start + self.width])
    }

    /// `Succ(r)`: successors of `r` in `G*`.
    pub fn succ(&self, id: NodeId) -> NodeSet<'_> {
        let start = id.0 as usize * self.width;
        NodeSet(&self.succ[start..start + self.width])
    }

    /// An empty set as wide as the closure's rows, to collect nodes in.
    pub fn empty_set(&self) -> NodeBits {
        NodeBits(vec![0; self.width])
    }

    fn row_mut(&mut self, id: NodeId) -> &mut [u64] {
        let start = id.0 as usize * self.width;
        &mut self.succ[start..start + self.width]
    }
}

/// A set of nodes: one bit row of a [`Closure`], or a [`NodeBits`] of the
/// same width. Set operations between two sets need equal widths.
#[derive(Debug, Clone, Copy)]
pub struct NodeSet<'a>(&'a [u64]);

impl<'a> NodeSet<'a> {
    /// Whether `id` is in the set.
    pub fn contains(self, id: &NodeId) -> bool {
        let (word, bit) = bit_of(*id);
        self.0.get(word).is_some_and(|w| w & bit != 0)
    }

    /// The members in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> + 'a {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    NodeId(i as u32 * 64 + bit)
                })
            })
        })
    }

    /// Whether the set has no members.
    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Whether every member of `self` is in `other`.
    pub fn is_subset(self, other: NodeSet<'_>) -> bool {
        self.0.iter().zip(other.0).all(|(a, b)| a & !b == 0)
    }

    /// Whether the two sets share no member.
    pub fn is_disjoint(self, other: NodeSet<'_>) -> bool {
        self.0.iter().zip(other.0).all(|(a, b)| a & b == 0)
    }

    /// Number of members of `self` not in `other`.
    pub fn difference_len(self, other: NodeSet<'_>) -> usize {
        self.0
            .iter()
            .zip(other.0)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Whether `self` and `other` hold the same nodes outside `skip`.
    pub fn eq_outside(self, other: NodeSet<'_>, skip: NodeSet<'_>) -> bool {
        self.0
            .iter()
            .zip(other.0)
            .zip(skip.0)
            .all(|((a, b), s)| (a ^ b) & !s == 0)
    }
}

/// An owned, growable-in-place node set as wide as a [`Closure`]'s rows
/// (see [`Closure::empty_set`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBits(Vec<u64>);

impl NodeBits {
    /// Adds `id`.
    pub fn insert(&mut self, id: NodeId) {
        let (word, bit) = bit_of(id);
        self.0[word] |= bit;
    }

    /// Removes `id`.
    pub fn remove(&mut self, id: NodeId) {
        let (word, bit) = bit_of(id);
        self.0[word] &= !bit;
    }

    /// The set as a [`NodeSet`].
    pub fn as_set(&self) -> NodeSet<'_> {
        NodeSet(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdinfer_regex::alphabet::Alphabet;
    use proptest::prelude::*;

    /// The closure as node-keyed sorted sets, computed the way the bit
    /// rows replaced: the reference the rows are checked against.
    fn reference_closure(g: &Gfa) -> BTreeMap<NodeId, (BTreeSet<NodeId>, BTreeSet<NodeId>)> {
        let nullable: BTreeSet<NodeId> = g
            .labels
            .iter()
            .filter(|(_, r)| r.nullable())
            .map(|(&id, _)| id)
            .collect();
        let mut sets: BTreeMap<NodeId, (BTreeSet<NodeId>, BTreeSet<NodeId>)> =
            g.succ.keys().map(|&id| (id, Default::default())).collect();
        for &u in g.succ.keys() {
            let mut stack: Vec<NodeId> = g.succ[&u].iter().copied().collect();
            let mut reached: BTreeSet<NodeId> = BTreeSet::new();
            while let Some(v) = stack.pop() {
                if reached.insert(v) && nullable.contains(&v) {
                    stack.extend(g.succ[&v].iter().copied());
                }
            }
            for v in reached {
                sets.get_mut(&u).expect("node").1.insert(v);
                sets.get_mut(&v).expect("node").0.insert(u);
            }
        }
        for (&id, label) in &g.labels {
            if Gfa::label_iterates(label) {
                let entry = sets.get_mut(&id).expect("node");
                entry.0.insert(id);
                entry.1.insert(id);
            }
        }
        sets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bit rows hold the reference closure's sets, on random
        /// graphs whose labels are plain, nullable or iterating, after
        /// node removals have left gaps in the ids.
        #[test]
        fn closure_rows_match_reference(
            kinds in prop::collection::vec(0u32..4, 1..80),
            edges in prop::collection::vec((0usize..82, 0usize..82), 0..160),
            removed in prop::collection::vec(0usize..80, 0..4),
        ) {
            let mut g = Gfa::new();
            let mut ids = vec![SOURCE, SINK];
            for (i, kind) in kinds.iter().enumerate() {
                let sym = Regex::sym(Sym(i as u32));
                ids.push(g.add_node(match kind {
                    0 => sym,
                    1 => Regex::optional(sym),
                    2 => Regex::plus(sym),
                    _ => Regex::star(sym),
                }));
            }
            for (a, b) in edges {
                let (from, to) = (ids[a % ids.len()], ids[b % ids.len()]);
                if from != SINK && to != SOURCE {
                    g.add_edge(from, to);
                }
            }
            for r in removed {
                let id = ids[2 + r % kinds.len()];
                if g.labels.contains_key(&id) {
                    g.remove_node(id);
                }
            }
            let closure = g.closure();
            for (&id, (pred, succ)) in &reference_closure(&g) {
                prop_assert_eq!(&closure.pred(id).iter().collect::<BTreeSet<_>>(), pred);
                prop_assert_eq!(&closure.succ(id).iter().collect::<BTreeSet<_>>(), succ);
            }
        }
    }

    fn letters(n: usize) -> (Alphabet, Vec<Sym>) {
        let mut al = Alphabet::new();
        let syms = (0..n)
            .map(|i| al.intern(&((b'a' + i as u8) as char).to_string()))
            .collect();
        (al, syms)
    }

    #[test]
    fn from_soa_structure() {
        let (mut al, _) = letters(0);
        let words = vec![al.word_from_chars("ab"), al.word_from_chars("b")];
        let soa = Soa::learn(&words);
        let (g, node_of) = Gfa::from_soa(&soa);
        let (a, b) = (al.get("a").unwrap(), al.get("b").unwrap());
        assert_eq!(g.num_inner(), 2);
        assert!(g.has_edge(SOURCE, node_of[&a]));
        assert!(g.has_edge(SOURCE, node_of[&b]));
        assert!(g.has_edge(node_of[&a], node_of[&b]));
        assert!(g.has_edge(node_of[&b], SINK));
        assert!(!g.has_edge(node_of[&a], SINK));
    }

    #[test]
    fn final_detection() {
        let (_, syms) = letters(1);
        let mut g = Gfa::new();
        let n = g.add_node(Regex::sym(syms[0]));
        g.add_edge(SOURCE, n);
        g.add_edge(n, SINK);
        assert!(g.is_final());
        assert_eq!(g.final_regex(), Some(&Regex::sym(syms[0])));
        // An extra edge breaks finality.
        g.add_edge(SOURCE, SINK);
        assert!(!g.is_final());
    }

    #[test]
    fn closure_through_nullable() {
        // source -> a -> b? -> c -> sink : closure must contain (a, c).
        let (_, syms) = letters(3);
        let mut g = Gfa::new();
        let a = g.add_node(Regex::sym(syms[0]));
        let b = g.add_node(Regex::optional(Regex::sym(syms[1])));
        let c = g.add_node(Regex::sym(syms[2]));
        g.add_edge(SOURCE, a);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, SINK);
        let cl = g.closure();
        assert!(cl.succ(a).contains(&c));
        assert!(cl.pred(c).contains(&a));
        assert!(cl.succ(a).contains(&b));
        // But not (source, c): the path passes the non-nullable node a.
        assert!(!cl.succ(SOURCE).contains(&c));
        assert!(!cl.succ(SOURCE).contains(&SINK));
    }

    #[test]
    fn closure_self_edges_for_iterating_labels() {
        let (_, syms) = letters(2);
        let mut g = Gfa::new();
        let p = g.add_node(Regex::plus(Regex::sym(syms[0])));
        let q = g.add_node(Regex::sym(syms[1]));
        g.add_edge(SOURCE, p);
        g.add_edge(p, q);
        g.add_edge(q, SINK);
        let cl = g.closure();
        assert!(cl.succ(p).contains(&p), "s+ node gets closure self-edge");
        assert!(!cl.succ(q).contains(&q));
        // (s+)? also iterates:
        g.set_label(
            p,
            Regex::Optional(Box::new(Regex::plus(Regex::sym(syms[0])))),
        );
        let cl = g.closure();
        assert!(cl.succ(p).contains(&p));
    }

    #[test]
    fn remove_node_cleans_edges() {
        let (_, syms) = letters(2);
        let mut g = Gfa::new();
        let a = g.add_node(Regex::sym(syms[0]));
        let b = g.add_node(Regex::sym(syms[1]));
        g.add_edge(SOURCE, a);
        g.add_edge(a, b);
        g.add_edge(b, SINK);
        g.remove_node(a);
        assert_eq!(g.num_inner(), 1);
        assert!(!g.has_edge(SOURCE, a));
        assert!(g.direct_pred(b).is_empty());
    }

    #[test]
    fn closure_includes_direct_edges() {
        let (_, syms) = letters(2);
        let mut g = Gfa::new();
        let a = g.add_node(Regex::sym(syms[0]));
        let b = g.add_node(Regex::sym(syms[1]));
        g.add_edge(SOURCE, a);
        g.add_edge(a, b);
        g.add_edge(b, SINK);
        let cl = g.closure();
        assert!(cl.succ(a).contains(&b));
        assert!(cl.pred(b).contains(&a));
        assert!(cl.pred(a).contains(&SOURCE));
        assert!(cl.succ(b).contains(&SINK));
    }
}
