//! Core inference algorithms of "Inference of Concise DTDs from XML Data"
//! (Bex, Neven, Schwentick, Tuyls — VLDB 2006).
//!
//! * [`mod@rewrite`] — the SOA→SORE graph-rewrite system of §5 (Algorithm 1,
//!   Theorem 1): four rules (disjunction, concatenation, self-loop,
//!   optional) that transform a single occurrence automaton into an
//!   equivalent single occurrence regular expression whenever one exists.
//! * [`mod@idtd`] — the iDTD algorithm of §6 (Algorithm 2, Theorem 2): `rewrite`
//!   plus the repair rules *enable-disjunction* and *enable-optional* that
//!   compute a SORE super-approximation when the sample was not
//!   representative.
//! * [`mod@crx`] — the CRX algorithm of §7 (Algorithm 3, Theorems 3–5): direct
//!   inference of chain regular expressions (CHAREs) from words via the
//!   induced partial order on alphabet symbols, without any automaton
//!   intermediate.
//! * [`mod@kore`] — the k-ORE extension (the direct successor paper, Bex,
//!   Gelade, Neven, Vansummeren): k-occurrence automata over a marked
//!   alphabet, rewritten into deterministic k-occurrence regular
//!   expressions, plus the MDL model chooser behind `--engine auto`.
//! * [`noise`] — the §9 extension for noisy data: supports on SOA edges and
//!   symbols, with threshold-based pruning and a support-aware iDTD.
//!
//! Every learner here is a pure function of the counted word multiset it
//! absorbs, so §9's incremental computation needs no learner state: the
//! callers keep the multiset (`WordBag`) and rebuild a learner from it
//! whenever a model is asked for. The `incremental` tests pin that.

#![warn(missing_docs)]

pub mod crx;
pub mod idtd;
#[cfg(test)]
mod incremental;
pub mod kore;
pub mod model;
pub mod noise;
pub mod rewrite;

pub use crx::{crx, crx_factors};
pub use idtd::{idtd, idtd_from_words, IdtdConfig};
pub use kore::{KoreOutcome, KoreState};
pub use model::InferredModel;
pub use rewrite::{rewrite, rewrite_soa};
