//! Automata substrate for DTD inference.
//!
//! Implements every automaton representation the paper relies on:
//!
//! * [`soa`] — *single occurrence automata* (state-labeled graphs with one
//!   state per element name, §3) and the **2T-INF** inference algorithm of
//!   García & Vidal (§4) that learns the unique SOA of a 2-testable language
//!   from positive words.
//! * [`glushkov`] — Glushkov construction; for a SORE it yields exactly the
//!   SOA of Proposition 1.
//! * [`gfa`] — *generalized finite automata* whose states carry regular
//!   expressions, with the ε-closure and predecessor/successor machinery of
//!   §5 that the `rewrite` system (in `dtdinfer-core`) operates on.
//! * [`state_elim`] — the classical state-elimination translation to REs
//!   (Hopcroft–Ullman), included to demonstrate the exponential blow-up the
//!   paper contrasts against (expression (†) of §1.3).
//! * [`nfa`] / [`dfa`] — position NFAs, subset construction, DFA product,
//!   language equivalence and inclusion. These are the verification
//!   backbone: every claim of the form `L(A) = L(r)` or `L(A) ⊆ L(r)` in
//!   the test suite, and every comparison `diff` makes, is decided on the
//!   product of two DFAs; nothing here minimizes or complements one.
//! * [`ktestable`] — k-testable languages in the strict sense, whose
//!   k = 2 case is the SOA.

#![warn(missing_docs)]

pub mod dfa;
pub mod gfa;
pub mod glushkov;
pub mod ktestable;
pub mod nfa;
pub mod soa;
pub mod state_elim;

pub use dfa::Dfa;
pub use gfa::{Gfa, NodeId};
pub use glushkov::soa_of_sore;
pub use nfa::Nfa;
pub use soa::Soa;
