//! # wtq-explain
//!
//! Query-to-utterance explanations (§5.1, Table 3, Figure 3).
//!
//! The paper converts each candidate lambda DCS query into a detailed natural
//! language utterance by augmenting the parser's context-free grammar: the
//! right-hand side of each deduction rule carries an NL template, and the
//! utterance of a formula is read off the yield of its derivation tree. This
//! crate reproduces that mechanism:
//!
//! * [`grammar`] — the rule catalogue of Table 3: one NL template per lambda
//!   DCS operator (plus the special-cased difference phrasings),
//! * [`derive`](mod@derive) — construction of the [`derive::DerivationNode`] tree for a
//!   formula (the right-hand tree of Figure 3) and the utterance read off its
//!   yield,
//! * [`utter`] — the one-call convenience API used everywhere else in the
//!   workspace.
//!
//! Utterances are deliberately verbose ("maximum of values in column Year in
//! rows where value of column Country is Greece"): the paper accepts the
//! clumsy syntax in exchange for making the query semantics unambiguous to a
//! non-expert.

pub mod derive;
pub mod grammar;

pub use derive::{derivation, DerivationNode};
pub use grammar::{rule_catalogue, GrammarRule};

use wtq_dcs::Formula;

/// Generate the NL utterance explaining `formula`.
///
/// ```
/// use wtq_dcs::parse_formula;
/// let q = parse_formula("max(R[Year].Country.Greece)").unwrap();
/// assert_eq!(
///     wtq_explain::utter(&q),
///     "maximum of values in column Year in rows where value of column Country is Greece"
/// );
/// ```
pub fn utter(formula: &Formula) -> String {
    derivation(formula).utterance()
}
