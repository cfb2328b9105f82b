//! Feature extraction `φ(x, T, z)` (Eq. 4), over interned feature ids.
//!
//! Features are sparse id → value pairs combining three signal sources, in
//! the style of the log-linear parsers the paper builds on:
//!
//! * **formula shape** — which operators the candidate uses, its size,
//! * **alignment with the question** — whether the candidate's constants and
//!   columns are actually mentioned in the question, and whether question
//!   trigger phrases ("how many", "difference", "highest", "right after", …)
//!   agree with the operators used,
//! * **denotation** — the type and size of the candidate's answer, matched
//!   against the question's wh-words.
//!
//! The hot path is engineered around two invariants:
//!
//! * a [`FeatureVec`] is a `Vec<(FeatureId, f64)>` sorted by id, and static
//!   ids are assigned in name order ([`crate::symbols`]), so iterating it
//!   reproduces the old `BTreeMap<String, f64>` iteration order exactly —
//!   dot products sum in the same sequence and scores stay bit-identical to
//!   [`crate::reference::extract_features_reference`];
//! * everything that depends only on the *question* (trigger phrase hits,
//!   wh-word expectations, link texts, column mentions) is computed once per
//!   question in a [`QuestionContext`] and shared by every candidate,
//!   instead of being re-derived per candidate as it historically was.
//!
//! Candidates are extracted as ids in a [`FormulaArena`]: one walk over a
//! candidate's nodes (a shared operand visited once per occurrence, as in
//! the tree) replaces the historical ~9 allocating `sub_formulas()`
//! traversals, and what a constant or column contributes — its lowered
//! text grounded in the question, the link texts it uses, whether a column
//! is mentioned — is worked out once per question and id, not once per
//! candidate. The public [`extract_features_in`] interns its
//! candidate's formula and runs the same extractor.

use std::collections::BTreeMap;

use wtq_dcs::{
    AggregateOp, Answer, ColumnId, ConstId, FormulaArena, FormulaId, Node, SuperlativeOp,
};
use wtq_table::{Table, Value};

use crate::candidates::{PoolCandidate, RawCandidate};
use crate::lexicon::QuestionAnalysis;
use crate::scratch::ScratchSpace;
use crate::symbols::{
    family_id, op_id, root_index, scalar_id, trig_id, FeatureId, Scalar, TrigSlot, NUM_ROOTS,
    NUM_TRIGGERS, TRIGGER_PHRASES, WANTS_NUMBER_PHRASES,
};

/// A sparse feature vector: `(FeatureId, f64)` pairs sorted by id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureVec {
    entries: Vec<(FeatureId, f64)>,
}

impl FeatureVec {
    /// An empty feature vector.
    pub fn new() -> FeatureVec {
        FeatureVec::default()
    }

    /// Build from unsorted pairs: stable-sorts by id and merges duplicate
    /// ids by summing their values in push order (the semantics of the old
    /// `bump` accumulation). `pairs` is drained but keeps its capacity, so
    /// callers can reuse it as a scratch buffer.
    pub fn from_pairs(pairs: &mut Vec<(FeatureId, f64)>) -> FeatureVec {
        let mut entries = Vec::with_capacity(pairs.len());
        merge_pairs(pairs, &mut entries);
        FeatureVec { entries }
    }

    /// A vector of entries already sorted by id and merged.
    pub(crate) fn from_sorted(entries: &[(FeatureId, f64)]) -> FeatureVec {
        FeatureVec {
            entries: entries.to_vec(),
        }
    }

    /// The `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> std::slice::Iter<'_, (FeatureId, f64)> {
        self.entries.iter()
    }

    /// Number of present features.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no features are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value of a feature by id.
    pub fn value(&self, id: FeatureId) -> Option<f64> {
        self.entries
            .binary_search_by_key(&id, |(i, _)| *i)
            .ok()
            .map(|index| self.entries[index].1)
    }

    /// The value of a feature by name (test/debug convenience).
    pub fn get(&self, name: &str) -> Option<f64> {
        crate::symbols::lookup(name).and_then(|id| self.value(id))
    }

    /// Dot product against a dense weight vector indexed by feature id.
    /// Ids beyond the dense vector's length weigh zero. Terms are summed in
    /// id order — which is name order — matching the reference walk.
    pub fn dot_dense(&self, weights: &[f64]) -> f64 {
        dot_dense(&self.entries, weights)
    }

    /// Merge-walk dot product against another sparse vector (both sorted by
    /// id), for sparse-sparse scoring without densification.
    pub fn dot_sparse(&self, other: &FeatureVec) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut total = 0.0;
        while i < self.entries.len() && j < other.entries.len() {
            let (a, av) = self.entries[i];
            let (b, bv) = other.entries[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    total += av * bv;
                    i += 1;
                    j += 1;
                }
            }
        }
        total
    }

    /// The vector as a name-keyed map (diagnostics and differential tests).
    pub fn to_named(&self) -> BTreeMap<String, f64> {
        self.entries
            .iter()
            .map(|&(id, value)| (crate::symbols::feature_name(id), value))
            .collect()
    }
}

/// Stable-sort unsorted `pairs` by id and append them to `out`, merging
/// duplicate ids by summing their values in push order. Drains `pairs`,
/// keeping its capacity.
fn merge_pairs(pairs: &mut Vec<(FeatureId, f64)>, out: &mut Vec<(FeatureId, f64)>) {
    pairs.sort_by_key(|(id, _)| *id);
    let start = out.len();
    for &(id, value) in pairs.iter() {
        match out[start..].last_mut() {
            Some((last, total)) if *last == id => *total += value,
            _ => out.push((id, value)),
        }
    }
    pairs.clear();
}

/// Dot product of sorted feature entries against dense weights indexed by
/// feature id; ids beyond the weights weigh zero. Terms are summed in id
/// order — which is name order — matching the reference walk.
pub(crate) fn dot_dense(entries: &[(FeatureId, f64)], weights: &[f64]) -> f64 {
    entries
        .iter()
        .map(|&(id, value)| value * weights.get(id.index()).copied().unwrap_or(0.0))
        .sum()
}

/// Everything about the *question* that feature extraction needs, computed
/// once per question instead of once per candidate: trigger-phrase hits,
/// the numeric-answer expectation, lowered value-link texts, rendered
/// number literals and per-column mention flags.
#[derive(Debug, Clone)]
pub struct QuestionContext {
    triggered: [bool; NUM_TRIGGERS],
    wants_number: bool,
    link_texts: Vec<String>,
    number_texts: Vec<String>,
    /// `(header, header appears in the lowered question)` per table column.
    columns: Vec<(String, bool)>,
}

impl QuestionContext {
    /// Precompute the question-level feature signals for one analysis.
    pub fn new(analysis: &QuestionAnalysis, table: &Table) -> QuestionContext {
        let mut triggered = [false; NUM_TRIGGERS];
        for (slot, phrases) in triggered.iter_mut().zip(TRIGGER_PHRASES.iter()) {
            *slot = analysis.mentions_any(phrases);
        }
        QuestionContext {
            triggered,
            wants_number: analysis.mentions_any(&WANTS_NUMBER_PHRASES),
            link_texts: analysis
                .value_links
                .iter()
                .map(|link| link.value.to_string().to_lowercase())
                .collect(),
            number_texts: analysis
                .numbers
                .iter()
                .map(|n| Value::Num(*n).to_string())
                .collect(),
            columns: (0..table.num_columns())
                .map(|column| {
                    let header = table.column_name(column).to_string();
                    let mentioned = analysis.lowered.contains(&header.to_lowercase());
                    (header, mentioned)
                })
                .collect(),
        }
    }

    /// Whether `column` (a header as mentioned by a formula) appears in the
    /// question. Falls back to a direct substring test for names that are
    /// not table headers (hand-written formulas), preserving the historical
    /// per-candidate semantics.
    fn column_mentioned(&self, analysis: &QuestionAnalysis, column: &str) -> bool {
        self.columns
            .iter()
            .find(|(header, _)| header == column)
            .map(|(_, mentioned)| *mentioned)
            .unwrap_or_else(|| analysis.lowered.contains(&column.to_lowercase()))
    }
}

/// What feature extraction needs to know about the constants and columns
/// of one arena for one question, worked out the first time a candidate
/// mentions each id; plus the per-candidate scratch of the walk.
#[derive(Debug, Default)]
pub(crate) struct IdFacts {
    constants: Vec<Option<ConstFacts>>,
    /// The link-text indices each constant equals, concatenated
    /// ([`ConstFacts::links`] indexes into it).
    const_links: Vec<u32>,
    columns: Vec<Option<ColumnFacts>>,
    /// Columns in the order first seen, to assign case-insensitive classes.
    seen_columns: Vec<ColumnId>,
    /// Per link text, the last candidate (by stamp) that used it.
    link_stamps: Vec<u32>,
    stamp: u32,
    /// Column classes the current candidate has mentioned.
    classes: Vec<u32>,
}

/// What one constant contributes to a candidate.
#[derive(Debug, Clone, Copy)]
struct ConstFacts {
    /// Its lowered text occurs in the question, or equals a number in it.
    grounded: bool,
    /// `const_links[start..end]`: the link texts equal to it.
    links: (u32, u32),
}

/// What one column name contributes to a candidate.
#[derive(Debug, Clone, Copy)]
struct ColumnFacts {
    /// The first column seen whose name equals this one ignoring ASCII
    /// case: [`wtq_dcs::Formula::columns_mentioned`]'s deduplication.
    class: u32,
    /// Whether the question mentions the column.
    mentioned: bool,
}

impl IdFacts {
    /// Forget every id: the next question (or arena) starts over. Keeps the
    /// allocated capacity.
    pub(crate) fn clear(&mut self) {
        self.constants.clear();
        self.const_links.clear();
        self.columns.clear();
        self.seen_columns.clear();
        self.link_stamps.clear();
        self.stamp = 0;
        self.classes.clear();
    }

    /// Start a candidate's walk.
    fn begin_candidate(&mut self, links: usize) {
        if self.link_stamps.len() != links {
            self.link_stamps.clear();
            self.link_stamps.resize(links, 0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.classes.clear();
    }

    /// Link texts the current candidate's constants never equal.
    fn unused_links(&self) -> usize {
        self.link_stamps
            .iter()
            .filter(|&&stamp| stamp != self.stamp)
            .count()
    }

    fn constant(
        &mut self,
        arena: &FormulaArena,
        analysis: &QuestionAnalysis,
        context: &QuestionContext,
        constant: ConstId,
    ) -> ConstFacts {
        let index = constant.index();
        if let Some(Some(facts)) = self.constants.get(index) {
            return *facts;
        }
        if self.constants.len() <= index {
            self.constants.resize(index + 1, None);
        }
        let lowered = arena.value(constant).to_string().to_lowercase();
        let start = self.const_links.len() as u32;
        for (link, link_text) in context.link_texts.iter().enumerate() {
            if *link_text == lowered {
                self.const_links.push(link as u32);
            }
        }
        let facts = ConstFacts {
            grounded: analysis.lowered.contains(lowered.as_str())
                || context.number_texts.contains(&lowered),
            links: (start, self.const_links.len() as u32),
        };
        self.constants[index] = Some(facts);
        facts
    }

    fn column(
        &mut self,
        arena: &FormulaArena,
        analysis: &QuestionAnalysis,
        context: &QuestionContext,
        column: ColumnId,
    ) -> ColumnFacts {
        let index = column.index();
        if let Some(Some(facts)) = self.columns.get(index) {
            return *facts;
        }
        if self.columns.len() <= index {
            self.columns.resize(index + 1, None);
        }
        let name = arena.column_name(column);
        let class = self
            .seen_columns
            .iter()
            .find(|seen| arena.column_name(**seen).eq_ignore_ascii_case(name))
            .map_or(index as u32, |seen| seen.index() as u32);
        self.seen_columns.push(column);
        let facts = ColumnFacts {
            class,
            mentioned: context.column_mentioned(analysis, name),
        };
        self.columns[index] = Some(facts);
        facts
    }
}

/// What the walk over one candidate's nodes collects.
#[derive(Debug, Default)]
struct WalkFacts {
    op_counts: [u32; NUM_ROOTS],
    max_aggregate: bool,
    min_aggregate: bool,
    sum: bool,
    avg: bool,
    argmax: bool,
    argmin: bool,
    last: bool,
    first: bool,
    /// Constant occurrences, and how many of them are grounded.
    constants: usize,
    grounded: usize,
    /// Distinct (ignoring ASCII case) columns, and how many of them the
    /// question mentions.
    columns: usize,
    columns_in_question: usize,
}

impl WalkFacts {
    fn size(&self) -> u32 {
        self.op_counts.iter().sum()
    }

    fn has(&self, root: usize) -> bool {
        self.op_counts[root] > 0
    }
}

/// The pre-order walk over one candidate's nodes.
struct Walk<'w> {
    analysis: &'w QuestionAnalysis,
    context: &'w QuestionContext,
    arena: &'w FormulaArena,
    ids: &'w mut IdFacts,
    facts: WalkFacts,
}

impl Walk<'_> {
    fn visit(&mut self, id: FormulaId) {
        let node = self.arena.node(id);
        self.facts.op_counts[root_index(&node)] += 1;
        match node {
            Node::Const(constant) => {
                let facts = self
                    .ids
                    .constant(self.arena, self.analysis, self.context, constant);
                self.facts.constants += 1;
                self.facts.grounded += usize::from(facts.grounded);
                let stamp = self.ids.stamp;
                for link in facts.links.0..facts.links.1 {
                    let link = self.ids.const_links[link as usize] as usize;
                    self.ids.link_stamps[link] = stamp;
                }
            }
            Node::Aggregate { op, .. } => match op {
                AggregateOp::Max => self.facts.max_aggregate = true,
                AggregateOp::Min => self.facts.min_aggregate = true,
                AggregateOp::Sum => self.facts.sum = true,
                AggregateOp::Avg => self.facts.avg = true,
                AggregateOp::Count => {}
            },
            Node::SuperlativeRecords { op, .. } | Node::CompareValues { op, .. } => match op {
                SuperlativeOp::Argmax => self.facts.argmax = true,
                SuperlativeOp::Argmin => self.facts.argmin = true,
            },
            Node::RecordIndexSuperlative { op, .. } => match op {
                SuperlativeOp::Argmax => self.facts.last = true,
                SuperlativeOp::Argmin => self.facts.first = true,
            },
            _ => {}
        }
        for column in node.columns().into_iter().flatten() {
            let facts = self
                .ids
                .column(self.arena, self.analysis, self.context, column);
            if !self.ids.classes.contains(&facts.class) {
                self.ids.classes.push(facts.class);
                self.facts.columns += 1;
                self.facts.columns_in_question += usize::from(facts.mentioned);
            }
        }
        for operand in node.operands().into_iter().flatten() {
            self.visit(operand);
        }
    }
}

/// Extract the feature vector of one candidate (fresh per-question context
/// and scratch — the convenience entry point; hot loops use
/// [`extract_features_in`] with a shared [`QuestionContext`]).
pub fn extract_features(
    analysis: &QuestionAnalysis,
    table: &Table,
    candidate: &RawCandidate,
) -> FeatureVec {
    let context = QuestionContext::new(analysis, table);
    extract_features_in(
        analysis,
        &context,
        candidate,
        &mut Vec::new(),
        &mut Vec::new(),
    )
}

/// Extract the feature vector of one candidate, reusing the question-level
/// `context` and the caller's `pairs` buffer for the unsorted feature
/// pairs (cleared before use and drained after). Interns the formula in an
/// arena of its own and runs the parser's extractor over it. `constants`,
/// once the buffer of the formula's lowered constants, is only cleared: the
/// extractor looks at each interned constant once.
pub fn extract_features_in(
    analysis: &QuestionAnalysis,
    context: &QuestionContext,
    candidate: &RawCandidate,
    pairs: &mut Vec<(FeatureId, f64)>,
    constants: &mut Vec<String>,
) -> FeatureVec {
    constants.clear();
    let mut arena = FormulaArena::new();
    let id = arena.intern(&candidate.formula);
    let mut entries = Vec::new();
    extract_id_features(
        analysis,
        context,
        &arena,
        &mut IdFacts::default(),
        id,
        &candidate.answer,
        pairs,
        &mut entries,
    );
    FeatureVec { entries }
}

/// Extract the features of a generated pool into `scratch`, candidate after
/// candidate ([`ScratchSpace::features`] reads one back).
pub(crate) fn extract_pool_features(
    analysis: &QuestionAnalysis,
    table: &Table,
    arena: &FormulaArena,
    pool: &[PoolCandidate],
    scratch: &mut ScratchSpace,
) {
    let context = QuestionContext::new(analysis, table);
    scratch.ids.clear();
    scratch.entries.clear();
    scratch.bounds.clear();
    for candidate in pool {
        extract_id_features(
            analysis,
            &context,
            arena,
            &mut scratch.ids,
            candidate.id,
            &candidate.answer,
            &mut scratch.pairs,
            &mut scratch.entries,
        );
        scratch.bounds.push(scratch.entries.len());
    }
}

/// Extract the features of candidate `id` of `arena` with answer `answer`,
/// appending them to `entries` sorted by id. `ids` holds what this
/// question's constants and columns contribute, filled in as candidates
/// mention them; `pairs` is scratch for the unsorted pairs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extract_id_features(
    analysis: &QuestionAnalysis,
    context: &QuestionContext,
    arena: &FormulaArena,
    ids: &mut IdFacts,
    id: FormulaId,
    answer: &Answer,
    pairs: &mut Vec<(FeatureId, f64)>,
    entries: &mut Vec<(FeatureId, f64)>,
) {
    pairs.clear();
    ids.begin_candidate(context.link_texts.len());
    let mut walk = Walk {
        analysis,
        context,
        arena,
        ids,
        facts: WalkFacts::default(),
    };
    walk.visit(id);
    let Walk { ids, facts, .. } = walk;

    // ---- Formula shape ------------------------------------------------------
    pairs.push((family_id(root_index(&arena.node(id))), 1.0));
    for (root, &count) in facts.op_counts.iter().enumerate() {
        if count > 0 {
            // The reference bumps `op:{label}` by 1.0 per occurrence; small
            // integer sums are exact, so emitting the count is identical.
            pairs.push((op_id(root), count as f64));
        }
    }
    pairs.push((scalar_id(Scalar::Size), facts.size() as f64 / 8.0));

    // ---- Question / formula alignment ---------------------------------------
    let ungrounded = facts.constants - facts.grounded;
    if ungrounded > 0 {
        pairs.push((scalar_id(Scalar::ConstNotInQuestion), ungrounded as f64));
    }
    if facts.constants > 0 {
        pairs.push((
            scalar_id(Scalar::ConstCoverage),
            facts.grounded as f64 / facts.constants as f64,
        ));
    }
    // Linked values the formula fails to use (a correct parse usually uses
    // every linked entity).
    pairs.push((scalar_id(Scalar::UnusedLinks), ids.unused_links() as f64));

    let columns_missing = facts.columns - facts.columns_in_question;
    if columns_missing > 0 {
        pairs.push((scalar_id(Scalar::ColNotInQuestion), columns_missing as f64));
    }
    if facts.columns > 0 {
        pairs.push((
            scalar_id(Scalar::ColCoverage),
            facts.columns_in_question as f64 / facts.columns as f64,
        ));
    }

    // ---- Trigger phrase / operator agreement --------------------------------
    // Kind indexes follow `symbols::TRIGGER_KINDS`.
    let uses_agg_max = facts.max_aggregate || facts.argmax || facts.last;
    let uses_agg_min = facts.min_aggregate || facts.argmin || facts.first;
    let used: [bool; NUM_TRIGGERS] = [
        facts.has(9),  // count
        facts.has(15), // difference
        uses_agg_max,  // aggregate_max
        uses_agg_min,  // aggregate_min
        facts.sum,
        facts.avg,
        facts.has(5),                                       // prev
        facts.has(6),                                       // next
        facts.last || facts.max_aggregate || facts.argmax,  // last
        facts.first || facts.min_aggregate || facts.argmin, // first
        facts.has(14),                                      // compare → compare_values
        facts.has(13),                                      // most_common
        facts.has(8),                                       // union
        facts.has(7),                                       // intersect
        facts.has(3),                                       // comparison → compare_join
    ];
    for (kind, &used_kind) in used.iter().enumerate() {
        match (context.triggered[kind], used_kind) {
            (true, true) => pairs.push((trig_id(TrigSlot::Agree, kind), 1.0)),
            (true, false) => pairs.push((trig_id(TrigSlot::TriggeredUnused, kind), 1.0)),
            (false, true) => pairs.push((trig_id(TrigSlot::UsedUntriggered, kind), 1.0)),
            (false, false) => {}
        }
    }

    // ---- Denotation features -------------------------------------------------
    match answer {
        Answer::Number(_) => pairs.push((scalar_id(Scalar::AnswerNumber), 1.0)),
        Answer::Values(values) => {
            pairs.push((scalar_id(Scalar::AnswerValues), 1.0));
            pairs.push((
                scalar_id(Scalar::AnswerSize),
                (values.len() as f64).min(6.0) / 6.0,
            ));
            if values.len() == 1 {
                pairs.push((scalar_id(Scalar::AnswerSingleton), 1.0));
            }
            if values.iter().all(|v| v.as_number().is_some()) {
                pairs.push((scalar_id(Scalar::AnswerNumericValues), 1.0));
            }
        }
        Answer::Records(_) => pairs.push((scalar_id(Scalar::AnswerRecords), 1.0)),
    }
    let is_number = matches!(answer, Answer::Number(_));
    match (context.wants_number, is_number) {
        (true, true) => pairs.push((scalar_id(Scalar::WhNumberMatch), 1.0)),
        (true, false) => pairs.push((scalar_id(Scalar::WhNumberMismatch), 1.0)),
        (false, true) => pairs.push((scalar_id(Scalar::WhUnexpectedNumber), 1.0)),
        (false, false) => {}
    }

    merge_pairs(pairs, entries);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, CandidateConfig};
    use crate::lexicon::analyze_question;
    use crate::reference::extract_features_reference;
    use wtq_dcs::parse_formula;
    use wtq_table::samples;

    fn candidate(table: &Table, formula_text: &str) -> RawCandidate {
        let formula = parse_formula(formula_text).unwrap();
        let answer = Answer::from_denotation(&wtq_dcs::eval(&formula, table).unwrap());
        RawCandidate { formula, answer }
    }

    #[test]
    fn gold_candidate_gets_agreement_features() {
        let table = samples::olympics();
        let analysis = analyze_question("Greece held its last Olympics in what year?", &table);
        let gold = candidate(&table, "max(R[Year].Country.Greece)");
        let features = extract_features(&analysis, &table, &gold);
        assert!(
            features.get("trig+op:last").is_some(),
            "features: {:?}",
            features.to_named()
        );
        assert_eq!(features.get("const_coverage"), Some(1.0));
        assert!(features.get("unused_links").unwrap_or(9.0) < 1.0);
    }

    #[test]
    fn ungrounded_constants_are_penalized() {
        let table = samples::olympics();
        let analysis = analyze_question("Greece held its last Olympics in what year?", &table);
        let wrong = candidate(&table, "max(R[Year].Country.China)");
        let features = extract_features(&analysis, &table, &wrong);
        assert!(features.get("const_not_in_question").unwrap_or(0.0) >= 1.0);
        assert!(features.get("unused_links").unwrap_or(0.0) >= 1.0);
    }

    #[test]
    fn trigger_mismatch_features_fire() {
        let table = samples::shipwrecks();
        let analysis = analyze_question(
            "How many more ships were wrecked in Lake Huron than in Lake Erie?",
            &table,
        );
        // A plain count ignores the "difference" trigger.
        let plain = candidate(&table, "count(Lake.\"Lake Huron\")");
        let features = extract_features(&analysis, &table, &plain);
        assert!(features.get("trig-op:difference").is_some());
        // The gold difference agrees with it.
        let gold = candidate(
            &table,
            "sub(count(Lake.\"Lake Huron\"), count(Lake.\"Lake Erie\"))",
        );
        let features = extract_features(&analysis, &table, &gold);
        assert!(features.get("trig+op:difference").is_some());
        assert!(features.get("wh:number_match").is_some());
    }

    #[test]
    fn feature_extraction_is_total_over_generated_candidates() {
        let table = samples::medals();
        let analysis = analyze_question(
            "What is the difference in Total between Fiji and Tonga?",
            &table,
        );
        let candidates = generate_candidates(&analysis, &table, &CandidateConfig::default());
        assert!(!candidates.is_empty());
        for candidate in &candidates {
            let features = extract_features(&analysis, &table, candidate);
            assert!(!features.is_empty());
            assert!(features.iter().all(|(_, v)| v.is_finite()));
        }
    }

    #[test]
    fn interned_features_match_the_string_keyed_reference() {
        // The differential contract, checked here on the fixed sample suite
        // (the proptest suite fuzzes it over random tables/questions): same
        // names, and bit-identical values.
        let cases = [
            (
                samples::olympics(),
                "Greece held its last Olympics in what year?",
            ),
            (
                samples::shipwrecks(),
                "How many more ships were wrecked in Lake Huron than in Lake Erie?",
            ),
            (
                samples::medals(),
                "What is the difference in Total between Fiji and Tonga?",
            ),
        ];
        for (table, question) in cases {
            let analysis = analyze_question(question, &table);
            let candidates = generate_candidates(&analysis, &table, &CandidateConfig::default());
            assert!(!candidates.is_empty());
            for candidate in &candidates {
                let interned = extract_features(&analysis, &table, candidate).to_named();
                let reference = extract_features_reference(&analysis, &table, candidate);
                assert_eq!(
                    interned.len(),
                    reference.len(),
                    "feature sets differ on {}",
                    candidate.formula
                );
                for ((a_name, a_value), (b_name, b_value)) in interned.iter().zip(reference.iter())
                {
                    assert_eq!(a_name, b_name);
                    assert_eq!(
                        a_value.to_bits(),
                        b_value.to_bits(),
                        "{a_name} differs on {}",
                        candidate.formula
                    );
                }
            }
        }
    }

    #[test]
    fn dot_products_use_only_present_features_and_match_reference() {
        let table = samples::olympics();
        let analysis = analyze_question("Greece held its last Olympics in what year?", &table);
        let gold = candidate(&table, "max(R[Year].Country.Greece)");
        let features = extract_features(&analysis, &table, &gold);
        // Dense weights: 1.0 everywhere a feature exists plus a weight on a
        // feature the vector does not contain.
        let model = crate::model::LogLinearModel::with_prior();
        let reference_weights = model.sorted_weights();
        let dense_score = model.score(&features);
        let reference_score = crate::reference::dot_reference(
            &crate::reference::extract_features_reference(&analysis, &table, &gold),
            &reference_weights,
        );
        assert_eq!(dense_score.to_bits(), reference_score.to_bits());
        // Sparse-sparse merge walk agrees with the dense product.
        let mut weight_pairs: Vec<(FeatureId, f64)> = reference_weights
            .iter()
            .map(|(name, value)| (crate::symbols::intern(name), *value))
            .collect();
        let sparse_weights = FeatureVec::from_pairs(&mut weight_pairs);
        assert!((features.dot_sparse(&sparse_weights) - dense_score).abs() < 1e-12);
    }
}
