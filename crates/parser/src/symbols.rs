//! The feature symbol table: interned [`FeatureId`]s for every feature name.
//!
//! Feature extraction used to key everything by freshly-allocated `String`s
//! and pay a B-tree string comparison per feature per candidate. This module
//! replaces the names with dense integer ids:
//!
//! * a **static segment** holding every structured feature the extractor can
//!   emit — scalar features, `family:*` / `op:*` per formula root, and the
//!   `trig+op:*` / `trig-op:*` / `op-trig:*` trigger-agreement features —
//!   built once per process, and
//! * a **dynamic segment** for names first seen at runtime (weights loaded
//!   from a serialized model, hand-set test weights), registered lazily
//!   behind an `RwLock`.
//!
//! **Ordering invariant**: static ids are assigned in *lexicographic name
//! order*. A feature vector sorted by id is therefore iterated in exactly
//! the order the old `BTreeMap<String, f64>` iterated its keys, so dot
//! products sum their terms in the same sequence and scores stay
//! bit-identical to the string-keyed reference implementation
//! ([`crate::reference`]). Extracted vectors only ever contain static ids;
//! dynamic ids exist solely so models can carry weights for names the
//! extractor never emits (where they are dead weight, exactly as before).

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

use wtq_dcs::{AggregateOp, Node};

/// An interned feature name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeatureId(u32);

impl FeatureId {
    /// The dense index of this feature (usable into weight vectors).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(index: usize) -> FeatureId {
        FeatureId(index as u32)
    }
}

/// Number of formula root labels (the `family:` / `op:` universe).
pub(crate) const NUM_ROOTS: usize = 16;

/// Root operator labels, indexed by [`root_index`].
pub(crate) const ROOT_LABELS: [&str; NUM_ROOTS] = [
    "const",
    "all_records",
    "join",
    "compare_join",
    "column_values",
    "prev",
    "next",
    "intersect",
    "union",
    "count",
    "aggregate",
    "superlative",
    "index_superlative",
    "most_common",
    "compare_values",
    "difference",
];

/// The label index of a formula node's operator (see [`ROOT_LABELS`]).
pub(crate) fn root_index(node: &Node) -> usize {
    match node {
        Node::Const(_) => 0,
        Node::AllRecords => 1,
        Node::Join { .. } => 2,
        Node::CompareJoin { .. } => 3,
        Node::ColumnValues { .. } => 4,
        Node::Prev(_) => 5,
        Node::Next(_) => 6,
        Node::Intersect(_, _) => 7,
        Node::Union(_, _) => 8,
        Node::Aggregate {
            op: AggregateOp::Count,
            ..
        } => 9,
        Node::Aggregate { .. } => 10,
        Node::SuperlativeRecords { .. } => 11,
        Node::RecordIndexSuperlative { .. } => 12,
        Node::MostCommonValue { .. } => 13,
        Node::CompareValues { .. } => 14,
        Node::Sub(_, _) => 15,
    }
}

/// Number of trigger-phrase kinds.
pub(crate) const NUM_TRIGGERS: usize = 15;

/// Trigger kinds, in the order the extractor tests them.
pub(crate) const TRIGGER_KINDS: [&str; NUM_TRIGGERS] = [
    "count",
    "difference",
    "aggregate_max",
    "aggregate_min",
    "sum",
    "avg",
    "prev",
    "next",
    "last",
    "first",
    "compare",
    "most_common",
    "union",
    "intersect",
    "comparison",
];

/// Phrases that fire each trigger kind, parallel to [`TRIGGER_KINDS`].
pub(crate) const TRIGGER_PHRASES: [&[&str]; NUM_TRIGGERS] = [
    &["how many", "number of", "how often", "how many times"],
    &["difference", "how many more", "how much more", "more rows"],
    &["highest", "most", "largest", "greatest", "maximum", "top"],
    &["lowest", "least", "smallest", "fewest", "minimum", "bottom"],
    &["total", "sum", "in total", "altogether", "combined"],
    &["average", "mean"],
    &["before", "above", "previous", "prior"],
    &["after", "below", "next", "following"],
    &["last", "latest", "final", "most recent"],
    &["first", "earliest"],
    &[
        "higher", "lower", "older", "younger", "bigger", "smaller", "longer", "shorter",
    ],
    &[
        "most common",
        "appears the most",
        "most frequent",
        "most often",
    ],
    &[" or "],
    &[" and also ", " both "],
    &[
        "more than",
        "less than",
        "at least",
        "at most",
        "over",
        "under",
    ],
];

/// Phrases whose presence makes the question expect a numeric answer.
pub(crate) const WANTS_NUMBER_PHRASES: [&str; 4] =
    ["how many", "how much", "number of", "difference"];

/// The three trigger/operator agreement slots.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TrigSlot {
    /// `trig+op:` — phrase present and operator used.
    Agree = 0,
    /// `trig-op:` — phrase present but operator unused.
    TriggeredUnused = 1,
    /// `op-trig:` — operator used without its phrase.
    UsedUntriggered = 2,
}

/// Scalar (non-templated) features, indexed into [`Statics::scalar`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scalar {
    Size = 0,
    ConstNotInQuestion,
    ConstCoverage,
    UnusedLinks,
    ColNotInQuestion,
    ColCoverage,
    AnswerNumber,
    AnswerValues,
    AnswerSize,
    AnswerSingleton,
    AnswerNumericValues,
    AnswerRecords,
    WhNumberMatch,
    WhNumberMismatch,
    WhUnexpectedNumber,
}

const NUM_SCALARS: usize = 15;

const SCALAR_NAMES: [&str; NUM_SCALARS] = [
    "size",
    "const_not_in_question",
    "const_coverage",
    "unused_links",
    "col_not_in_question",
    "col_coverage",
    "answer:number",
    "answer:values",
    "answer_size",
    "answer:singleton",
    "answer:numeric_values",
    "answer:records",
    "wh:number_match",
    "wh:number_mismatch",
    "wh:unexpected_number",
];

/// The static segment: every extractor-emitted name, id-ordered
/// lexicographically (see the module docs for why that order is load-bearing).
struct Statics {
    /// Sorted feature names; `names[id]` is the name of static id `id`.
    names: Vec<String>,
    scalar: [u32; NUM_SCALARS],
    family: [u32; NUM_ROOTS],
    op: [u32; NUM_ROOTS],
    trig: [[u32; NUM_TRIGGERS]; 3],
}

fn statics() -> &'static Statics {
    static STATICS: OnceLock<Statics> = OnceLock::new();
    STATICS.get_or_init(|| {
        let mut names: Vec<String> = SCALAR_NAMES.iter().map(|s| s.to_string()).collect();
        for label in ROOT_LABELS {
            names.push(format!("family:{label}"));
            names.push(format!("op:{label}"));
        }
        for kind in TRIGGER_KINDS {
            names.push(format!("trig+op:{kind}"));
            names.push(format!("trig-op:{kind}"));
            names.push(format!("op-trig:{kind}"));
        }
        names.sort();
        debug_assert!(names.windows(2).all(|w| w[0] != w[1]));
        let find = |name: &str| {
            names
                .binary_search_by(|probe| probe.as_str().cmp(name))
                .expect("static feature name present") as u32
        };
        let mut scalar = [0u32; NUM_SCALARS];
        for (i, name) in SCALAR_NAMES.iter().enumerate() {
            scalar[i] = find(name);
        }
        let mut family = [0u32; NUM_ROOTS];
        let mut op = [0u32; NUM_ROOTS];
        for (i, label) in ROOT_LABELS.iter().enumerate() {
            family[i] = find(&format!("family:{label}"));
            op[i] = find(&format!("op:{label}"));
        }
        let mut trig = [[0u32; NUM_TRIGGERS]; 3];
        for (i, kind) in TRIGGER_KINDS.iter().enumerate() {
            trig[TrigSlot::Agree as usize][i] = find(&format!("trig+op:{kind}"));
            trig[TrigSlot::TriggeredUnused as usize][i] = find(&format!("trig-op:{kind}"));
            trig[TrigSlot::UsedUntriggered as usize][i] = find(&format!("op-trig:{kind}"));
        }
        Statics {
            names,
            scalar,
            family,
            op,
            trig,
        }
    })
}

/// Names interned after startup (deserialized models, test weights).
#[derive(Default)]
struct DynSegment {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

fn dynamic() -> &'static RwLock<DynSegment> {
    static DYNAMIC: OnceLock<RwLock<DynSegment>> = OnceLock::new();
    DYNAMIC.get_or_init(|| RwLock::new(DynSegment::default()))
}

/// Number of statically-registered features.
pub fn num_static_features() -> usize {
    statics().names.len()
}

/// Look a name up without interning it.
pub fn lookup(name: &str) -> Option<FeatureId> {
    let statics = statics();
    if let Ok(index) = statics
        .names
        .binary_search_by(|probe| probe.as_str().cmp(name))
    {
        return Some(FeatureId(index as u32));
    }
    let dynamic = dynamic().read().expect("symbol table poisoned");
    dynamic.by_name.get(name).copied().map(FeatureId)
}

/// Intern a name, registering it in the dynamic segment if it is not a
/// static feature.
pub fn intern(name: &str) -> FeatureId {
    if let Some(id) = lookup(name) {
        return id;
    }
    let base = num_static_features() as u32;
    let mut dynamic = dynamic().write().expect("symbol table poisoned");
    if let Some(&id) = dynamic.by_name.get(name) {
        return FeatureId(id);
    }
    let id = base + dynamic.names.len() as u32;
    dynamic.names.push(name.to_string());
    dynamic.by_name.insert(name.to_string(), id);
    FeatureId(id)
}

/// The name of an interned feature.
pub fn feature_name(id: FeatureId) -> String {
    let statics = statics();
    let index = id.index();
    if index < statics.names.len() {
        return statics.names[index].clone();
    }
    let dynamic = dynamic().read().expect("symbol table poisoned");
    dynamic
        .names
        .get(index - statics.names.len())
        .cloned()
        .unwrap_or_else(|| format!("<unknown feature {index}>"))
}

pub(crate) fn scalar_id(scalar: Scalar) -> FeatureId {
    FeatureId(statics().scalar[scalar as usize])
}

pub(crate) fn family_id(root: usize) -> FeatureId {
    FeatureId(statics().family[root])
}

pub(crate) fn op_id(root: usize) -> FeatureId {
    FeatureId(statics().op[root])
}

pub(crate) fn trig_id(slot: TrigSlot, kind: usize) -> FeatureId {
    FeatureId(statics().trig[slot as usize][kind])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_ids_follow_lexicographic_name_order() {
        let n = num_static_features();
        assert_eq!(n, NUM_SCALARS + 2 * NUM_ROOTS + 3 * NUM_TRIGGERS);
        let names: Vec<String> = (0..n)
            .map(|i| feature_name(FeatureId::from_index(i)))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "static ids must be name-ordered");
    }

    #[test]
    fn structured_accessors_agree_with_names() {
        assert_eq!(feature_name(scalar_id(Scalar::Size)), "size");
        assert_eq!(
            feature_name(scalar_id(Scalar::WhUnexpectedNumber)),
            "wh:unexpected_number"
        );
        for (i, label) in ROOT_LABELS.iter().enumerate() {
            assert_eq!(feature_name(family_id(i)), format!("family:{label}"));
            assert_eq!(feature_name(op_id(i)), format!("op:{label}"));
        }
        for (i, kind) in TRIGGER_KINDS.iter().enumerate() {
            assert_eq!(
                feature_name(trig_id(TrigSlot::Agree, i)),
                format!("trig+op:{kind}")
            );
            assert_eq!(
                feature_name(trig_id(TrigSlot::TriggeredUnused, i)),
                format!("trig-op:{kind}")
            );
            assert_eq!(
                feature_name(trig_id(TrigSlot::UsedUntriggered, i)),
                format!("op-trig:{kind}")
            );
        }
    }

    #[test]
    fn dynamic_interning_is_stable_and_lookup_does_not_register() {
        assert!(lookup("totally-novel-feature-name").is_none());
        let a = intern("totally-novel-feature-name");
        let b = intern("totally-novel-feature-name");
        assert_eq!(a, b);
        assert!(a.index() >= num_static_features());
        assert_eq!(feature_name(a), "totally-novel-feature-name");
        assert_eq!(lookup("totally-novel-feature-name"), Some(a));
        // Static names intern to their static ids.
        assert_eq!(intern("size"), scalar_id(Scalar::Size));
    }
}
