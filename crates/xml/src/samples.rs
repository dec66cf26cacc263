//! Bounded, deterministic sample reservoirs for text and attribute values.
//!
//! The paper's premise (§9) is that inference state stays compact while
//! "the generating XML can be discarded as data trickles in" — yet naively
//! collecting every text chunk and attribute value makes memory scale with
//! the corpus, not the schema. A [`SampleBag`] caps that: it keeps value →
//! count statistics for at most `cap` *distinct* values, chosen by a
//! content hash so the retained set is a pure function of the set of
//! values seen — independent of arrival order and of how a corpus was
//! split across shards.
//!
//! # Layout
//!
//! The retained values live in one `Vec` of `(priority, value, count)`
//! entries, sorted by `(priority, value)` and never longer than `cap`. The
//! last entry is therefore the eviction threshold. An insert hashes the
//! value first; once the bag is full, a value whose `(priority, value)`
//! lies above the last entry is rejected by that single comparison — the
//! common case on high-cardinality text, with no allocation and no search.
//! Everything else binary-searches the `Vec`: a hit increments the count,
//! a miss inserts in order and, if that overfills the bag, pops the last
//! entry.
//!
//! # Determinism under sharding
//!
//! Each distinct value gets a fixed priority `(hash(value), value)`; the
//! bag keeps the `cap` smallest priorities (a K-minimum-values sketch).
//! Two invariants make `--jobs N` byte-identical to sequential ingestion:
//!
//! 1. **Never-evicted counts are exact.** The eviction threshold (the
//!    cap-th smallest priority) only ever decreases, so a value that is in
//!    the final kept set can never have been rejected or evicted earlier —
//!    its count has been incremented since its first arrival.
//! 2. **Merge = union, re-trim.** A value in the merged kept set has one
//!    of the `cap` smallest global priorities, hence one of the `cap`
//!    smallest in every shard where it appeared (a shard sees a subset of
//!    the distinct values), hence was kept with an exact count in each —
//!    so summed shard counts equal the sequential count.
//!
//! Alongside the capped counts the bag folds every observation into an
//! exact datatype-viability bitmask, so [`SampleBag::datatype`] and
//! [`SampleBag::all_nmtoken`] are computed over *all* values ever seen,
//! not just the retained sample.

use crate::datatype::{classify, most_specific, XsdType, ALL_VIABLE};

/// Default cap on distinct retained values. Must stay ≥
/// [`crate::attlist::MAX_ENUMERATION`] so that an overflowed bag can never
/// have been enumeration-eligible.
pub const DEFAULT_SAMPLE_CAP: usize = 64;

/// What [`SampleBag::insert`] did with a value. The parse loop tallies
/// the last two per document, so no insert touches the metrics registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// The value was counted among the retained ones.
    Kept,
    /// The bag was full and the value ranked above all it retains.
    Rejected,
    /// The value was retained and pushed the last-ranked one out.
    Evicted,
}

/// The reservoir pressure one document caused: its overflowed and
/// evicting inserts, published as the `xml.samples.overflow` and
/// `xml.samples.evictions` counters once the document ends.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SampleTally {
    overflow: u64,
    evictions: u64,
}

impl SampleTally {
    /// Counts one insert's outcome.
    pub(crate) fn add(&mut self, retention: Retention) {
        match retention {
            Retention::Kept => {}
            Retention::Rejected => self.overflow += 1,
            Retention::Evicted => {
                self.overflow += 1;
                self.evictions += 1;
            }
        }
    }

    /// Adds each non-zero count to its registry counter.
    pub(crate) fn publish(self) {
        if self.overflow > 0 {
            dtdinfer_obs::count("xml.samples.overflow", self.overflow);
        }
        if self.evictions > 0 {
            dtdinfer_obs::count("xml.samples.evictions", self.evictions);
        }
    }
}

/// A retained value with its fixed priority and exact occurrence count.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Kept {
    prio: u64,
    value: String,
    count: u64,
}

impl Kept {
    /// The retention order: smaller keys are kept first.
    fn key(&self) -> (u64, &str) {
        (self.prio, &self.value)
    }
}

/// A bounded multiset sketch over observed string values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleBag {
    /// Retained distinct values with exact occurrence counts, strictly
    /// ascending by `(priority, value)`, at most `cap` of them.
    kept: Vec<Kept>,
    /// Total observations, including values not retained.
    total: u64,
    /// Datatype-viability bitmask over *all* observations (bit i ↔
    /// `datatype::ORDER[i]` still matches every value seen).
    viable: u8,
    /// Whether more than `cap` distinct values were observed.
    overflowed: bool,
    /// Maximum number of distinct values to retain.
    cap: usize,
}

impl Default for SampleBag {
    fn default() -> Self {
        Self::with_cap(DEFAULT_SAMPLE_CAP)
    }
}

impl SampleBag {
    /// An empty bag retaining at most `cap` distinct values (`cap` ≥ 1).
    pub fn with_cap(cap: usize) -> Self {
        Self {
            kept: Vec::new(),
            total: 0,
            viable: ALL_VIABLE,
            overflowed: false,
            cap: cap.max(1),
        }
    }

    /// Records one observation of `value` and says whether a full bag
    /// turned it away or evicted another value for it.
    pub fn insert(&mut self, value: &str) -> Retention {
        self.total += 1;
        if self.viable != 0 {
            self.viable = classify(value, self.viable);
        }
        let key = (priority(value), value);
        // Full and above the threshold: never retained before (the
        // threshold only decreases), never retainable again.
        if self.kept.len() >= self.cap && self.kept.last().is_some_and(|last| key > last.key()) {
            self.overflowed = true;
            return Retention::Rejected;
        }
        match self.kept.binary_search_by(|k| k.key().cmp(&key)) {
            Ok(i) => self.kept[i].count += 1,
            Err(i) => {
                self.kept.insert(
                    i,
                    Kept {
                        prio: key.0,
                        value: value.to_owned(),
                        count: 1,
                    },
                );
                if self.kept.len() > self.cap {
                    self.kept.pop();
                    self.overflowed = true;
                    return Retention::Evicted;
                }
            }
        }
        Retention::Kept
    }

    /// Folds another bag in: totals add, viability masks intersect,
    /// retained counts union-sum, then the union is re-trimmed to the cap
    /// smallest priorities. Commutative and associative up to the shared
    /// cap, so shard merges reproduce sequential ingestion exactly.
    ///
    /// Bags built with different caps normalize to the *smaller* of the
    /// two: merging must never claim more reservoir capacity than every
    /// contributor actually had, or the merged sketch would report values
    /// a same-cap sequential run would have evicted. Normalizing (instead
    /// of adopting the left cap silently) keeps the operation commutative
    /// even across mismatched configurations.
    pub fn merge(&mut self, other: &SampleBag) {
        self.cap = self.cap.min(other.cap);
        self.total += other.total;
        self.viable &= other.viable;
        self.overflowed |= other.overflowed;
        self.kept.extend(other.kept.iter().cloned());
        self.kept.sort_unstable_by(|a, b| a.key().cmp(&b.key()));
        self.kept.dedup_by(|later, earlier| {
            let same = later.key() == earlier.key();
            if same {
                earlier.count += later.count;
            }
            same
        });
        if self.kept.len() > self.cap {
            self.overflowed = true;
            let doomed = self.kept.len() - self.cap;
            dtdinfer_obs::count("xml.samples.evictions", doomed as u64);
            self.kept.truncate(self.cap);
        }
    }

    /// Total observations (including values not retained).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of retained distinct values. Equal to the true distinct
    /// count unless [`SampleBag::overflowed`].
    pub fn distinct_retained(&self) -> usize {
        self.kept.len()
    }

    /// Whether more than `cap` distinct values were observed (so the
    /// retained set is a sample of the distinct values, not all of them).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The retention cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Retained `(value, count)` pairs in lexicographic value order.
    /// Counts are exact (see the module docs).
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut entries: Vec<(&str, u64)> = self
            .kept
            .iter()
            .map(|k| (k.value.as_str(), k.count))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }

    /// Whether every observed value appeared exactly once, as far as the
    /// retained sample can tell. Exact when not overflowed; under overflow
    /// it is evidence from a uniform sample of the distinct values.
    pub fn looks_all_distinct(&self) -> bool {
        self.kept.iter().all(|k| k.count == 1)
    }

    /// Whether every observed value (retained or not) is a NMTOKEN.
    /// Vacuously true for an empty bag, matching slice-based `all()`.
    pub fn all_nmtoken(&self) -> bool {
        self.viable & (1 << 6) != 0
    }

    /// The most specific datatype covering every observed value — exact
    /// even under overflow, because the viability mask is updated on every
    /// observation. Empty bags default to `xs:string`.
    pub fn datatype(&self) -> XsdType {
        if self.total == 0 {
            return XsdType::String;
        }
        most_specific(self.viable)
    }

    /// Serializable parts: `(total, viable mask, overflowed)`; the counts
    /// come from [`SampleBag::entries`].
    pub fn export_header(&self) -> (u64, u8, bool) {
        (self.total, self.viable, self.overflowed)
    }

    /// Rebuilds a bag from snapshot parts. `entries` must hold at most
    /// `cap` pairs of distinct values; the retained-count sum must not
    /// exceed `total`.
    pub fn from_parts(
        cap: usize,
        total: u64,
        viable: u8,
        overflowed: bool,
        entries: impl IntoIterator<Item = (String, u64)>,
    ) -> Result<SampleBag, String> {
        let mut kept = Vec::new();
        for (value, count) in entries {
            if count == 0 {
                return Err(format!("zero count for sample {value:?}"));
            }
            kept.push(Kept {
                prio: priority(&value),
                value,
                count,
            });
        }
        kept.sort_unstable_by(|a, b| a.key().cmp(&b.key()));
        if let Some(pair) = kept.windows(2).find(|pair| pair[0].value == pair[1].value) {
            return Err(format!("duplicate sample {:?}", pair[0].value));
        }
        let cap = cap.max(1);
        if kept.len() > cap {
            return Err(format!("{} samples exceed cap {cap}", kept.len()));
        }
        let sum: u64 = kept.iter().map(|k| k.count).sum();
        if sum > total {
            return Err(format!("sample counts {sum} exceed total {total}"));
        }
        if !overflowed && sum != total {
            return Err(format!(
                "non-overflowed bag must account for every observation ({sum} != {total})"
            ));
        }
        Ok(SampleBag {
            kept,
            total,
            viable: viable & ALL_VIABLE,
            overflowed,
            cap,
        })
    }
}

/// The fixed priority hash: FNV-1a folded through a splitmix64-style
/// finalizer for avalanche. Ties (hash collisions) are broken by value
/// order, so priorities form a strict total order over distinct values.
fn priority(value: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in value.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{matches_type, ORDER};
    use proptest::prelude::*;

    fn filled(values: &[&str], cap: usize) -> SampleBag {
        let mut bag = SampleBag::with_cap(cap);
        for v in values {
            bag.insert(v);
        }
        bag
    }

    #[test]
    fn exact_below_cap() {
        let bag = filled(&["a", "b", "a", "c", "a"], 8);
        assert_eq!(bag.total(), 5);
        assert!(!bag.overflowed());
        let entries: Vec<_> = bag.entries().collect();
        assert_eq!(entries, vec![("a", 3), ("b", 1), ("c", 1)]);
    }

    #[test]
    fn caps_distinct_values() {
        let values: Vec<String> = (0..100).map(|i| format!("v{i}")).collect();
        let mut bag = SampleBag::with_cap(16);
        for v in &values {
            bag.insert(v);
        }
        assert_eq!(bag.distinct_retained(), 16);
        assert!(bag.overflowed());
        assert_eq!(bag.total(), 100);
    }

    #[test]
    fn retained_set_is_order_invariant() {
        let mut values: Vec<String> = (0..200).map(|i| format!("v{i}")).collect();
        let forward = {
            let mut bag = SampleBag::with_cap(10);
            values.iter().for_each(|v| {
                bag.insert(v);
            });
            bag
        };
        values.reverse();
        let backward = {
            let mut bag = SampleBag::with_cap(10);
            values.iter().for_each(|v| {
                bag.insert(v);
            });
            bag
        };
        assert_eq!(forward, backward);
    }

    #[test]
    fn retained_counts_are_exact_under_overflow() {
        // Repeat every value 3 times, way past the cap: whatever survives
        // must carry its true count.
        let mut bag = SampleBag::with_cap(8);
        for round in 0..3 {
            for i in 0..50 {
                let _ = round;
                bag.insert(&format!("v{i}"));
            }
        }
        assert!(bag.overflowed());
        assert!(bag.entries().all(|(_, c)| c == 3), "{bag:?}");
        assert_eq!(bag.total(), 150);
    }

    #[test]
    fn merge_equals_sequential() {
        let values: Vec<String> = (0..120).map(|i| format!("v{}", i % 37)).collect();
        let sequential = {
            let mut bag = SampleBag::with_cap(12);
            values.iter().for_each(|v| {
                bag.insert(v);
            });
            bag
        };
        for split in [1, 13, 60, 119] {
            let (left, right) = values.split_at(split);
            let mut a = SampleBag::with_cap(12);
            left.iter().for_each(|v| {
                a.insert(v);
            });
            let mut b = SampleBag::with_cap(12);
            right.iter().for_each(|v| {
                b.insert(v);
            });
            a.merge(&b);
            assert_eq!(a, sequential, "split at {split}");
        }
    }

    #[test]
    fn merge_normalizes_mismatched_caps_to_the_smaller() {
        // A big-cap bag folded into a small-cap bag must not inflate the
        // small reservoir — and the other way around must not silently
        // keep the big cap either.
        let values: Vec<String> = (0..60).map(|i| format!("v{i}")).collect();
        let small = filled(&values.iter().map(String::as_str).collect::<Vec<_>>(), 8);
        let big = filled(&values.iter().map(String::as_str).collect::<Vec<_>>(), 32);
        let mut small_into_big = big.clone();
        small_into_big.merge(&small);
        assert_eq!(small_into_big.cap(), 8);
        assert!(small_into_big.distinct_retained() <= 8);
        let mut big_into_small = small.clone();
        big_into_small.merge(&big);
        assert_eq!(big_into_small.cap(), 8);
        // Both orders land on the same normalized sketch (KMV retention
        // depends only on priorities, not on which side held the values).
        assert_eq!(small_into_big, big_into_small);
        assert!(small_into_big.overflowed());
    }

    #[test]
    fn merge_with_smaller_cap_matches_sequential_at_that_cap() {
        // Normalization is not just a cap field update: the retained set
        // must equal what a sequential same-cap run would keep.
        let values: Vec<String> = (0..40).map(|i| format!("v{i}")).collect();
        let sequential = {
            let mut bag = SampleBag::with_cap(6);
            values.iter().for_each(|v| {
                bag.insert(v);
            });
            bag
        };
        let (left, right) = values.split_at(17);
        let mut a = SampleBag::with_cap(6);
        left.iter().for_each(|v| {
            a.insert(v);
        });
        let mut b = SampleBag::with_cap(24);
        right.iter().for_each(|v| {
            b.insert(v);
        });
        a.merge(&b);
        assert_eq!(a.cap(), 6);
        assert_eq!(a.total(), sequential.total());
        // Every value the sequential run retained whose priority beats the
        // merged threshold is present; the merged bag never retains a
        // value the sequential run evicted.
        let seq: std::collections::BTreeSet<&str> = sequential.entries().map(|(v, _)| v).collect();
        for (v, _) in a.entries() {
            assert!(seq.contains(v), "{v} was evicted by the sequential run");
        }
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = filled(&["x", "y", "x"], 4);
        let mut b = filled(&["y", "z", "w", "q", "r"], 4);
        let ab = {
            let mut m = a.clone();
            m.merge(&b);
            m
        };
        b.merge(&a);
        assert_eq!(ab, b);
        a = ab;
        assert_eq!(a.total(), 8);
    }

    #[test]
    fn datatype_exact_despite_eviction() {
        // One non-integer value among hundreds of integers: even if the
        // string sample gets evicted, the viability mask remembers it.
        let mut bag = SampleBag::with_cap(4);
        bag.insert("not a number");
        for i in 0..500 {
            bag.insert(&i.to_string());
        }
        assert_eq!(bag.datatype(), XsdType::String);
        assert!(!bag.all_nmtoken());

        let mut ints = SampleBag::with_cap(4);
        for i in 0..500 {
            ints.insert(&i.to_string());
        }
        assert_eq!(ints.datatype(), XsdType::Integer);
        assert!(ints.all_nmtoken());
    }

    #[test]
    fn empty_bag_defaults() {
        let bag = SampleBag::default();
        assert!(bag.is_empty());
        assert_eq!(bag.datatype(), XsdType::String);
        assert!(bag.all_nmtoken());
        assert!(bag.looks_all_distinct());
        assert_eq!(bag.cap(), DEFAULT_SAMPLE_CAP);
    }

    #[test]
    fn all_distinct_exact_when_not_overflowed() {
        assert!(filled(&["a", "b", "c"], 8).looks_all_distinct());
        assert!(!filled(&["a", "b", "a"], 8).looks_all_distinct());
    }

    #[test]
    fn export_round_trip() {
        let bag = filled(&["a", "b", "a", "c"], 2);
        let (total, viable, overflowed) = bag.export_header();
        let rebuilt = SampleBag::from_parts(
            bag.cap(),
            total,
            viable,
            overflowed,
            bag.entries().map(|(v, c)| (v.to_owned(), c)),
        )
        .unwrap();
        assert_eq!(rebuilt, bag);
    }

    /// A value stream mixing every datatype the viability mask tracks,
    /// with enough distinct values to overflow small caps.
    fn arb_stream() -> impl Strategy<Value = Vec<String>> {
        prop::collection::vec((0u32..6, 0u32..30), 0..150).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(kind, n)| match kind {
                    0 => n.to_string(),
                    1 => format!("{n}.5"),
                    2 => ["true", "false"][n as usize % 2].to_owned(),
                    3 => format!("2024-01-{:02}", n % 28 + 1),
                    4 => format!("tok-{n}"),
                    _ => format!("free text {n}"),
                })
                .collect()
        })
    }

    /// The brute-force reference: every distinct value with its exact
    /// count, ranked by `(priority, value)`, the first `cap` kept; the
    /// mask and flags computed over the whole stream.
    fn reference(values: &[String], cap: usize) -> SampleBag {
        let mut counts: std::collections::BTreeMap<&str, u64> = Default::default();
        for v in values {
            *counts.entry(v.as_str()).or_insert(0) += 1;
        }
        let mut ranked: Vec<(u64, &str, u64)> =
            counts.iter().map(|(&v, &c)| (priority(v), v, c)).collect();
        ranked.sort_unstable();
        let overflowed = ranked.len() > cap;
        ranked.truncate(cap);
        let mut viable = 0u8;
        for (i, t) in ORDER.iter().enumerate() {
            if values.iter().all(|v| matches_type(v, *t)) {
                viable |= 1 << i;
            }
        }
        SampleBag {
            kept: ranked
                .into_iter()
                .map(|(prio, value, count)| Kept {
                    prio,
                    value: value.to_owned(),
                    count,
                })
                .collect(),
            total: values.len() as u64,
            viable,
            overflowed,
            cap,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn insert_matches_brute_force_reference(values in arb_stream(), cap in 1usize..12) {
            let bag = filled(&values.iter().map(String::as_str).collect::<Vec<_>>(), cap);
            let expected = reference(&values, cap);
            prop_assert_eq!(&bag, &expected, "cap {}", cap);
            prop_assert_eq!(bag.total(), values.len() as u64);
            prop_assert_eq!(bag.overflowed(), expected.overflowed);
            prop_assert_eq!(bag.export_header().1, expected.viable);
            prop_assert_eq!(bag.datatype(), expected.datatype());
            let mut by_value: Vec<(&str, u64)> =
                expected.kept.iter().map(|k| (k.value.as_str(), k.count)).collect();
            by_value.sort_unstable();
            prop_assert_eq!(bag.entries().collect::<Vec<_>>(), by_value);
        }

        #[test]
        fn merged_splits_equal_the_sequential_bag(
            values in arb_stream(),
            cuts in prop::collection::vec(0usize..150, 0..4),
            caps in prop::collection::vec(1usize..12, 5),
        ) {
            // Arbitrary contiguous shards, each with its own cap; the
            // merge normalizes to the smallest cap of any shard.
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(values.len())).collect();
            bounds.push(0);
            bounds.push(values.len());
            bounds.sort_unstable();
            let shards: Vec<SampleBag> = bounds
                .windows(2)
                .zip(&caps)
                .map(|(w, &cap)| {
                    filled(&values[w[0]..w[1]].iter().map(String::as_str).collect::<Vec<_>>(), cap)
                })
                .collect();
            let min_cap = shards.iter().map(SampleBag::cap).min().expect("one shard at least");
            let sequential = reference(&values, min_cap);
            let mut forward = shards[0].clone();
            for shard in &shards[1..] {
                forward.merge(shard);
            }
            prop_assert_eq!(&forward, &sequential);
            let mut backward = shards[shards.len() - 1].clone();
            for shard in shards[..shards.len() - 1].iter().rev() {
                backward.merge(shard);
            }
            prop_assert_eq!(&backward, &sequential);
        }

        #[test]
        fn from_parts_round_trips(values in arb_stream(), cap in 1usize..12) {
            let bag = filled(&values.iter().map(String::as_str).collect::<Vec<_>>(), cap);
            let (total, viable, overflowed) = bag.export_header();
            let rebuilt = SampleBag::from_parts(
                cap,
                total,
                viable,
                overflowed,
                bag.entries().map(|(v, c)| (v.to_owned(), c)),
            )
            .expect("a bag's own parts are valid");
            prop_assert_eq!(rebuilt, bag);
        }
    }

    #[test]
    fn from_parts_rejects_corrupt_state() {
        let none: Vec<(String, u64)> = Vec::new();
        assert!(SampleBag::from_parts(4, 0, ALL_VIABLE, false, none).is_ok());
        // Zero count.
        assert!(SampleBag::from_parts(4, 1, ALL_VIABLE, false, vec![("a".to_owned(), 0)]).is_err());
        // Counts above total.
        assert!(SampleBag::from_parts(4, 1, ALL_VIABLE, false, vec![("a".to_owned(), 2)]).is_err());
        // Non-overflowed bag missing observations.
        assert!(SampleBag::from_parts(4, 5, ALL_VIABLE, false, vec![("a".to_owned(), 2)]).is_err());
        // Over cap.
        assert!(SampleBag::from_parts(
            1,
            2,
            ALL_VIABLE,
            false,
            vec![("a".to_owned(), 1), ("b".to_owned(), 1)]
        )
        .is_err());
    }
}
