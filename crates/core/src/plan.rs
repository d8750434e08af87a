//! The reusable query plan: stage 1 of the enumerate→probe→verify pipeline.
//!
//! The paper's query procedure (§3) has two separable halves: *enumerate*
//! the query's filter set `F(q)` under the preprocessing hash stacks, then
//! *probe* the inverted index with those filters (LSF-Join distributes
//! exactly this split by shipping precomputed filter keys to partitions).
//! A single index can interleave the two per repetition, enumerating only
//! the repetitions an early-exiting query reaches — but a sharded index that
//! partitions the *dataset* keeps the same hash stacks in every shard, so
//! enumeration is shard-invariant and is worth paying once per query, not
//! once per shard.
//!
//! [`QueryPlan`] carries both modes into the trait's single query
//! primitive,
//! [`SetSimilaritySearch::answer`](crate::SetSimilaritySearch::answer). A
//! *planned* plan materializes stage 1 as plain owned data: the query vector
//! plus, per probe pass (LSF repetition / MinHash band), the interned 64-bit
//! bucket keys in enumeration order. It is produced once by
//! [`SetSimilaritySearch::plan_query`](crate::SetSimilaritySearch::plan_query)
//! and answered any number of times — by the index that planned it, or by
//! any dataset shard of that index. An *unplanned* plan carries only the
//! query, and `answer` enumerates each pass's keys lazily as it reaches it.
//! Because it is nothing but a `SparseVec` and a `Vec<Vec<u64>>`, a future
//! network fan-out can serialize it verbatim and ship `(plan, shard)` pairs
//! instead of re-enumerating remotely.

use skewsearch_sets::SparseVec;

/// A precomputed probe plan for one query: the owned query vector plus the
/// interned bucket keys to probe, per pass, in enumeration order.
///
/// Two flavors exist:
///
/// * **planned** ([`QueryPlan::from_passes`]) — carries one key list per
///   probe pass; a consuming index probes buckets only, never re-running
///   filter enumeration;
/// * **unplanned** ([`QueryPlan::unplanned`]) — carries only the query;
///   bucketed indexes enumerate each pass lazily as the probe reaches it
///   (what keeps `search`'s early exit cheap), and structures without a
///   bucketed probe (brute force, prefix filtering) answer from
///   `search_all`.
///
/// The defining contract, pinned by `tests/plan_equivalence.rs` for every
/// index type in the workspace: probing a plan yields **byte-identical**
/// results to the search on the unplanned query,
/// `index.probe_plan(&index.plan_query(q)) == index.search_all(q)`.
///
/// Plans are additionally **mutation-invariant**: a plan depends only on
/// the index's hash stacks, key interners, and scheme — never on its
/// buckets or vectors — and incremental `insert`/`remove` touch none of
/// those, so `plan_query(q)` returns the same plan before and after any
/// mutation sequence, and a plan derived earlier stays valid (probing it
/// simply sees the index's current contents). This is what keeps the
/// sharded enumerate-once broadcast correct for mutated shards
/// (`tests/enumeration_count.rs` pins the post-insert broadcast).
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
/// use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let profile = BernoulliProfile::two_block(800, 0.2, 0.02).unwrap();
/// let data = Dataset::generate(&profile, 200, &mut rng);
/// let index = CorrelatedIndex::build(
///     &data,
///     &profile,
///     CorrelatedParams::new(0.8).unwrap(),
///     &mut rng,
/// );
/// let q = correlated_query(data.vector(3), &profile, 0.8, &mut rng);
/// // Stage 1 once …
/// let plan = index.plan_query(&q);
/// assert!(plan.is_planned());
/// // … stages 2+3 as often as needed, byte-identical to the search.
/// assert_eq!(index.probe_plan(&plan), index.search_all(&q));
/// assert_eq!(index.probe_plan(&plan), index.probe_plan(&plan));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryPlan {
    query: SparseVec,
    /// `passes[p]` = interned bucket keys of pass `p`, in enumeration order.
    /// `None` marks an unplanned plan (lazy enumeration).
    passes: Option<Vec<Vec<u64>>>,
}

impl QueryPlan {
    /// A plan carrying only the query: consumers enumerate lazily, pass by
    /// pass. This is what the trait-level default
    /// [`plan_query`](crate::SetSimilaritySearch::plan_query) produces.
    pub fn unplanned(query: SparseVec) -> Self {
        Self {
            query,
            passes: None,
        }
    }

    /// A fully planned query: `passes[p]` holds pass `p`'s interned bucket
    /// keys in enumeration order. The pass count must equal the consuming
    /// index's pass count (its repetitions / bands) — planned probes check
    /// this and panic on a mismatch rather than silently misprobe.
    pub fn from_passes(query: SparseVec, passes: Vec<Vec<u64>>) -> Self {
        Self {
            query,
            passes: Some(passes),
        }
    }

    /// The query this plan was built for (verification always needs it).
    pub fn query(&self) -> &SparseVec {
        &self.query
    }

    /// The per-pass key lists, or `None` for an unplanned plan.
    pub fn passes(&self) -> Option<&[Vec<u64>]> {
        self.passes.as_deref()
    }

    /// True iff this plan carries precomputed keys (stage 2 can skip
    /// enumeration entirely).
    pub fn is_planned(&self) -> bool {
        self.passes.is_some()
    }

    /// Number of planned passes (0 for unplanned plans).
    pub fn pass_count(&self) -> usize {
        self.passes.as_ref().map_or(0, Vec::len)
    }

    /// Total planned keys across passes (0 for unplanned plans) — the
    /// enumeration work this plan saves each additional consumer.
    pub fn key_count(&self) -> usize {
        self.passes
            .as_ref()
            .map_or(0, |p| p.iter().map(Vec::len).sum())
    }

    /// Restricts a planned plan to the pass slice `range` — the plan a
    /// pass-slice shard ([`Shardable::shard_of_passes`]) consumes, since its
    /// pass `r` is the parent's pass `range.start + r`. Slicing an unplanned
    /// plan yields an unplanned plan.
    ///
    /// [`Shardable::shard_of_passes`]: crate::shard::Shardable::shard_of_passes
    ///
    /// # Panics
    /// Panics if `range` exceeds [`QueryPlan::pass_count`] on a planned plan.
    pub fn slice_passes(&self, range: std::ops::Range<usize>) -> Self {
        Self {
            query: self.query.clone(),
            passes: self.passes.as_ref().map(|p| p[range].to_vec()),
        }
    }

    /// Decomposes into `(query, passes)` — the plain owned data a
    /// serialization layer would ship.
    pub fn into_parts(self) -> (SparseVec, Option<Vec<Vec<u64>>>) {
        (self.query, self.passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unplanned_plans_carry_only_the_query() {
        let q = SparseVec::from_unsorted(vec![3, 1, 4]);
        let plan = QueryPlan::unplanned(q.clone());
        assert!(!plan.is_planned());
        assert_eq!(plan.query(), &q);
        assert_eq!(plan.passes(), None);
        assert_eq!(plan.pass_count(), 0);
        assert_eq!(plan.key_count(), 0);
        let sliced = plan.slice_passes(0..0);
        assert!(!sliced.is_planned());
        assert_eq!(sliced.query(), &q);
    }

    #[test]
    fn planned_plans_expose_passes_and_counts() {
        let q = SparseVec::from_unsorted(vec![7]);
        let plan = QueryPlan::from_passes(q.clone(), vec![vec![1, 2], vec![], vec![3]]);
        assert!(plan.is_planned());
        assert_eq!(plan.pass_count(), 3);
        assert_eq!(plan.key_count(), 3);
        assert_eq!(plan.passes().unwrap()[0], vec![1, 2]);
        let (query, passes) = plan.clone().into_parts();
        assert_eq!(query, q);
        assert_eq!(passes.unwrap().len(), 3);
    }

    #[test]
    fn slice_passes_restricts_planned_plans() {
        let q = SparseVec::empty();
        let plan = QueryPlan::from_passes(q, vec![vec![1], vec![2], vec![3], vec![4]]);
        let mid = plan.slice_passes(1..3);
        assert_eq!(mid.pass_count(), 2);
        assert_eq!(mid.passes().unwrap(), &[vec![2], vec![3]]);
        assert_eq!(plan.slice_passes(4..4).pass_count(), 0);
    }

    #[test]
    #[should_panic]
    fn slice_past_end_of_planned_plan_panics() {
        let plan = QueryPlan::from_passes(SparseVec::empty(), vec![vec![1]]);
        let _ = plan.slice_passes(0..2);
    }
}
