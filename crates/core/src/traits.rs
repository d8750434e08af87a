//! The public search interface shared by the paper's structure and all
//! baselines.

use crate::plan::QueryPlan;
use skewsearch_sets::SparseVec;

/// Stable identifier of an indexed set, as returned by
/// [`SetSimilaritySearch::insert`] and consumed by
/// [`SetSimilaritySearch::remove`].
///
/// For the mutable structures in this workspace a `SetId` is the set's slot
/// in the index (the same value [`Match::id`] reports), it is assigned
/// monotonically at insertion, and it is **never reused**: removing a set
/// retires its id forever, and re-inserting identical content yields a fresh
/// id.
pub type SetId = usize;

/// Why a mutation was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// The structure is read-only: it does not support incremental
    /// `insert`/`remove` (the trait defaults — brute force, prefix
    /// filtering, and MinHash keep the frozen-snapshot model for now).
    Unsupported,
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::Unsupported => {
                write!(f, "this structure does not support incremental mutation")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// Returned by [`SetSimilaritySearch::answer`] (and so by
/// [`SetSimilaritySearch::probe_plan_tagged_deadline`]) when the
/// caller-supplied expiry check fired before the probe ran to completion.
///
/// The type is deliberately empty: a deadline carries no partial answer. A
/// probe either completes (byte-identical to the undeadlined probe) or it
/// reports this and the caller sees *nothing* — partial match lists would
/// break the byte-identity contracts the equivalence suites pin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query deadline exceeded before the probe completed")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// Resident heap bytes of a search structure, broken down by role — the
/// accounting behind bytes-per-set reporting in the benches and `repro`.
///
/// The numbers are *capacity-based estimates* (what the structure's own
/// arrays and maps hold on the heap), not allocator-measured RSS; they are
/// deterministic for a deterministic build, which is what lets benchmarks
/// compare substrates. Structures that do not account their memory report
/// all-zero stats (the trait default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes held by posting storage (bucket keys + offsets + id arenas, or
    /// the equivalent hash-map estimate for uncompressed substrates).
    pub posting_bytes: usize,
    /// Bytes held by the stored vectors themselves.
    pub vector_bytes: usize,
    /// Everything else: hash coefficients, interners, tombstone bitmaps.
    pub aux_bytes: usize,
}

impl MemoryStats {
    /// Total resident bytes across all categories.
    pub fn total(&self) -> usize {
        self.posting_bytes + self.vector_bytes + self.aux_bytes
    }

    /// Total bytes divided by a live-set count — the bytes/set budget the
    /// memory-diet work is measured in. Zero when `sets` is zero.
    pub fn bytes_per_set(&self, sets: usize) -> f64 {
        if sets == 0 {
            0.0
        } else {
            self.total() as f64 / sets as f64
        }
    }
}

impl std::fmt::Display for MemoryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "postings={}B vectors={}B aux={}B total={}B",
            self.posting_bytes,
            self.vector_bytes,
            self.aux_bytes,
            self.total()
        )
    }
}

/// A verified search result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Match {
    /// Index of the matching vector in the indexed dataset.
    pub id: usize,
    /// Its Braun-Blanquet similarity to the query.
    pub similarity: f64,
}

/// A [`Match`] annotated with *where* in the probe sequence its candidate was
/// first discovered.
///
/// Every structure in this workspace probes in a sequence of **passes**
/// (LSF repetitions, MinHash bands) and, within a pass, a sequence of
/// **steps** (enumerated filters, band buckets); within one `(pass, step)`
/// bucket, candidates surface in ascending id (bucket insertion order). The
/// triple `(pass, step, id)` therefore totally orders candidate discovery,
/// which is exactly what the sharding layer
/// ([`crate::shard::ShardedIndex`]) needs to merge per-shard results back
/// into the unsharded first-discovery order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaggedMatch {
    /// Probe pass (repetition / band index) of the candidate's *first*
    /// discovery.
    pub pass: u32,
    /// Step within the pass (filter / bucket index) of the first discovery.
    pub step: u32,
    /// The verified match itself.
    pub hit: Match,
}

/// How many verified matches [`SetSimilaritySearch::answer`] collects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Take {
    /// Stop at the first verified hit — the paper's query procedure ("if we
    /// find a sufficiently close x we return it").
    First,
    /// Run every pass and return every verified hit.
    All,
}

/// The highest-similarity match of a list (the last one on ties, as
/// [`Iterator::max_by`] picks) — the reduction behind
/// [`SetSimilaritySearch::search_best`] and its batch form.
fn best(matches: Vec<Match>) -> Option<Match> {
    matches
        .into_iter()
        .max_by(|a, b| a.similarity.total_cmp(&b.similarity))
}

/// Common interface for set-similarity-search structures (the paper's
/// indexes and every baseline implement this, so experiments and joins are
/// generic over the structure).
///
/// All structures verify candidates exactly, so a returned [`Match`] always
/// satisfies `similarity ≥ threshold()`; randomized structures may *miss*
/// matches with the failure probability of their analysis.
///
/// # One query primitive
///
/// `search`, the tagged searches, the `probe_plan*` stages and the deadline
/// probe are all provided on top of one method,
/// [`SetSimilaritySearch::answer`]. Only `search_all`, `threshold` and `len`
/// are required; bucketed indexes implement
/// [`SetSimilaritySearch::plan_query`] and `answer` once, with genuine
/// `(pass, step)` discovery tags.
///
/// # Examples
///
/// Build one of the paper's indexes and query it through the trait:
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
/// use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let profile = BernoulliProfile::two_block(1000, 0.2, 0.02).unwrap();
/// let data = Dataset::generate(&profile, 300, &mut rng);
/// let index = CorrelatedIndex::build(
///     &data,
///     &profile,
///     CorrelatedParams::new(0.8).unwrap(),
///     &mut rng,
/// );
/// let q = correlated_query(data.vector(7), &profile, 0.8, &mut rng);
/// for m in index.search_all(&q) {
///     assert!(m.similarity >= index.threshold());
/// }
/// ```
pub trait SetSimilaritySearch {
    /// The query primitive: probes `plan` pass by pass (repetitions / bands
    /// in build order), verifies each distinct candidate once, and returns
    /// the verified matches in first-discovery order, tagged with their
    /// `(pass, step)` coordinates (see [`TaggedMatch`]). [`Take::First`]
    /// stops at the first verified hit and returns at most one match;
    /// [`Take::All`] returns every hit. Every implementation must keep the
    /// projection exact: the hits of the undeadlined `All` answer are
    /// `search_all(plan.query())`, element for element.
    ///
    /// A planned plan is probed with its precomputed keys; an unplanned one
    /// ([`QueryPlan::unplanned`]) computes each pass's keys lazily, so a
    /// `First` query enumerates only the passes it reaches.
    ///
    /// `expired` is polled before the probe and between passes; once it
    /// fires, the structure returns [`DeadlineExceeded`] and no partial
    /// answer. With a check that never fires the result is always `Ok`. The
    /// check is an opaque closure (typically comparing `Instant::now()`
    /// with a deadline on the caller's side), so this crate reads no clock:
    /// the check decides *whether* a probe finishes, never which candidates
    /// surface or in what order.
    ///
    /// The default polls once, then tags [`SetSimilaritySearch::search_all`]
    /// as a single pass with one match per step — order-preserving, but
    /// carrying no real probe structure. The sharding layer's exact merge
    /// ([`crate::shard::ShardedIndex`]) needs genuine tags, so bucketed
    /// indexes override this.
    fn answer(
        &self,
        plan: &QueryPlan,
        take: Take,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        if expired() {
            return Err(DeadlineExceeded);
        }
        let tagged = self
            .search_all(plan.query())
            .into_iter()
            .enumerate()
            .map(|(step, hit)| TaggedMatch {
                pass: 0,
                step: step as u32,
                hit,
            });
        Ok(match take {
            Take::First => tagged.take(1).collect(),
            Take::All => tagged.collect(),
        })
    }

    /// Returns some vector with Braun-Blanquet similarity at least
    /// [`SetSimilaritySearch::threshold`] to `q`, if the structure finds one.
    ///
    /// Stops at the first verified hit (the paper's query procedure: "If we
    /// find a sufficiently close x we return it"): the
    /// [`Take::First`] answer to an unplanned plan, which enumerates lazily.
    fn search(&self, q: &SparseVec) -> Option<Match> {
        self.search_first_tagged(q).map(|t| t.hit)
    }

    /// Returns the *highest-similarity* verified candidate at or above the
    /// threshold (useful when several vectors pass).
    fn search_best(&self, q: &SparseVec) -> Option<Match> {
        best(self.search_all(q))
    }

    /// All distinct vectors the structure can verify at or above the
    /// threshold.
    ///
    /// **Candidate-handling contract** (shared by every index in this
    /// workspace so batch results are consistent across structures):
    /// candidate ids are *deduplicated before verification* — each distinct
    /// candidate is verified exactly once — and matches appear in
    /// first-discovery probe order (repetitions/bands in build order, then
    /// filter enumeration order, then bucket insertion order). Callers must
    /// not rely on any similarity ordering; use
    /// [`SetSimilaritySearch::search_best`] for the maximum.
    fn search_all(&self, q: &SparseVec) -> Vec<Match>;

    /// [`SetSimilaritySearch::search_all`] with discovery tags: the same
    /// matches in the same order, each annotated with the `(pass, step)`
    /// coordinates of its candidate's first discovery (see [`TaggedMatch`]).
    fn search_all_tagged(&self, q: &SparseVec) -> Vec<TaggedMatch> {
        self.probe_plan_tagged(&QueryPlan::unplanned(q.clone()))
    }

    /// The tagged analogue of [`SetSimilaritySearch::search`]: the verified
    /// match whose discovery coordinate `(pass, step, id)` is minimal, found
    /// by an early-exiting probe.
    fn search_first_tagged(&self, q: &SparseVec) -> Option<TaggedMatch> {
        self.probe_plan_first_tagged(&QueryPlan::unplanned(q.clone()))
    }

    /// Stage 1 of the enumerate→probe→verify pipeline: derives a reusable
    /// [`QueryPlan`] for `q` — per probe pass (repetition / band), the
    /// interned bucket keys the probe stage will look up, in enumeration
    /// order.
    ///
    /// **Contract**: probing the plan reproduces the search on the
    /// unplanned query byte-identically,
    /// `self.probe_plan_tagged(&self.plan_query(q)) == self.search_all_tagged(q)`
    /// — for every implementation (`tests/plan_equivalence.rs` pins all
    /// index types). Planning pays the full enumeration up front (no
    /// early-exit laziness), which is what makes the plan broadcastable:
    /// the sharding layer enumerates once and ships the same plan to every
    /// dataset shard instead of re-enumerating per shard.
    ///
    /// The default returns an *unplanned* plan (query only), which the
    /// default [`SetSimilaritySearch::answer`] serves from `search_all`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
    /// use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
    ///
    /// let mut rng = StdRng::seed_from_u64(11);
    /// let profile = BernoulliProfile::two_block(600, 0.2, 0.02).unwrap();
    /// let data = Dataset::generate(&profile, 150, &mut rng);
    /// let index = CorrelatedIndex::build(
    ///     &data,
    ///     &profile,
    ///     CorrelatedParams::new(0.8).unwrap(),
    ///     &mut rng,
    /// );
    /// let q = correlated_query(data.vector(5), &profile, 0.8, &mut rng);
    /// let plan = index.plan_query(&q);
    /// // One enumeration, any number of probes — always the same answer.
    /// assert_eq!(index.probe_plan(&plan), index.search_all(&q));
    /// assert_eq!(index.probe_plan_tagged(&plan), index.search_all_tagged(&q));
    /// ```
    fn plan_query(&self, q: &SparseVec) -> QueryPlan {
        QueryPlan::unplanned(q.clone())
    }

    /// Stages 2+3 of the pipeline: probes with a precomputed [`QueryPlan`]
    /// and verifies the surfaced candidates — exactly
    /// `search_all(plan.query())`, without re-enumerating the query's
    /// filters when the plan is planned. The tag projection of
    /// [`SetSimilaritySearch::probe_plan_tagged`].
    fn probe_plan(&self, plan: &QueryPlan) -> Vec<Match> {
        self.probe_plan_tagged(plan)
            .into_iter()
            .map(|t| t.hit)
            .collect()
    }

    /// The tagged probe stage: the undeadlined [`Take::All`] answer to
    /// `plan`, exactly `search_all_tagged(plan.query())`.
    fn probe_plan_tagged(&self, plan: &QueryPlan) -> Vec<TaggedMatch> {
        // A check that never fires cannot produce `Err`.
        self.answer(plan, Take::All, &|| false).unwrap_or_default()
    }

    /// The early-exiting probe stage: the undeadlined [`Take::First`]
    /// answer to `plan`, exactly `search_first_tagged(plan.query())`.
    fn probe_plan_first_tagged(&self, plan: &QueryPlan) -> Option<TaggedMatch> {
        self.answer(plan, Take::First, &|| false)
            .unwrap_or_default()
            .into_iter()
            .next()
    }

    /// Deadline-aware [`SetSimilaritySearch::probe_plan_tagged`]: the
    /// [`Take::All`] answer to `plan` under the caller's `expired` check.
    /// This is the core hook behind the query service's per-request
    /// deadlines.
    ///
    /// **Contract** (pinned by `tests/plan_equivalence.rs`,
    /// `tests/service_equivalence.rs` and the core unit tests): with a
    /// check that never fires, the `Ok` value is byte-identical to
    /// [`SetSimilaritySearch::probe_plan_tagged`]; once the check has fired,
    /// the result is `Err`. There is no partial-result mode.
    fn probe_plan_tagged_deadline(
        &self,
        plan: &QueryPlan,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        self.answer(plan, Take::All, expired)
    }

    /// Answers a batch of queries: element `i` of the result is exactly
    /// `self.search_all(&queries[i])`.
    ///
    /// The default implementation is the sequential loop. Index structures
    /// override it with a thread-pooled implementation (std scoped threads,
    /// chunked work stealing via an atomic cursor — the worker count comes
    /// from build-time options such as `IndexOptions::query_threads`), and
    /// guarantee **identical results for every worker count** — batching is
    /// a throughput optimization, never a semantics change.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
    /// use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
    ///
    /// let mut rng = StdRng::seed_from_u64(3);
    /// let profile = BernoulliProfile::two_block(800, 0.2, 0.02).unwrap();
    /// let data = Dataset::generate(&profile, 200, &mut rng);
    /// let index = CorrelatedIndex::build(
    ///     &data,
    ///     &profile,
    ///     CorrelatedParams::new(0.8).unwrap(),
    ///     &mut rng,
    /// );
    /// let queries: Vec<_> = (0..10)
    ///     .map(|t| correlated_query(data.vector(t), &profile, 0.8, &mut rng))
    ///     .collect();
    /// let batched = index.search_batch(&queries);
    /// assert_eq!(batched.len(), queries.len());
    /// // Batch answers are exactly the per-query answers, in order.
    /// for (q, matches) in queries.iter().zip(&batched) {
    ///     assert_eq!(matches, &index.search_all(q));
    /// }
    /// ```
    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        queries.iter().map(|q| self.search_all(q)).collect()
    }

    /// Batch [`SetSimilaritySearch::search_best`]: the maximum of each
    /// [`SetSimilaritySearch::search_batch`] answer, so it runs on the same
    /// worker pool with the same identical-results guarantee.
    fn search_batch_best(&self, queries: &[SparseVec]) -> Vec<Option<Match>> {
        self.search_batch(queries).into_iter().map(best).collect()
    }

    /// Incrementally indexes `set`, returning its stable [`SetId`].
    ///
    /// The default is read-only: it returns
    /// [`MutationError::Unsupported`] without touching the structure, so
    /// baselines without an incremental build (brute force, prefix
    /// filtering, MinHash) satisfy the trait unchanged. Mutable structures
    /// ([`crate::LsfIndex`] and its wrappers, [`crate::shard::ShardedIndex`])
    /// override it with the log-structured delta-segment insert.
    ///
    /// **Contract for overriders**: when
    /// [`SetSimilaritySearch::supports_mutation`] returns `true`, `insert`
    /// and [`SetSimilaritySearch::remove`] must be infallible (always `Ok`) —
    /// the sharded wrapper fans one logical mutation out across shards and
    /// relies on this to stay all-or-nothing. After any interleaving of
    /// inserts, removes, and queries, every answer surface must be
    /// byte-identical to a fresh build over the surviving sets (pinned by
    /// `tests/mutation_equivalence.rs`).
    fn insert(&mut self, set: SparseVec) -> Result<SetId, MutationError> {
        let _ = set;
        Err(MutationError::Unsupported)
    }

    /// Removes the set with id `id`. `Ok(true)` when a live set was removed,
    /// `Ok(false)` when `id` was never assigned or was already removed —
    /// removal is idempotent, and a retired id never comes back.
    ///
    /// Default: read-only, like [`SetSimilaritySearch::insert`].
    fn remove(&mut self, id: SetId) -> Result<bool, MutationError> {
        let _ = id;
        Err(MutationError::Unsupported)
    }

    /// True when this structure supports incremental
    /// [`SetSimilaritySearch::insert`]/[`SetSimilaritySearch::remove`]
    /// (and guarantees they are infallible). Default: `false`.
    fn supports_mutation(&self) -> bool {
        false
    }

    /// Resident heap bytes of this structure, broken down by role (see
    /// [`MemoryStats`]). The default reports all-zero stats, meaning "not
    /// accounted" — the indexes in this workspace override it; divide by
    /// [`SetSimilaritySearch::len`] (or use [`MemoryStats::bytes_per_set`])
    /// for the bytes/set budget.
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats::default()
    }

    /// Total resident heap bytes — `memory_stats().total()`.
    fn memory_bytes(&self) -> usize {
        self.memory_stats().total()
    }

    /// The verification threshold `b₁`.
    fn threshold(&self) -> f64;

    /// Number of **live** indexed vectors (for mutable structures, slots
    /// retired by [`SetSimilaritySearch::remove`] no longer count).
    fn len(&self) -> usize;

    /// True iff no vectors are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal trait object: a brute-force stub over two fixed vectors used
    /// to exercise the default method implementations.
    struct TwoVec {
        data: Vec<SparseVec>,
        t: f64,
    }

    impl SetSimilaritySearch for TwoVec {
        fn search(&self, q: &SparseVec) -> Option<Match> {
            self.search_all(q).into_iter().next()
        }
        fn search_all(&self, q: &SparseVec) -> Vec<Match> {
            self.data
                .iter()
                .enumerate()
                .map(|(id, x)| Match {
                    id,
                    similarity: skewsearch_sets::similarity::braun_blanquet(x, q),
                })
                .filter(|m| m.similarity >= self.t)
                .collect()
        }
        fn threshold(&self) -> f64 {
            self.t
        }
        fn len(&self) -> usize {
            self.data.len()
        }
    }

    #[test]
    fn default_batch_methods_equal_sequential_loops() {
        let s = TwoVec {
            data: vec![
                SparseVec::from_unsorted(vec![1, 2, 3, 4]),
                SparseVec::from_unsorted(vec![1, 2, 3]),
                SparseVec::from_unsorted(vec![9, 10]),
            ],
            t: 0.4,
        };
        let queries = vec![
            SparseVec::from_unsorted(vec![1, 2, 3]),
            SparseVec::from_unsorted(vec![9, 10]),
            SparseVec::empty(),
        ];
        let all: Vec<_> = queries.iter().map(|q| s.search_all(q)).collect();
        let best: Vec<_> = queries.iter().map(|q| s.search_best(q)).collect();
        assert_eq!(s.search_batch(&queries), all);
        assert_eq!(s.search_batch_best(&queries), best);
    }

    #[test]
    fn default_tagged_search_projects_to_search_all() {
        let s = TwoVec {
            data: vec![
                SparseVec::from_unsorted(vec![1, 2, 3, 4]),
                SparseVec::from_unsorted(vec![1, 2, 3]),
            ],
            t: 0.4,
        };
        let q = SparseVec::from_unsorted(vec![1, 2, 3]);
        let tagged = s.search_all_tagged(&q);
        let plain = s.search_all(&q);
        assert_eq!(tagged.len(), plain.len());
        for (i, (t, m)) in tagged.iter().zip(&plain).enumerate() {
            assert_eq!(&t.hit, m);
            assert_eq!(t.pass, 0);
            assert_eq!(t.step, i as u32);
        }
    }

    #[test]
    fn default_plan_hooks_fall_back_to_fused_search() {
        let s = TwoVec {
            data: vec![
                SparseVec::from_unsorted(vec![1, 2, 3, 4]),
                SparseVec::from_unsorted(vec![1, 2, 3]),
            ],
            t: 0.4,
        };
        for q in [SparseVec::from_unsorted(vec![1, 2, 3]), SparseVec::empty()] {
            let plan = s.plan_query(&q);
            assert!(!plan.is_planned(), "default plan is unplanned");
            assert_eq!(plan.query(), &q);
            assert_eq!(s.probe_plan(&plan), s.search_all(&q));
            assert_eq!(s.probe_plan_tagged(&plan), s.search_all_tagged(&q));
            assert_eq!(s.probe_plan_first_tagged(&plan), s.search_first_tagged(&q));
        }
    }

    #[test]
    fn default_deadline_probe_is_all_or_nothing() {
        let s = TwoVec {
            data: vec![
                SparseVec::from_unsorted(vec![1, 2, 3, 4]),
                SparseVec::from_unsorted(vec![1, 2, 3]),
            ],
            t: 0.4,
        };
        let q = SparseVec::from_unsorted(vec![1, 2, 3]);
        let plan = s.plan_query(&q);
        // Never-firing check: byte-identical to the undeadlined probe.
        assert_eq!(
            s.probe_plan_tagged_deadline(&plan, &|| false),
            Ok(s.probe_plan_tagged(&plan))
        );
        // Already-fired check: no partial answer, just the typed error.
        assert_eq!(
            s.probe_plan_tagged_deadline(&plan, &|| true),
            Err(DeadlineExceeded)
        );
    }

    #[test]
    fn search_best_picks_maximum() {
        let s = TwoVec {
            data: vec![
                SparseVec::from_unsorted(vec![1, 2, 3, 4]),
                SparseVec::from_unsorted(vec![1, 2, 3]),
            ],
            t: 0.1,
        };
        let q = SparseVec::from_unsorted(vec![1, 2, 3]);
        let best = s.search_best(&q).unwrap();
        assert_eq!(best.id, 1);
        assert_eq!(best.similarity, 1.0);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 2);
    }
}
