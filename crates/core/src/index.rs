//! The inverted filter index with independent repetitions.
//!
//! Preprocessing (§3): compute `F(x)` for every `x ∈ S` and build an inverted
//! index `filter → {x : f ∈ F(x)}`. A query enumerates `F(q)` with the *same*
//! hash stack and verifies every vector sharing a filter.
//!
//! Lemma 5 guarantees a shared filter for close pairs with probability only
//! `≥ 1/log n` per hash-stack draw, so the index keeps `R = Θ(log n)`
//! independent **repetitions** (footnote 6 of the paper) and a query probes
//! them in order until a verified hit.
//!
//! Two hot-path engineering choices on top of the paper's construction:
//!
//! * a query hoists its enumeration inputs (thresholds, masses) into one
//!   [`EnumContext`] shared by all repetitions
//!   instead of re-deriving them per repetition;
//! * 128-bit path keys are *interned* to 64-bit bucket keys through a
//!   per-repetition [`TabulationU128`] draw, halving the inverted index's
//!   key width (an interning collision merges two buckets and at worst
//!   causes a spurious verification — never a wrong answer).

use crate::batch::batch_map;
use crate::engine::{enumerate_filters_with, EnumContext, EnumStats, DEFAULT_NODE_BUDGET};
use crate::persist::{
    compress_bucket_map, effective_write_version, kind, read_bucket_map, read_container_versioned,
    read_postings, write_bucket_map, write_container_versioned, write_postings,
    write_postings_as_bucket_map, Persist, PersistError, PersistScheme, Reader, Writer,
};
use crate::plan::QueryPlan;
use crate::postings::{CompressedPostings, PostingsEncoder};
use crate::scheme::ThresholdScheme;
use crate::traits::{DeadlineExceeded, Match, MemoryStats, SetSimilaritySearch, TaggedMatch, Take};
use rand::{Rng, SeedableRng};
use skewsearch_datagen::BernoulliProfile;
use skewsearch_hashing::{FxHashMap, FxHashSet, PathHasherStack, PathKey, TabulationU128};
use skewsearch_sets::{similarity, SparseVec};

/// How many independent repetitions to build.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Repetitions {
    /// `⌈factor · ln n⌉` repetitions (Lemma 5's `1/log n` success per
    /// repetition makes `Θ(log n)` the natural boost; `factor ≈ 1` gives
    /// constant success probability, larger factors give high probability).
    Auto {
        /// Multiplier on `ln n`.
        factor: f64,
    },
    /// Exactly this many repetitions.
    Fixed(usize),
}

impl Repetitions {
    /// Resolves to a concrete count for a dataset of `n` vectors.
    pub fn resolve(self, n: usize) -> usize {
        match self {
            Repetitions::Auto { factor } => {
                ((n.max(2) as f64).ln() * factor).ceil().max(1.0) as usize
            }
            Repetitions::Fixed(r) => r.max(1),
        }
    }
}

impl Default for Repetitions {
    fn default() -> Self {
        Repetitions::Auto { factor: 1.0 }
    }
}

/// Tuning knobs shared by all LSF indexes.
#[derive(Clone, Copy, Debug)]
pub struct IndexOptions {
    /// Repetition policy.
    pub repetitions: Repetitions,
    /// Per-vector node budget for path enumeration.
    pub node_budget: usize,
    /// Build threads. `1` = sequential; more parallelizes filter enumeration
    /// across vectors (std scoped threads). The built index is
    /// **identical** for any thread count: chunks are merged in id order.
    pub build_threads: usize,
    /// Worker threads used by [`SetSimilaritySearch::search_batch`] (and
    /// `search_batch_best`). `0` = one worker per available core. Batch
    /// results are **identical** for any worker count — see
    /// [`crate::batch::batch_map`].
    pub query_threads: usize,
    /// How many pending mutations (inserts + removals since the last
    /// compaction) the delta segment absorbs before the index compacts
    /// itself — see [`LsfIndex::compact`]. Compaction is answer-invariant,
    /// so this knob trades write amortization against probe-time delta
    /// lookups without observable effect; `usize::MAX` disables automatic
    /// compaction entirely.
    pub mutation_buffer: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self {
            repetitions: Repetitions::default(),
            node_budget: DEFAULT_NODE_BUDGET,
            build_threads: 1,
            query_threads: 0,
            mutation_buffer: 1024,
        }
    }
}

/// Aggregate statistics from building an index.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Repetitions built.
    pub repetitions: usize,
    /// Total filters stored across vectors and repetitions.
    pub total_filters: usize,
    /// Distinct buckets across repetitions.
    pub distinct_buckets: usize,
    /// Largest single bucket.
    pub max_bucket: usize,
    /// Vectors whose enumeration hit the node budget (any repetition).
    pub truncated_vectors: usize,
    /// Vectors whose enumeration hit the depth cap (any repetition).
    pub depth_capped_vectors: usize,
}

impl BuildStats {
    /// Mean stored filters per vector per repetition.
    pub fn avg_filters_per_vector(&self, n: usize) -> f64 {
        if n == 0 || self.repetitions == 0 {
            return 0.0;
        }
        self.total_filters as f64 / (n as f64 * self.repetitions as f64)
    }
}

/// Statistics from answering one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Filters enumerated for the query (across probed repetitions).
    pub filters: usize,
    /// Posting-list entries touched.
    pub candidates: usize,
    /// Distinct vectors verified with a similarity computation.
    pub verified: usize,
    /// Repetitions probed before returning.
    pub repetitions_probed: usize,
}

/// One repetition: an independently drawn hash stack, its key interner, and
/// its inverted index over interned 64-bit bucket keys.
///
/// The inverted index is log-structured: `base` is the immutable **base
/// segment** (filled at build time or by [`LsfIndex::compact`]), stored as
/// [`CompressedPostings`] — sorted keys + byte offsets into one delta+varint
/// arena — and `delta` is the small mutable segment absorbing incremental
/// inserts as plain uncompressed buckets. A probe walks the base bucket for
/// a key (streaming-decoded by a [`crate::postings::PostingsCursor`], zero
/// allocation), then the delta bucket. Every id in `delta` exceeds every id
/// in `base` (inserts are assigned ids past `LsfIndex::base_len`), so the
/// concatenated walk visits ids in exactly the ascending order a
/// from-scratch build over the same sets would store — which is what keeps
/// mutated answers byte-identical to a rebuild. Build and compaction are
/// the only two sites that encode a base segment.
struct Repetition {
    hashers: PathHasherStack,
    interner: TabulationU128,
    base: CompressedPostings,
    delta: FxHashMap<u64, Vec<u32>>,
}

/// The probe stage for one pass of the query walk: looks `keys` up in the
/// repetition's bucket table in order, feeds each *globally unseen*
/// candidate to `visit` with its discovery coordinate `(pass, step, id)`,
/// and returns `false` iff `visit` stopped the probe.
///
/// Planned keys and lazily enumerated keys both funnel through this one
/// loop, which is what keeps their answers byte-identical by construction.
fn probe_pass_keys(
    rep: &Repetition,
    pass: u32,
    keys: &[u64],
    seen: &mut FxHashSet<u32>,
    stats: &mut QueryStats,
    visit: &mut impl FnMut(u32, u32, u32) -> bool,
) -> bool {
    stats.repetitions_probed += 1;
    stats.filters += keys.len();
    for (step, key) in keys.iter().enumerate() {
        // Base segment first, then the delta segment: delta ids all exceed
        // base ids, so this is ascending-id order — the order a rebuild
        // would store (see [`Repetition`]). The base bucket is streamed
        // straight out of the compressed arena — no decode buffer.
        if let Some(cursor) = rep.base.get(*key) {
            for id in cursor {
                stats.candidates += 1;
                if seen.insert(id) {
                    stats.verified += 1;
                    if !visit(pass, step as u32, id) {
                        return false;
                    }
                }
            }
        }
        if let Some(bucket) = rep.delta.get(key) {
            stats.candidates += bucket.len();
            for &id in bucket {
                if seen.insert(id) {
                    stats.verified += 1;
                    if !visit(pass, step as u32, id) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Per-chunk enumeration result (`pairs` in ascending id order, keys already
/// interned to 64 bits).
struct ChunkFilters {
    pairs: Vec<(u32, u64)>,
    truncated: Vec<u32>,
    depth_capped: Vec<u32>,
}

/// Enumerates `F(x)` for every vector, optionally fanning out over
/// contiguous id chunks with std scoped threads. Chunks are returned
/// in id order, so downstream merging is thread-count independent.
fn enumerate_chunked<S: ThresholdScheme>(
    vectors: &[SparseVec],
    profile: &BernoulliProfile,
    scheme: &S,
    hashers: &PathHasherStack,
    interner: &TabulationU128,
    node_budget: usize,
    threads: usize,
) -> Vec<ChunkFilters> {
    let enumerate_chunk = |base: usize, slice: &[SparseVec]| -> ChunkFilters {
        let mut chunk = ChunkFilters {
            pairs: Vec::new(),
            truncated: Vec::new(),
            depth_capped: Vec::new(),
        };
        let mut scratch: Vec<skewsearch_hashing::PathKey> = Vec::new();
        for (off, x) in slice.iter().enumerate() {
            let id = (base + off) as u32;
            scratch.clear();
            let context = EnumContext::new(x, profile, scheme, hashers.max_depth());
            let stats: EnumStats =
                enumerate_filters_with(&context, scheme, hashers, node_budget, &mut scratch);
            if stats.truncated {
                chunk.truncated.push(id);
            }
            if stats.depth_capped {
                chunk.depth_capped.push(id);
            }
            chunk
                .pairs
                .extend(scratch.iter().map(|k| (id, interner.hash(k.raw()))));
        }
        chunk
    };

    let threads = threads.max(1).min(vectors.len().max(1));
    if threads <= 1 {
        return vec![enumerate_chunk(0, vectors)];
    }
    let chunk_len = vectors.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = vectors
            .chunks(chunk_len)
            .enumerate()
            .map(|(c, slice)| {
                let f = &enumerate_chunk;
                scope.spawn(move || f(c * chunk_len, slice))
            })
            .collect();
        handles
            .into_iter()
            // lint:allow(no-panic-in-lib, join only errs when the enumeration worker itself panicked — re-raising the caller's own panic is the correct propagation)
            .map(|h| h.join().expect("build worker panicked"))
            .collect()
    })
}

/// A locality-sensitive filtering index over a dataset, generic in the
/// [`ThresholdScheme`]. This is the shared machinery behind
/// [`crate::AdversarialIndex`], [`crate::CorrelatedIndex`], and the Chosen
/// Path baseline.
pub struct LsfIndex<S: ThresholdScheme> {
    profile: BernoulliProfile,
    vectors: Vec<SparseVec>,
    scheme: S,
    reps: Vec<Repetition>,
    verify_threshold: f64,
    node_budget: usize,
    query_threads: usize,
    build_stats: BuildStats,
    /// Slots `0..base_len` live in the base segments; slots `base_len..`
    /// were inserted since the last compaction and live in the deltas.
    base_len: usize,
    /// Liveness per slot; `false` = tombstoned (filtered at the single
    /// verification site, `LsfIndex::run`). Slots are never reused.
    alive: Vec<bool>,
    /// Count of `true` entries in `alive` — the trait's `len()`.
    live: usize,
    /// Mutations (inserts + removals) since the last compaction.
    pending: usize,
    /// Auto-compaction threshold ([`IndexOptions::mutation_buffer`]).
    mutation_buffer: usize,
    /// Compactions performed so far (observable via
    /// [`LsfIndex::compaction_count`]; tests pin that compaction timing is
    /// answer-invariant).
    compactions: u64,
}

impl<S: ThresholdScheme> LsfIndex<S> {
    /// Builds the index: draws `R` hash stacks, enumerates `F(x)` for every
    /// vector under each, and fills the inverted indexes.
    ///
    /// `verify_threshold` is the Braun-Blanquet bar `b₁` candidates must
    /// clear.
    ///
    /// Deterministic under a fixed `rng` seed, for any
    /// [`IndexOptions::build_threads`] count.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use skewsearch_core::{CorrelatedScheme, IndexOptions, LsfIndex, SetSimilaritySearch};
    /// use skewsearch_datagen::{BernoulliProfile, Dataset};
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let profile = BernoulliProfile::two_block(400, 0.2, 0.02).unwrap();
    /// let data = Dataset::generate(&profile, 200, &mut rng);
    /// let scheme = CorrelatedScheme::new(0.8, data.n(), &profile);
    /// let index = LsfIndex::build(
    ///     data.vectors().to_vec(),
    ///     profile.clone(),
    ///     scheme,
    ///     0.8 / 1.3, // verification threshold b₁ (Lemma 10)
    ///     IndexOptions::default(),
    ///     &mut rng,
    /// );
    /// assert_eq!(index.len(), 200);
    /// // A vector queried with itself shares all its filters and is found.
    /// let hit = index.search(data.vector(0)).expect("self-query hits");
    /// assert!(hit.similarity >= index.threshold());
    /// ```
    pub fn build<R: Rng + ?Sized>(
        vectors: Vec<SparseVec>,
        profile: BernoulliProfile,
        scheme: S,
        verify_threshold: f64,
        options: IndexOptions,
        rng: &mut R,
    ) -> Self
    where
        S: Sync,
    {
        assert!(
            (0.0..=1.0).contains(&verify_threshold),
            "verification threshold must lie in [0,1]"
        );
        let n = vectors.len();
        let r = options.repetitions.resolve(n);
        let depth = scheme.depth_bound();
        let mut build_stats = BuildStats {
            repetitions: r,
            ..BuildStats::default()
        };
        let mut truncated: FxHashSet<u32> = FxHashSet::default();
        let mut depth_capped: FxHashSet<u32> = FxHashSet::default();

        // Each repetition gets an independent stack seeded from the caller's
        // RNG; builds stay deterministic under a fixed seed (and under any
        // thread count: chunk results are merged in id order).
        let mut reps = Vec::with_capacity(r);
        for _ in 0..r {
            let mut stack_rng = rand::rngs::StdRng::seed_from_u64(rng.random::<u64>());
            let hashers = PathHasherStack::sample(&mut stack_rng, depth);
            let interner = TabulationU128::sample(&mut stack_rng);
            let chunks = enumerate_chunked(
                &vectors,
                &profile,
                &scheme,
                &hashers,
                &interner,
                options.node_budget,
                options.build_threads,
            );
            // Concatenate chunks (already in ascending id order) and stable-
            // sort by key: within each key the ids stay ascending — exactly
            // the encoder's input contract, for any thread count.
            let mut pairs: Vec<(u32, u64)> = Vec::new();
            for chunk in chunks {
                build_stats.total_filters += chunk.pairs.len();
                pairs.extend(chunk.pairs);
                truncated.extend(chunk.truncated);
                depth_capped.extend(chunk.depth_capped);
            }
            pairs.sort_by_key(|&(_, key)| key);
            let mut enc = PostingsEncoder::new();
            for (id, key) in pairs {
                enc.push(key, id);
            }
            let base = enc.finish();
            build_stats.distinct_buckets += base.bucket_count();
            build_stats.max_bucket = build_stats.max_bucket.max(base.max_bucket_len());
            reps.push(Repetition {
                hashers,
                interner,
                base,
                delta: FxHashMap::default(),
            });
        }
        build_stats.truncated_vectors = truncated.len();
        build_stats.depth_capped_vectors = depth_capped.len();

        Self {
            profile,
            vectors,
            scheme,
            reps,
            verify_threshold,
            node_budget: options.node_budget,
            query_threads: options.query_threads,
            build_stats,
            base_len: n,
            alive: vec![true; n],
            live: n,
            pending: 0,
            mutation_buffer: options.mutation_buffer,
            compactions: 0,
        }
    }

    /// Build statistics.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The scheme driving this index.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The indexed vectors.
    pub fn vectors(&self) -> &[SparseVec] {
        &self.vectors
    }

    /// The profile the index was built against.
    pub fn profile(&self) -> &BernoulliProfile {
        &self.profile
    }

    /// Feeds each *distinct* candidate of `q` to `visit` in first-discovery
    /// order, unverified, enumerating lazily repetition by repetition;
    /// stops when `visit` returns `false`. Returns query statistics.
    pub fn probe(&self, q: &SparseVec, mut visit: impl FnMut(u32) -> bool) -> QueryStats {
        self.walk(q, None, &|| false, |_, _, id| visit(id))
            .unwrap_or_default()
    }

    /// Stage 1 for one repetition: enumerates `F(q)` under `rep`'s hash
    /// stack and interns the path keys into `keys` (both buffers are
    /// cleared first). The only place a query's filters are enumerated.
    fn enumerate_pass(
        &self,
        rep: &Repetition,
        context: &EnumContext<'_>,
        filters: &mut Vec<PathKey>,
        keys: &mut Vec<u64>,
    ) {
        filters.clear();
        enumerate_filters_with(
            context,
            &self.scheme,
            &rep.hashers,
            self.node_budget,
            filters,
        );
        keys.clear();
        keys.extend(filters.iter().map(|k| rep.interner.hash(k.raw())));
    }

    /// Stage 1 of the pipeline: enumerates `F(q)` under every repetition's
    /// hash stack — thresholds and masses hoisted once into an
    /// [`EnumContext`] — and interns the path keys into the per-repetition
    /// 64-bit bucket keys, packaged as a reusable [`QueryPlan`].
    ///
    /// The plan is valid for this index, for any [`LsfIndex::shard_of_ids`]
    /// dataset shard of it (shards keep the parent's hash stacks and
    /// interners, so the plan is shard-invariant — the fact the sharding
    /// layer's enumerate-once broadcast rests on), and, via
    /// [`QueryPlan::slice_passes`], for any [`LsfIndex::shard_of_passes`]
    /// pass-slice shard.
    ///
    /// Unlike the lazy probe of an unplanned query, planning always
    /// enumerates **all** repetitions up front (no early exit) — that is the
    /// price of reusability, repaid as soon as a second consumer probes the
    /// plan.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use skewsearch_core::{CorrelatedScheme, IndexOptions, LsfIndex, SetSimilaritySearch};
    /// use skewsearch_datagen::{BernoulliProfile, Dataset};
    ///
    /// let mut rng = StdRng::seed_from_u64(2);
    /// let profile = BernoulliProfile::two_block(400, 0.2, 0.02).unwrap();
    /// let data = Dataset::generate(&profile, 120, &mut rng);
    /// let scheme = CorrelatedScheme::new(0.8, data.n(), &profile);
    /// let index = LsfIndex::build(
    ///     data.vectors().to_vec(),
    ///     profile.clone(),
    ///     scheme,
    ///     0.8 / 1.3,
    ///     IndexOptions::default(),
    ///     &mut rng,
    /// );
    /// let plan = index.plan_query(data.vector(0));
    /// // One key list per repetition, probing reproduces the search.
    /// assert_eq!(plan.pass_count(), index.repetition_count());
    /// assert_eq!(index.probe_plan(&plan), index.search_all(data.vector(0)));
    /// ```
    pub fn plan_query(&self, q: &SparseVec) -> QueryPlan {
        let context = EnumContext::new(q, &self.profile, &self.scheme, self.scheme.depth_bound());
        let mut filters = Vec::new();
        let passes = self
            .reps
            .iter()
            .map(|rep| {
                let mut keys = Vec::new();
                self.enumerate_pass(rep, &context, &mut filters, &mut keys);
                keys
            })
            .collect();
        QueryPlan::from_passes(q.clone(), passes)
    }

    /// Stage 2 alone: walks `plan` and feeds each distinct candidate to
    /// `visit` as `(pass, step, id)` — `pass` the repetition, `step` the
    /// position of the discovering filter in enumeration order — without
    /// verifying it; stops when `visit` returns `false`. A planned plan
    /// touches only the inverted index; an unplanned one enumerates lazily.
    ///
    /// Within one `(pass, step)` bucket ids ascend, so `(pass, step, id)`
    /// totally orders candidate discovery — the invariant the sharding
    /// layer's merge protocol ([`crate::shard::ShardedIndex`]) rests on.
    ///
    /// # Panics
    /// Panics if a planned plan's pass count differs from this index's
    /// repetition count (a plan from a foreign index — probing it silently
    /// would corrupt answers).
    pub fn probe_plan_tagged(
        &self,
        plan: &QueryPlan,
        visit: impl FnMut(u32, u32, u32) -> bool,
    ) -> QueryStats {
        self.walk(plan.query(), plan.passes(), &|| false, visit)
            .unwrap_or_default()
    }

    /// The one pass loop behind every query entry point. Probes the
    /// repetitions in build order with the keys of `planned` when the query
    /// was planned, or with keys enumerated lazily per repetition otherwise
    /// (the enumeration inputs are hoisted into one [`EnumContext`], built
    /// on the first repetition reached), and feeds each distinct candidate
    /// to `visit` as `(pass, step, id)`; stops when `visit` returns `false`.
    ///
    /// `expired` is polled before the walk and between repetitions; once
    /// it fires the walk ends with [`DeadlineExceeded`].
    fn walk(
        &self,
        q: &SparseVec,
        planned: Option<&[Vec<u64>]>,
        expired: &(dyn Fn() -> bool + Sync),
        mut visit: impl FnMut(u32, u32, u32) -> bool,
    ) -> Result<QueryStats, DeadlineExceeded> {
        if let Some(passes) = planned {
            assert_eq!(
                passes.len(),
                self.reps.len(),
                "QueryPlan pass count does not match this index's repetitions"
            );
        }
        let mut stats = QueryStats::default();
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut context = None;
        let mut filters = Vec::new();
        let mut lazy_keys = Vec::new();
        if expired() {
            return Err(DeadlineExceeded);
        }
        for (pass, rep) in self.reps.iter().enumerate() {
            if pass > 0 && expired() {
                return Err(DeadlineExceeded);
            }
            let keys: &[u64] = match planned {
                Some(passes) => &passes[pass],
                None => {
                    let context = context.get_or_insert_with(|| {
                        EnumContext::new(q, &self.profile, &self.scheme, self.scheme.depth_bound())
                    });
                    self.enumerate_pass(rep, context, &mut filters, &mut lazy_keys);
                    &lazy_keys
                }
            };
            if !probe_pass_keys(rep, pass as u32, keys, &mut seen, &mut stats, &mut visit) {
                break;
            }
        }
        Ok(stats)
    }

    /// Stages 2+3: walks the query and keeps the first verified hit
    /// ([`Take::First`]) or all of them ([`Take::All`]) with their discovery
    /// tags. Every search, probe and deadline entry point is a projection of
    /// this, so it is the single verification site — and the single place
    /// tombstones are filtered: a removed set may still be probed out of a
    /// stale bucket, but it is never answered.
    fn run(
        &self,
        q: &SparseVec,
        planned: Option<&[Vec<u64>]>,
        take: Take,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<(Vec<TaggedMatch>, QueryStats), DeadlineExceeded> {
        let mut hits = Vec::new();
        let stats = self.walk(q, planned, expired, |pass, step, id| {
            let id = id as usize;
            if self.alive[id] {
                let sim = similarity::braun_blanquet(&self.vectors[id], q);
                if sim >= self.verify_threshold {
                    let hit = Match {
                        id,
                        similarity: sim,
                    };
                    hits.push(TaggedMatch { pass, step, hit });
                }
            }
            take == Take::All || hits.is_empty()
        })?;
        Ok((hits, stats))
    }

    /// [`SetSimilaritySearch::search`] with statistics.
    pub fn search_with_stats(&self, q: &SparseVec) -> (Option<Match>, QueryStats) {
        let (hits, stats) = self
            .run(q, None, Take::First, &|| false)
            .unwrap_or_default();
        (hits.first().map(|t| t.hit), stats)
    }

    /// Distinct candidate ids the index would verify for `q` (no similarity
    /// filtering) — the quantity the paper's `n^ρ` bounds govern.
    pub fn distinct_candidates(&self, q: &SparseVec) -> (Vec<u32>, QueryStats) {
        let mut ids = Vec::new();
        let stats = self.probe(q, |id| {
            ids.push(id);
            true
        });
        (ids, stats)
    }

    /// [`SetSimilaritySearch::search_batch`] with an explicit worker count
    /// (`0` = one per available core), ignoring the build-time
    /// [`IndexOptions::query_threads`]. Results are identical for every
    /// worker count.
    pub fn search_batch_threads(&self, queries: &[SparseVec], threads: usize) -> Vec<Vec<Match>> {
        batch_map(queries, threads, |q| self.search_all(q))
    }

    /// [`LsfIndex::distinct_candidates`] over a query batch on `threads`
    /// workers (`0` = one per available core). Element `i` is exactly
    /// `self.distinct_candidates(&queries[i])`.
    pub fn distinct_candidates_batch(
        &self,
        queries: &[SparseVec],
        threads: usize,
    ) -> Vec<(Vec<u32>, QueryStats)> {
        batch_map(queries, threads, |q| self.distinct_candidates(q))
    }

    /// Number of probe passes (= built repetitions).
    pub fn repetition_count(&self) -> usize {
        self.reps.len()
    }

    /// Resident heap bytes of this index by role — the accounting behind
    /// the memory-diet target. `posting_bytes` is exact for the compressed
    /// base segments (three flat arrays, measured by capacity) and a
    /// load-factor-aware estimate for the uncompressed delta maps;
    /// `aux_bytes` covers hash coefficients, interner tables, and the
    /// tombstone bitmap. Deterministic for a deterministic build — which
    /// is what lets `benches/postings.rs` compare substrates.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut posting = 0usize;
        let mut aux = 0usize;
        for rep in &self.reps {
            posting += rep.base.heap_bytes();
            // Delta estimate: per-slot map overhead (key + Vec header +
            // control byte) plus each bucket's id storage.
            posting += rep.delta.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>() + 1);
            posting += rep
                .delta
                // lint:allow(nondeterministic-iter, sum of bucket capacities is an order-independent reduction)
                .values()
                .map(|b| b.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>();
            aux += rep.interner.to_words().len() * std::mem::size_of::<u64>();
            aux += rep.hashers.levels().len() * 3 * std::mem::size_of::<u128>();
        }
        aux += self.alive.capacity();
        let vector_bytes = self.vectors.capacity() * std::mem::size_of::<SparseVec>()
            + self
                .vectors
                .iter()
                .map(|v| std::mem::size_of_val(v.dims()))
                .sum::<usize>();
        MemoryStats {
            posting_bytes: posting,
            vector_bytes,
            aux_bytes: aux,
        }
    }

    /// Incrementally indexes `set` in the delta segments and returns its
    /// slot id (the infallible core of [`SetSimilaritySearch::insert`]).
    ///
    /// Enumerates `F(set)` once per repetition with the index's **existing**
    /// hash stacks — exactly the work one vector costs at build time — and
    /// appends the new id to each matching delta bucket. The id is
    /// `slot_count()` before the call; ids ascend with insertion order and
    /// are never reused. May trigger an automatic [`LsfIndex::compact`]
    /// (answer-invariant) once [`IndexOptions::mutation_buffer`] mutations
    /// have accumulated.
    ///
    /// After any interleaving of inserts and removals, every answer surface
    /// is byte-identical to a freshly built index over the surviving sets
    /// (under the monotone slot-id renumbering; pinned by
    /// `tests/mutation_equivalence.rs`).
    pub fn insert_set(&mut self, set: SparseVec) -> usize {
        let id = self.vectors.len();
        let mut filters: Vec<skewsearch_hashing::PathKey> = Vec::new();
        let context =
            EnumContext::new(&set, &self.profile, &self.scheme, self.scheme.depth_bound());
        for rep in &mut self.reps {
            filters.clear();
            enumerate_filters_with(
                &context,
                &self.scheme,
                &rep.hashers,
                self.node_budget,
                &mut filters,
            );
            for key in filters.iter().map(|k| rep.interner.hash(k.raw())) {
                rep.delta.entry(key).or_default().push(id as u32);
            }
        }
        self.vectors.push(set);
        self.alive.push(true);
        self.live += 1;
        self.pending += 1;
        self.maybe_compact();
        id
    }

    /// Tombstones slot `id`: `true` iff a live set was removed (the
    /// infallible core of [`SetSimilaritySearch::remove`]). Unassigned and
    /// already-dead ids return `false`; removal never panics and a retired
    /// id never comes back.
    ///
    /// The tombstone is honored immediately at the single verification
    /// site (`run`) — the dead set can still be *probed* (its bucket
    /// entries linger until the next [`LsfIndex::compact`]) but can never
    /// be answered.
    pub fn remove_set(&mut self, id: usize) -> bool {
        if id >= self.alive.len() || !self.alive[id] {
            return false;
        }
        self.alive[id] = false;
        self.live -= 1;
        self.pending += 1;
        self.maybe_compact();
        true
    }

    /// Merges the delta segments into the base segments and prunes
    /// tombstoned ids from every bucket. A no-op when nothing is pending.
    ///
    /// **Answer-invariant**: each bucket key is merged independently — base
    /// survivors (ascending ids) followed by that key's delta ids (also
    /// ascending, and all larger) — so the post-compaction walk order for
    /// every key equals the pre-compaction walk order minus dead ids, which
    /// the tombstone check at verification was already filtering. Queries before
    /// and after compaction answer byte-identically
    /// (`tests/mutation_equivalence.rs` interleaves explicit compactions).
    ///
    /// Dead slots' vector payloads are released (slot ids are never reused,
    /// so the slots themselves remain, empty).
    pub fn compact(&mut self) {
        if self.pending == 0 {
            return;
        }
        let alive = &self.alive;
        for rep in &mut self.reps {
            // Re-encode the base segment: a sorted-merge of the old base
            // (already in ascending key order) with the delta keys, pruning
            // tombstoned ids as they stream past. Per key the encoder sees
            // base survivors (ascending ids) then that key's delta ids
            // (also ascending, all larger) — the pre-compaction walk order
            // minus dead ids, which is what keeps compaction
            // answer-invariant.
            // lint:allow(nondeterministic-iter, the delta keys are collected and sorted before the merge — the encoding is independent of the map's iteration order)
            let mut delta_keys: Vec<u64> = rep.delta.keys().copied().collect();
            delta_keys.sort_unstable();
            let mut enc = PostingsEncoder::new();
            let push_delta = |enc: &mut PostingsEncoder, key: u64| {
                if let Some(bucket) = rep.delta.get(&key) {
                    for &id in bucket {
                        if alive[id as usize] {
                            enc.push(key, id);
                        }
                    }
                }
            };
            let mut di = 0usize;
            for (key, cursor) in rep.base.iter() {
                while di < delta_keys.len() && delta_keys[di] < key {
                    push_delta(&mut enc, delta_keys[di]);
                    di += 1;
                }
                for id in cursor {
                    if alive[id as usize] {
                        enc.push(key, id);
                    }
                }
                if di < delta_keys.len() && delta_keys[di] == key {
                    push_delta(&mut enc, key);
                    di += 1;
                }
            }
            while di < delta_keys.len() {
                push_delta(&mut enc, delta_keys[di]);
                di += 1;
            }
            rep.base = enc.finish();
            rep.delta = FxHashMap::default();
        }
        for (slot, &alive) in self.alive.iter().enumerate() {
            if !alive {
                self.vectors[slot] = SparseVec::empty();
            }
        }
        self.base_len = self.vectors.len();
        self.pending = 0;
        self.compactions += 1;
    }

    /// Compacts iff the pending-mutation count has reached the buffer
    /// threshold.
    fn maybe_compact(&mut self) {
        if self.pending >= self.mutation_buffer {
            self.compact();
        }
    }

    /// Total slots ever assigned (live + tombstoned). Slot ids returned by
    /// [`LsfIndex::insert_set`] are always `< slot_count()`, and
    /// [`Match::id`] values are slot ids.
    pub fn slot_count(&self) -> usize {
        self.vectors.len()
    }

    /// Mutations (inserts + removals) absorbed since the last compaction.
    pub fn pending_mutations(&self) -> usize {
        self.pending
    }

    /// Compactions performed so far (automatic and explicit).
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// Whether slot `id` currently holds a live set.
    pub fn is_live(&self, id: usize) -> bool {
        id < self.alive.len() && self.alive[id]
    }

    /// Clones out a shard of this index owning the repetition slice
    /// `range` over the **full** dataset (the `ByRepetition` sharding
    /// primitive — see [`crate::shard`]). The shard's repetition `r` is
    /// byte-identical to this index's repetition `range.start + r`.
    ///
    /// An empty `range` yields a valid index that never finds anything.
    ///
    /// # Panics
    /// Panics if `range.end` exceeds [`LsfIndex::repetition_count`].
    pub fn shard_of_passes(&self, range: std::ops::Range<usize>) -> Self
    where
        S: Clone,
    {
        let reps: Vec<Repetition> = self.reps[range]
            .iter()
            .map(|rep| Repetition {
                hashers: rep.hashers.clone(),
                interner: rep.interner.clone(),
                base: rep.base.clone(),
                delta: rep.delta.clone(),
            })
            .collect();
        // Pass-slice shards keep the full dataset, so the parent's mutation
        // state (tombstones, segment boundary, pending count) carries over
        // verbatim.
        self.shard_from_reps(
            self.vectors.clone(),
            reps,
            self.alive.clone(),
            self.base_len,
            self.pending,
        )
    }

    /// Clones out a shard owning only the vectors with the given **global**
    /// ids (ascending), remapped to local ids `0..ids.len()` (the
    /// `ByDataset` sharding primitive — see [`crate::shard`]). The shard
    /// keeps every repetition's hash stack and interner, with each bucket
    /// filtered down to the shard's ids; bucket order (ascending global id)
    /// is preserved under the monotone remap.
    ///
    /// # Panics
    /// Panics if `ids` is not strictly ascending or contains an id `≥ len()`.
    pub fn shard_of_ids(&self, ids: &[u32]) -> Self
    where
        S: Clone,
    {
        let local_of = crate::shard::local_id_table(ids, self.vectors.len());
        let vectors: Vec<SparseVec> = ids
            .iter()
            .map(|&g| self.vectors[g as usize].clone())
            .collect();
        let remap = |buckets: &FxHashMap<u64, Vec<u32>>| -> FxHashMap<u64, Vec<u32>> {
            // lint:allow(nondeterministic-iter, filtering every bucket into a new map is a per-key transform — the resulting map does not depend on visit order)
            buckets
                .iter()
                .filter_map(|(&key, bucket)| {
                    crate::shard::remap_bucket(bucket, &local_of).map(|local| (key, local))
                })
                .collect()
        };
        // The base segment decodes bucket by bucket (key-ordered, ids
        // ascending) into a reused scratch buffer, remaps, and re-encodes —
        // the monotone remap preserves both encoder invariants.
        let mut scratch: Vec<u32> = Vec::new();
        let reps: Vec<Repetition> = self
            .reps
            .iter()
            .map(|rep| {
                let mut enc = PostingsEncoder::new();
                for (key, cursor) in rep.base.iter() {
                    scratch.clear();
                    scratch.extend(cursor);
                    if let Some(local) = crate::shard::remap_bucket(&scratch, &local_of) {
                        for id in local {
                            enc.push(key, id);
                        }
                    }
                }
                Repetition {
                    hashers: rep.hashers.clone(),
                    interner: rep.interner.clone(),
                    base: enc.finish(),
                    delta: remap(&rep.delta),
                }
            })
            .collect();
        // Mutation state restricted to the shard's slots: liveness follows
        // each global id; the local segment boundary is where the shard's
        // ids cross the parent's (`ids` ascends, so partition_point finds
        // it); the pending count is the shard's share of unpruned
        // tombstones plus its delta entries — conservative is fine, the
        // count only gates when compaction *may* run, never what it yields.
        let alive: Vec<bool> = ids.iter().map(|&g| self.alive[g as usize]).collect();
        let base_len = ids.partition_point(|&g| (g as usize) < self.base_len);
        let pending = if self.pending == 0 {
            0
        } else {
            let deltas: usize = reps
                .iter()
                // lint:allow(nondeterministic-iter, sum of delta-bucket sizes is an order-independent reduction)
                .map(|r| r.delta.values().map(Vec::len).sum::<usize>())
                .sum();
            deltas + alive.iter().filter(|a| !**a).count()
        };
        self.shard_from_reps(vectors, reps, alive, base_len, pending)
    }

    /// Assembles a shard from cloned repetitions plus its slice of the
    /// parent's mutation state, recomputing the storage statistics (the
    /// per-vector truncation counters are a build-time artifact of the
    /// parent and are zeroed in shards).
    fn shard_from_reps(
        &self,
        vectors: Vec<SparseVec>,
        reps: Vec<Repetition>,
        alive: Vec<bool>,
        base_len: usize,
        pending: usize,
    ) -> Self
    where
        S: Clone,
    {
        let live = alive.iter().filter(|a| **a).count();
        let build_stats = BuildStats {
            repetitions: reps.len(),
            total_filters: reps.iter().map(|r| r.base.posting_count()).sum(),
            distinct_buckets: reps.iter().map(|r| r.base.bucket_count()).sum(),
            max_bucket: reps
                .iter()
                .map(|r| r.base.max_bucket_len())
                .max()
                .unwrap_or(0),
            truncated_vectors: 0,
            depth_capped_vectors: 0,
        };
        Self {
            profile: self.profile.clone(),
            vectors,
            scheme: self.scheme.clone(),
            reps,
            verify_threshold: self.verify_threshold,
            node_budget: self.node_budget,
            query_threads: self.query_threads,
            build_stats,
            base_len,
            alive,
            live,
            pending,
            mutation_buffer: self.mutation_buffer,
            compactions: 0,
        }
    }
}

impl<S: ThresholdScheme> SetSimilaritySearch for LsfIndex<S> {
    /// Implements the trait's dedup-then-verify contract: the walk
    /// deduplicates candidate ids across repetitions *before* the
    /// similarity computation, and matches appear in first-discovery probe
    /// order — the tag projection of the unplanned [`Take::All`] answer.
    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        let (hits, _) = self.run(q, None, Take::All, &|| false).unwrap_or_default();
        hits.into_iter().map(|t| t.hit).collect()
    }

    /// Stage 1: full enumeration + interning, one key list per repetition —
    /// see [`LsfIndex::plan_query`].
    fn plan_query(&self, q: &SparseVec) -> QueryPlan {
        LsfIndex::plan_query(self, q)
    }

    /// Genuine `(repetition, filter)` discovery tags, polling `expired`
    /// between repetitions — the natural cancellation point of the
    /// pipeline, so a firing deadline abandons the probe within one
    /// repetition's worth of work.
    fn answer(
        &self,
        plan: &QueryPlan,
        take: Take,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        self.run(plan.query(), plan.passes(), take, expired)
            .map(|(hits, _)| hits)
    }

    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        self.search_batch_threads(queries, self.query_threads)
    }

    /// Infallible delegation to [`LsfIndex::insert_set`] — the LSF index is
    /// mutable, per its `supports_mutation` contract.
    fn insert(
        &mut self,
        set: SparseVec,
    ) -> Result<crate::traits::SetId, crate::traits::MutationError> {
        Ok(self.insert_set(set))
    }

    /// Infallible delegation to [`LsfIndex::remove_set`].
    fn remove(&mut self, id: crate::traits::SetId) -> Result<bool, crate::traits::MutationError> {
        Ok(self.remove_set(id))
    }

    fn supports_mutation(&self) -> bool {
        true
    }

    /// Genuine accounting — see [`LsfIndex::memory_stats`].
    fn memory_stats(&self) -> MemoryStats {
        LsfIndex::memory_stats(self)
    }

    fn threshold(&self) -> f64 {
        self.verify_threshold
    }

    /// Live sets only — tombstoned slots no longer count (see
    /// [`LsfIndex::slot_count`] for the total).
    fn len(&self) -> usize {
        self.live
    }
}

// --- persistence -----------------------------------------------------------
//
// The index is deterministic given its hash-function draws, so its payload
// is plain data: scheme calibration, profile, vectors, the `alive` bitmap
// and watermark counters, and per repetition the level-hash coefficients,
// interner tables, and both posting segments. Byte layout is specified in
// `docs/PERSISTENCE.md` §4; the container framing lives in
// [`crate::persist`].

impl<S: ThresholdScheme + PersistScheme> LsfIndex<S> {
    /// Appends this index's complete state to `w` as the kind-1 payload of
    /// `docs/PERSISTENCE.md` §4, encoded for container format `version`:
    /// under v2 the base segments persist as compressed postings (sorted
    /// keys + byte offsets + the delta/varint arena, verbatim); under v1
    /// they are expanded to the legacy uncompressed bucket-map layout. The
    /// delta segments use the bucket-map layout in both versions. Public
    /// because the wrapper indexes in `skewsearch-baselines` embed this
    /// payload after their own fields; most callers want [`Persist::save`]
    /// instead.
    pub fn write_payload(&self, w: &mut Writer, version: u32) {
        w.put_u32(S::SCHEME_TAG);
        self.scheme.encode_scheme(w);
        w.put_f64_slice(self.profile.ps());
        w.put_f64(self.verify_threshold);
        w.put_u64(self.node_budget as u64);
        w.put_u64(self.query_threads as u64);
        w.put_u64(self.mutation_buffer as u64);
        w.put_u64(self.compactions);
        w.put_u64(self.base_len as u64);
        w.put_u64(self.pending as u64);
        w.put_u64(self.build_stats.repetitions as u64);
        w.put_u64(self.build_stats.total_filters as u64);
        w.put_u64(self.build_stats.distinct_buckets as u64);
        w.put_u64(self.build_stats.max_bucket as u64);
        w.put_u64(self.build_stats.truncated_vectors as u64);
        w.put_u64(self.build_stats.depth_capped_vectors as u64);
        // Vectors: one offset table plus one flat dimension stream.
        w.put_u64(self.vectors.len() as u64);
        let mut offsets: Vec<u64> = Vec::with_capacity(self.vectors.len() + 1);
        offsets.push(0);
        let mut total = 0u64;
        for v in &self.vectors {
            total += v.dims().len() as u64;
            offsets.push(total);
        }
        w.put_u64_slice(&offsets);
        let mut flat: Vec<u32> = Vec::with_capacity(total as usize);
        for v in &self.vectors {
            flat.extend_from_slice(v.dims());
        }
        w.put_u32_slice(&flat);
        w.put_bitmap(&self.alive);
        w.put_u64(self.reps.len() as u64);
        for rep in &self.reps {
            let levels = rep.hashers.levels();
            w.put_u64(levels.len() as u64);
            for level in levels {
                let (a1, a2, b) = level.coefficients();
                w.put_u128(a1);
                w.put_u128(a2);
                w.put_u128(b);
            }
            w.put_u64_slice(&rep.interner.to_words());
            if version >= 2 {
                write_postings(w, &rep.base);
            } else {
                write_postings_as_bucket_map(w, &rep.base);
            }
            write_bucket_map(w, &rep.delta);
        }
    }

    /// Decodes an index from a payload written by
    /// [`LsfIndex::write_payload`] for container format `version` (v1 base
    /// segments are re-encoded to compressed postings on the way in),
    /// validating every structural invariant the query path relies on
    /// (offset tables monotone, ids in range and ascending, varint streams
    /// well-formed, hasher stacks exactly `depth_bound` deep, delta ids
    /// past the base watermark). Never panics: corrupt bytes yield a
    /// [`PersistError`]. Most callers want [`Persist::load`] instead.
    pub fn read_payload(r: &mut Reader<'_>, version: u32) -> Result<Self, PersistError> {
        let tag = r.get_u32()?;
        if tag != S::SCHEME_TAG {
            return Err(PersistError::Malformed(
                "scheme tag does not match the requested scheme type",
            ));
        }
        let scheme = S::decode_scheme(r)?;
        let ps = r.get_f64_vec()?;
        let profile = BernoulliProfile::new(ps)
            .map_err(|_| PersistError::Malformed("profile probabilities out of range"))?;
        let verify_threshold = r.get_f64()?;
        if !(0.0..=1.0).contains(&verify_threshold) {
            return Err(PersistError::Malformed("verify threshold out of [0,1]"));
        }
        let node_budget = r.get_u64()? as usize;
        let query_threads = r.get_u64()? as usize;
        let mutation_buffer = r.get_u64()? as usize;
        let compactions = r.get_u64()?;
        let base_len = r.get_u64()? as usize;
        let pending = r.get_u64()? as usize;
        let build_stats = BuildStats {
            repetitions: r.get_u64()? as usize,
            total_filters: r.get_u64()? as usize,
            distinct_buckets: r.get_u64()? as usize,
            max_bucket: r.get_u64()? as usize,
            truncated_vectors: r.get_u64()? as usize,
            depth_capped_vectors: r.get_u64()? as usize,
        };
        let n = r.get_u64()? as usize;
        if n > u32::MAX as usize {
            return Err(PersistError::Malformed("slot count exceeds u32 id space"));
        }
        let offsets = r.get_u64_vec()?;
        let flat = r.get_u32_vec()?;
        if offsets.len() != n.checked_add(1).ok_or(PersistError::Truncated)?
            || offsets.first().copied() != Some(0)
            || offsets.last().copied() != Some(flat.len() as u64)
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(PersistError::Malformed("vector offset table inconsistent"));
        }
        let mut vectors: Vec<SparseVec> = Vec::with_capacity(n);
        for i in 0..n {
            let dims = flat
                .get(offsets[i] as usize..offsets[i + 1] as usize)
                .ok_or(PersistError::Malformed("vector offset table inconsistent"))?;
            if dims.windows(2).any(|w| w[0] >= w[1]) {
                return Err(PersistError::Malformed(
                    "vector dimensions not strictly ascending",
                ));
            }
            vectors.push(SparseVec::from_sorted(dims.to_vec()));
        }
        let alive = r.get_bitmap()?;
        if alive.len() != n {
            return Err(PersistError::Malformed("liveness bitmap length mismatch"));
        }
        if base_len > n {
            return Err(PersistError::Malformed("base watermark past slot count"));
        }
        let live = alive.iter().filter(|a| **a).count();
        let rep_count = r.get_u64()?;
        let mut reps: Vec<Repetition> = Vec::new();
        for _ in 0..rep_count {
            let level_count = r.get_u64()?;
            if level_count != scheme.depth_bound() as u64 {
                return Err(PersistError::Malformed(
                    "hasher stack depth does not match the scheme's depth bound",
                ));
            }
            let mut levels = Vec::new();
            for _ in 0..level_count {
                let a1 = r.get_u128()?;
                let a2 = r.get_u128()?;
                let b = r.get_u128()?;
                levels.push(skewsearch_hashing::LevelHasher::from_coefficients(
                    a1, a2, b,
                ));
            }
            let words = r.get_u64_vec()?;
            let interner = TabulationU128::from_words(&words).ok_or(PersistError::Malformed(
                "interner table word count mismatch",
            ))?;
            let base = if version >= 2 {
                read_postings(r, n, 0)?
            } else {
                compress_bucket_map(&read_bucket_map(r, n, 0)?)
            };
            let delta = read_bucket_map(r, n, base_len as u32)?;
            reps.push(Repetition {
                hashers: PathHasherStack::from_levels(levels),
                interner,
                base,
                delta,
            });
        }
        Ok(Self {
            profile,
            vectors,
            scheme,
            reps,
            verify_threshold,
            node_budget,
            query_threads,
            build_stats,
            base_len,
            alive,
            live,
            pending,
            mutation_buffer,
            compactions,
        })
    }
}

impl<S: ThresholdScheme + PersistScheme> Persist for LsfIndex<S> {
    fn save(&self, path: &std::path::Path) -> Result<(), PersistError> {
        // Resolve the write version once: the payload encoding and the
        // container header must agree.
        let version = effective_write_version();
        let mut w = Writer::new();
        self.write_payload(&mut w, version);
        write_container_versioned(path, kind::LSF, &w.into_payload(), version)
    }

    fn load(path: &std::path::Path) -> Result<Self, PersistError> {
        let (payload, version) = read_container_versioned(path, kind::LSF)?;
        let mut r = Reader::new(&payload);
        let index = Self::read_payload(&mut r, version)?;
        if !r.is_empty() {
            return Err(PersistError::Malformed(
                "trailing bytes after index payload",
            ));
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::CorrelatedScheme;
    use rand::rngs::StdRng;
    use skewsearch_datagen::{correlated_query, Dataset};

    fn small_setup() -> (Dataset, BernoulliProfile, StdRng) {
        let profile = BernoulliProfile::two_block(600, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let ds = Dataset::generate(&profile, 300, &mut rng);
        (ds, profile, rng)
    }

    fn build_correlated(
        ds: &Dataset,
        profile: &BernoulliProfile,
        alpha: f64,
        reps: usize,
        rng: &mut StdRng,
    ) -> LsfIndex<CorrelatedScheme> {
        let scheme = CorrelatedScheme::new(alpha, ds.n(), profile);
        LsfIndex::build(
            ds.vectors().to_vec(),
            profile.clone(),
            scheme,
            alpha / 1.3,
            IndexOptions {
                repetitions: Repetitions::Fixed(reps),
                ..IndexOptions::default()
            },
            rng,
        )
    }

    #[test]
    fn repetitions_resolve() {
        assert_eq!(Repetitions::Fixed(5).resolve(10), 5);
        assert_eq!(Repetitions::Fixed(0).resolve(10), 1);
        let auto = Repetitions::Auto { factor: 1.0 }.resolve(1000);
        assert_eq!(auto, (1000f64).ln().ceil() as usize);
    }

    #[test]
    fn finds_planted_correlated_vector() {
        let (ds, profile, mut rng) = small_setup();
        let alpha = 0.8;
        let index = build_correlated(&ds, &profile, alpha, 8, &mut rng);
        let mut found = 0;
        let trials = 40;
        for t in 0..trials {
            let target = t % ds.n();
            let q = correlated_query(ds.vector(target), &profile, alpha, &mut rng);
            if let Some(m) = index.search(&q) {
                // Any hit must clear the threshold; usually it's the target.
                assert!(m.similarity >= index.threshold());
                if m.id == target {
                    found += 1;
                }
            }
        }
        assert!(found >= trials * 3 / 4, "found {found}/{trials}");
    }

    #[test]
    fn search_never_returns_below_threshold() {
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.7, 4, &mut rng);
        let sampler = skewsearch_datagen::VectorSampler::new(&profile);
        for _ in 0..30 {
            let q = sampler.sample(&mut rng);
            if let Some(m) = index.search(&q) {
                assert!(m.similarity >= index.threshold());
            }
        }
    }

    #[test]
    fn search_all_is_deduplicated_and_verified() {
        let (ds, profile, mut rng) = small_setup();
        let alpha = 0.85;
        let index = build_correlated(&ds, &profile, alpha, 8, &mut rng);
        let q = correlated_query(ds.vector(7), &profile, alpha, &mut rng);
        let all = index.search_all(&q);
        let mut ids: Vec<usize> = all.iter().map(|m| m.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate ids in search_all");
        for m in &all {
            assert!(m.similarity >= index.threshold());
        }
    }

    #[test]
    fn build_stats_are_populated() {
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.7, 3, &mut rng);
        let st = index.build_stats();
        assert_eq!(st.repetitions, 3);
        assert!(st.total_filters > 0);
        assert!(st.distinct_buckets > 0);
        assert!(st.max_bucket >= 1);
        assert!(st.avg_filters_per_vector(ds.n()) > 0.0);
    }

    #[test]
    fn query_stats_track_probing() {
        let (ds, profile, mut rng) = small_setup();
        let alpha = 0.8;
        let index = build_correlated(&ds, &profile, alpha, 6, &mut rng);
        let q = correlated_query(ds.vector(3), &profile, alpha, &mut rng);
        let (hit, stats) = index.search_with_stats(&q);
        assert!(stats.repetitions_probed >= 1);
        assert!(stats.filters > 0);
        if hit.is_some() {
            assert!(stats.verified >= 1);
            // Early exit: should not have probed every repetition unless the
            // hit came late.
            assert!(stats.repetitions_probed <= 6);
        }
    }

    #[test]
    fn distinct_candidates_contains_search_hits() {
        let (ds, profile, mut rng) = small_setup();
        let alpha = 0.85;
        let index = build_correlated(&ds, &profile, alpha, 6, &mut rng);
        let q = correlated_query(ds.vector(11), &profile, alpha, &mut rng);
        let (cands, _) = index.distinct_candidates(&q);
        if let Some(m) = index.search(&q) {
            assert!(cands.contains(&(m.id as u32)));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let profile = BernoulliProfile::two_block(400, 0.2, 0.02).unwrap();
        let mut rng1 = StdRng::seed_from_u64(99);
        let ds1 = Dataset::generate(&profile, 150, &mut rng1);
        let idx1 = build_correlated(&ds1, &profile, 0.8, 4, &mut rng1);
        let mut rng2 = StdRng::seed_from_u64(99);
        let ds2 = Dataset::generate(&profile, 150, &mut rng2);
        let idx2 = build_correlated(&ds2, &profile, 0.8, 4, &mut rng2);
        let q = correlated_query(ds1.vector(0), &profile, 0.8, &mut rng1);
        let (c1, s1) = idx1.distinct_candidates(&q);
        let (c2, s2) = idx2.distinct_candidates(&q);
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        let profile = BernoulliProfile::two_block(500, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(777);
        let ds = Dataset::generate(&profile, 120, &mut rng);
        let build = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(31337);
            let scheme = CorrelatedScheme::new(0.8, ds.n(), &profile);
            LsfIndex::build(
                ds.vectors().to_vec(),
                profile.clone(),
                scheme,
                0.8 / 1.3,
                IndexOptions {
                    repetitions: Repetitions::Fixed(3),
                    build_threads: threads,
                    ..IndexOptions::default()
                },
                &mut rng,
            )
        };
        let seq = build(1);
        for threads in [2, 4, 7] {
            let par = build(threads);
            // Identical stats and identical probing behaviour on queries.
            assert_eq!(
                seq.build_stats().total_filters,
                par.build_stats().total_filters,
                "threads={threads}"
            );
            assert_eq!(
                seq.build_stats().distinct_buckets,
                par.build_stats().distinct_buckets
            );
            let mut rng = StdRng::seed_from_u64(1);
            for t in 0..10 {
                let q = correlated_query(ds.vector(t), &profile, 0.8, &mut rng);
                assert_eq!(
                    seq.distinct_candidates(&q).0,
                    par.distinct_candidates(&q).0,
                    "threads={threads} query={t}"
                );
            }
        }
    }

    #[test]
    fn planned_probe_is_byte_identical_to_fused_search() {
        let (ds, profile, mut rng) = small_setup();
        let alpha = 0.8;
        let index = build_correlated(&ds, &profile, alpha, 7, &mut rng);
        for t in 0..15 {
            let q = correlated_query(ds.vector(t * 13 % ds.n()), &profile, alpha, &mut rng);
            let plan = index.plan_query(&q);
            assert_eq!(plan.pass_count(), index.repetition_count());
            assert_eq!(
                SetSimilaritySearch::probe_plan_tagged(&index, &plan),
                index.search_all_tagged(&q),
                "query {t}"
            );
            assert_eq!(index.probe_plan(&plan), index.search_all(&q));
            assert_eq!(
                index.probe_plan_first_tagged(&plan),
                index.search_first_tagged(&q)
            );
        }
        // Degenerate: the empty query plans to empty key lists and finds
        // nothing, exactly like the fused path.
        let plan = index.plan_query(&SparseVec::empty());
        assert_eq!(plan.pass_count(), index.repetition_count());
        assert_eq!(plan.key_count(), 0);
        assert!(index.probe_plan(&plan).is_empty());
    }

    #[test]
    fn unplanned_plan_falls_back_to_fused_probe() {
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.8, 4, &mut rng);
        let q = correlated_query(ds.vector(5), &profile, 0.8, &mut rng);
        let plan = crate::plan::QueryPlan::unplanned(q.clone());
        assert_eq!(
            SetSimilaritySearch::probe_plan_tagged(&index, &plan),
            index.search_all_tagged(&q)
        );
    }

    #[test]
    #[should_panic(expected = "pass count")]
    fn foreign_plan_pass_count_mismatch_panics() {
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.8, 4, &mut rng);
        let plan = crate::plan::QueryPlan::from_passes(SparseVec::empty(), vec![vec![]; 3]);
        let _ = SetSimilaritySearch::probe_plan_tagged(&index, &plan);
    }

    #[test]
    fn sliced_plan_drives_pass_slice_shards() {
        // A pass-slice shard's probe of plan.slice_passes(range) equals its
        // own fused search — the cross-machine ByRepetition fan-out shape.
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.8, 6, &mut rng);
        let q = correlated_query(ds.vector(9), &profile, 0.8, &mut rng);
        let plan = index.plan_query(&q);
        for range in [0..2, 2..6, 0..6, 3..3] {
            let shard = index.shard_of_passes(range.clone());
            let sliced = plan.slice_passes(range.clone());
            assert_eq!(
                SetSimilaritySearch::probe_plan_tagged(&shard, &sliced),
                shard.search_all_tagged(&q),
                "range {range:?}"
            );
        }
    }

    #[test]
    fn dataset_shards_share_the_parents_plan() {
        // shard_of_ids keeps hash stacks and interners, so plan_query is
        // shard-invariant — the contract the broadcast layer rests on.
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.8, 5, &mut rng);
        let q = correlated_query(ds.vector(2), &profile, 0.8, &mut rng);
        let plan = index.plan_query(&q);
        let shard = index.shard_of_ids(&[0, 3, 5, 17, 44]);
        assert_eq!(shard.plan_query(&q), plan);
        assert_eq!(
            SetSimilaritySearch::probe_plan_tagged(&shard, &plan),
            shard.search_all_tagged(&q)
        );
    }

    /// Builds over `vectors` with a dedicated RNG consumed *only* by the
    /// build and a scheme calibrated to a fixed `n` — so two builds with the
    /// same seed draw identical hash stacks and interners no matter how many
    /// vectors each indexes. This is the rebuild oracle the mutation tests
    /// compare against.
    fn build_fixed(
        vectors: Vec<SparseVec>,
        profile: &BernoulliProfile,
        mutation_buffer: usize,
    ) -> LsfIndex<CorrelatedScheme> {
        let scheme = CorrelatedScheme::new(0.8, 300, profile);
        let mut rng = StdRng::seed_from_u64(0xB111D);
        LsfIndex::build(
            vectors,
            profile.clone(),
            scheme,
            0.8 / 1.3,
            IndexOptions {
                repetitions: Repetitions::Fixed(5),
                mutation_buffer,
                ..IndexOptions::default()
            },
            &mut rng,
        )
    }

    /// A mutated index and the from-scratch build over its survivors answer
    /// byte-identically (under the monotone slot renumbering), and explicit
    /// compaction at any point never changes an answer.
    #[test]
    fn mutated_index_answers_like_a_rebuild() {
        let (ds, profile, _rng) = small_setup();
        let mut index = build_fixed(ds.vectors()[..200].to_vec(), &profile, usize::MAX);
        // Interleave: remove some build-time sets, insert some fresh ones.
        for id in [3usize, 50, 51, 199, 0] {
            assert!(index.remove_set(id));
        }
        for t in 200..230 {
            assert_eq!(index.insert_set(ds.vector(t).clone()), t);
        }
        assert!(index.remove_set(210));
        assert_eq!(index.len(), 200 - 5 + 30 - 1);
        assert_eq!(index.slot_count(), 230);

        // Survivors in ascending slot order + slot → compact-id map.
        let survivors: Vec<usize> = (0..index.slot_count())
            .filter(|&s| index.is_live(s))
            .collect();
        // Slot `s` always holds `ds.vector(s)`: build took 0..200, inserts
        // appended 200..230 in order.
        let vectors: Vec<SparseVec> = survivors.iter().map(|&s| ds.vector(s).clone()).collect();
        let rebuilt = build_fixed(vectors, &profile, usize::MAX);
        let compact_of: FxHashMap<usize, usize> =
            survivors.iter().enumerate().map(|(c, &s)| (s, c)).collect();

        let check = |index: &LsfIndex<CorrelatedScheme>| {
            let mut rng = StdRng::seed_from_u64(7);
            for t in 0..25 {
                let q = correlated_query(ds.vector(t * 11 % 230), &profile, 0.8, &mut rng);
                let got: Vec<(usize, f64)> = index
                    .search_all(&q)
                    .into_iter()
                    .map(|m| (compact_of[&m.id], m.similarity))
                    .collect();
                let want: Vec<(usize, f64)> = rebuilt
                    .search_all(&q)
                    .into_iter()
                    .map(|m| (m.id, m.similarity))
                    .collect();
                assert_eq!(got, want, "query {t}");
                assert_eq!(
                    index.search(&q).map(|m| (compact_of[&m.id], m.similarity)),
                    rebuilt.search(&q).map(|m| (m.id, m.similarity)),
                );
            }
        };
        check(&index);
        // Compaction is answer-invariant.
        assert_eq!(index.compaction_count(), 0);
        index.compact();
        assert_eq!(index.compaction_count(), 1);
        assert_eq!(index.pending_mutations(), 0);
        check(&index);
    }

    #[test]
    fn tombstoned_ids_are_probed_but_never_answered() {
        let (ds, profile, _rng) = small_setup();
        let mut index = build_fixed(ds.vectors()[..150].to_vec(), &profile, usize::MAX);
        // Self-queries: every live vector finds itself at similarity 1.
        let victim = 42usize;
        let q = ds.vector(victim).clone();
        assert!(index
            .search_all(&q)
            .iter()
            .any(|m| m.id == victim && m.similarity == 1.0));
        assert!(index.remove_set(victim));
        // Still a candidate (its bucket entries linger until compaction) …
        let (cands, _) = index.distinct_candidates(&q);
        assert!(cands.contains(&(victim as u32)), "stale probe expected");
        // … but never an answer, from any surface.
        assert!(index.search_all(&q).iter().all(|m| m.id != victim));
        assert!(index.search(&q).map(|m| m.id) != Some(victim));
        let plan = index.plan_query(&q);
        assert!(index.probe_plan(&plan).iter().all(|m| m.id != victim));
        // After compaction the stale bucket entries are gone too.
        index.compact();
        let (cands, _) = index.distinct_candidates(&q);
        assert!(!cands.contains(&(victim as u32)), "compaction prunes");
        assert!(index.search_all(&q).iter().all(|m| m.id != victim));
    }

    #[test]
    fn compact_on_clean_index_is_a_noop() {
        let (ds, profile, _rng) = small_setup();
        let mut index = build_fixed(ds.vectors()[..100].to_vec(), &profile, usize::MAX);
        index.compact();
        assert_eq!(index.compaction_count(), 0, "empty delta: no compaction");
        // A mutate-compact cycle, then another explicit compact: also a noop.
        let id = index.insert_set(ds.vector(100).clone());
        assert!(index.remove_set(id));
        index.compact();
        assert_eq!(index.compaction_count(), 1);
        index.compact();
        assert_eq!(index.compaction_count(), 1, "nothing pending: no-op");
    }

    #[test]
    fn auto_compaction_triggers_at_the_buffer_threshold() {
        let (ds, profile, _rng) = small_setup();
        let mut index = build_fixed(ds.vectors()[..100].to_vec(), &profile, 4);
        assert_eq!(index.pending_mutations(), 0);
        index.insert_set(ds.vector(100).clone());
        index.insert_set(ds.vector(101).clone());
        assert!(index.remove_set(3));
        assert_eq!(index.pending_mutations(), 3);
        assert_eq!(index.compaction_count(), 0);
        index.insert_set(ds.vector(102).clone());
        assert_eq!(index.compaction_count(), 1, "4th mutation compacts");
        assert_eq!(index.pending_mutations(), 0);
        assert!(!index.is_live(3));
        assert!(index.is_live(102));
    }

    #[test]
    fn mutation_bookkeeping_and_degenerate_removes() {
        let (ds, profile, _rng) = small_setup();
        let mut index = build_fixed(ds.vectors()[..50].to_vec(), &profile, usize::MAX);
        assert!(index.supports_mutation());
        // Ids are dense, monotone, and never reused.
        assert_eq!(index.insert_set(ds.vector(50).clone()), 50);
        assert!(index.remove_set(50));
        assert_eq!(index.insert_set(ds.vector(50).clone()), 51, "no reuse");
        // Removal is idempotent; unassigned ids are refused.
        assert!(!index.remove_set(50), "already dead");
        assert!(!index.remove_set(999), "never assigned");
        assert_eq!(index.len(), 51);
        assert_eq!(index.slot_count(), 52);
        // Trait-level mutation is infallible here.
        let via_trait = SetSimilaritySearch::insert(&mut index, ds.vector(51).clone());
        assert_eq!(via_trait, Ok(52));
        assert_eq!(SetSimilaritySearch::remove(&mut index, 52), Ok(true));
        assert_eq!(SetSimilaritySearch::remove(&mut index, 52), Ok(false));
        // Emptying the index entirely leaves a valid structure.
        for id in 0..index.slot_count() {
            let _ = index.remove_set(id);
        }
        assert_eq!(index.len(), 0);
        assert!(index.is_empty());
        let q = ds.vector(0).clone();
        assert!(index.search(&q).is_none());
        assert!(index.search_all(&q).is_empty());
        index.compact();
        assert!(index.search_all(&q).is_empty());
    }

    #[test]
    fn empty_index_finds_nothing() {
        let profile = BernoulliProfile::uniform(50, 0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let scheme = CorrelatedScheme::new(0.5, 2, &profile);
        let index: LsfIndex<CorrelatedScheme> = LsfIndex::build(
            vec![],
            profile.clone(),
            scheme,
            0.5,
            IndexOptions::default(),
            &mut rng,
        );
        assert!(index.is_empty());
        let q = SparseVec::from_unsorted(vec![1, 2, 3]);
        assert!(index.search(&q).is_none());
        assert!(index.search_all(&q).is_empty());
    }
}
