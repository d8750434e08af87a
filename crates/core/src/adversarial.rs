//! The adversarial-query index (§5, Theorem 2).
//!
//! Given a similarity threshold `b₁`, preprocesses `S ~ D^n` so that any
//! query `q` (possibly adversarially chosen) with a `b₁`-similar neighbor in
//! `S` is answered in expected time `O(d · n^{ρ(q)+ε})` where
//! `Σ_{i∈q} p_i^{ρ(q)} = b₁|q|` — i.e. the structure *adapts to the
//! difficulty of the query*: skewed queries are cheap, worst-case queries
//! match the Chosen Path bound.

use crate::index::{IndexOptions, LsfIndex, QueryStats};
use crate::scheme::AdversarialScheme;
use crate::traits::{Match, SetSimilaritySearch};
use rand::Rng;
use skewsearch_datagen::{BernoulliProfile, Dataset};
use skewsearch_rho::rho_adversarial_query;
use skewsearch_sets::SparseVec;

/// Parameters for [`AdversarialIndex`].
#[derive(Clone, Copy, Debug)]
pub struct AdversarialParams {
    /// Similarity threshold `b₁` the returned vector must meet.
    pub b1: f64,
    /// Index tuning (repetitions, node budget).
    pub options: IndexOptions,
}

impl AdversarialParams {
    /// Validates `b₁ ∈ (0, 1]`.
    pub fn new(b1: f64) -> Result<Self, String> {
        if !(b1 > 0.0 && b1 <= 1.0) {
            return Err(format!("b1 must lie in (0, 1], got {b1}"));
        }
        Ok(Self {
            b1,
            options: IndexOptions::default(),
        })
    }

    /// Overrides the index options.
    pub fn with_options(mut self, options: IndexOptions) -> Self {
        self.options = options;
        self
    }
}

/// The paper's §5 data structure: skew-adaptive LSF with thresholds
/// `s(x, j, i) = 1/(b₁|x| − j)` and the product stopping rule.
pub struct AdversarialIndex {
    inner: LsfIndex<AdversarialScheme>,
}

impl AdversarialIndex {
    /// Preprocesses the dataset (Theorem 2: `O(d n^{1+ρᵤ+ε})` expected time,
    /// `O(n^{1+ρᵤ+ε} + dn)` expected space).
    pub fn build<R: Rng + ?Sized>(
        dataset: &Dataset,
        profile: &BernoulliProfile,
        params: AdversarialParams,
        rng: &mut R,
    ) -> Self {
        let scheme = AdversarialScheme::new(params.b1, dataset.n().max(2), profile);
        let inner = LsfIndex::build(
            dataset.vectors().to_vec(),
            profile.clone(),
            scheme,
            params.b1,
            params.options,
            rng,
        );
        Self { inner }
    }

    /// The predicted per-query exponent `ρ(q)` of Theorem 2, from the item
    /// probabilities of the query's set bits: `Σ_{i∈q} p_i^ρ = b₁|q|`.
    ///
    /// Purely analytical — the search itself never needs it.
    pub fn predicted_rho(&self, q: &SparseVec) -> f64 {
        let ps: Vec<f64> = q.iter().map(|i| self.inner.profile().p(i)).collect();
        rho_adversarial_query(&ps, self.inner.scheme().b1())
    }

    /// Search with probing statistics.
    pub fn search_with_stats(&self, q: &SparseVec) -> (Option<Match>, QueryStats) {
        self.inner.search_with_stats(q)
    }

    /// Distinct candidates the structure examines for `q` (the `n^{ρ(q)}`
    /// quantity).
    pub fn distinct_candidates(&self, q: &SparseVec) -> (Vec<u32>, QueryStats) {
        self.inner.distinct_candidates(q)
    }

    /// [`SetSimilaritySearch::search_batch`] with an explicit worker count
    /// (`0` = one per available core).
    pub fn search_batch_threads(&self, queries: &[SparseVec], threads: usize) -> Vec<Vec<Match>> {
        self.inner.search_batch_threads(queries, threads)
    }

    /// [`AdversarialIndex::distinct_candidates`] over a query batch on
    /// `threads` workers (`0` = one per available core).
    pub fn distinct_candidates_batch(
        &self,
        queries: &[SparseVec],
        threads: usize,
    ) -> Vec<(Vec<u32>, QueryStats)> {
        self.inner.distinct_candidates_batch(queries, threads)
    }

    /// Build statistics.
    pub fn build_stats(&self) -> &crate::index::BuildStats {
        self.inner.build_stats()
    }
}

impl SetSimilaritySearch for AdversarialIndex {
    /// Delegates to [`LsfIndex::search_all`](crate::LsfIndex), inheriting its
    /// dedup-before-verify, first-discovery ordering contract.
    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        self.inner.search_all(q)
    }
    fn plan_query(&self, q: &SparseVec) -> crate::QueryPlan {
        self.inner.plan_query(q)
    }
    /// Delegates so the inner LSF engine's genuine tags and per-repetition
    /// deadline polling are kept.
    fn answer(
        &self,
        plan: &crate::QueryPlan,
        take: crate::Take,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<Vec<crate::TaggedMatch>, crate::DeadlineExceeded> {
        self.inner.answer(plan, take, expired)
    }
    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        self.inner.search_batch(queries)
    }
    /// Mutable: delegates to the inner LSF index's log-structured insert.
    fn insert(
        &mut self,
        set: SparseVec,
    ) -> Result<crate::traits::SetId, crate::traits::MutationError> {
        self.inner.insert(set)
    }
    fn remove(&mut self, id: crate::traits::SetId) -> Result<bool, crate::traits::MutationError> {
        self.inner.remove(id)
    }
    fn supports_mutation(&self) -> bool {
        true
    }
    fn memory_stats(&self) -> crate::traits::MemoryStats {
        self.inner.memory_stats()
    }
    fn threshold(&self) -> f64 {
        self.inner.threshold()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

impl crate::shard::Shardable for AdversarialIndex {
    fn passes(&self) -> usize {
        self.inner.repetition_count()
    }
    fn shard_of_passes(&self, range: std::ops::Range<usize>) -> Self {
        Self {
            inner: self.inner.shard_of_passes(range),
        }
    }
    fn shard_of_ids(&self, ids: &[u32]) -> Self {
        Self {
            inner: self.inner.shard_of_ids(ids),
        }
    }
    fn partition_key(&self, id: u32) -> u64 {
        crate::shard::set_partition_key(&self.inner.vectors()[id as usize])
    }
    fn slot_count(&self) -> usize {
        self.inner.slot_count()
    }
}

impl crate::persist::Persist for AdversarialIndex {
    /// Kind-3 container: the wrapper adds no state of its own, so the
    /// payload is the embedded LSF payload verbatim — only the container
    /// kind distinguishes the file (see `docs/PERSISTENCE.md` §5).
    fn save(&self, path: &std::path::Path) -> Result<(), crate::persist::PersistError> {
        let version = crate::persist::effective_write_version();
        let mut w = crate::persist::Writer::new();
        self.inner.write_payload(&mut w, version);
        crate::persist::write_container_versioned(
            path,
            crate::persist::kind::ADVERSARIAL,
            &w.into_payload(),
            version,
        )
    }

    fn load(path: &std::path::Path) -> Result<Self, crate::persist::PersistError> {
        let (payload, version) =
            crate::persist::read_container_versioned(path, crate::persist::kind::ADVERSARIAL)?;
        let mut r = crate::persist::Reader::new(&payload);
        let inner = LsfIndex::read_payload(&mut r, version)?;
        if !r.is_empty() {
            return Err(crate::persist::PersistError::Malformed(
                "trailing bytes after index payload",
            ));
        }
        Ok(Self { inner })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Repetitions;
    use rand::{rngs::StdRng, SeedableRng};
    use skewsearch_sets::similarity;

    /// Plants a near-duplicate pair in otherwise-random data and checks the
    /// adversarial index retrieves it.
    #[test]
    fn finds_planted_similar_pair() {
        let profile = BernoulliProfile::two_block(800, 0.15, 0.01).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut ds = Dataset::generate(&profile, 250, &mut rng);
        // Plant: vector 0 modified in a handful of positions becomes the query.
        let x = ds.vector(0).clone();
        let mut dims = x.dims().to_vec();
        dims.truncate(dims.len().saturating_sub(2)); // drop two rare-ish bits
        let q = SparseVec::from_unsorted(dims);
        let b1 = similarity::braun_blanquet(&x, &q) - 0.05;
        assert!(b1 > 0.5, "planted pair should be very similar, b1={b1}");
        ds = Dataset::from_vectors(ds.vectors().to_vec(), ds.d());

        let params = AdversarialParams::new(b1)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(12),
                ..IndexOptions::default()
            });
        let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
        let hit = index.search(&q);
        assert!(hit.is_some(), "planted pair not found");
        assert!(hit.unwrap().similarity >= b1);
    }

    #[test]
    fn rejects_invalid_b1() {
        assert!(AdversarialParams::new(0.0).is_err());
        assert!(AdversarialParams::new(1.2).is_err());
        assert!(AdversarialParams::new(0.5).is_ok());
    }

    #[test]
    fn predicted_rho_is_smaller_for_rarer_queries() {
        let profile = BernoulliProfile::two_block(400, 0.25, 0.002).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let ds = Dataset::generate(&profile, 100, &mut rng);
        let params = AdversarialParams::new(0.4)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(2),
                ..IndexOptions::default()
            });
        let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
        // A query of frequent bits vs a query of rare bits.
        let q_freq = SparseVec::from_unsorted((0..40).collect());
        let q_rare = SparseVec::from_unsorted((200..240).collect());
        let rho_f = index.predicted_rho(&q_freq);
        let rho_r = index.predicted_rho(&q_rare);
        assert!(
            rho_r < rho_f,
            "rare query should be easier: {rho_r} !< {rho_f}"
        );
    }

    #[test]
    fn no_false_positives_below_threshold() {
        let profile = BernoulliProfile::uniform(300, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let ds = Dataset::generate(&profile, 200, &mut rng);
        let params = AdversarialParams::new(0.6)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(4),
                ..IndexOptions::default()
            });
        let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
        let sampler = skewsearch_datagen::VectorSampler::new(&profile);
        for _ in 0..25 {
            let q = sampler.sample(&mut rng);
            // Independent draws have similarity ~0.05 ≪ 0.6: must return None.
            assert!(index.search(&q).is_none());
        }
    }
}
