//! The Chosen Path baseline (Christiani & Pagh, STOC 2017, \[18\] in the
//! paper).
//!
//! Chosen Path solves the `(b₁, b₂)`-approximate Braun-Blanquet problem with
//! constant sampling thresholds `s = 1/(b₁|x|)` and a *fixed* path depth
//! `k = ⌈ln n / ln(1/b₂)⌉`, achieving `ρ = log b₁ / log b₂` — optimal in the
//! worst case but oblivious to skew (the paper: "ChosenPath is not able to
//! exploit skew, and in fact has the same tight running time guarantee
//! independent of the data distribution").
//!
//! Realized here as a
//! [`ChosenPathScheme`] on the shared
//! path engine, so every difference from the core indexes is exactly the
//! paper's three departures: adaptive thresholds, the product stopping rule,
//! and sampling without replacement.

use rand::Rng;
use skewsearch_core::{
    ChosenPathScheme, IndexOptions, LsfIndex, Match, QueryStats, SetSimilaritySearch,
};
use skewsearch_datagen::{BernoulliProfile, Dataset};
use skewsearch_rho::rho_chosen_path;
use skewsearch_sets::SparseVec;

/// Parameters for [`ChosenPathIndex`].
#[derive(Clone, Copy, Debug)]
pub struct ChosenPathParams {
    /// Similarity guaranteed by a planted/close pair.
    pub b1: f64,
    /// Background similarity level to beat.
    pub b2: f64,
    /// Index tuning.
    pub options: IndexOptions,
}

impl ChosenPathParams {
    /// Validates `0 < b₂ < b₁ ≤ 1`.
    pub fn new(b1: f64, b2: f64) -> Result<Self, String> {
        if !(0.0 < b2 && b2 < b1 && b1 <= 1.0) {
            return Err(format!("need 0 < b2 < b1 <= 1, got b1={b1} b2={b2}"));
        }
        Ok(Self {
            b1,
            b2,
            options: IndexOptions::default(),
        })
    }

    /// For the correlated-query model: plan from the expected similarity of
    /// α-correlated (`b₁`) and independent (`b₂`) pairs under `profile` —
    /// the instantiation §7.2 uses when comparing against Chosen Path.
    ///
    /// `margin ∈ (0, 1]` scales `b₁` down so that true pairs whose empirical
    /// similarity fluctuates below its expectation still verify (the paper's
    /// Lemma 10 plays the same role for the correlated index via the 1.3
    /// divisor; `margin = 1/1.3 ≈ 0.77` is the analogous choice).
    pub fn for_correlated_model(
        profile: &BernoulliProfile,
        alpha: f64,
        margin: f64,
    ) -> Result<Self, String> {
        if !(margin > 0.0 && margin <= 1.0) {
            return Err(format!("margin must lie in (0, 1], got {margin}"));
        }
        let (b1, b2) = skewsearch_rho::expected_similarities(profile, alpha);
        Self::new((b1 * margin).max(b2 * 1.0001), b2)
    }

    /// Overrides the index options.
    pub fn with_options(mut self, options: IndexOptions) -> Self {
        self.options = options;
        self
    }
}

/// Chosen Path index: the non-adaptive LSF baseline.
pub struct ChosenPathIndex {
    inner: LsfIndex<ChosenPathScheme>,
    b2: f64,
}

impl ChosenPathIndex {
    /// Preprocesses the dataset.
    pub fn build<R: Rng + ?Sized>(
        dataset: &Dataset,
        profile: &BernoulliProfile,
        params: ChosenPathParams,
        rng: &mut R,
    ) -> Self {
        let scheme = ChosenPathScheme::new(params.b1, params.b2, dataset.n().max(2));
        let inner = LsfIndex::build(
            dataset.vectors().to_vec(),
            profile.clone(),
            scheme,
            params.b1,
            params.options,
            rng,
        );
        Self {
            inner,
            b2: params.b2,
        }
    }

    /// Chosen Path's exponent `ρ = log b₁ / log b₂` (distribution
    /// independent — the point of the comparison).
    pub fn predicted_rho(&self) -> f64 {
        rho_chosen_path(self.inner.scheme().b1(), self.b2)
    }

    /// The fixed path depth `k`.
    pub fn k(&self) -> usize {
        self.inner.scheme().k()
    }

    /// Search with probing statistics.
    pub fn search_with_stats(&self, q: &SparseVec) -> (Option<Match>, QueryStats) {
        self.inner.search_with_stats(q)
    }

    /// Distinct candidates examined for `q`.
    pub fn distinct_candidates(&self, q: &SparseVec) -> (Vec<u32>, QueryStats) {
        self.inner.distinct_candidates(q)
    }

    /// [`SetSimilaritySearch::search_batch`] with an explicit worker count
    /// (`0` = one per available core).
    pub fn search_batch_threads(&self, queries: &[SparseVec], threads: usize) -> Vec<Vec<Match>> {
        self.inner.search_batch_threads(queries, threads)
    }

    /// [`ChosenPathIndex::distinct_candidates`] over a query batch on
    /// `threads` workers (`0` = one per available core).
    pub fn distinct_candidates_batch(
        &self,
        queries: &[SparseVec],
        threads: usize,
    ) -> Vec<(Vec<u32>, QueryStats)> {
        self.inner.distinct_candidates_batch(queries, threads)
    }

    /// Build statistics.
    pub fn build_stats(&self) -> &skewsearch_core::BuildStats {
        self.inner.build_stats()
    }
}

impl SetSimilaritySearch for ChosenPathIndex {
    /// Delegates to the shared LSF engine, inheriting its dedup-before-verify
    /// first-discovery ordering contract.
    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        self.inner.search_all(q)
    }
    fn plan_query(&self, q: &SparseVec) -> skewsearch_core::QueryPlan {
        self.inner.plan_query(q)
    }
    /// Delegates so the inner LSF engine's genuine tags and per-repetition
    /// deadline polling are kept.
    fn answer(
        &self,
        plan: &skewsearch_core::QueryPlan,
        take: skewsearch_core::Take,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<Vec<skewsearch_core::TaggedMatch>, skewsearch_core::DeadlineExceeded> {
        self.inner.answer(plan, take, expired)
    }
    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        self.inner.search_batch(queries)
    }
    /// Mutable: Chosen Path rides on the shared LSF engine, so it inherits
    /// the log-structured insert/remove for free (the paper's frozen-index
    /// baselines that do *not* — brute force, prefix filtering, MinHash —
    /// keep the read-only default).
    fn insert(
        &mut self,
        set: SparseVec,
    ) -> Result<skewsearch_core::SetId, skewsearch_core::MutationError> {
        self.inner.insert(set)
    }
    fn remove(
        &mut self,
        id: skewsearch_core::SetId,
    ) -> Result<bool, skewsearch_core::MutationError> {
        self.inner.remove(id)
    }
    fn supports_mutation(&self) -> bool {
        true
    }
    fn memory_stats(&self) -> skewsearch_core::MemoryStats {
        self.inner.memory_stats()
    }
    fn threshold(&self) -> f64 {
        self.inner.threshold()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

impl skewsearch_core::Shardable for ChosenPathIndex {
    fn passes(&self) -> usize {
        self.inner.repetition_count()
    }
    fn shard_of_passes(&self, range: std::ops::Range<usize>) -> Self {
        Self {
            inner: self.inner.shard_of_passes(range),
            b2: self.b2,
        }
    }
    fn shard_of_ids(&self, ids: &[u32]) -> Self {
        Self {
            inner: self.inner.shard_of_ids(ids),
            b2: self.b2,
        }
    }
    fn partition_key(&self, id: u32) -> u64 {
        skewsearch_core::set_partition_key(&self.inner.vectors()[id as usize])
    }
    fn slot_count(&self) -> usize {
        self.inner.slot_count()
    }
}

impl skewsearch_core::Persist for ChosenPathIndex {
    /// Kind-4 container: the background threshold `b₂` (the only state the
    /// wrapper adds) followed by the embedded LSF payload — see
    /// `docs/PERSISTENCE.md` §5.
    fn save(&self, path: &std::path::Path) -> Result<(), skewsearch_core::PersistError> {
        let version = skewsearch_core::persist::effective_write_version();
        let mut w = skewsearch_core::persist::Writer::new();
        w.put_f64(self.b2);
        self.inner.write_payload(&mut w, version);
        skewsearch_core::persist::write_container_versioned(
            path,
            skewsearch_core::persist::kind::CHOSEN_PATH,
            &w.into_payload(),
            version,
        )
    }

    fn load(path: &std::path::Path) -> Result<Self, skewsearch_core::PersistError> {
        let (payload, version) = skewsearch_core::persist::read_container_versioned(
            path,
            skewsearch_core::persist::kind::CHOSEN_PATH,
        )?;
        let mut r = skewsearch_core::persist::Reader::new(&payload);
        let b2 = r.get_f64()?;
        if !(b2 > 0.0 && b2 < 1.0) {
            return Err(skewsearch_core::PersistError::Malformed(
                "b2 must lie in (0, 1)",
            ));
        }
        let inner = LsfIndex::read_payload(&mut r, version)?;
        if !r.is_empty() {
            return Err(skewsearch_core::PersistError::Malformed(
                "trailing bytes after index payload",
            ));
        }
        Ok(Self { inner, b2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use skewsearch_core::Repetitions;
    use skewsearch_datagen::correlated_query;

    fn opts(reps: usize) -> IndexOptions {
        IndexOptions {
            repetitions: Repetitions::Fixed(reps),
            ..IndexOptions::default()
        }
    }

    #[test]
    fn params_validate() {
        assert!(ChosenPathParams::new(0.5, 0.6).is_err());
        assert!(ChosenPathParams::new(0.5, 0.0).is_err());
        assert!(ChosenPathParams::new(1.1, 0.5).is_err());
        assert!(ChosenPathParams::new(0.6, 0.2).is_ok());
    }

    #[test]
    fn correlated_model_planner_orders_thresholds() {
        let profile = BernoulliProfile::two_block(200, 0.3, 0.05).unwrap();
        let p = ChosenPathParams::for_correlated_model(&profile, 0.7, 1.0).unwrap();
        assert!(p.b2 < p.b1 && p.b1 < 1.0);
        let pm = ChosenPathParams::for_correlated_model(&profile, 0.7, 0.8).unwrap();
        assert!(pm.b1 < p.b1 && pm.b1 > pm.b2);
        assert!(ChosenPathParams::for_correlated_model(&profile, 0.7, 0.0).is_err());
    }

    #[test]
    fn finds_correlated_neighbor() {
        let profile = BernoulliProfile::two_block(1000, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        let ds = Dataset::generate(&profile, 300, &mut rng);
        let alpha = 0.85;
        let params = ChosenPathParams::for_correlated_model(&profile, alpha, 0.8)
            .unwrap()
            .with_options(opts(12));
        let index = ChosenPathIndex::build(&ds, &profile, params, &mut rng);
        let mut hits = 0;
        let trials = 30;
        for t in 0..trials {
            let target = t % ds.n();
            let q = correlated_query(ds.vector(target), &profile, alpha, &mut rng);
            if let Some(m) = index.search(&q) {
                if m.id == target {
                    hits += 1;
                }
            }
        }
        assert!(hits >= trials / 2, "hits={hits}/{trials}");
    }

    #[test]
    fn predicted_rho_matches_closed_form() {
        let profile = BernoulliProfile::uniform(100, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(62);
        let ds = Dataset::generate(&profile, 100, &mut rng);
        let params = ChosenPathParams::new(0.5, 0.1)
            .unwrap()
            .with_options(opts(1));
        let index = ChosenPathIndex::build(&ds, &profile, params, &mut rng);
        assert!((index.predicted_rho() - 0.5f64.ln() / 0.1f64.ln()).abs() < 1e-12);
        assert!(index.k() >= 1);
    }
}
