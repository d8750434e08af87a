//! MinHash LSH (banding) — Broder's scheme (\[13, 14\] in the paper).
//!
//! The classic approach to set similarity search: each vector gets `L` band
//! signatures, each the concatenation of `r` independent min-wise hashes; a
//! band collision makes two vectors candidates. A pair at Jaccard similarity
//! `j` collides in one band with probability `j^r`, so with
//! `r = ⌈ln n / ln(1/j₂)⌉` and `L = Θ(n^ρ)`, `ρ = ln j₁ / ln j₂`, the scheme
//! solves the `(j₁, j₂)`-approximate problem. Chosen Path (and a fortiori
//! the paper's structure) improves on this for sparse sets (§1.2).
//!
//! The index speaks Braun-Blanquet on the outside (like every structure in
//! the workspace): thresholds are converted through the equal-weight
//! correspondence `J = B/(2−B)` that the paper invokes for fixed-weight
//! vectors.

use rand::{Rng, SeedableRng};
use skewsearch_core::{DeadlineExceeded, Match, QueryPlan, SetSimilaritySearch, TaggedMatch, Take};
use skewsearch_datagen::Dataset;
use skewsearch_hashing::{FxHashMap, PairwiseU64};
use skewsearch_rho::rho_minhash;
use skewsearch_sets::{similarity, SparseVec};

/// Parameters for [`MinHashLsh`].
#[derive(Clone, Copy, Debug)]
pub struct MinHashParams {
    /// Braun-Blanquet threshold a result must meet (converted internally to
    /// Jaccard `j₁ = b₁/(2−b₁)`).
    pub b1: f64,
    /// Background Braun-Blanquet similarity (converted to `j₂`).
    pub b2: f64,
    /// Multiplier on the theoretical band count `n^ρ` (≈ `ln(1/δ)` for
    /// failure probability `δ`).
    pub band_factor: f64,
    /// Hard cap on `L` to bound memory.
    pub max_bands: usize,
    /// Worker threads for [`SetSimilaritySearch::search_batch`]
    /// (`0` = one per available core). Batch results are identical for any
    /// worker count.
    pub query_threads: usize,
}

impl MinHashParams {
    /// Validates `0 < b₂ < b₁ ≤ 1`.
    pub fn new(b1: f64, b2: f64) -> Result<Self, String> {
        if !(0.0 < b2 && b2 < b1 && b1 <= 1.0) {
            return Err(format!("need 0 < b2 < b1 <= 1, got b1={b1} b2={b2}"));
        }
        Ok(Self {
            b1,
            b2,
            band_factor: 3.0,
            max_bands: 4096,
            query_threads: 0,
        })
    }

    /// The Jaccard thresholds `(j₁, j₂)` after conversion.
    pub fn jaccard_thresholds(&self) -> (f64, f64) {
        (
            similarity::braun_blanquet_to_jaccard_equal_weight(self.b1),
            similarity::braun_blanquet_to_jaccard_equal_weight(self.b2),
        )
    }

    /// The banding plan `(r, L)` for a dataset of `n` vectors:
    /// `r = ⌈ln n / ln(1/j₂)⌉`, `L = ⌈band_factor · j₁^{-r}⌉ ≈ Θ(n^ρ)`.
    pub fn plan(&self, n: usize) -> (usize, usize) {
        let (j1, j2) = self.jaccard_thresholds();
        let n = n.max(2) as f64;
        let r = (n.ln() / (1.0 / j2).ln()).ceil().max(1.0) as usize;
        let l = (self.band_factor / j1.powi(r as i32)).ceil() as usize;
        (r, l.clamp(1, self.max_bands))
    }
}

/// One band: its `r` min-wise hash functions and its bucket table.
#[derive(Clone)]
struct Band {
    hashes: Vec<PairwiseU64>,
    buckets: FxHashMap<u64, Vec<u32>>,
}

impl Band {
    /// The band signature of a vector, or `None` for empty vectors.
    fn signature(&self, x: &SparseVec) -> Option<u64> {
        if x.is_empty() {
            return None;
        }
        // Combine the r minima into one 64-bit key via sequential mixing.
        let mut key = 0xcbf29ce484222325u64;
        for h in &self.hashes {
            let m = x.iter().map(|i| h.hash(i as u64)).min()?;
            key = skewsearch_hashing::mix::combine64(key, m);
        }
        Some(key)
    }
}

/// MinHash LSH index.
pub struct MinHashLsh {
    vectors: Vec<SparseVec>,
    bands: Vec<Band>,
    threshold: f64,
    rows: usize,
    params: MinHashParams,
}

impl MinHashLsh {
    /// Preprocesses the dataset: `O(n · L · r · d̄)` hashing.
    pub fn build<R: Rng + ?Sized>(dataset: &Dataset, params: MinHashParams, rng: &mut R) -> Self {
        let (r, l) = params.plan(dataset.n());
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(rng.random::<u64>());
        let mut bands: Vec<Band> = (0..l)
            .map(|_| Band {
                hashes: (0..r).map(|_| PairwiseU64::sample(&mut seed_rng)).collect(),
                buckets: FxHashMap::default(),
            })
            .collect();
        for (id, x) in dataset.vectors().iter().enumerate() {
            for band in bands.iter_mut() {
                if let Some(sig) = band.signature(x) {
                    band.buckets.entry(sig).or_default().push(id as u32);
                }
            }
        }
        Self {
            vectors: dataset.vectors().to_vec(),
            bands,
            threshold: params.b1,
            rows: r,
            params,
        }
    }

    /// The banding plan in use `(rows r, bands L)`.
    pub fn plan(&self) -> (usize, usize) {
        (self.rows, self.bands.len())
    }

    /// The theoretical exponent `ρ = ln j₁ / ln j₂`.
    pub fn predicted_rho(&self) -> f64 {
        let (j1, j2) = self.params.jaccard_thresholds();
        rho_minhash(j1, j2)
    }

    /// Feeds every distinct candidate to `visit`; stops on `false`.
    pub fn probe(&self, q: &SparseVec, mut visit: impl FnMut(u32) -> bool) {
        let _ = self.walk(q, None, &|| false, |_, id| visit(id));
    }

    /// Distinct candidate count for a query (cost proxy for experiments).
    pub fn candidate_count(&self, q: &SparseVec) -> usize {
        let mut count = 0usize;
        self.probe(q, |_| {
            count += 1;
            true
        });
        count
    }

    /// [`SetSimilaritySearch::search_batch`] with an explicit worker count
    /// (`0` = one per available core), ignoring
    /// [`MinHashParams::query_threads`].
    pub fn search_batch_threads(&self, queries: &[SparseVec], threads: usize) -> Vec<Vec<Match>> {
        skewsearch_core::batch_map(queries, threads, |q| self.search_all(q))
    }

    /// The one pass loop behind every query entry point: probes the bands in
    /// build order, each with the band's key from `planned` when the query
    /// was planned or with the query's band signature computed on the spot
    /// otherwise, and feeds each globally unseen candidate to `visit` as
    /// `(band, id)`; stops when `visit` returns `false`. Each band probes at
    /// most one bucket and ids ascend within it, so `(band, 0, id)` totally
    /// orders candidate discovery — the tag contract of the sharding
    /// layer's merge protocol.
    ///
    /// `expired` is polled before the walk and between bands.
    ///
    /// # Panics
    /// Panics if a planned query's pass count differs from the band count.
    fn walk(
        &self,
        q: &SparseVec,
        planned: Option<&[Vec<u64>]>,
        expired: &(dyn Fn() -> bool + Sync),
        mut visit: impl FnMut(u32, u32) -> bool,
    ) -> Result<(), DeadlineExceeded> {
        if let Some(passes) = planned {
            assert_eq!(
                passes.len(),
                self.bands.len(),
                "QueryPlan pass count does not match this index's bands"
            );
        }
        if expired() {
            return Err(DeadlineExceeded);
        }
        let mut seen = skewsearch_hashing::FxHashSet::default();
        for (pass, band) in self.bands.iter().enumerate() {
            if pass > 0 && expired() {
                return Err(DeadlineExceeded);
            }
            let signature;
            let keys: &[u64] = match planned {
                Some(passes) => &passes[pass],
                None => {
                    signature = band.signature(q);
                    signature.as_slice()
                }
            };
            for key in keys {
                let Some(bucket) = band.buckets.get(key) else {
                    continue;
                };
                for &id in bucket {
                    if seen.insert(id) && !visit(pass as u32, id) {
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }
}

impl SetSimilaritySearch for MinHashLsh {
    /// Same candidate-handling contract as the LSF indexes: ids are
    /// deduplicated across bands before verification and matches appear in
    /// first-discovery order (bands in build order, then bucket insertion
    /// order) — the tag projection of the unplanned [`Take::All`] answer.
    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        self.probe_plan(&QueryPlan::unplanned(q.clone()))
    }

    /// Stage 1 of the enumerate→probe→verify pipeline for MinHash: the
    /// "enumeration" is the `L · r` min-wise hash evaluations producing one
    /// band signature each, so the plan carries one single-key list per band
    /// (empty for the empty query, which has no signature).
    ///
    /// The plan is valid for this index and for any
    /// [`Shardable::shard_of_ids`](skewsearch_core::Shardable::shard_of_ids)
    /// dataset shard (shards keep the band hash functions), and, via
    /// [`QueryPlan::slice_passes`], for band-slice shards.
    fn plan_query(&self, q: &SparseVec) -> QueryPlan {
        let passes = self
            .bands
            .iter()
            .map(|band| band.signature(q).into_iter().collect())
            .collect();
        QueryPlan::from_passes(q.clone(), passes)
    }

    /// Genuine `(band, 0)` discovery tags; verifies each distinct candidate
    /// once — the single verification site of every MinHash query.
    fn answer(
        &self,
        plan: &QueryPlan,
        take: Take,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        let q = plan.query();
        let mut hits = Vec::new();
        self.walk(q, plan.passes(), expired, |pass, id| {
            let sim = similarity::braun_blanquet(&self.vectors[id as usize], q);
            if sim >= self.threshold {
                let hit = Match {
                    id: id as usize,
                    similarity: sim,
                };
                hits.push(TaggedMatch { pass, step: 0, hit });
            }
            take == Take::All || hits.is_empty()
        })?;
        Ok(hits)
    }

    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        self.search_batch_threads(queries, self.params.query_threads)
    }

    /// Band buckets as posting bytes, stored vectors, and per-band hash
    /// coefficients as aux — the same capacity-based accounting the LSF
    /// indexes report.
    fn memory_stats(&self) -> skewsearch_core::MemoryStats {
        let mut posting = 0usize;
        let mut aux = 0usize;
        for band in &self.bands {
            posting += band.buckets.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>() + 1);
            posting += band
                .buckets
                // lint:allow(nondeterministic-iter, sum of bucket capacities is an order-independent reduction)
                .values()
                .map(|b| b.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>();
            aux += band.hashes.capacity() * std::mem::size_of::<PairwiseU64>();
        }
        let vector_bytes = self.vectors.capacity() * std::mem::size_of::<SparseVec>()
            + self
                .vectors
                .iter()
                .map(|v| std::mem::size_of_val(v.dims()))
                .sum::<usize>();
        skewsearch_core::MemoryStats {
            posting_bytes: posting,
            vector_bytes,
            aux_bytes: aux,
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }
}

impl skewsearch_core::Shardable for MinHashLsh {
    /// MinHash's probe passes are its bands.
    fn passes(&self) -> usize {
        self.bands.len()
    }

    fn shard_of_passes(&self, range: std::ops::Range<usize>) -> Self {
        Self {
            vectors: self.vectors.clone(),
            bands: self.bands[range].to_vec(),
            threshold: self.threshold,
            rows: self.rows,
            params: self.params,
        }
    }

    fn shard_of_ids(&self, ids: &[u32]) -> Self {
        let local_of = skewsearch_core::shard::local_id_table(ids, self.vectors.len());
        let bands = self
            .bands
            .iter()
            .map(|band| Band {
                hashes: band.hashes.clone(),
                buckets: band
                    .buckets
                    .iter()
                    .filter_map(|(&sig, bucket)| {
                        skewsearch_core::shard::remap_bucket(bucket, &local_of)
                            .map(|local| (sig, local))
                    })
                    .collect(),
            })
            .collect();
        Self {
            vectors: ids
                .iter()
                .map(|&g| self.vectors[g as usize].clone())
                .collect(),
            bands,
            threshold: self.threshold,
            rows: self.rows,
            params: self.params,
        }
    }

    fn partition_key(&self, id: u32) -> u64 {
        skewsearch_core::set_partition_key(&self.vectors[id as usize])
    }
}

impl skewsearch_core::Persist for MinHashLsh {
    /// Kind-5 container — MinHash's own section type: the thresholds and
    /// banding parameters, the indexed vectors, and per band its min-wise
    /// hash coefficients plus its signature buckets (the shared sorted
    /// posting-map encoding) — see `docs/PERSISTENCE.md` §6.
    fn save(&self, path: &std::path::Path) -> Result<(), skewsearch_core::PersistError> {
        let mut w = skewsearch_core::persist::Writer::new();
        w.put_f64(self.threshold);
        w.put_u64(self.rows as u64);
        w.put_f64(self.params.b1);
        w.put_f64(self.params.b2);
        w.put_f64(self.params.band_factor);
        w.put_u64(self.params.max_bands as u64);
        w.put_u64(self.params.query_threads as u64);
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
        w.put_u64(self.bands.len() as u64);
        for band in &self.bands {
            w.put_u64(band.hashes.len() as u64);
            for h in &band.hashes {
                let (a, b) = h.coefficients();
                w.put_u128(a);
                w.put_u128(b);
            }
            skewsearch_core::persist::write_bucket_map(&mut w, &band.buckets);
        }
        skewsearch_core::persist::write_container(
            path,
            skewsearch_core::persist::kind::MINHASH,
            &w.into_payload(),
        )
    }

    fn load(path: &std::path::Path) -> Result<Self, skewsearch_core::PersistError> {
        use skewsearch_core::PersistError;
        let payload = skewsearch_core::persist::read_container(
            path,
            skewsearch_core::persist::kind::MINHASH,
        )?;
        let mut r = skewsearch_core::persist::Reader::new(&payload);
        let threshold = r.get_f64()?;
        let rows = r.get_u64()? as usize;
        let b1 = r.get_f64()?;
        let b2 = r.get_f64()?;
        let band_factor = r.get_f64()?;
        let max_bands = r.get_u64()? as usize;
        let query_threads = r.get_u64()? as usize;
        if !(0.0 < b2 && b2 < b1 && b1 <= 1.0) {
            return Err(PersistError::Malformed(
                "minhash thresholds violate 0<b2<b1<=1",
            ));
        }
        if !(band_factor.is_finite() && band_factor > 0.0) || rows == 0 {
            return Err(PersistError::Malformed(
                "minhash banding parameters out of range",
            ));
        }
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
        let band_count = r.get_u64()?;
        let mut bands: Vec<Band> = Vec::new();
        for _ in 0..band_count {
            let hash_count = r.get_u64()? as usize;
            if hash_count != rows {
                return Err(PersistError::Malformed(
                    "band hash count does not match the row count",
                ));
            }
            let mut hashes = Vec::with_capacity(rows.min(1024));
            for _ in 0..hash_count {
                let a = r.get_u128()?;
                let b = r.get_u128()?;
                hashes.push(PairwiseU64::from_coefficients(a, b));
            }
            let buckets = skewsearch_core::persist::read_bucket_map(&mut r, n, 0)?;
            bands.push(Band { hashes, buckets });
        }
        if !r.is_empty() {
            return Err(PersistError::Malformed(
                "trailing bytes after index payload",
            ));
        }
        Ok(Self {
            vectors,
            bands,
            threshold,
            rows,
            params: MinHashParams {
                b1,
                b2,
                band_factor,
                max_bands,
                query_threads,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use skewsearch_datagen::{correlated_query, BernoulliProfile};

    #[test]
    fn params_validate_and_plan() {
        assert!(MinHashParams::new(0.5, 0.6).is_err());
        let p = MinHashParams::new(0.8, 0.2).unwrap();
        let (j1, j2) = p.jaccard_thresholds();
        assert!((j1 - 0.8 / 1.2).abs() < 1e-12);
        assert!((j2 - 0.2 / 1.8).abs() < 1e-12);
        let (r, l) = p.plan(10_000);
        assert!(r >= 1 && l >= 1);
        // r should be ~ ln(1e4)/ln(9) ≈ 4.2 → 5.
        assert_eq!(r, 5);
    }

    #[test]
    fn identical_vectors_always_collide() {
        let profile = BernoulliProfile::uniform(300, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(71);
        let ds = Dataset::generate(&profile, 60, &mut rng);
        let params = MinHashParams::new(0.9, 0.15).unwrap();
        let index = MinHashLsh::build(&ds, params, &mut rng);
        for t in 0..20 {
            let q = ds.vector(t).clone();
            let hit = index.search(&q).expect("self-query must hit");
            assert!(hit.similarity >= 0.9);
        }
    }

    #[test]
    fn finds_correlated_neighbor() {
        let profile = BernoulliProfile::uniform(800, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(72);
        let ds = Dataset::generate(&profile, 200, &mut rng);
        let alpha = 0.9;
        let (b1, b2) = skewsearch_rho::expected_similarities(&profile, alpha);
        // Verify slightly below the expected similarity to absorb noise.
        let params = MinHashParams::new(b1 * 0.8, b2).unwrap();
        let index = MinHashLsh::build(&ds, params, &mut rng);
        let mut hits = 0;
        let trials = 25;
        for t in 0..trials {
            let target = t % ds.n();
            let q = correlated_query(ds.vector(target), &profile, alpha, &mut rng);
            if index.search(&q).map(|m| m.id) == Some(target) {
                hits += 1;
            }
        }
        assert!(hits >= trials / 2, "hits={hits}/{trials}");
    }

    #[test]
    fn planned_probe_matches_fused_search() {
        let profile = BernoulliProfile::uniform(500, 0.06).unwrap();
        let mut rng = StdRng::seed_from_u64(75);
        let ds = Dataset::generate(&profile, 150, &mut rng);
        let index = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.2).unwrap(), &mut rng);
        for t in 0..10 {
            let q = correlated_query(ds.vector(t * 7), &profile, 0.9, &mut rng);
            let plan = SetSimilaritySearch::plan_query(&index, &q);
            assert_eq!(plan.pass_count(), index.plan().1);
            assert_eq!(
                SetSimilaritySearch::probe_plan_tagged(&index, &plan),
                index.search_all_tagged(&q)
            );
            assert_eq!(
                index.probe_plan_first_tagged(&plan),
                index.search_first_tagged(&q)
            );
        }
        // Empty query: no signatures, so every planned pass is empty.
        let plan = SetSimilaritySearch::plan_query(&index, &SparseVec::empty());
        assert_eq!(plan.key_count(), 0);
        assert!(index.probe_plan(&plan).is_empty());
    }

    #[test]
    fn empty_query_finds_nothing() {
        let profile = BernoulliProfile::uniform(50, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(73);
        let ds = Dataset::generate(&profile, 20, &mut rng);
        let params = MinHashParams::new(0.5, 0.1).unwrap();
        let index = MinHashLsh::build(&ds, params, &mut rng);
        assert!(index.search(&SparseVec::empty()).is_none());
        assert_eq!(index.candidate_count(&SparseVec::empty()), 0);
    }

    #[test]
    fn candidate_count_grows_with_weaker_threshold() {
        let profile = BernoulliProfile::uniform(400, 0.08).unwrap();
        let mut rng = StdRng::seed_from_u64(74);
        let ds = Dataset::generate(&profile, 300, &mut rng);
        let strict = MinHashLsh::build(&ds, MinHashParams::new(0.9, 0.3).unwrap(), &mut rng);
        let loose = MinHashLsh::build(&ds, MinHashParams::new(0.4, 0.05).unwrap(), &mut rng);
        let q = ds.vector(0).clone();
        // The loose plan uses shorter bands → drastically more candidates.
        assert!(loose.candidate_count(&q) >= strict.candidate_count(&q));
    }
}
