//! Workload definitions and the seeded inputs they run on.
//!
//! Everything a run feeds the program — the dataset, the correlated
//! queries and the service loop's operation stream — is drawn from the
//! workload seed, so one seed always gives the same inputs.

use rand::{rngs::StdRng, Rng, SeedableRng};
use skewsearch_core::correlated::B1_DIVISOR;
use skewsearch_core::{CorrelatedScheme, IndexOptions, LsfIndex, Repetitions};
use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset, VectorSampler};
use skewsearch_sets::SparseVec;

/// Query correlation α of every workload.
pub const ALPHA: f64 = 2.0 / 3.0;
/// `Σp = C ln n` with this `C` for both profiles.
pub const MASS_C: f64 = 8.0;
/// LSF repetitions of every index.
pub const REPETITIONS: usize = 8;
/// Distinct correlated queries drawn per run for the in-process loop.
pub const QUERY_POOL: usize = 3000;
/// Seed of the index's hash functions. It is fixed rather than drawn from
/// the workload seed: the hash draw alone moves filters per set, and with
/// them bytes/set and query cost, by ±15% from draw to draw, which would
/// swamp the effects the benchmark exists to show. Changes that keep
/// answers byte-identical keep this draw, so runs stay comparable.
pub const BUILD_SEED: u64 = 7;

/// The index the benchmark measures: the correlated-query LSF index.
pub type Index = LsfIndex<CorrelatedScheme>;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Two-block skewed profile, or the uniform control with the same `Σp`.
    pub skewed: bool,
    /// Dataset size.
    pub n: usize,
    /// Timed builds per run; `setup_s` is their median.
    pub setup_rounds: usize,
}

/// The `--seconds` the work counts below are sized for: on a 2-vCPU host
/// a run of that length measures for about that long. Other lengths scale
/// the counts.
pub const REFERENCE_SECONDS: f64 = 16.0;
/// In-process queries of a [`REFERENCE_SECONDS`] run.
pub const QUERIES: usize = 1500;
/// `search_batch` rounds of a [`REFERENCE_SECONDS`] run.
pub const BATCH_ROUNDS: usize = 16;
/// Service requests of a traced [`REFERENCE_SECONDS`] run.
pub const SERVICE_OPS: usize = 2000;
/// Share of service requests that are searches.
pub const SEARCH_SHARE: f64 = 0.6;
/// Share that are inserts; the rest (the same share) are removes.
pub const INSERT_SHARE: f64 = 0.2;

/// Every workload, in the order `BENCHMARK.json` lists them.
///
/// The service loop runs one connection, and inserts and removes are
/// equally likely, so the served index stays near `n` live sets and the
/// loop measures the same index from its first request to its last. It
/// stays below the 1024-mutation auto-compaction threshold (800 ± 25
/// mutations), so every run serves the same kind of index state.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "skewed-large",
        skewed: true,
        n: 5000,
        setup_rounds: 3,
    },
    Spec {
        name: "uniform-control",
        skewed: false,
        n: 1000,
        setup_rounds: 5,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The data profile at this workload's `n`.
    pub fn profile(&self) -> Result<BernoulliProfile, String> {
        let mass = MASS_C * (self.n as f64).ln();
        let built = if self.skewed {
            skewed_profile(mass)
        } else {
            BernoulliProfile::uniform((mass / 0.25).ceil() as usize, 0.25)
        };
        built.map_err(|e| format!("profile: {e}"))
    }
}

/// Two blocks splitting `mass` evenly at `p = 1/4` and `p = 1/32`.
fn skewed_profile(mass: f64) -> Result<BernoulliProfile, skewsearch_datagen::ProfileError> {
    let (pa, pb) = (0.25, 0.25 / 8.0);
    BernoulliProfile::blocks(&[
        ((mass / 2.0 / pa).ceil() as usize, pa),
        ((mass / 2.0 / pb).ceil() as usize, pb),
    ])
}

/// A correlated query and the dataset vector it was drawn from.
#[derive(Clone, Debug)]
pub struct Query {
    /// Id of the planted source vector.
    pub source: usize,
    /// The query set.
    pub set: SparseVec,
}

/// A run's generated inputs.
pub struct Inputs {
    /// The workload.
    pub spec: Spec,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// The data profile.
    pub profile: BernoulliProfile,
    /// The indexed sets.
    pub dataset: Dataset,
    /// Correlated queries for the in-process loop.
    pub queries: Vec<Query>,
}

/// Independent RNG streams per purpose, all derived from the seed.
#[derive(Clone, Copy)]
pub enum Stream {
    /// Dataset draw.
    Data = 1,
    /// Query pool draw.
    Queries = 2,
    /// The service loop's operation stream.
    Ops = 16,
}

/// The RNG for `stream` under `seed`.
pub fn rng(seed: u64, stream: Stream) -> StdRng {
    let salt = (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    StdRng::seed_from_u64(seed ^ salt)
}

impl Inputs {
    /// Draws the inputs of `spec` from `seed`.
    pub fn generate(spec: Spec, seed: u64) -> Result<Inputs, String> {
        let profile = spec.profile()?;
        let dataset = Dataset::generate(&profile, spec.n, &mut rng(seed, Stream::Data));
        let mut qrng = rng(seed, Stream::Queries);
        let queries = (0..QUERY_POOL)
            .map(|_| {
                let source = qrng.random_range(0..spec.n);
                let set = correlated_query(dataset.vector(source), &profile, ALPHA, &mut qrng);
                Query { source, set }
            })
            .collect();
        Ok(Inputs {
            spec,
            seed,
            profile,
            dataset,
            queries,
        })
    }

    /// Builds the workload's index over the seeded dataset, with hash
    /// functions drawn from [`BUILD_SEED`], enumerating on every core (the
    /// built index is the same for any thread count).
    pub fn build(&self) -> Index {
        let scheme = CorrelatedScheme::new(ALPHA, self.spec.n, &self.profile);
        LsfIndex::build(
            self.dataset.vectors().to_vec(),
            self.profile.clone(),
            scheme,
            ALPHA / B1_DIVISOR,
            IndexOptions {
                repetitions: Repetitions::Fixed(REPETITIONS),
                build_threads: crate::host::nproc(),
                ..IndexOptions::default()
            },
            &mut StdRng::seed_from_u64(BUILD_SEED),
        )
    }

    /// The service loop's operation stream.
    pub fn ops(&self) -> OpStream<'_> {
        OpStream {
            rng: rng(self.seed, Stream::Ops),
            sampler: VectorSampler::new(&self.profile),
            inputs: self,
            own: Vec::new(),
        }
    }
}

/// One service operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// `/search` with a correlated query at a planted base set.
    Search(Query),
    /// `/insert` of a fresh set drawn from the profile.
    Insert(SparseVec),
    /// `/remove` of an id the same stream inserted.
    Remove(usize),
}

/// An endless, seeded operation stream in the workload's mix of searches,
/// inserts and removes of ids the same stream inserted. A remove drawn
/// while the stream holds no inserted id becomes an insert, so the stream
/// depends only on the seed and its own history.
pub struct OpStream<'a> {
    rng: StdRng,
    sampler: VectorSampler,
    inputs: &'a Inputs,
    own: Vec<usize>,
}

impl OpStream<'_> {
    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let u: f64 = self.rng.random();
        let inputs = self.inputs;
        let spec = &inputs.spec;
        if u < SEARCH_SHARE {
            let source = self.rng.random_range(0..spec.n);
            let set = correlated_query(
                self.inputs.dataset.vector(source),
                &self.inputs.profile,
                ALPHA,
                &mut self.rng,
            );
            return Op::Search(Query { source, set });
        }
        if u < SEARCH_SHARE + INSERT_SHARE || self.own.is_empty() {
            return Op::Insert(self.sampler.sample(&mut self.rng));
        }
        let at = self.rng.random_range(0..self.own.len());
        Op::Remove(self.own.swap_remove(at))
    }

    /// Records the id the server assigned to this stream's insert.
    pub fn inserted(&mut self, id: usize) {
        self.own.push(id);
    }
}
