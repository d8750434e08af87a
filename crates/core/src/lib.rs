//! # skewsearch-core
//!
//! The primary contribution of "Set Similarity Search for Skewed Data"
//! (McCauley, Mikkelsen, Pagh — PODS 2018): a recursive, data-dependent
//! locality-sensitive **filtering** structure whose path sampling adapts to
//! the item-frequency distribution `D[p₁, …, p_d]`.
//!
//! ## The construction (§3)
//!
//! Every vector `x` is mapped to a set of filters `F(x)`; each filter is a
//! *path* — an ordered sequence of dimensions on which `x` is 1. Paths grow
//! recursively: a set bit `i` extends path `v` at depth `j` iff
//! `h_{j+1}(v ∘ i) < s(x, j, i)` for a fixed stack of pairwise-independent
//! hashes, sampling **without replacement**, and a path completes (becomes a
//! filter) as soon as the product of its item probabilities drops to `1/n` —
//! the skew-adaptive stopping rule. An inverted index over filters turns a
//! query into a short list of candidates that are verified exactly under
//! Braun-Blanquet similarity.
//!
//! ## Entry points
//!
//! * [`CorrelatedIndex`] — Theorem 1: queries `q ~ D_α(x)`; thresholds
//!   biased by `p̂_i = p_i(1−α) + α`, verification at `α/1.3`.
//! * [`AdversarialIndex`] — Theorem 2: arbitrary queries at threshold `b₁`;
//!   thresholds `1/(b₁|x| − j)`, per-query cost exponent `ρ(q)`.
//! * [`SplitIndex`] — the §1 motivating example (frequent/rare split with
//!   balanced exponents), kept as an instructive comparison point.
//! * [`LsfIndex`] + [`ThresholdScheme`] — the generic engine, also used by
//!   the Chosen Path baseline in `skewsearch-baselines`.
//!
//! All structures implement [`SetSimilaritySearch`], including its batch
//! interface: [`SetSimilaritySearch::search_batch`] answers a query slice on
//! a work-stealing thread pool ([`batch`]) with results identical to the
//! sequential loop. Queries run an explicit enumerate→probe→verify pipeline:
//! [`SetSimilaritySearch::plan_query`] derives a reusable [`QueryPlan`]
//! ([`plan`]) that [`SetSimilaritySearch::probe_plan`] consumes with bucket
//! lookups only — byte-identical to the fused search. Any structure can
//! additionally be partitioned across shards by [`ShardedIndex`] ([`shard`])
//! — by repetition slice or by hash-partitioned dataset, where one plan per
//! query broadcasts to all shards — with answers byte-identical to the
//! unsharded structure. Built indexes are durable: [`persist::Persist`]
//! saves any of them to a versioned, checksummed container file and loads
//! it back with byte-identical answers, and [`ShardedIndex::save`] writes a
//! whole deployment (manifest + per-shard files) to a directory.
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
//! use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let profile = BernoulliProfile::two_block(2000, 0.2, 0.02).unwrap();
//! let data = Dataset::generate(&profile, 500, &mut rng);
//! let index = CorrelatedIndex::build(
//!     &data,
//!     &profile,
//!     CorrelatedParams::new(0.8).unwrap(),
//!     &mut rng,
//! );
//! let q = correlated_query(data.vector(42), &profile, 0.8, &mut rng);
//! if let Some(hit) = index.search(&q) {
//!     assert!(hit.similarity >= index.threshold());
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversarial;
pub mod batch;
pub mod correlated;
pub mod engine;
pub mod index;
pub mod persist;
pub mod plan;
pub mod postings;
pub mod scheme;
pub mod shard;
pub mod split;
pub mod traits;

pub use adversarial::{AdversarialIndex, AdversarialParams};
pub use batch::{
    batch_map, batch_map_chunked, batch_map_distinct, distinct_slots, resolve_threads,
};
pub use correlated::{CorrelatedIndex, CorrelatedParams, ModelDiagnostics};
pub use engine::{
    enumerate_filters, enumerate_filters_with, enumeration_count, EnumContext, EnumStats,
    DEFAULT_NODE_BUDGET,
};
pub use index::{BuildStats, IndexOptions, LsfIndex, QueryStats, Repetitions};
pub use persist::{Persist, PersistError, PersistScheme, ShardManifest, ShardManifestEntry};
pub use plan::QueryPlan;
pub use postings::{CompressedPostings, PostingsCursor, PostingsEncoder, PostingsError};
pub use scheme::{AdversarialScheme, ChosenPathScheme, CorrelatedScheme, ThresholdScheme};
pub use shard::{set_partition_key, ShardStrategy, Shardable, ShardedIndex};
pub use split::{
    balance_split, balance_split_normalized, balanced_exponents, SplitIndex, SplitParams,
};
pub use traits::{
    DeadlineExceeded, Match, MemoryStats, MutationError, SetId, SetSimilaritySearch, TaggedMatch,
    Take,
};
