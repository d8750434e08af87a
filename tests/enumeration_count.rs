//! The acceptance criterion of the plan pipeline, asserted with the counting
//! hook `skewsearch::core::enumeration_count`: a `ByDataset`-sharded index
//! performs **exactly one** `F(q)` enumeration per query — `R` calls into the
//! enumeration engine, one per repetition — regardless of shard count, and
//! the unsharded early-exiting `search` enumerates only the repetitions it
//! reaches. The join layer's distinct-query dedup is counted the same way.
//!
//! The counter is process-global, so everything here lives in **one** test
//! function: integration tests in one binary run on concurrent threads, and
//! a second enumerating test would corrupt the measured deltas. (Other test
//! binaries are separate processes and cannot interfere.)

use rand::{rngs::StdRng, SeedableRng};
use skewsearch::core::{
    enumeration_count, CorrelatedIndex, CorrelatedParams, IndexOptions, Repetitions,
    SetSimilaritySearch, ShardStrategy, ShardedIndex,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::join::{similarity_join, JoinPair};
use skewsearch::sets::SparseVec;

const ALPHA: f64 = 0.7;
const REPS: usize = 6;

/// Runs `f` and returns how many enumeration-engine calls it made.
fn enumerations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = enumeration_count();
    let out = f();
    (out, enumeration_count() - before)
}

#[test]
fn by_dataset_enumerates_each_query_exactly_once_at_any_shard_count() {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let ds = Dataset::generate(&profile, 200, &mut rng);
    let params = CorrelatedParams::new(ALPHA)
        .unwrap()
        .with_options(IndexOptions {
            repetitions: Repetitions::Fixed(REPS),
            ..IndexOptions::default()
        });
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let queries: Vec<SparseVec> = (0..8)
        .map(|t| correlated_query(ds.vector(t * 17 % ds.n()), &profile, ALPHA, &mut rng))
        .chain(std::iter::once(SparseVec::empty()))
        .collect();
    // Reference answers, computed outside every measured region.
    let expected: Vec<_> = queries.iter().map(|q| index.search_all(q)).collect();

    // Baseline: the unsharded fused search_all enumerates once per
    // repetition — R calls — per query.
    for (q, expect) in queries.iter().zip(&expected) {
        let (got, delta) = enumerations_during(|| index.search_all(q));
        assert_eq!(&got, expect);
        assert_eq!(delta, REPS as u64, "unsharded baseline");
    }

    // The unsharded `search` stays lazy: it enumerates repetition by
    // repetition and stops at the repetition of its first hit, so a
    // self-query costs exactly the repetitions it probed — fewer than R.
    let self_query = ds.vector(0);
    let (hit, stats) = index.search_with_stats(self_query);
    let (got, delta) = enumerations_during(|| index.search(self_query));
    assert_eq!(got, hit);
    assert!(got.is_some(), "a self-query finds a match");
    assert_eq!(delta, stats.repetitions_probed as u64, "search is lazy");
    assert!(
        delta < REPS as u64,
        "search stopped before the last repetition"
    );

    for shards in [1usize, 2, 4, 8] {
        // The tentpole claim: ByDataset plans once and broadcasts — the
        // enumeration count per query does not depend on the shard count.
        let sharded = ShardedIndex::build(&index, ShardStrategy::ByDataset, shards);
        for (q, expect) in queries.iter().zip(&expected) {
            let (got, delta) = enumerations_during(|| sharded.search_all(q));
            assert_eq!(&got, expect, "ByDataset shards={shards}");
            assert_eq!(
                delta, REPS as u64,
                "exactly one F(q) enumeration per query, shards={shards}"
            );
        }
        // `search` plans once too (and probes early-exit per shard).
        let (_, delta) = enumerations_during(|| sharded.search(&queries[0]));
        assert_eq!(delta, REPS as u64, "search plans once, shards={shards}");

        // ByRepetition: disjoint pass slices sum to R — also 1× total.
        let by_rep = ShardedIndex::build(&index, ShardStrategy::ByRepetition, shards);
        for (q, expect) in queries.iter().zip(&expected).take(3) {
            let (got, delta) = enumerations_during(|| by_rep.search_all(q));
            assert_eq!(&got, expect, "ByRepetition shards={shards}");
            assert_eq!(delta, REPS as u64, "ByRepetition shards={shards}");
        }
    }

    // ---- Mutations keep the once-per-query contract ----
    // One insert enumerates the new set's filters exactly once per
    // repetition — R calls — while removal is tombstone-only and compaction
    // reuses the stored keys: neither enumerates at all. With
    // `mutation_buffer = 2` the remove below also crosses the auto-compaction
    // threshold, so the zero-count covers compaction too.
    let mut mutated = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(ALPHA)
            .unwrap()
            .with_options(IndexOptions {
                repetitions: Repetitions::Fixed(REPS),
                mutation_buffer: 2,
                ..IndexOptions::default()
            }),
        &mut rng,
    );
    let (id, delta) = enumerations_during(|| mutated.insert(ds.vector(0).clone()));
    assert_eq!(id, Ok(ds.n()));
    assert_eq!(delta, REPS as u64, "insert enumerates once per repetition");
    let (removed, delta) = enumerations_during(|| mutated.remove(3));
    assert_eq!(removed, Ok(true));
    assert_eq!(delta, 0, "remove + auto-compaction never enumerate");

    // Inserting through a sharded wrapper costs exactly R as well:
    // ByDataset routes the set to one shard (which pays its full R);
    // ByRepetition fans it to every shard, whose disjoint pass slices sum
    // to R. The regression this section pins: the plan broadcast still
    // enumerates exactly once per query *after* the insert, with answers
    // byte-identical to the mutated unsharded index.
    let mut mirrors: Vec<(ShardStrategy, ShardedIndex<_>)> = Vec::new();
    for strategy in [ShardStrategy::ByDataset, ShardStrategy::ByRepetition] {
        let mut sharded = ShardedIndex::build(&mutated, strategy, 4);
        let (res, delta) = enumerations_during(|| sharded.insert(ds.vector(1).clone()));
        assert_eq!(res, Ok(ds.n() + 1), "{strategy:?}: sharded ids stay global");
        assert_eq!(delta, REPS as u64, "{strategy:?}: sharded insert costs R");
        mirrors.push((strategy, sharded));
    }
    assert_eq!(mutated.insert(ds.vector(1).clone()), Ok(ds.n() + 1));
    for (strategy, sharded) in &mirrors {
        for q in queries.iter().take(3) {
            let (got, delta) = enumerations_during(|| sharded.search_all(q));
            assert_eq!(got, mutated.search_all(q), "post-insert {strategy:?}");
            assert_eq!(
                delta, REPS as u64,
                "post-insert broadcast still enumerates once, {strategy:?}"
            );
        }
    }
    drop(mirrors);

    // Joins: duplicate probe-side sets are answered once per *distinct*
    // query — 5 distinct queries repeated 3× each cost 5·R enumerations.
    let distinct: Vec<SparseVec> = queries[..5].to_vec();
    let r: Vec<SparseVec> = distinct
        .iter()
        .cycle()
        .take(15)
        .cloned()
        .collect::<Vec<_>>();
    let naive: Vec<JoinPair> = r
        .iter()
        .enumerate()
        .flat_map(|(r_id, q)| {
            index.search_all(q).into_iter().map(move |m| JoinPair {
                r_id,
                s_id: m.id,
                similarity: m.similarity,
            })
        })
        .collect();
    let sharded = ShardedIndex::build(&index, ShardStrategy::ByDataset, 4);
    let (pairs, delta) = enumerations_during(|| similarity_join(&r, &sharded));
    assert_eq!(
        pairs, naive,
        "deduped sharded join equals per-occurrence loop"
    );
    assert_eq!(
        delta,
        (distinct.len() * REPS) as u64,
        "one plan per distinct probe query"
    );
}
