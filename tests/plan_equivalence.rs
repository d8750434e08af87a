//! Pipeline semantics: for every index type, the split query path —
//! `plan_query` (stage 1: enumerate + intern) followed by `probe_plan` /
//! `probe_plan_tagged` / `probe_plan_first_tagged` (stages 2+3: bucket
//! probing + verification) — must answer **byte-identically** to the legacy
//! fused `search_all` / `search_all_tagged` / `search_first_tagged` path,
//! tags included.
//!
//! Deterministic tests pin the 5 index types; a proptest block randomizes
//! dataset, correlation target, and repetition count. Degenerate cases ride
//! along everywhere: the empty query (a plan with all-empty key lists), the
//! *unplanned* plan (fused fallback), and plan reuse (probing must not
//! consume the plan). Every planned query also checks the all-or-nothing
//! deadline contract of `probe_plan_tagged_deadline`. A final test drives
//! plans through the sharded broadcast at the worker counts of
//! `SKEWSEARCH_TEST_THREADS` (CI sets it to `nproc` on multicore hosts — see
//! `.github/workflows/ci.yml`).

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use skewsearch::baselines::{ChosenPathIndex, ChosenPathParams, MinHashLsh, MinHashParams};
use skewsearch::core::{
    AdversarialIndex, AdversarialParams, CorrelatedIndex, CorrelatedParams, CorrelatedScheme,
    DeadlineExceeded, IndexOptions, LsfIndex, QueryPlan, Repetitions, SetSimilaritySearch,
    ShardStrategy, ShardedIndex,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::sets::SparseVec;
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;
use common::thread_counts;

const SEED: u64 = 0x91A4;
const ALPHA: f64 = 0.7;

fn fixture(n: usize, seed: u64) -> (Dataset, BernoulliProfile, Vec<SparseVec>) {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = Dataset::generate(&profile, n, &mut rng);
    let mut queries: Vec<SparseVec> = (0..20)
        .map(|t| correlated_query(ds.vector(t * 13 % n.max(1)), &profile, ALPHA, &mut rng))
        .collect();
    queries.push(SparseVec::empty()); // degenerate: empty query → empty plan
    (ds, profile, queries)
}

fn opts(reps: usize) -> IndexOptions {
    IndexOptions {
        repetitions: Repetitions::Fixed(reps),
        ..IndexOptions::default()
    }
}

/// The deadline contract, all or nothing: a check that never fires answers
/// exactly like the undeadlined probe, a check that has already fired
/// yields `Err`, and a check that fires on its second poll yields `Err` as
/// soon as it has been polled that often — never a partial list.
fn assert_deadline_contract<I: SetSimilaritySearch>(index: &I, plan: &QueryPlan, ctx: &str) {
    let full = index.probe_plan_tagged(plan);
    assert_eq!(
        index.probe_plan_tagged_deadline(plan, &|| false),
        Ok(full.clone()),
        "{ctx} never fires"
    );
    assert_eq!(
        index.probe_plan_tagged_deadline(plan, &|| true),
        Err(DeadlineExceeded),
        "{ctx} already fired"
    );
    let polls = AtomicUsize::new(0);
    let second =
        index.probe_plan_tagged_deadline(plan, &|| polls.fetch_add(1, Ordering::SeqCst) >= 1);
    if polls.load(Ordering::SeqCst) >= 2 {
        assert_eq!(
            second,
            Err(DeadlineExceeded),
            "{ctx} fired on the second poll"
        );
    } else {
        assert_eq!(second, Ok(full), "{ctx} polled once, so it never fired");
    }
}

/// The pipeline contract, entry point by entry point: planned probes, fused
/// searches, and the unplanned fallback all agree byte-for-byte.
fn assert_plan_equivalent<I: SetSimilaritySearch>(index: &I, queries: &[SparseVec], label: &str) {
    for (i, q) in queries.iter().enumerate() {
        let ctx = format!("{label} q={i}");
        let plan = index.plan_query(q);
        assert_eq!(plan.query(), q, "{ctx}");
        assert_eq!(index.probe_plan(&plan), index.search_all(q), "{ctx}");
        assert_eq!(
            index.probe_plan_tagged(&plan),
            index.search_all_tagged(q),
            "{ctx}"
        );
        assert_eq!(
            index.probe_plan_first_tagged(&plan),
            index.search_first_tagged(q),
            "{ctx}"
        );
        assert_deadline_contract(index, &plan, &ctx);
        // A plan is not consumed by probing: the second probe must agree.
        assert_eq!(index.probe_plan(&plan), index.probe_plan(&plan), "{ctx}");
        // Unplanned plans degrade to the fused path, never to a wrong answer.
        let unplanned = QueryPlan::unplanned(q.clone());
        assert!(!unplanned.is_planned(), "{ctx}");
        assert_eq!(
            index.probe_plan_tagged(&unplanned),
            index.search_all_tagged(q),
            "{ctx} unplanned"
        );
    }
    // The empty query rides last in every fixture: its plan carries passes
    // but zero keys, and probing it finds nothing.
    let empty_plan = index.plan_query(queries.last().expect("fixture has queries"));
    assert_eq!(
        empty_plan.key_count(),
        0,
        "{label} empty query plans 0 keys"
    );
    assert!(index.probe_plan(&empty_plan).is_empty(), "{label}");
}

#[test]
fn lsf_index_plan_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
    let index = LsfIndex::build(
        ds.vectors().to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(6),
        &mut rng,
    );
    assert_plan_equivalent(&index, &queries, "LsfIndex");
}

#[test]
fn correlated_index_plan_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(6));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    assert_plan_equivalent(&index, &queries, "CorrelatedIndex");
}

#[test]
fn adversarial_index_plan_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let params = AdversarialParams::new(ALPHA / 1.3)
        .unwrap()
        .with_options(opts(6));
    let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
    assert_plan_equivalent(&index, &queries, "AdversarialIndex");
}

#[test]
fn chosen_path_index_plan_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 4);
    let params = ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
        .unwrap()
        .with_options(opts(6));
    let index = ChosenPathIndex::build(&ds, &profile, params, &mut rng);
    assert_plan_equivalent(&index, &queries, "ChosenPathIndex");
}

#[test]
fn minhash_plan_equivalence() {
    let (ds, _, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    let params = MinHashParams::new(0.6, 0.3).unwrap();
    let index = MinHashLsh::build(&ds, params, &mut rng);
    assert_plan_equivalent(&index, &queries, "MinHashLsh");
}

#[test]
fn empty_index_plans_and_probes_to_nothing() {
    let profile = BernoulliProfile::uniform(50, 0.2).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED ^ 6);
    let scheme = CorrelatedScheme::new(0.5, 2, &profile);
    let index: LsfIndex<CorrelatedScheme> = LsfIndex::build(
        vec![],
        profile,
        scheme,
        0.5,
        IndexOptions::default(),
        &mut rng,
    );
    let q = SparseVec::from_unsorted(vec![1, 2, 3]);
    let plan = index.plan_query(&q);
    assert_eq!(plan.pass_count(), index.repetition_count());
    assert!(index.probe_plan(&plan).is_empty());
    assert!(index.probe_plan_first_tagged(&plan).is_none());
}

#[test]
fn broadcast_probes_match_at_configured_worker_counts() {
    // The sharded fan-out consumes one plan from many workers; results must
    // be identical at every worker count (including SKEWSEARCH_TEST_THREADS,
    // which CI pins to the real core count).
    let (ds, profile, queries) = fixture(200, SEED ^ 7);
    let mut rng = StdRng::seed_from_u64(SEED ^ 7);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(5));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    for strategy in [ShardStrategy::ByRepetition, ShardStrategy::ByDataset] {
        for threads in thread_counts() {
            let sharded = ShardedIndex::build(&index, strategy, 4)
                .with_fanout_threads(threads)
                .with_query_threads(threads);
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(
                    sharded.search_all_tagged(q),
                    index.search_all_tagged(q),
                    "{strategy:?} threads={threads} q={i}"
                );
                assert_deadline_contract(
                    &sharded,
                    &sharded.plan_query(q),
                    &format!("{strategy:?} threads={threads} q={i}"),
                );
            }
            assert_eq!(
                sharded.search_batch(&queries),
                queries
                    .iter()
                    .map(|q| index.search_all(q))
                    .collect::<Vec<_>>(),
                "{strategy:?} threads={threads}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized sweep: all five index types, random dataset sizes and
    /// repetition counts — the planned path must always reproduce the fused
    /// path byte-for-byte.
    #[test]
    fn planned_equals_fused_for_all_index_types(
        seed in 0u64..1_000_000,
        reps in 2usize..7,
        n in 40usize..120,
    ) {
        let (ds, profile, queries) = fixture(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        // First nine correlated queries plus the trailing empty query.
        let queries: Vec<SparseVec> = queries[..9]
            .iter()
            .chain(queries.last())
            .cloned()
            .collect();
        let queries = &queries[..];

        let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
        let lsf = LsfIndex::build(
            ds.vectors().to_vec(),
            profile.clone(),
            scheme,
            ALPHA / 1.3,
            opts(reps),
            &mut rng,
        );
        assert_plan_equivalent(&lsf, queries, "prop LsfIndex");

        let correlated = CorrelatedIndex::build(
            &ds,
            &profile,
            CorrelatedParams::new(ALPHA).unwrap().with_options(opts(reps)),
            &mut rng,
        );
        assert_plan_equivalent(&correlated, queries, "prop CorrelatedIndex");

        let adversarial = AdversarialIndex::build(
            &ds,
            &profile,
            AdversarialParams::new(ALPHA / 1.3).unwrap().with_options(opts(reps)),
            &mut rng,
        );
        assert_plan_equivalent(&adversarial, queries, "prop AdversarialIndex");

        let chosen_path = ChosenPathIndex::build(
            &ds,
            &profile,
            ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
                .unwrap()
                .with_options(opts(reps)),
            &mut rng,
        );
        assert_plan_equivalent(&chosen_path, queries, "prop ChosenPathIndex");

        let minhash = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.3).unwrap(), &mut rng);
        assert_plan_equivalent(&minhash, queries, "prop MinHashLsh");
    }
}
