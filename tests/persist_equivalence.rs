//! Persistence semantics: for every index type, `load(save(index))` must
//! answer **byte-identically** to the original on every surface — `search`,
//! `search_all`, `search_all_tagged`, `search_batch`, `search_batch_best`,
//! and `similarity_join` — including indexes that were mutated before being
//! saved, and whole sharded deployments at every shard count under both
//! strategies.
//!
//! A second block pins the failure contract: truncated files, wrong magic,
//! unsupported versions, mismatched container kinds, flipped payload bytes,
//! and sharded manifests that disagree with their shards (an owner naming a
//! missing shard, a truncated id map, a watermark past the shards' slots)
//! must all surface as typed [`PersistError`]s — never panics, never a
//! silently wrong index. A proptest block randomizes the dataset and query
//! stream over the correlated index round trip.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use skewsearch::baselines::{ChosenPathIndex, ChosenPathParams, MinHashLsh, MinHashParams};
use skewsearch::core::persist::{kind, read_container, write_container};
use skewsearch::core::{
    AdversarialIndex, AdversarialParams, CorrelatedIndex, CorrelatedParams, CorrelatedScheme,
    IndexOptions, LsfIndex, Persist, PersistError, Repetitions, SetSimilaritySearch, ShardManifest,
    ShardStrategy, ShardedIndex,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset, VectorSampler};
use skewsearch::join::similarity_join;
use skewsearch::sets::SparseVec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const SEED: u64 = 0xD15C;
const ALPHA: f64 = 0.7;
const STRATEGIES: [ShardStrategy; 2] = [ShardStrategy::ByRepetition, ShardStrategy::ByDataset];

/// A collision-free scratch path (no wall clock: process id + counter).
fn scratch(label: &str) -> PathBuf {
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "skewsearch_persist_{label}_{}_{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn fixture(n: usize, seed: u64) -> (Dataset, BernoulliProfile, Vec<SparseVec>) {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = Dataset::generate(&profile, n, &mut rng);
    let mut queries: Vec<SparseVec> = (0..20)
        .map(|t| correlated_query(ds.vector(t * 11 % n.max(1)), &profile, ALPHA, &mut rng))
        .collect();
    queries.push(SparseVec::empty()); // degenerate query rides along
    (ds, profile, queries)
}

fn opts(reps: usize) -> IndexOptions {
    IndexOptions {
        repetitions: Repetitions::Fixed(reps),
        ..IndexOptions::default()
    }
}

/// The core assertion: every answer surface of the reloaded index equals the
/// original's, byte for byte.
fn assert_same_answers<I: SetSimilaritySearch>(
    original: &I,
    reloaded: &I,
    queries: &[SparseVec],
    label: &str,
) {
    assert_eq!(reloaded.len(), original.len(), "{label} len");
    assert_eq!(
        reloaded.threshold(),
        original.threshold(),
        "{label} threshold"
    );
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(reloaded.search(q), original.search(q), "{label} q={i}");
        assert_eq!(
            reloaded.search_all(q),
            original.search_all(q),
            "{label} q={i}"
        );
        assert_eq!(
            reloaded.search_all_tagged(q),
            original.search_all_tagged(q),
            "{label} q={i}"
        );
    }
    assert_eq!(
        reloaded.search_batch(queries),
        original.search_batch(queries),
        "{label} batch"
    );
    assert_eq!(
        reloaded.search_batch_best(queries),
        original.search_batch_best(queries),
        "{label} batch_best"
    );
    assert_eq!(
        similarity_join(queries, reloaded),
        similarity_join(queries, original),
        "{label} join"
    );
}

/// Round-trips `index` through a scratch file and checks every surface.
fn assert_round_trip<I: Persist + SetSimilaritySearch>(
    index: &I,
    queries: &[SparseVec],
    label: &str,
) -> I {
    let path = scratch(label);
    index
        .save(&path)
        .unwrap_or_else(|e| panic!("{label} save: {e}"));
    let reloaded = I::load(&path).unwrap_or_else(|e| panic!("{label} load: {e}"));
    let _ = std::fs::remove_file(&path);
    assert_same_answers(index, &reloaded, queries, label);
    reloaded
}

#[test]
fn lsf_index_round_trips() {
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
    assert_round_trip(&index, &queries, "LsfIndex");
}

#[test]
fn correlated_index_round_trips_with_diagnostics() {
    let (ds, profile, queries) = fixture(250, SEED ^ 2);
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(6));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let reloaded = assert_round_trip(&index, &queries, "CorrelatedIndex");
    assert_eq!(reloaded.alpha(), index.alpha());
    assert_eq!(reloaded.diagnostics().c, index.diagnostics().c);
    assert_eq!(
        reloaded.diagnostics().warnings,
        index.diagnostics().warnings
    );
}

#[test]
fn adversarial_index_round_trips() {
    let (ds, profile, queries) = fixture(200, SEED ^ 4);
    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    let params = AdversarialParams::new(0.5).unwrap().with_options(opts(6));
    let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
    let reloaded = assert_round_trip(&index, &queries, "AdversarialIndex");
    // The analytical surface survives too (scheme calibration persisted).
    for q in queries.iter().filter(|q| !q.dims().is_empty()).take(5) {
        assert_eq!(reloaded.predicted_rho(q), index.predicted_rho(q));
    }
}

#[test]
fn chosen_path_index_round_trips() {
    let (ds, profile, queries) = fixture(200, SEED ^ 6);
    let mut rng = StdRng::seed_from_u64(SEED ^ 7);
    let params = ChosenPathParams::new(0.5, 0.1)
        .unwrap()
        .with_options(opts(6));
    let index = ChosenPathIndex::build(&ds, &profile, params, &mut rng);
    let reloaded = assert_round_trip(&index, &queries, "ChosenPathIndex");
    assert_eq!(reloaded.k(), index.k());
    assert_eq!(reloaded.predicted_rho(), index.predicted_rho());
}

#[test]
fn minhash_round_trips() {
    let (ds, profile, queries) = fixture(200, SEED ^ 8);
    let mut rng = StdRng::seed_from_u64(SEED ^ 9);
    let _ = profile;
    let index = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.1).unwrap(), &mut rng);
    assert_round_trip(&index, &queries, "MinHashLsh");
}

#[test]
fn mutated_index_round_trips() {
    // Tombstones, a delta segment, and the compaction watermark must all
    // survive: mutate heavily, save, reload, and compare — then keep
    // mutating the reloaded copy and compare again (the log keeps rolling
    // after a restart).
    let (ds, profile, queries) = fixture(220, SEED ^ 10);
    let mut rng = StdRng::seed_from_u64(SEED ^ 11);
    let scheme = CorrelatedScheme::new(ALPHA, 200, &profile);
    let mut index = LsfIndex::build(
        ds.vectors()[..200].to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(6),
        &mut rng,
    );
    let sampler = VectorSampler::new(&profile);
    for i in 0..40 {
        if i % 3 == 0 {
            index.remove(i).unwrap();
        } else {
            index.insert(sampler.sample(&mut rng)).unwrap();
        }
    }
    let reloaded = assert_round_trip(&index, &queries, "mutated LsfIndex");

    let mut original = index;
    let mut reloaded = reloaded;
    let fresh: Vec<SparseVec> = (0..10).map(|_| sampler.sample(&mut rng)).collect();
    for (i, v) in fresh.into_iter().enumerate() {
        assert_eq!(
            original.insert(v.clone()).unwrap(),
            reloaded.insert(v).unwrap(),
            "post-reload insert {i} assigned different ids"
        );
        // Remove a live slot (100..) and an already-dead one (0, 3, ...):
        // both the tombstone write and the no-op must agree after a reload.
        assert_eq!(
            original.remove(100 + i).unwrap(),
            reloaded.remove(100 + i).unwrap(),
            "post-reload remove {i} diverged"
        );
        assert_eq!(
            original.remove(3 * i).unwrap(),
            reloaded.remove(3 * i).unwrap(),
            "post-reload dead remove {i} diverged"
        );
    }
    assert_same_answers(&original, &reloaded, &queries, "mutated-after-reload");
}

#[test]
fn mutated_then_compacted_index_round_trips_as_format_v2() {
    // Compaction re-encodes the merged segment through the compressed
    // postings encoder — the second of the two encode sites. A compacted
    // index must round-trip through a format-v2 file (compressed arenas
    // persisted verbatim) with every surface intact.
    let (ds, profile, queries) = fixture(220, SEED ^ 20);
    let mut rng = StdRng::seed_from_u64(SEED ^ 21);
    let scheme = CorrelatedScheme::new(ALPHA, 200, &profile);
    let mut index = LsfIndex::build(
        ds.vectors()[..200].to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(6),
        &mut rng,
    );
    let sampler = VectorSampler::new(&profile);
    for i in 0..30 {
        if i % 4 == 0 {
            index.remove(i).unwrap();
        } else {
            index.insert(sampler.sample(&mut rng)).unwrap();
        }
    }
    index.compact();
    assert_eq!(index.pending_mutations(), 0);

    let path = scratch("compacted_v2");
    index.save(&path).unwrap();
    // The file header carries the active write version — 2, unless the CI
    // rollback drill forced v1 via SKEWSEARCH_FORCE_V1.
    let bytes = std::fs::read(&path).unwrap();
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(
        version,
        skewsearch::core::persist::effective_write_version(),
        "compacted index saves at the active write version"
    );
    let reloaded = LsfIndex::<CorrelatedScheme>::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_same_answers(&index, &reloaded, &queries, "compacted v2");
    // The capacity-based accounting survives the round trip exactly: both
    // sides hold shrunk-to-fit arrays rebuilt from the same postings.
    assert!(index.memory_bytes() > 0);
    assert_eq!(
        reloaded.memory_stats().posting_bytes,
        index.memory_stats().posting_bytes,
        "posting accounting diverged across the round trip"
    );
}

#[test]
fn legacy_v1_files_still_load() {
    // The v1 fallback: a file written in the uncompressed bucket-map layout
    // (version 1 in the header) must load into the compressed substrate and
    // answer byte-identically. The file is handcrafted through the public
    // versioned writer — no environment toggle, so this stays race-free
    // under parallel test threads (CI exercises `SKEWSEARCH_FORCE_V1=1`
    // cross-process instead).
    use skewsearch::core::persist::{kind, write_container_versioned, Writer};
    let (ds, profile, queries) = fixture(200, SEED ^ 22);
    let mut rng = StdRng::seed_from_u64(SEED ^ 23);
    let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
    let mut index = LsfIndex::build(
        ds.vectors().to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(5),
        &mut rng,
    );
    // A delta segment rides along: v1 encodes it the same way.
    let sampler = VectorSampler::new(&profile);
    for _ in 0..8 {
        index.insert(sampler.sample(&mut rng)).unwrap();
    }
    index.remove(5).unwrap();

    let path = scratch("legacy_v1");
    let mut w = Writer::new();
    index.write_payload(&mut w, 1);
    write_container_versioned(&path, kind::LSF, &w.into_payload(), 1).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(version, 1, "handcrafted file carries the v1 header");

    let reloaded = LsfIndex::<CorrelatedScheme>::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_same_answers(&index, &reloaded, &queries, "legacy v1");

    // And a v1 file round-trips onward at the active write version
    // (normally an upgrade to v2): saving the reloaded index re-encodes the
    // layout without changing an answer.
    let path2 = scratch("legacy_v1_upgraded");
    reloaded.save(&path2).unwrap();
    let bytes = std::fs::read(&path2).unwrap();
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(
        version,
        skewsearch::core::persist::effective_write_version(),
        "re-save writes the active version"
    );
    let upgraded = LsfIndex::<CorrelatedScheme>::load(&path2).unwrap();
    let _ = std::fs::remove_file(&path2);
    assert_same_answers(&reloaded, &upgraded, &queries, "v1→v2 upgrade");
}

#[test]
fn sharded_deployments_round_trip() {
    let (ds, profile, queries) = fixture(250, SEED ^ 12);
    let mut rng = StdRng::seed_from_u64(SEED ^ 13);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(6));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    for strategy in STRATEGIES {
        for shards in [1usize, 3, 8] {
            let sharded = ShardedIndex::build(&index, strategy, shards);
            let dir = scratch("sharded");
            sharded
                .save(&dir)
                .unwrap_or_else(|e| panic!("{strategy:?}/{shards} save: {e}"));
            let reloaded = ShardedIndex::<CorrelatedIndex>::load(&dir)
                .unwrap_or_else(|e| panic!("{strategy:?}/{shards} load: {e}"));
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(reloaded.strategy(), strategy);
            assert_eq!(reloaded.shard_count(), sharded.shard_count());
            assert_eq!(reloaded.shard_lens(), sharded.shard_lens());
            assert_same_answers(
                &sharded,
                &reloaded,
                &queries,
                &format!("ShardedIndex {strategy:?} shards={shards}"),
            );
        }
    }
}

#[test]
fn sharded_minhash_round_trips() {
    // The manifest must also work over an index with its own section type
    // (MinHash, kind 5) — exercises the id-map path since MinHash shards
    // only by dataset.
    let (ds, _profile, queries) = fixture(200, SEED ^ 14);
    let mut rng = StdRng::seed_from_u64(SEED ^ 15);
    let index = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.1).unwrap(), &mut rng);
    let sharded = ShardedIndex::build(&index, ShardStrategy::ByDataset, 3);
    let dir = scratch("sharded_mh");
    sharded.save(&dir).unwrap();
    let reloaded = ShardedIndex::<MinHashLsh>::load(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_same_answers(&sharded, &reloaded, &queries, "ShardedIndex<MinHashLsh>");
}

// ---------------------------------------------------------------------------
// Failure contract: corruption is a typed error, never a panic.
// ---------------------------------------------------------------------------

fn saved_correlated() -> (PathBuf, CorrelatedIndex) {
    let (ds, profile, _) = fixture(120, SEED ^ 16);
    let mut rng = StdRng::seed_from_u64(SEED ^ 17);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(4));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let path = scratch("corrupt");
    index.save(&path).unwrap();
    (path, index)
}

#[test]
fn missing_file_is_io_error() {
    let path = scratch("missing");
    assert!(matches!(
        CorrelatedIndex::load(&path),
        Err(PersistError::Io(_))
    ));
}

#[test]
fn garbage_magic_is_rejected() {
    let path = scratch("magic");
    std::fs::write(&path, b"definitely not an index file, but long enough").unwrap();
    assert!(matches!(
        CorrelatedIndex::load(&path),
        Err(PersistError::BadMagic)
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn future_version_is_rejected() {
    let (path, _index) = saved_correlated();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = 99; // format-version word (LE) right after the 8-byte magic
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        CorrelatedIndex::load(&path),
        Err(PersistError::UnsupportedVersion(99))
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_container_kind_is_rejected() {
    let (path, _index) = saved_correlated();
    assert!(matches!(
        AdversarialIndex::load(&path),
        Err(PersistError::WrongKind { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_truncation_point_is_rejected_without_panicking() {
    let (path, _index) = saved_correlated();
    let bytes = std::fs::read(&path).unwrap();
    // Exhaustive near the header, sampled through the payload.
    let cuts: Vec<usize> = (0..64.min(bytes.len()))
        .chain((64..bytes.len()).step_by(997))
        .collect();
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            CorrelatedIndex::load(&path).is_err(),
            "truncation at {cut}/{} bytes must fail",
            bytes.len()
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flipped_payload_bytes_fail_the_checksum() {
    let (path, _index) = saved_correlated();
    let bytes = std::fs::read(&path).unwrap();
    // Flip a byte at several payload offsets; each must be caught by the
    // FNV checksum before any structural decoding happens.
    for offset in [32usize, 100, bytes.len() / 2, bytes.len() - 1] {
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        assert!(matches!(
            CorrelatedIndex::load(&path),
            Err(PersistError::ChecksumMismatch)
        ));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn manifest_missing_shard_file_is_io_error() {
    let (ds, profile, _) = fixture(120, SEED ^ 18);
    let mut rng = StdRng::seed_from_u64(SEED ^ 19);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(4));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let sharded = ShardedIndex::build(&index, ShardStrategy::ByDataset, 2);
    let dir = scratch("manifest");
    sharded.save(&dir).unwrap();
    std::fs::remove_file(dir.join("shard-0001.skx")).unwrap();
    assert!(matches!(
        ShardedIndex::<CorrelatedIndex>::load(&dir),
        Err(PersistError::Io(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Saves a two-shard deployment, rewrites its manifest with `tamper` under a
/// valid checksum, and returns the deployment directory.
fn tampered_deployment(
    label: &str,
    strategy: ShardStrategy,
    tamper: impl FnOnce(&mut ShardManifest),
) -> PathBuf {
    let (ds, profile, _) = fixture(120, SEED ^ 20);
    let mut rng = StdRng::seed_from_u64(SEED ^ 21);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(4));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let dir = scratch(label);
    ShardedIndex::build(&index, strategy, 2).save(&dir).unwrap();
    let path = dir.join("manifest.skx");
    let payload = read_container(&path, kind::MANIFEST).unwrap();
    let mut manifest = ShardManifest::decode(&payload).unwrap();
    tamper(&mut manifest);
    write_container(&path, kind::MANIFEST, &manifest.encode()).unwrap();
    dir
}

#[test]
fn manifest_owner_naming_a_missing_shard_is_malformed() {
    let dir = tampered_deployment("owner", ShardStrategy::ByDataset, |m| {
        m.owner[0] = (9, 0);
    });
    assert!(matches!(
        ShardedIndex::<CorrelatedIndex>::load(&dir),
        Err(PersistError::Malformed(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_truncated_id_map_is_malformed() {
    let dir = tampered_deployment("id_map", ShardStrategy::ByDataset, |m| {
        m.shards[0].id_map.as_mut().unwrap().truncate(1);
    });
    assert!(matches!(
        ShardedIndex::<CorrelatedIndex>::load(&dir),
        Err(PersistError::Malformed(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_watermark_past_the_pass_slices_is_malformed() {
    // A `ByRepetition` shard holds every slot, so a watermark that disagrees
    // with the shards would trip the insert path's id check later.
    let dir = tampered_deployment("next_id", ShardStrategy::ByRepetition, |m| {
        m.next_id += 1;
    });
    assert!(matches!(
        ShardedIndex::<CorrelatedIndex>::load(&dir),
        Err(PersistError::Malformed(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Property-based round trip.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_correlated_round_trip(
        seed in 0u64..1000,
        n in 40usize..160,
        alpha in 0.55f64..0.9,
    ) {
        let profile = BernoulliProfile::blocks(&[(40, 0.25), (400, 0.02)]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = Dataset::generate(&profile, n, &mut rng);
        let queries: Vec<SparseVec> = (0..8)
            .map(|t| correlated_query(ds.vector(t * 7 % n), &profile, alpha, &mut rng))
            .collect();
        let params = CorrelatedParams::new(alpha).unwrap().with_options(opts(4));
        let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
        let path = scratch("prop");
        index.save(&path).unwrap();
        let reloaded = CorrelatedIndex::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        for q in &queries {
            prop_assert_eq!(reloaded.search_all(q), index.search_all(q));
            prop_assert_eq!(reloaded.search(q), index.search(q));
        }
    }
}
