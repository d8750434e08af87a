//! One benchmark run: set up, measure each phase, check every answer.
//!
//! The untraced run measures the end-to-end metrics. The traced run is a
//! separate invocation that times each layer from outside, by recording a
//! span around every call into that layer's public functions, and reports
//! the per-layer metrics.

use crate::host::HostFacts;
use crate::report::{Gate, Report};
use crate::service::{self, check_similarity, ServiceLoop};
use crate::stats::{highest_supported, iqr_share, median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    Index, Inputs, Op, Query, Spec, ALPHA, BATCH_ROUNDS, QUERIES, REFERENCE_SECONDS, SERVICE_OPS,
};
use skewsearch_core::correlated::B1_DIVISOR;
use skewsearch_core::{Match, Persist, SetSimilaritySearch};
use skewsearch_rho::rho_correlated;
use skewsearch_server::{share, SharedIndex};
use skewsearch_sets::{similarity::braun_blanquet, SparseVec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The tail percentile every latency reports beside its median.
const TAIL: f64 = 90.0;
/// Inserts the traced run replays in process: enough for a p99 with ten
/// samples beyond it.
const REPLAYED_INSERTS: usize = 1000;
/// Queries per `search_batch` call.
const BATCH_SIZE: usize = 100;
/// Slices each phase's work is cut into. The untraced run cycles through
/// the phases slice by slice, so each metric samples the whole run rather
/// than one stretch of it: a shared host's speed drifts by a tenth or more
/// over seconds.
const SLICES: usize = 8;
/// Traced queries whose pipeline answer is compared with `probe_plan`.
const TRACE_CROSSCHECK: usize = 300;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub spec: Spec,
    /// Workload seed: all inputs derive from it.
    pub seed: u64,
    /// Length of the run the work is sized for (see [`RunConfig::work`]).
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Where saved indexes, spans and the last untraced result go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// The run's work: the reference counts scaled from
    /// [`REFERENCE_SECONDS`] to `--seconds`, with floors that keep every
    /// reported percentile supported. The work depends only on
    /// `--seconds`, never on how fast the host is, so one seed always
    /// measures the same requests against the same index states.
    fn work(&self) -> Work {
        let scale = |count: usize, floor: usize| {
            ((count as f64 * self.seconds / REFERENCE_SECONDS).round() as usize).max(floor)
        };
        Work {
            queries: scale(QUERIES, 200),
            batch_rounds: scale(BATCH_ROUNDS, 3),
            service_ops: scale(SERVICE_OPS, 1000),
        }
    }

    fn file(&self, what: &str, ext: &str) -> PathBuf {
        self.out_dir
            .join(format!("{what}-{}-{}.{ext}", self.spec.name, self.seed))
    }
}

/// Counts of one run's work.
struct Work {
    /// In-process queries, single thread.
    queries: usize,
    /// `search_batch` calls of [`BATCH_SIZE`] queries.
    batch_rounds: usize,
    /// Service requests.
    service_ops: usize,
}

/// Runs one configuration and returns its report. `Err` means the run
/// could not measure at all (a setup or transport failure); wrong answers
/// come back as a report whose gate failed.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let mut report = Report::default();
    report.note(HostFacts::gather().line());
    report.note(format!(
        "workload={} seed={} seconds={} trace={}",
        cfg.spec.name, cfg.seed, cfg.seconds, cfg.trace as u8
    ));
    let inputs = Inputs::generate(cfg.spec, cfg.seed)?;
    if cfg.trace {
        traced(cfg, &inputs, &mut report)?;
    } else {
        untraced(cfg, &inputs, &mut report)?;
        remember(cfg, &report);
    }
    Ok(report)
}

fn threshold() -> f64 {
    ALPHA / B1_DIVISOR
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p50(values: &[f64], what: &str) -> Result<f64, String> {
    percentile(values, 50.0).ok_or_else(|| format!("{what}: too few samples for a median"))
}

fn pct(values: &[f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(values, p)
        .ok_or_else(|| format!("{what}: {} samples do not support a p{p}", values.len()))
}

fn tail(values: &[f64], what: &str) -> Result<f64, String> {
    pct(values, TAIL, what)
}

fn read(shared: &SharedIndex) -> Result<std::sync::RwLockReadGuard<'_, DynIndex>, String> {
    shared.read().map_err(|_| "index lock poisoned".to_string())
}

type DynIndex = Box<dyn SetSimilaritySearch + Send + Sync>;

// ---------------------------------------------------------------- untraced

fn untraced(cfg: &RunConfig, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let (index, setups) = setup(cfg, inputs)?;
    report.metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    report.note(format!(
        "setup: build x{}: {:?} s, spread (IQR/median) {}",
        setups.len(),
        setups,
        iqr_share(&setups).map_or("n/a".to_string(), |v| format!("{v:.4}"))
    ));

    let mut gate = Gate::default();
    let (q, b) = measure(cfg, inputs, &index, &mut gate);
    report.metric("query_p50_us", p50(&q.latency_us, "query")?, "us");
    report.metric("query_p90_us", tail(&q.latency_us, "query")?, "us");
    report.metric("batch_qps", median(&b.qps).unwrap_or(f64::NAN), "1/s");
    report.metric("recall", q.recall(), "share");
    report.metric(
        "bytes_per_set",
        index.memory_stats().total() as f64 / index.len() as f64,
        "B",
    );
    report.attempted += q.latency_us.len() as u64 + b.queries;
    report.note(format!(
        "query loop: {} queries ({} distinct), latency us {}; batch: {} rounds of {} on {} \
         workers",
        q.latency_us.len(),
        q.answers.len(),
        latencies(&q.latency_us),
        b.qps.len(),
        BATCH_SIZE,
        crate::host::nproc()
    ));
    report.gate.merge(gate);
    Ok(())
}

/// The median and the highest percentile `values` supports, for printing.
fn latencies(values: &[f64]) -> String {
    let median = percentile(values, 50.0).map_or("none".to_string(), |x| format!("p50 {x:.1}"));
    highest_supported(values.len(), &[90.0, 95.0, 99.0])
        .and_then(|p| percentile(values, p).map(|x| format!("{median} p{p} {x:.1}")))
        .unwrap_or(median)
}

/// Builds the index `setup_rounds` times, timing each build, and keeps the
/// last build.
fn setup(cfg: &RunConfig, inputs: &Inputs) -> Result<(Index, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..cfg.spec.setup_rounds {
        // The previous build is freed before the next one starts.
        drop(last.take());
        let t0 = Instant::now();
        let built = inputs.build();
        setups.push(secs(t0.elapsed()));
        last = Some(built);
    }
    Ok((last.ok_or("no setup rounds")?, setups))
}

/// The measuring part of the untraced run: the in-process query loop and
/// `search_batch` rounds, alternated slice by slice, each doing its share
/// of the run's fixed work per slice.
fn measure(
    cfg: &RunConfig,
    inputs: &Inputs,
    index: &Index,
    gate: &mut Gate,
) -> (QueryPhase, BatchPhase) {
    let work = cfg.work();
    let batch: Vec<_> = inputs.queries[..BATCH_SIZE.min(inputs.queries.len())]
        .iter()
        .map(|q| q.set.clone())
        .collect();
    let mut q = QueryPhase::default();
    let mut b = BatchPhase::default();
    // Slice `i` of `SLICES` takes the counts up to `total * (i + 1) / SLICES`.
    let upto = |total: usize, i: usize| total * (i + 1) / SLICES;
    for i in 0..SLICES {
        q.run(index, inputs, upto(work.queries, i), gate);
        b.run(index, &batch, upto(work.batch_rounds, i), gate);
    }
    let sequential = q.answers.get(..batch.len());
    gate.check(
        b.first.is_some() && b.first.as_deref() == sequential,
        || "search_batch answers differ from the sequential answers".to_string(),
    );
    (q, b)
}

/// The single-thread closed loop: `plan_query` then `probe_plan` per query,
/// the pipeline `/search` runs, cycling through the query pool.
#[derive(Default)]
struct QueryPhase {
    latency_us: Vec<f64>,
    /// First answer of each distinct query, in pool order.
    answers: Vec<Vec<Match>>,
    recalled: usize,
}

impl QueryPhase {
    fn recall(&self) -> f64 {
        self.recalled as f64 / self.answers.len() as f64
    }

    /// Runs queries until `total` have run. A query's first answer is
    /// checked and kept; a repeat must answer identically.
    fn run(&mut self, index: &Index, inputs: &Inputs, total: usize, gate: &mut Gate) {
        let pool = &inputs.queries;
        while self.latency_us.len() < total {
            let i = self.latency_us.len();
            let q = &pool[i % pool.len()];
            let t0 = Instant::now();
            let plan = index.plan_query(&q.set);
            let matches = index.probe_plan(&plan);
            self.latency_us.push(us(t0.elapsed()));
            if i < pool.len() {
                check_matches(gate, inputs, q, &matches);
                self.recalled += usize::from(matches.iter().any(|m| m.id == q.source));
                self.answers.push(matches);
            } else {
                gate.check(matches == self.answers[i % pool.len()], || {
                    format!("query {} answered differently on a repeat", i % pool.len())
                });
            }
        }
    }
}

/// Every match of an in-process answer: bit-identical similarity to a
/// fresh `braun_blanquet` against the indexed set, at least the threshold.
fn check_matches(gate: &mut Gate, inputs: &Inputs, q: &Query, matches: &[Match]) {
    for m in matches {
        if m.id >= inputs.spec.n {
            gate.fail(format!("match id {} outside the dataset", m.id));
            continue;
        }
        let set = inputs.dataset.vector(m.id);
        check_similarity(gate, m.id, set, &q.set, m.similarity.to_bits(), threshold());
    }
}

/// `search_batch` on the index's default worker count (one per core) over
/// the first queries of the pool.
#[derive(Default)]
struct BatchPhase {
    qps: Vec<f64>,
    queries: u64,
    /// Answers of the first round; every later round must equal them.
    first: Option<Vec<Vec<Match>>>,
}

impl BatchPhase {
    /// Runs `search_batch` rounds until `total` have run.
    fn run(&mut self, index: &Index, batch: &[SparseVec], total: usize, gate: &mut Gate) {
        while self.qps.len() < total {
            let t0 = Instant::now();
            let answers = index.search_batch(batch);
            self.qps.push(batch.len() as f64 / secs(t0.elapsed()));
            self.queries += batch.len() as u64;
            match &self.first {
                None => self.first = Some(answers),
                Some(first) => gate.check(&answers == first, || {
                    "search_batch answered differently on a repeat".to_string()
                }),
            }
        }
    }
}

/// Checks that need the whole service loop: every server-side refusal was
/// seen (and counted) by a client, and the live count adds up.
fn service_gate(
    gate: &mut Gate,
    inputs: &Inputs,
    o: &service::Outcome,
    facts: &service::ServerFacts,
) {
    let expected = inputs.spec.n as u64 + o.inserted - o.removed;
    gate.check(facts.live_sets == expected, || {
        format!(
            "/healthz live_sets {} != n + inserts - removes = {expected}",
            facts.live_sets
        )
    });
    gate.check(facts.rejected <= o.failed, || {
        format!(
            "server refused {} requests but clients counted {} failures",
            facts.rejected, o.failed
        )
    });
}

/// Saves the untraced `query_p50_us` so a later traced run with the same
/// workload and seed can report the tracing overhead.
fn remember(cfg: &RunConfig, report: &Report) {
    if let Some(v) = report.get("query_p50_us") {
        let _ = std::fs::write(cfg.file("untraced", "txt"), v.to_string());
    }
}

/// The `query_p50_us` an untraced run of this workload and seed saved.
fn recalled(cfg: &RunConfig) -> Option<f64> {
    std::fs::read_to_string(cfg.file("untraced", "txt"))
        .ok()?
        .trim()
        .parse()
        .ok()
}

// ------------------------------------------------------------------ traced

fn traced(cfg: &RunConfig, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let origin = Instant::now();
    let mut t = Tracer::new(origin, 0);
    let mut gate = Gate::default();
    let n = inputs.spec.n as f64;

    // core.index build
    let (index, build) = t.time("core.index.build", None, 0, || inputs.build());
    let bs = *index.build_stats();
    let mem = index.memory_stats();
    report.metric("core.index.build_s", secs(build), "s");
    report.metric(
        "core.index.filters_per_vector",
        bs.avg_filters_per_vector(inputs.spec.n),
        "count",
    );
    report.metric(
        "core.index.distinct_buckets",
        bs.distinct_buckets as f64,
        "count",
    );
    report.metric("core.index.max_bucket", bs.max_bucket as f64, "count");
    report.metric(
        "core.index.truncated_vectors",
        bs.truncated_vectors as f64,
        "count",
    );
    report.metric(
        "core.index.posting_bytes_per_set",
        mem.posting_bytes as f64 / n,
        "B",
    );
    report.metric(
        "core.index.vector_bytes_per_set",
        mem.vector_bytes as f64 / n,
        "B",
    );
    report.metric(
        "core.index.aux_bytes_per_set",
        mem.aux_bytes as f64 / n,
        "B",
    );

    // core.engine, core.postings, sets.similarity, rho
    let layers = traced_queries(cfg, inputs, &index, &mut t, &mut gate);
    layers.report(report, inputs);
    let traced_query_p50 = median(&t.durations_us("query")).unwrap_or(f64::NAN);

    // core.batch
    let speedup = batch_speedup(cfg, inputs, &index, &layers.answers, &mut t, &mut gate);
    report.metric("core.batch.speedup", speedup, "ratio");

    // core.persist
    let path = cfg.file("traced", "skx");
    let (saved, save) = t.time("core.persist.save", None, 0, || index.save(&path));
    saved.map_err(|e| format!("save {}: {e}", path.display()))?;
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("stat {}: {e}", path.display()))?
        .len();
    drop(index);
    let (loaded, load) = t.time("core.persist.load", None, 0, || Index::load(&path));
    let mut loaded = loaded.map_err(|e| format!("load: {e}"))?;
    report.metric("core.persist.load_s", secs(load), "s");
    report.metric("core.persist.save_s", secs(save), "s");
    report.metric(
        "core.persist.file_bytes_per_set",
        file_bytes as f64 / n,
        "B",
    );

    // core.index mutation: the service loop's op stream, in process
    let m = replay_mutations(inputs, &mut loaded, &mut t, &mut gate);
    report.metric(
        "core.index.insert_us_p50",
        p50(&m.insert_us, "replayed insert")?,
        "us",
    );
    report.metric(
        "core.index.insert_us_p99",
        pct(&m.insert_us, 99.0, "replayed insert")?,
        "us",
    );
    let remove_p50 = p50(&m.remove_us, "replayed remove")?;
    report.metric("core.index.remove_us_p50", remove_p50, "us");
    report.metric("core.index.compact_ms", m.compact_ms, "ms");
    report.metric("core.index.compactions", m.compactions as f64, "count");
    drop(loaded);

    // server
    let served = Index::load(&path).map_err(|e| format!("load: {e}"))?;
    let _ = std::fs::remove_file(&path);
    let shared = share(served);
    let server = service::serve(shared.clone())?;
    let addr = server.local_addr();
    let looped = serve_traced(cfg, inputs, addr, origin, &mut gate);
    let facts = looped.as_ref().ok().map(|_| service::server_facts(addr));
    server.shutdown();
    let mut o = looped?;
    let facts = facts.ok_or("no server facts")??;
    service_gate(&mut gate, inputs, &o, &facts);
    let search_p50 = p50(&o.search_us, "search")?;
    let remove_rt_p50 = p50(&o.remove_us, "remove")?;
    // The same searches, in process, on the same (now idle) served index.
    let replay_p50 = {
        let guard = read(&shared)?;
        let mut lat = Vec::with_capacity(o.replay.len());
        for q in &o.replay {
            let t0 = Instant::now();
            let plan = guard.plan_query(&q.set);
            std::hint::black_box(guard.probe_plan(&plan));
            lat.push(us(t0.elapsed()));
        }
        p50(&lat, "in-process replay")?
    };
    report.metric("server.handler_p50_us", facts.handler_p50_us, "us");
    report.metric("server.handler_p99_us", facts.handler_p99_us, "us");
    report.metric("server.overhead_us", search_p50 - replay_p50, "us");
    report.metric(
        "server.remove_overhead_us",
        remove_rt_p50 - remove_p50,
        "us",
    );
    report.metric("server.rejected", facts.rejected as f64, "count");
    report.metric("server.search_p50_us", search_p50, "us");
    report.metric("server.search_p90_us", tail(&o.search_us, "search")?, "us");
    report.metric("server.ops_per_s", o.ops_per_s(), "1/s");
    report.attempted += layers.queries + o.attempted + m.ops;
    report.failed += o.failed;
    report.note(format!(
        "service: {} requests in {:.2} s over one connection: {} searches, {} inserts, \
         {} removes; error_rate={}; latency us: search {}, insert {}, remove {}",
        o.attempted,
        secs(o.elapsed),
        o.search_us.len(),
        o.insert_us.len(),
        o.remove_us.len(),
        o.failed as f64 / o.attempted.max(1) as f64,
        latencies(&o.search_us),
        latencies(&o.insert_us),
        latencies(&o.remove_us)
    ));
    if let Some(spans) = o.spans.take() {
        t.absorb(spans);
    }
    report.note(match recalled(cfg) {
        Some(plain) => format!(
            "tracing overhead on query_p50_us: traced {traced_query_p50:.2} - untraced \
             {plain:.2} = {:.2} us",
            traced_query_p50 - plain
        ),
        None => format!(
            "tracing overhead on query_p50_us: traced {traced_query_p50:.2} us; run --trace 0 \
             with this workload and seed first for the untraced figure"
        ),
    });
    let spans_path = cfg.file("spans", "jsonl");
    t.write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    report.note(format!(
        "{} spans written to {}",
        t.spans().len(),
        spans_path.display()
    ));
    report.gate.merge(gate);
    Ok(())
}

/// The service loop alone, with client spans, for the run's service work.
fn serve_traced(
    cfg: &RunConfig,
    inputs: &Inputs,
    addr: std::net::SocketAddr,
    origin: Instant,
    gate: &mut Gate,
) -> Result<service::Outcome, String> {
    let mut svc = ServiceLoop::connect(addr, inputs, threshold(), Some(origin))?;
    svc.run(cfg.work().service_ops);
    Ok(svc.finish(gate))
}

/// Per-query work and time of the three query layers.
#[derive(Default)]
struct Layers {
    queries: u64,
    engine_ns: f64,
    filters: f64,
    postings_ns: f64,
    postings: f64,
    distinct: f64,
    similarity_ns: f64,
    matches: f64,
    answers: Vec<Vec<Match>>,
}

impl Layers {
    fn report(&self, report: &mut Report, inputs: &Inputs) {
        let q = self.queries as f64;
        report.metric("core.engine.us_per_query", self.engine_ns / q / 1e3, "us");
        report.metric("core.engine.filters_per_query", self.filters / q, "count");
        report.metric(
            "core.engine.ns_per_filter",
            self.engine_ns / self.filters,
            "ns",
        );
        report.metric(
            "core.postings.us_per_query",
            self.postings_ns / q / 1e3,
            "us",
        );
        report.metric(
            "core.postings.ns_per_key",
            self.postings_ns / self.filters,
            "ns",
        );
        report.metric(
            "core.postings.postings_per_query",
            self.postings / q,
            "count",
        );
        report.metric(
            "core.postings.distinct_per_query",
            self.distinct / q,
            "count",
        );
        report.metric(
            "core.postings.dedup_yield",
            self.distinct / self.postings,
            "ratio",
        );
        report.metric(
            "sets.similarity.us_per_query",
            self.similarity_ns / q / 1e3,
            "us",
        );
        report.metric(
            "sets.similarity.ns_per_candidate",
            self.similarity_ns / self.distinct,
            "ns",
        );
        report.metric(
            "sets.similarity.match_yield",
            self.matches / self.distinct,
            "ratio",
        );
        let n = inputs.spec.n as f64;
        let predicted = n.powf(rho_correlated(&inputs.profile, ALPHA));
        report.metric("rho.predicted_candidates", predicted, "count");
        report.metric(
            "rho.observed_over_predicted",
            self.distinct / q / predicted,
            "ratio",
        );
    }
}

/// The query pipeline split at its layer boundaries, one span per call:
/// `plan_query` (core.engine), the probe-only walk with a collecting
/// visitor (core.postings), and `braun_blanquet` over the collected
/// candidates (sets.similarity), under one root span per query.
fn traced_queries(
    cfg: &RunConfig,
    inputs: &Inputs,
    index: &Index,
    t: &mut Tracer,
    gate: &mut Gate,
) -> Layers {
    let pool = &inputs.queries;
    let vectors = index.vectors();
    let mut out = Layers::default();
    let mut ids: Vec<u32> = Vec::new();
    for i in 0..cfg.work().queries {
        let q = &pool[i % pool.len()];
        let request = i as u64;
        let root = t.begin("query", None, request);
        let parent = Some(root.id());
        let (plan, engine) = t.time("core.engine", parent, request, || index.plan_query(&q.set));
        ids.clear();
        let (stats, postings) = t.time("core.postings", parent, request, || {
            index.probe_plan_tagged(&plan, |_, _, id| {
                ids.push(id);
                true
            })
        });
        let (matches, similarity) = t.time("sets.similarity", parent, request, || {
            let mut matches = Vec::new();
            for &id in &ids {
                let sim = braun_blanquet(&vectors[id as usize], &q.set);
                if sim >= threshold() && index.is_live(id as usize) {
                    matches.push(Match {
                        id: id as usize,
                        similarity: sim,
                    });
                }
            }
            matches
        });
        t.end(root);
        out.queries += 1;
        out.engine_ns += engine.as_nanos() as f64;
        out.filters += plan.key_count() as f64;
        out.postings_ns += postings.as_nanos() as f64;
        out.postings += stats.candidates as f64;
        out.distinct += stats.verified as f64;
        out.similarity_ns += similarity.as_nanos() as f64;
        out.matches += matches.len() as f64;
        if i < TRACE_CROSSCHECK.min(pool.len()) {
            gate.check(
                matches == SetSimilaritySearch::probe_plan(index, &plan),
                || format!("query {i}: layer-by-layer answer differs from probe_plan"),
            );
            check_matches(gate, inputs, q, &matches);
        }
        if i < BATCH_SIZE.min(pool.len()) {
            out.answers.push(matches);
        }
    }
    out
}

/// `search_batch` throughput over single-thread `plan_query` +
/// `probe_plan` throughput on the same queries, median of rounds.
fn batch_speedup(
    cfg: &RunConfig,
    inputs: &Inputs,
    index: &Index,
    sequential: &[Vec<Match>],
    t: &mut Tracer,
    gate: &mut Gate,
) -> f64 {
    let size = sequential.len();
    let batch: Vec<_> = inputs.queries[..size]
        .iter()
        .map(|q| q.set.clone())
        .collect();
    let mut ratios = Vec::new();
    for round in 0..cfg.work().batch_rounds as u64 {
        let t0 = Instant::now();
        for q in &batch {
            std::hint::black_box(SetSimilaritySearch::probe_plan(index, &index.plan_query(q)));
        }
        let single = secs(t0.elapsed());
        let (answers, parallel) = t.time("core.batch", None, round, || index.search_batch(&batch));
        gate.check(answers.as_slice() == sequential, || {
            "search_batch answers differ from the sequential answers".to_string()
        });
        ratios.push(single / secs(parallel));
    }
    median(&ratios).unwrap_or(f64::NAN)
}

struct Mutations {
    insert_us: Vec<f64>,
    remove_us: Vec<f64>,
    compact_ms: f64,
    compactions: u64,
    ops: u64,
}

/// Replays the service loop's operation stream on the loaded index, in
/// process: its inserts and removes (searches skipped) until a p99 of
/// inserts is supported, then one explicit `compact()`.
fn replay_mutations(
    inputs: &Inputs,
    index: &mut Index,
    t: &mut Tracer,
    gate: &mut Gate,
) -> Mutations {
    let mut ops = inputs.ops();
    let mut out = Mutations {
        insert_us: Vec::new(),
        remove_us: Vec::new(),
        compact_ms: 0.0,
        compactions: 0,
        ops: 0,
    };
    while out.insert_us.len() < REPLAYED_INSERTS {
        let request = out.ops;
        match ops.next_op() {
            Op::Search(_) => continue,
            Op::Insert(set) => {
                let (id, took) =
                    t.time("core.index.insert", None, request, || index.insert_set(set));
                ops.inserted(id);
                out.insert_us.push(us(took));
            }
            Op::Remove(id) => {
                let (was_live, took) =
                    t.time("core.index.remove", None, request, || index.remove_set(id));
                gate.check(was_live, || {
                    format!("replayed remove of live id {id} failed")
                });
                out.remove_us.push(us(took));
            }
        }
        out.ops += 1;
    }
    let ((), took) = t.time("core.index.compact", None, out.ops, || index.compact());
    out.compact_ms = took.as_secs_f64() * 1e3;
    out.compactions = index.compaction_count();
    out
}

/// Default output directory: `$CARGO_TARGET_DIR/skewbench` when set, else
/// `benchmark/target/skewbench`.
pub fn default_out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("benchmark").join("target"));
    base.join("skewbench")
}
