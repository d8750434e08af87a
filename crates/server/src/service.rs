//! Request routing and handling: the part of the server that talks to the
//! index.
//!
//! A [`QueryService`] holds any [`SetSimilaritySearch`] structure behind
//! `Arc<RwLock<_>>` ([`SharedIndex`]): queries take the read lock (so
//! concurrent clients fan out freely — including the sharded index's own
//! internal fan-out, which runs under the same read guard), mutations take
//! the write lock. Handlers are transport-free — they map `(method, path,
//! body)` to a [`Response`] — which is what lets the equivalence tests
//! exercise them through real sockets while the golden-file tests pin the
//! exact bytes.
//!
//! **Deadlines.** A request's optional `deadline_ms` arms an absolute
//! expiry at request-read time. The expiry is checked at every pipeline
//! stage boundary: before planning (an already-expired deadline returns
//! [`ErrorKind::DeadlineExceeded`] *without any enumeration* — pinned via
//! `engine::enumeration_count` in `tests/service_deadline.rs`), and
//! throughout the probe via
//! [`SetSimilaritySearch::probe_plan_tagged_deadline`] — the trait's single
//! query primitive [`SetSimilaritySearch::answer`] with the request's
//! expiry check, which the bucketed indexes poll between passes
//! (repetitions / bands) and the sharded index threads through every
//! shard. Expired queries return the typed error and **no partial
//! answer**.
//!
//! This module is the crate's only wall-clock reader (the private `now`
//! helper below, the single audited clock site) and it
//! is on skewcheck's `wall-clock-free-query-path` watch list: every read
//! site carries an explicit justification, and the value can only decide
//! whether a probe finishes, never which candidates surface.

use crate::histogram::LatencyHistogram;
use crate::json::Json;
use crate::wire::{dims_from_json, matches_to_json, ErrorKind, ServiceError};
use skewsearch_core::{MutationError, SetSimilaritySearch};
use skewsearch_sets::SparseVec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Any search structure, shareable across server workers: queries hold the
/// read lock, `insert`/`remove` the write lock.
pub type SharedIndex = Arc<RwLock<Box<dyn SetSimilaritySearch + Send + Sync>>>;

/// Wraps an owned index into a [`SharedIndex`].
pub fn share(index: impl SetSimilaritySearch + Send + Sync + 'static) -> SharedIndex {
    Arc::new(RwLock::new(Box::new(index)))
}

/// The crate's single wall-clock read site, used to arm request deadlines
/// and measure handler latency. Isolated in one function so skewcheck's
/// `wall-clock-free-query-path` allowance (and clippy's disallowed-methods
/// opt-out) cover exactly one line.
#[allow(clippy::disallowed_methods)]
pub(crate) fn now() -> Instant {
    // lint:allow(wall-clock-free-query-path, deadline arming and latency measurement only — the reading gates whether a probe finishes, never which candidates surface; the core query path stays clock-free by receiving an opaque expiry closure)
    Instant::now()
}

/// Monotonically increasing service counters plus the latency histogram.
/// All fields are lock-free; `/stats` renders them.
#[derive(Default)]
pub struct ServiceStats {
    /// Handler latency of admitted `/search` and `/search_batch` requests,
    /// in nanoseconds (deadline-exceeded answers included: tail latency
    /// SLOs are about what clients wait, not just what succeeds).
    pub latency: LatencyHistogram,
    /// Admitted `/search` requests.
    pub searches: AtomicU64,
    /// Admitted `/search_batch` requests.
    pub search_batches: AtomicU64,
    /// Admitted `/insert` requests.
    pub inserts: AtomicU64,
    /// Admitted `/remove` requests.
    pub removes: AtomicU64,
    /// Connections rejected by the bounded admission queue (the typed
    /// `429`); incremented by the acceptor, not by handlers.
    pub rejected_overload: AtomicU64,
    /// Requests answered `deadline-exceeded` (before or during the probe).
    pub rejected_deadline: AtomicU64,
    /// Requests answered with a `4xx` (malformed body, unknown path, wrong
    /// method).
    pub client_errors: AtomicU64,
    /// Connections dropped mid-request by I/O errors (monitoring only).
    pub io_errors: AtomicU64,
}

impl ServiceStats {
    /// Adds one to a counter.
    pub fn bump(counter: &AtomicU64) {
        // Relaxed: independent monitoring tally; no memory is published or
        // ordered by the count.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        // Relaxed: monitoring-only read of an independent tally.
        counter.load(Ordering::Relaxed)
    }
}

/// One routed HTTP response: status line inputs plus a line-delimited JSON
/// body. [`Response::http_bytes`] is the single serialization site, so the
/// golden-file tests pin the exact on-wire shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// HTTP reason phrase.
    pub reason: &'static str,
    /// Body: one or more `\n`-terminated JSON lines.
    pub body: String,
    /// When set, the response carries `Connection: close` and the server
    /// hangs up after writing (used for overload rejections and protocol
    /// errors where request framing can no longer be trusted).
    pub close: bool,
}

impl Response {
    /// A `200 OK` with a single JSON line as body.
    pub fn ok(json: &Json) -> Response {
        let mut body = json.encode();
        body.push('\n');
        Response {
            status: 200,
            reason: "OK",
            body,
            close: false,
        }
    }

    /// A `200 OK` with one JSON line per element.
    pub fn ok_lines<'a>(lines: impl IntoIterator<Item = &'a Json>) -> Response {
        let mut body = String::new();
        for json in lines {
            body.push_str(&json.encode());
            body.push('\n');
        }
        Response {
            status: 200,
            reason: "OK",
            body,
            close: false,
        }
    }

    /// The typed error response for `err`.
    pub fn error(err: &ServiceError) -> Response {
        let mut body = err.to_json().encode();
        body.push('\n');
        Response {
            status: err.kind.status(),
            reason: err.kind.reason(),
            body,
            close: false,
        }
    }

    /// Serializes status line, headers, and body. Deliberately minimal and
    /// fully deterministic: no `Date`, no `Server` — every byte is a
    /// function of the response value, which is what the golden fixtures
    /// rely on.
    pub fn http_bytes(&self) -> Vec<u8> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            self.reason,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        );
        let mut out = head.into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// Routes and executes requests against a [`SharedIndex`]. Cheap to clone;
/// clones share the index and the stats.
#[derive(Clone)]
pub struct QueryService {
    index: SharedIndex,
    stats: Arc<ServiceStats>,
}

impl QueryService {
    /// A service over `index` with fresh stats.
    pub fn new(index: SharedIndex) -> Self {
        QueryService {
            index,
            stats: Arc::new(ServiceStats::default()),
        }
    }

    /// The shared stats (the acceptor increments the overload counter
    /// through this same handle).
    pub fn stats(&self) -> Arc<ServiceStats> {
        Arc::clone(&self.stats)
    }

    /// The shared index handle.
    pub fn index(&self) -> SharedIndex {
        Arc::clone(&self.index)
    }

    /// Routes one request. `started` is when the server finished reading
    /// the request off the socket — deadlines and latency are measured from
    /// there. Never panics; malformed input maps to typed `4xx` responses.
    pub fn handle(&self, method: &str, path: &str, body: &[u8], started: Instant) -> Response {
        let result = match (method, path) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/stats") => self.stats_json(),
            ("POST", "/search") => self.search(body, started),
            ("POST", "/search_batch") => self.search_batch(body, started),
            ("POST", "/insert") => self.insert(body),
            ("POST", "/remove") => self.remove(body),
            (_, "/healthz" | "/stats" | "/search" | "/search_batch" | "/insert" | "/remove") => {
                Err(ServiceError::new(
                    ErrorKind::MethodNotAllowed,
                    format!("{path} does not accept {method}"),
                ))
            }
            _ => Err(ServiceError::new(
                ErrorKind::NotFound,
                format!("unknown path {path}"),
            )),
        };
        if matches!(path, "/search" | "/search_batch") {
            let admitted = !matches!(
                &result,
                Err(e) if e.kind != ErrorKind::DeadlineExceeded
            );
            if admitted {
                self.stats
                    .latency
                    .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        match result {
            Ok(response) => response,
            Err(err) => {
                if err.kind.status() < 500 && err.kind != ErrorKind::DeadlineExceeded {
                    ServiceStats::bump(&self.stats.client_errors);
                }
                Response::error(&err)
            }
        }
    }

    fn read_index(
        &self,
    ) -> std::sync::RwLockReadGuard<'_, Box<dyn SetSimilaritySearch + Send + Sync>> {
        // A poisoned lock means some thread panicked mid-operation; the
        // library contract (`no-panic-in-lib`) makes that unreachable, and
        // read access cannot observe torn state from other readers, so
        // recover the guard instead of propagating the poison.
        self.index.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_index(
        &self,
    ) -> std::sync::RwLockWriteGuard<'_, Box<dyn SetSimilaritySearch + Send + Sync>> {
        // See `read_index` on poisoning.
        self.index.write().unwrap_or_else(|e| e.into_inner())
    }

    fn healthz(&self) -> Result<Response, ServiceError> {
        let live = self.read_index().len();
        Ok(Response::ok(&Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("live_sets", Json::Num(live as u64)),
        ])))
    }

    fn stats_json(&self) -> Result<Response, ServiceError> {
        let (live, mutable) = {
            let guard = self.read_index();
            (guard.len(), guard.supports_mutation())
        };
        let s = &self.stats;
        let snap = s.latency.snapshot();
        let buckets = Json::Arr(
            snap.buckets
                .iter()
                .map(|&(lo, n)| Json::Arr(vec![Json::Num(lo), Json::Num(n)]))
                .collect(),
        );
        Ok(Response::ok(&Json::obj(vec![
            (
                "requests",
                Json::obj(vec![
                    ("search", Json::Num(ServiceStats::get(&s.searches))),
                    (
                        "search_batch",
                        Json::Num(ServiceStats::get(&s.search_batches)),
                    ),
                    ("insert", Json::Num(ServiceStats::get(&s.inserts))),
                    ("remove", Json::Num(ServiceStats::get(&s.removes))),
                ]),
            ),
            (
                "rejected",
                Json::obj(vec![
                    (
                        "overload",
                        Json::Num(ServiceStats::get(&s.rejected_overload)),
                    ),
                    (
                        "deadline",
                        Json::Num(ServiceStats::get(&s.rejected_deadline)),
                    ),
                    (
                        "client_error",
                        Json::Num(ServiceStats::get(&s.client_errors)),
                    ),
                ]),
            ),
            (
                "index",
                Json::obj(vec![
                    ("live_sets", Json::Num(live as u64)),
                    ("supports_mutation", Json::Bool(mutable)),
                ]),
            ),
            (
                "latency",
                Json::obj(vec![
                    ("count", Json::Num(snap.count)),
                    ("max_ns", Json::Num(snap.max)),
                    ("p50_ns", Json::Num(snap.quantile(0.50))),
                    ("p90_ns", Json::Num(snap.quantile(0.90))),
                    ("p99_ns", Json::Num(snap.quantile(0.99))),
                    ("buckets", buckets),
                ]),
            ),
        ])))
    }

    fn search(&self, body: &[u8], started: Instant) -> Result<Response, ServiceError> {
        let parsed = parse_body(body)?;
        let dims = require_dims(&parsed)?;
        let expired = arm_deadline(started, deadline_ms(&parsed)?);
        ServiceStats::bump(&self.stats.searches);
        let q = SparseVec::from_unsorted(dims);
        let matches = self.answer(&q, &expired)?;
        Ok(Response::ok(&Json::obj(vec![(
            "matches",
            matches_to_json(&matches),
        )])))
    }

    fn search_batch(&self, body: &[u8], started: Instant) -> Result<Response, ServiceError> {
        let parsed = parse_body(body)?;
        let queries = parsed
            .get("queries")
            .ok_or_else(|| {
                ServiceError::new(ErrorKind::BadRequest, "body must have a \"queries\" array")
            })?
            .as_arr()
            .ok_or_else(|| {
                ServiceError::new(ErrorKind::BadRequest, "\"queries\" must be an array")
            })?
            .iter()
            .map(dims_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ServiceError::new(ErrorKind::BadRequest, e))?;
        let expired = arm_deadline(started, deadline_ms(&parsed)?);
        ServiceStats::bump(&self.stats.search_batches);
        let mut lines = Vec::with_capacity(queries.len());
        for (i, dims) in queries.into_iter().enumerate() {
            let q = SparseVec::from_unsorted(dims);
            let matches = self.answer(&q, &expired)?;
            lines.push(Json::obj(vec![
                ("query", Json::Num(i as u64)),
                ("matches", matches_to_json(&matches)),
            ]));
        }
        Ok(Response::ok_lines(&lines))
    }

    /// The enumerate→probe→verify pipeline for one query under a deadline:
    /// expiry is checked before planning (stage 1 never starts on an
    /// already-dead request), then threaded through the probe at the
    /// index's own granularity.
    fn answer(
        &self,
        q: &SparseVec,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<Vec<skewsearch_core::TaggedMatch>, ServiceError> {
        if expired() {
            ServiceStats::bump(&self.stats.rejected_deadline);
            return Err(ServiceError::new(
                ErrorKind::DeadlineExceeded,
                "deadline expired before planning",
            ));
        }
        let guard = self.read_index();
        let plan = guard.plan_query(q);
        guard
            .probe_plan_tagged_deadline(&plan, expired)
            .map_err(|_| {
                ServiceStats::bump(&self.stats.rejected_deadline);
                ServiceError::new(ErrorKind::DeadlineExceeded, "deadline expired during probe")
            })
    }

    fn insert(&self, body: &[u8]) -> Result<Response, ServiceError> {
        let parsed = parse_body(body)?;
        let dims = require_dims(&parsed)?;
        ServiceStats::bump(&self.stats.inserts);
        let set = SparseVec::from_unsorted(dims);
        match self.write_index().insert(set) {
            Ok(id) => Ok(Response::ok(&Json::obj(vec![("id", Json::Num(id as u64))]))),
            Err(MutationError::Unsupported) => Err(ServiceError::new(
                ErrorKind::ReadOnly,
                "the served index does not support incremental mutation",
            )),
        }
    }

    fn remove(&self, body: &[u8]) -> Result<Response, ServiceError> {
        let parsed = parse_body(body)?;
        let id = parsed.get("id").and_then(Json::as_u64).ok_or_else(|| {
            ServiceError::new(ErrorKind::BadRequest, "body must have an integer \"id\"")
        })?;
        let id = usize::try_from(id)
            .map_err(|_| ServiceError::new(ErrorKind::BadRequest, "id out of range"))?;
        ServiceStats::bump(&self.stats.removes);
        match self.write_index().remove(id) {
            Ok(removed) => Ok(Response::ok(&Json::obj(vec![(
                "removed",
                Json::Bool(removed),
            )]))),
            Err(MutationError::Unsupported) => Err(ServiceError::new(
                ErrorKind::ReadOnly,
                "the served index does not support incremental mutation",
            )),
        }
    }
}

/// Parses a request body as one JSON object.
fn parse_body(body: &[u8]) -> Result<Json, ServiceError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServiceError::new(ErrorKind::BadRequest, "body is not UTF-8"))?;
    let parsed = Json::parse(text.trim_end_matches(['\r', '\n']))
        .map_err(|e| ServiceError::new(ErrorKind::BadRequest, e.to_string()))?;
    if matches!(parsed, Json::Obj(_)) {
        Ok(parsed)
    } else {
        Err(ServiceError::new(
            ErrorKind::BadRequest,
            "body must be a JSON object",
        ))
    }
}

/// Extracts the mandatory `"dims"` member.
fn require_dims(parsed: &Json) -> Result<Vec<u32>, ServiceError> {
    let dims = parsed.get("dims").ok_or_else(|| {
        ServiceError::new(ErrorKind::BadRequest, "body must have a \"dims\" array")
    })?;
    dims_from_json(dims).map_err(|e| ServiceError::new(ErrorKind::BadRequest, e))
}

/// Extracts the optional `"deadline_ms"` member.
fn deadline_ms(parsed: &Json) -> Result<Option<u64>, ServiceError> {
    match parsed.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ServiceError::new(ErrorKind::BadRequest, "\"deadline_ms\" must be an integer")
        }),
    }
}

/// Arms an absolute expiry `deadline_ms` after `started` and returns the
/// check the probe polls. `deadline_ms: 0` is already expired — the
/// deterministic fixture the robustness tests use. A deadline too large to
/// represent disables itself (never expires).
fn arm_deadline(started: Instant, deadline_ms: Option<u64>) -> impl Fn() -> bool + Sync {
    let deadline = deadline_ms.and_then(|ms| started.checked_add(Duration::from_millis(ms)));
    move || deadline.is_some_and(|d| now() >= d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewsearch_core::{Match, MutationError, SetId};

    /// Deterministic stub index: matches any query against a fixed list.
    struct Stub {
        sets: Vec<Vec<u32>>,
    }

    impl SetSimilaritySearch for Stub {
        fn search(&self, q: &SparseVec) -> Option<Match> {
            self.search_all(q).into_iter().next()
        }
        fn search_all(&self, q: &SparseVec) -> Vec<Match> {
            self.sets
                .iter()
                .enumerate()
                .filter(|(_, s)| s.iter().any(|d| q.contains(*d)))
                .map(|(id, _)| Match {
                    id,
                    similarity: 0.75,
                })
                .collect()
        }
        fn insert(&mut self, set: SparseVec) -> Result<SetId, MutationError> {
            self.sets.push(set.iter().collect());
            Ok(self.sets.len() - 1)
        }
        fn remove(&mut self, _id: SetId) -> Result<bool, MutationError> {
            Ok(false)
        }
        fn supports_mutation(&self) -> bool {
            true
        }
        fn threshold(&self) -> f64 {
            0.5
        }
        fn len(&self) -> usize {
            self.sets.len()
        }
    }

    fn service() -> QueryService {
        QueryService::new(share(Stub {
            sets: vec![vec![1, 2], vec![7]],
        }))
    }

    #[test]
    fn routes_and_typed_errors() {
        let svc = service();
        let t = now();
        assert_eq!(svc.handle("GET", "/healthz", b"", t).status, 200);
        assert_eq!(svc.handle("GET", "/stats", b"", t).status, 200);
        assert_eq!(svc.handle("POST", "/healthz", b"", t).status, 405);
        assert_eq!(svc.handle("GET", "/search", b"", t).status, 405);
        assert_eq!(svc.handle("GET", "/nope", b"", t).status, 404);
        assert_eq!(svc.handle("POST", "/search", b"not json", t).status, 400);
        assert_eq!(
            svc.handle("POST", "/search", br#"{"dims":"x"}"#, t).status,
            400
        );
        let ok = svc.handle("POST", "/search", br#"{"dims":[1]}"#, t);
        assert_eq!(ok.status, 200);
        assert!(ok.body.ends_with('\n'));
    }

    #[test]
    fn expired_deadline_is_typed_and_counted() {
        let svc = service();
        let resp = svc.handle("POST", "/search", br#"{"dims":[1],"deadline_ms":0}"#, now());
        assert_eq!(resp.status, 504);
        assert!(resp.body.contains("deadline-exceeded"));
        assert_eq!(ServiceStats::get(&svc.stats().rejected_deadline), 1);
    }

    #[test]
    fn mutations_roundtrip_through_handlers() {
        let svc = service();
        let t = now();
        let resp = svc.handle("POST", "/insert", br#"{"dims":[9,8]}"#, t);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"id\":2"));
        let resp = svc.handle("POST", "/remove", br#"{"id":0}"#, t);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"removed\":false"));
    }

    #[test]
    fn http_bytes_are_deterministic() {
        let svc = service();
        let a = svc
            .handle("POST", "/search", br#"{"dims":[1,7]}"#, now())
            .http_bytes();
        let b = svc
            .handle("POST", "/search", br#"{"dims":[1,7]}"#, now())
            .http_bytes();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length:"));
    }
}
