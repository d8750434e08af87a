//! The service loop: one keep-alive client in a closed loop against a live
//! server, sending its next request only after the previous reply.

use crate::report::Gate;
use crate::trace::Tracer;
use crate::workload::{Inputs, Op, OpStream, Query};
use skewsearch_server::{
    Json, QueryService, Server, ServerConfig, ServerHooks, ServiceClient, SharedIndex,
};
use skewsearch_sets::{similarity::braun_blanquet, SparseVec};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Binds a server with the default configuration on an ephemeral loopback
/// port and waits until `/healthz` answers.
pub fn serve(index: SharedIndex) -> Result<Server, String> {
    let server = Server::bind(
        "127.0.0.1:0",
        QueryService::new(index),
        ServerConfig::default(),
        ServerHooks::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let healthy = ServiceClient::connect(server.local_addr())
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut c| c.healthz().map_err(|e| format!("healthz: {e}")));
    match healthy {
        Ok(h) if h.get("ok").and_then(Json::as_bool) == Some(true) => Ok(server),
        Ok(h) => {
            server.shutdown();
            Err(format!("unhealthy server: {}", h.encode()))
        }
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// What the loop measured.
#[derive(Default)]
pub struct Outcome {
    /// `/search` round trips, microseconds.
    pub search_us: Vec<f64>,
    /// `/insert` round trips, microseconds.
    pub insert_us: Vec<f64>,
    /// `/remove` round trips, microseconds.
    pub remove_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or were refused (any non-2xx or transport
    /// error).
    pub failed: u64,
    /// Successful inserts.
    pub inserted: u64,
    /// Successful removes.
    pub removed: u64,
    /// Wall time the loop ran.
    pub elapsed: Duration,
    /// The first searches sent, for in-process replay.
    pub replay: Vec<Query>,
    /// Client-side spans, when tracing.
    pub spans: Option<Tracer>,
}

impl Outcome {
    /// Completed requests per second.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64()
    }
}

/// Searches kept for in-process replay.
const REPLAY_KEEP: usize = 1200;

/// One keep-alive connection in a closed loop: it sends its next request
/// only after the previous reply, walks the workload's seeded operation
/// stream, and checks every answer as it arrives.
pub struct ServiceLoop<'a> {
    inputs: &'a Inputs,
    threshold: f64,
    client: ServiceClient,
    ops: OpStream<'a>,
    /// Sets this loop inserted, by the id the server assigned.
    inserted: HashMap<usize, SparseVec>,
    /// Ids this loop removed.
    removed: HashSet<usize>,
    gate: Gate,
    out: Outcome,
}

impl<'a> ServiceLoop<'a> {
    /// Connects the client. `trace` carries the run's span origin when
    /// tracing.
    pub fn connect(
        addr: SocketAddr,
        inputs: &'a Inputs,
        threshold: f64,
        trace: Option<Instant>,
    ) -> Result<Self, String> {
        Ok(ServiceLoop {
            inputs,
            threshold,
            client: ServiceClient::connect(addr).map_err(|e| format!("connect: {e}"))?,
            ops: inputs.ops(),
            inserted: HashMap::new(),
            removed: HashSet::new(),
            gate: Gate::default(),
            out: Outcome {
                spans: trace.map(|origin| Tracer::new(origin, 1)),
                ..Outcome::default()
            },
        })
    }

    /// Sends operations one after another until `total` have been sent.
    pub fn run(&mut self, total: usize) {
        let start = Instant::now();
        while self.out.attempted < total as u64 {
            self.step();
        }
        self.out.elapsed += start.elapsed();
    }

    /// Sends the next operation, times its round trip and checks the reply.
    fn step(&mut self) {
        let n = self.inputs.spec.n;
        let op = self.ops.next_op();
        let request = self.out.attempted + 1;
        let name = match op {
            Op::Search(_) => "service.search",
            Op::Insert(_) => "service.insert",
            Op::Remove(_) => "service.remove",
        };
        let open = self
            .out
            .spans
            .as_mut()
            .map(|t| t.begin(name, None, request));
        let t0 = Instant::now();
        let reply = match &op {
            Op::Search(q) => self.client.search(q.set.dims(), None).map(Reply::Search),
            Op::Insert(set) => self.client.insert(set.dims()).map(Reply::Inserted),
            Op::Remove(id) => self.client.remove(*id).map(Reply::Removed),
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if let (Some(t), Some(open)) = (self.out.spans.as_mut(), open) {
            t.end(open);
        }
        let (out, gate) = (&mut self.out, &mut self.gate);
        out.attempted += 1;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                gate.checks += 1;
                if out.failed <= 3 {
                    eprintln!("{name} failed: {e}");
                }
                return;
            }
        };
        match (op, reply) {
            (Op::Search(q), Reply::Search(matches)) => {
                out.search_us.push(us);
                for m in &matches {
                    let (id, bits) = (m.hit.id, m.hit.similarity.to_bits());
                    gate.check(!self.removed.contains(&id), || {
                        format!("removed id {id} returned by a later search")
                    });
                    let set = if id < n {
                        self.inputs.dataset.vector(id)
                    } else if let Some(set) = self.inserted.get(&id) {
                        set
                    } else {
                        gate.fail(format!("match id {id} was never assigned by an insert"));
                        continue;
                    };
                    check_similarity(gate, id, set, &q.set, bits, self.threshold);
                }
                if out.replay.len() < REPLAY_KEEP {
                    out.replay.push(q);
                }
            }
            (Op::Insert(set), Reply::Inserted(id)) => {
                out.insert_us.push(us);
                self.inserted.insert(id, set);
                self.ops.inserted(id);
                out.inserted += 1;
            }
            (Op::Remove(id), Reply::Removed(was_live)) => {
                out.remove_us.push(us);
                gate.check(was_live, || {
                    format!("removing the loop's own live id {id} reported it absent")
                });
                self.removed.insert(id);
                out.removed += 1;
            }
            _ => gate.fail("reply kind does not match the request".to_string()),
        }
    }

    /// Closes the connection, folds the loop's checks into `gate` and
    /// returns what it measured.
    pub fn finish(self, gate: &mut Gate) -> Outcome {
        gate.merge(self.gate);
        self.out
    }
}

enum Reply {
    Search(Vec<skewsearch_core::TaggedMatch>),
    Inserted(usize),
    Removed(bool),
}

/// A returned similarity must be bit-identical to a fresh Braun-Blanquet
/// computation against the stored set and clear the index threshold.
pub fn check_similarity(
    gate: &mut Gate,
    id: usize,
    set: &SparseVec,
    q: &SparseVec,
    bits: u64,
    threshold: f64,
) {
    let expected = braun_blanquet(set, q);
    gate.check(expected.to_bits() == bits, || {
        format!(
            "id {id}: similarity {} differs from braun_blanquet {}",
            f64::from_bits(bits),
            expected
        )
    });
    gate.check(f64::from_bits(bits) >= threshold, || {
        format!(
            "id {id}: similarity {} below threshold {threshold}",
            f64::from_bits(bits)
        )
    });
}

/// Server-side facts read after the loop.
pub struct ServerFacts {
    /// `/healthz` live set count.
    pub live_sets: u64,
    /// `/stats` search handler latency p50, microseconds.
    pub handler_p50_us: f64,
    /// `/stats` search handler latency p99, microseconds.
    pub handler_p99_us: f64,
    /// Overload + deadline + client-error refusals from `/stats`.
    pub rejected: u64,
}

/// Reads `/healthz` and `/stats`.
pub fn server_facts(addr: SocketAddr) -> Result<ServerFacts, String> {
    let mut client = ServiceClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let health = client.healthz().map_err(|e| format!("healthz: {e}"))?;
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let num = |v: &Json, path: &[&str]| -> Result<u64, String> {
        path.iter()
            .try_fold(v, |v, key| v.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/stats or /healthz lacks {}", path.join(".")))
    };
    Ok(ServerFacts {
        live_sets: num(&health, &["live_sets"])?,
        handler_p50_us: num(&stats, &["latency", "p50_ns"])? as f64 / 1e3,
        handler_p99_us: num(&stats, &["latency", "p99_ns"])? as f64 / 1e3,
        rejected: num(&stats, &["rejected", "overload"])?
            + num(&stats, &["rejected", "deadline"])?
            + num(&stats, &["rejected", "client_error"])?,
    })
}
