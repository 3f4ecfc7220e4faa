//! The closed loop: each client sends its next request only after
//! the previous reply, until the run's deadline. The same loop drives
//! the real `QueryService` (untraced) and the traced rebuild of its
//! serve path.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sjos::exec::MetricsSnapshot;
use sjos::service::{RejectReason, ServiceError};
use sjos::storage::IoSnapshot;
use sjos::{QueryResult, QueryService, Session};

use crate::util::{quantile, result_digest};
use crate::workloads::{Corpus, Request, StreamSource};

/// What one request came back with.
pub enum Outcome {
    Done {
        result: Box<QueryResult>,
        io: IoSnapshot,
        morsels: usize,
        degraded: bool,
        /// The plan's serial certificate (bytes).
        certified: u64,
    },
    Refused {
        reason: RejectReason,
        certified: u64,
    },
    Failed(String),
}

/// The outcome class of a request: completed, or refused and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Done,
    Refused(RejectReason),
    Failed,
}

/// One request as the client saw it. The result itself is dropped
/// once its count (and, the first time, its digest) is taken.
pub struct Record {
    pub request: Request,
    /// Send time, since the loop started.
    pub sent: Duration,
    pub latency: Duration,
    pub class: Class,
    pub rows: u64,
    pub io: IoSnapshot,
    pub exec: MetricsSnapshot,
    pub morsels: usize,
    pub degraded: bool,
    pub certified: u64,
}

/// Row count and order-independent digest of one answer.
pub type Answer = (u64, u64);

/// The first completed answer per (corpus, query text), kept for the
/// correctness gate.
pub type Answers = HashMap<(usize, String), Answer>;

pub struct ClientRun {
    pub records: Vec<Record>,
    pub answers: Answers,
    /// Later answers whose row count differed from the first one.
    pub inconsistent: Vec<String>,
    pub errors: Vec<String>,
}

pub struct LoopRun {
    pub clients: Vec<ClientRun>,
    pub wall: Duration,
}

impl LoopRun {
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.clients.iter().flat_map(|c| c.records.iter())
    }

    pub fn attempted(&self) -> usize {
        self.clients.iter().map(|c| c.records.len()).sum()
    }

    pub fn completed(&self) -> usize {
        self.records().filter(|r| r.class == Class::Done).count()
    }

    pub fn qps(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64()
    }

    /// Latency quantile `q` in milliseconds, taken per request kind
    /// (query shape and algorithm) and combined as a geometric mean
    /// weighted by each kind's share of completed requests. Pooling
    /// kinds whose latencies differ by orders of magnitude puts the
    /// pooled quantile in a sparse gap between them, where it jumps
    /// from run to run.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let mut kinds: HashMap<_, Vec<f64>> = HashMap::new();
        for r in self.records().filter(|r| r.class == Class::Done) {
            kinds
                .entry(r.request.shape_signature())
                .or_default()
                .push(r.latency.as_secs_f64() * 1e3);
        }
        let n = self.completed() as f64;
        kinds.values().map(|v| v.len() as f64 / n * quantile(v, q).ln()).sum::<f64>().exp()
    }
}

/// Run `clients` closed-loop clients for `duration`. `open` builds a
/// client's server handle on its own thread; `serve` answers one
/// request through it.
pub fn closed_loop<S>(
    clients: usize,
    source: &StreamSource,
    duration: Duration,
    open: impl Fn(usize) -> S + Sync,
    serve: impl Fn(&mut S, &Request) -> Outcome + Sync,
) -> (LoopRun, Vec<S>)
where
    S: Send,
{
    let start = Instant::now();
    let deadline = start + duration;
    let (runs, servers): (Vec<ClientRun>, Vec<S>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (open, serve) = (&open, &serve);
                let mut stream = source.stream(c);
                scope.spawn(move || {
                    let mut server = open(c);
                    let mut run = ClientRun {
                        records: Vec::new(),
                        answers: HashMap::new(),
                        inconsistent: Vec::new(),
                        errors: Vec::new(),
                    };
                    while Instant::now() < deadline {
                        let request = stream.next();
                        let sent = Instant::now();
                        let outcome = serve(&mut server, &request);
                        let latency = sent.elapsed();
                        let rec = record(&mut run, request, sent - start, latency, outcome);
                        run.records.push(rec);
                    }
                    (run, server)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).unzip()
    });
    (LoopRun { clients: runs, wall: start.elapsed() }, servers)
}

/// Turn an outcome into a record, off the latency clock: the row
/// count of every answer is compared with the first answer to the
/// same query, which is also digested for the correctness gate.
fn record(
    run: &mut ClientRun,
    request: Request,
    sent: Duration,
    latency: Duration,
    outcome: Outcome,
) -> Record {
    let mut rec = Record {
        request,
        sent,
        latency,
        class: Class::Failed,
        rows: 0,
        io: IoSnapshot::default(),
        exec: MetricsSnapshot::default(),
        morsels: 0,
        degraded: false,
        certified: 0,
    };
    match outcome {
        Outcome::Done { result, io, morsels, degraded, certified } => {
            rec.class = Class::Done;
            rec.rows = result.tuples.len() as u64;
            rec.io = io;
            rec.exec = result.metrics;
            rec.morsels = morsels;
            rec.degraded = degraded;
            rec.certified = certified;
            let key = (rec.request.corpus, rec.request.text.clone());
            match run.answers.get(&key) {
                Some(&(rows, _)) if rows != rec.rows => run.inconsistent.push(format!(
                    "{}: {} rows, earlier {} rows",
                    rec.request.text, rec.rows, rows
                )),
                Some(_) => {}
                None => {
                    run.answers.insert(key, (rec.rows, result_digest(&result)));
                }
            }
        }
        Outcome::Refused { reason, certified } => {
            rec.class = Class::Refused(reason);
            rec.certified = certified;
        }
        Outcome::Failed(e) => run.errors.push(format!("{}: {e}", rec.request.text)),
    }
    rec
}

/// The untraced path: one `Session` per corpus service per client.
pub fn untraced(
    clients: usize,
    source: &StreamSource,
    duration: Duration,
    services: &[QueryService],
) -> LoopRun {
    let open = |_| services.iter().map(QueryService::session).collect::<Vec<Session>>();
    let serve = |sessions: &mut Vec<Session>, r: &Request| match sessions[r.corpus]
        .query_with(&r.text, r.algorithm)
    {
        Ok(out) => Outcome::Done {
            io: out.io,
            morsels: out.morsels,
            degraded: out.degraded,
            certified: out.plan.bounds.peak_bytes,
            result: Box::new(out.result),
        },
        Err(ServiceError::Overloaded(rej)) => {
            Outcome::Refused { reason: rej.reason, certified: rej.certified_bytes }
        }
        Err(e) => Outcome::Failed(e.to_string()),
    };
    closed_loop(clients, source, duration, open, serve).0
}

/// Reference answers from the holistic twig join (TwigStack), an
/// evaluator independent of the binary structural-join plans, for
/// every distinct (corpus, query) the runs answered, computed on two
/// threads. Returns one line per disagreement.
pub fn gate(corpora: &[Corpus], runs: &[&LoopRun]) -> Vec<String> {
    let clients: Vec<&ClientRun> = runs.iter().flat_map(|r| r.clients.iter()).collect();
    let mut keys: Vec<&(usize, String)> = clients.iter().flat_map(|c| c.answers.keys()).collect();
    keys.sort();
    keys.dedup();
    let evaluate = |&&(corpus, ref text): &&(usize, String)| {
        let pattern = sjos::parse_pattern(text).map_err(|e| e.to_string())?;
        let twig = corpora[corpus].db.holistic(&pattern).map_err(|e| e.to_string())?;
        Ok::<_, String>((twig.rows.len() as u64, crate::util::rows_digest(&twig.rows)))
    };
    let half = keys.len().div_ceil(2);
    let reference: HashMap<&(usize, String), Result<Answer, String>> =
        std::thread::scope(|scope| {
            let parts: Vec<_> = keys
                .chunks(half.max(1))
                .map(|part| {
                    scope.spawn(move || part.iter().map(|k| (*k, evaluate(k))).collect::<Vec<_>>())
                })
                .collect();
            parts.into_iter().flat_map(|h| h.join().expect("gate thread panicked")).collect()
        });
    let mut wrong: Vec<String> =
        clients.iter().flat_map(|c| c.inconsistent.iter().cloned()).collect();
    for client in &clients {
        for (key, &(rows, digest)) in &client.answers {
            let text = &key.1;
            match &reference[key] {
                Err(e) => wrong.push(format!("{text}: reference failed: {e}")),
                Ok((want_rows, want_digest)) if (rows, digest) != (*want_rows, *want_digest) => {
                    wrong.push(format!(
                        "{text}: {rows} rows (digest {digest:016x}), reference {want_rows} rows \
                         (digest {want_digest:016x})"
                    ));
                }
                Ok(_) => {}
            }
        }
    }
    wrong
}
