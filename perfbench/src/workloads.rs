//! The three workloads: their corpora, service settings and seeded
//! request streams.
//!
//! Corpus sizes are fixed here, independent of `SJOS_BENCH_FULL`.
//! The seed drives only the request stream and, for `adhoc-twigs`,
//! the generated twig shapes and literals; the service sees query
//! text and nothing else.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sjos::datagen::{dblp::dblp, fold_document, mbench::mbench, paper_queries, pers::pers};
use sjos::datagen::{DataSet, GenConfig};
use sjos::pattern::{Axis, Pattern, PnId, ValuePredicate};
use sjos::{Algorithm, Database, Document, ServiceConfig};

use crate::util::{median, Rng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperMix,
    AdhocTwigs,
    ScanBound,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperMix, Kind::AdhocTwigs, Kind::ScanBound];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperMix => "paper-mix",
            Kind::AdhocTwigs => "adhoc-twigs",
            Kind::ScanBound => "scan-bound",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop clients, each one `Session` per corpus.
    pub fn clients(self) -> usize {
        match self {
            Kind::PaperMix => 2,
            Kind::AdhocTwigs | Kind::ScanBound => 1,
        }
    }

    pub fn service_config(self) -> ServiceConfig {
        match self {
            Kind::PaperMix => ServiceConfig::default(),
            // Every ad hoc twig certifies far above the default
            // budget; one client keeps two saturated certificates
            // from ever being in flight at once.
            Kind::AdhocTwigs => {
                ServiceConfig { memory_budget: u64::MAX, ..ServiceConfig::default() }
            }
            Kind::ScanBound => ServiceConfig { parallelism: 2, ..ServiceConfig::default() },
        }
    }

    /// Set-up repetitions whose median is `setup_s`.
    pub fn setup_reps(self) -> usize {
        match self {
            Kind::ScanBound => 3,
            Kind::PaperMix => 5,
            Kind::AdhocTwigs => 9,
        }
    }

    fn corpora(self) -> Vec<(&'static str, CorpusMaker)> {
        match self {
            Kind::PaperMix => vec![
                ("mbench-60k", || mbench(GenConfig::sized(60_000))),
                ("dblp-60k", || dblp(GenConfig::sized(60_000))),
                ("pers-x10", || fold_document(&pers(GenConfig::sized(5_000)), 10)),
            ],
            Kind::AdhocTwigs => vec![("pers-x1", || pers(GenConfig::sized(5_000)))],
            Kind::ScanBound => vec![("mbench-740k", || mbench(GenConfig::sized(740_000)))],
        }
    }
}

type CorpusMaker = fn() -> Document;

/// One loaded corpus.
pub struct Corpus {
    pub name: &'static str,
    pub db: Arc<Database>,
}

/// Per-repetition set-up timings (seconds, summed over corpora).
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    /// `Document::parse` + `Database::from_document`: `setup_s`.
    pub total: Vec<f64>,
    pub parse: Vec<f64>,
    /// `Database::from_document` alone (catalog build + store load).
    pub from_document: Vec<f64>,
    /// `Catalog::build` alone, timed on its own call (traced runs).
    pub catalog: Vec<f64>,
}

impl SetupTimes {
    pub fn setup_s(&self) -> f64 {
        median(&self.total)
    }
}

/// Generate and serialize every corpus (untimed), then parse and load
/// each `reps` times, keeping the last load. With `split`, the
/// catalog build is also timed on its own, outside `setup_s`.
pub fn set_up(kind: Kind, split: bool) -> Result<(Vec<Corpus>, SetupTimes), String> {
    let texts: Vec<(&'static str, String)> = kind
        .corpora()
        .into_iter()
        .map(|(name, make)| (name, sjos::xml::serialize::to_xml(&make())))
        .collect();
    let mut times = SetupTimes::default();
    let mut corpora = Vec::new();
    for _ in 0..kind.setup_reps() {
        corpora.clear();
        let (mut total, mut parse, mut load, mut catalog) = (0.0, 0.0, 0.0, 0.0);
        for (name, text) in &texts {
            let t = Instant::now();
            let doc = Document::parse(text).map_err(|e| format!("{name}: {e}"))?;
            let parsed = t.elapsed();
            if split {
                let t = Instant::now();
                std::hint::black_box(sjos::Catalog::build(&doc));
                catalog += t.elapsed().as_secs_f64();
            }
            let t = Instant::now();
            let db = Database::from_document(doc);
            let loaded = t.elapsed();
            total += (parsed + loaded).as_secs_f64();
            parse += parsed.as_secs_f64();
            load += loaded.as_secs_f64();
            corpora.push(Corpus { name, db: Arc::new(db) });
        }
        times.total.push(total);
        times.parse.push(parse);
        times.from_document.push(load);
        times.catalog.push(catalog);
    }
    Ok((corpora, times))
}

/// One request a client sends: query text for one corpus's service.
#[derive(Debug, Clone)]
pub struct Request {
    pub corpus: usize,
    pub text: String,
    pub algorithm: Algorithm,
}

impl Request {
    /// The plan-cache identity of the request.
    pub fn signature(&self) -> (usize, &str, &'static str) {
        (self.corpus, &self.text, self.algorithm.name())
    }

    /// The signature with every quoted literal emptied.
    pub fn shape_signature(&self) -> (usize, String, &'static str) {
        let mut shape = String::with_capacity(self.text.len());
        let mut quoted = false;
        for c in self.text.chars() {
            if c == '\'' {
                quoted = !quoted;
                shape.push(c);
            } else if !quoted {
                shape.push(c);
            }
        }
        (self.corpus, shape, self.algorithm.name())
    }
}

const DPP: Algorithm = Algorithm::Dpp { lookahead: true };

/// The seeded generator of one client's requests.
pub struct Stream {
    kind: Kind,
    rng: Rng,
    issued: usize,
    /// Stratified block of upcoming picks (indices into `queries`).
    block: Vec<usize>,
    last: Option<usize>,
    queries: Arc<Vec<(usize, String)>>,
    twigs: Option<Arc<TwigSpace>>,
}

/// Shared, seed-derived inputs of a workload's streams.
pub struct StreamSource {
    kind: Kind,
    seed: u64,
    queries: Arc<Vec<(usize, String)>>,
    twigs: Option<Arc<TwigSpace>>,
}

impl StreamSource {
    pub fn new(kind: Kind, seed: u64, corpora: &[Corpus]) -> Result<StreamSource, String> {
        let table1 = paper_queries();
        let on = |ds: DataSet| table1.iter().filter(move |w| w.dataset == ds);
        let queries: Vec<(usize, String)> = match kind {
            Kind::PaperMix => [DataSet::Mbench, DataSet::Dblp, DataSet::Pers]
                .into_iter()
                .enumerate()
                .flat_map(|(corpus, ds)| on(ds).map(move |w| (corpus, w.query.to_string())))
                .collect(),
            Kind::ScanBound => on(DataSet::Mbench).map(|w| (0, w.query.to_string())).collect(),
            Kind::AdhocTwigs => Vec::new(),
        };
        let twigs = match kind {
            Kind::AdhocTwigs => Some(Arc::new(TwigSpace::new(seed, corpora[0].db.document())?)),
            _ => None,
        };
        Ok(StreamSource { kind, seed, queries: Arc::new(queries), twigs })
    }

    /// Client `client`'s stream; equal arguments give equal streams.
    pub fn stream(&self, client: usize) -> Stream {
        Stream {
            kind: self.kind,
            rng: Rng::new(self.seed, client as u64 + 1),
            issued: 0,
            block: Vec::new(),
            last: None,
            queries: Arc::clone(&self.queries),
            twigs: self.twigs.clone(),
        }
    }
}

impl Stream {
    /// The next request. Table-1 workloads draw from stratified
    /// blocks (each block a seeded permutation of the query list), so
    /// every query keeps its share of the stream even in a short run.
    /// No query follows itself: a query's latency depends on what ran
    /// before it (on `scan-bound`, Q.Mbench.1.a takes about 10% longer
    /// right after itself than after Q.Mbench.2.b), and a seed-dependent
    /// share of back-to-back repeats would move its median.
    /// `paper-mix` follows `BENCH_server`'s mix: DPP, with FP on every
    /// eighth request.
    pub fn next(&mut self) -> Request {
        self.issued += 1;
        if let Some(twigs) = &self.twigs {
            return Request { corpus: 0, text: twigs.draw(&mut self.rng), algorithm: DPP };
        }
        if self.block.is_empty() {
            self.block = (0..self.queries.len()).collect();
            self.rng.shuffle(&mut self.block);
            // Blocks are popped from the back: never start one with
            // the query that ended the previous one.
            if self.block.last() == self.last.as_ref() {
                let n = self.block.len();
                self.block.swap(0, n - 1);
            }
        }
        let pick = self.block.pop().expect("block refilled above");
        self.last = Some(pick);
        let (corpus, text) = self.queries[pick].clone();
        let algorithm = if self.kind == Kind::PaperMix && self.issued.is_multiple_of(8) {
            Algorithm::Fp
        } else {
            DPP
        };
        Request { corpus, text, algorithm }
    }
}

/// Which tags a Pers element can hold as children and descendants.
const PERS_CHILDREN: &[(&str, &[&str])] = &[
    ("manager", &["name", "employee", "department", "manager"]),
    ("department", &["name", "employee"]),
    ("employee", &["name", "email"]),
];
const PERS_DESCENDANTS: &[(&str, &[&str])] = &[
    ("manager", &["name", "employee", "department", "manager", "email"]),
    ("department", &["name", "employee", "email"]),
];

fn lookup(table: &[(&str, &'static [&'static str])], tag: &str) -> &'static [&'static str] {
    table.iter().find(|(t, _)| *t == tag).map_or(&[], |(_, kids)| kids)
}

/// The (parent, text leaf) pairs that carry value predicates. Each
/// pool holds hundreds of distinct values (person names, e-mail
/// addresses), so two predicates make exact repeats, and so plan-cache
/// hits, rare. Department names (ten values) would make them common.
const PREDICATED: &[(&str, &str)] =
    &[("manager", "name"), ("employee", "name"), ("employee", "email")];

/// One node of a twig shape. Predicate nodes get a fresh literal per
/// request.
#[derive(Debug, Clone)]
struct ShapeNode {
    parent: Option<usize>,
    axis: Axis,
    tag: &'static str,
    predicate: bool,
}

/// The `adhoc-twigs` request space: 1024 seeded Pers twig shapes of
/// 6-10 nodes, each with two value predicates whose
/// literals are drawn from the corpus's own element text.
pub struct TwigSpace {
    shapes: Vec<Vec<ShapeNode>>,
    /// Literal pools keyed by (parent tag, tag), each non-empty.
    literals: HashMap<(&'static str, &'static str), Vec<String>>,
}

const TWIG_SHAPES: usize = 1024;
const SHAPE_CANDIDATES: usize = 2 * TWIG_SHAPES;

/// A shape is kept only if no connected part of it, value
/// predicates left out, matches more than this many rows in the
/// corpus: predicates only filter, so every intermediate result of
/// every request drawn from the shape stays below it.
const SHAPE_ROW_LIMIT: f64 = 50_000.0;

impl TwigSpace {
    fn new(seed: u64, doc: &Document) -> Result<TwigSpace, String> {
        let mut literals: HashMap<(&'static str, &'static str), Vec<String>> = HashMap::new();
        for node in doc.nodes() {
            let Some(parent) = node.parent else { continue };
            let key = (doc.tag_name(doc.node(parent).tag), doc.tag_name(node.tag));
            if let Some(&key) = PREDICATED.iter().find(|&&k| k == key) {
                literals.entry(key).or_default().push(node.text.clone());
            }
        }
        if literals.len() < PREDICATED.len() {
            return Err("the corpus lacks text for some predicated leaves".into());
        }
        // Draw bounded candidates and pick shapes at evenly spaced
        // ranks of their join-search space (connected sub-twigs), so
        // every seed gets different shapes but the same spread of
        // optimizer work.
        let mut rng = Rng::new(seed, 0);
        let mut candidates = Vec::new();
        for _ in 0..100 * SHAPE_CANDIDATES {
            let shape = Self::shape(&mut rng);
            if Self::bounded(doc, &shape) {
                candidates.push((Self::connected_parts(&shape), candidates.len(), shape));
                if candidates.len() == SHAPE_CANDIDATES {
                    break;
                }
            }
        }
        if candidates.len() < SHAPE_CANDIDATES {
            return Err(format!("only {} bounded twig shapes", candidates.len()));
        }
        candidates.sort_by_key(|c| (c.0, c.1));
        let step = SHAPE_CANDIDATES / TWIG_SHAPES;
        let shapes = candidates.into_iter().skip(step / 2).step_by(step).map(|c| c.2).collect();
        Ok(TwigSpace { shapes, literals })
    }

    /// The number of connected sub-twigs: the join-order search
    /// space a dynamic program over the shape explores.
    fn connected_parts(shape: &[ShapeNode]) -> u64 {
        let mut rooted = vec![1u64; shape.len()];
        for q in (1..shape.len()).rev() {
            let parent = shape[q].parent.expect("only the root has no parent");
            rooted[parent] *= 1 + rooted[q];
        }
        rooted.iter().sum()
    }

    /// An upper bound on the matches of every connected part of the
    /// shape, predicates left out. With `n(q, e)` the bound for the
    /// part rooted at shape node `q` bound to element `e`, each child
    /// branch multiplies it by `max(1, its matches below e)`: treating
    /// a branch as optional bounds both the parts that include it and
    /// those that do not.
    fn bounded(doc: &Document, shape: &[ShapeNode]) -> bool {
        let nodes = doc.nodes();
        let mut n: Vec<Vec<f64>> = vec![Vec::new(); shape.len()];
        let mut worst = 0.0f64;
        for q in (0..shape.len()).rev() {
            let Some(tag) = doc.tag(shape[q].tag) else { return false };
            let mut own: Vec<f64> =
                nodes.iter().map(|e| if e.tag == tag { 1.0 } else { 0.0 }).collect();
            for c in (q + 1..shape.len()).filter(|&c| shape[c].parent == Some(q)) {
                let mut below = vec![0.0; nodes.len()];
                for (i, &v) in n[c].iter().enumerate().filter(|(_, &v)| v > 0.0) {
                    let mut up = nodes[i].parent;
                    while let Some(p) = up {
                        below[p.index()] += v;
                        up = if shape[c].axis == Axis::Child {
                            None
                        } else {
                            nodes[p.index()].parent
                        };
                    }
                }
                for (o, b) in own.iter_mut().zip(&below) {
                    *o *= b.max(1.0);
                }
            }
            worst = worst.max(own.iter().sum());
            n[q] = own;
        }
        worst <= SHAPE_ROW_LIMIT
    }

    /// Build the shape's pattern, with `literal(i)` as node `i`'s
    /// value predicate.
    fn pattern(shape: &[ShapeNode], mut literal: impl FnMut(usize) -> Option<String>) -> Pattern {
        let mut pattern = Pattern::with_root(shape[0].tag);
        let mut ids: Vec<PnId> = vec![pattern.root()];
        for node in &shape[1..] {
            let parent = node.parent.expect("only the root has no parent");
            ids.push(pattern.add_child(ids[parent], node.axis, node.tag));
        }
        for (i, &id) in ids.iter().enumerate() {
            if let Some(v) = literal(i) {
                pattern.set_predicate(id, ValuePredicate::Equals(v));
            }
        }
        pattern
    }

    fn shape(rng: &mut Rng) -> Vec<ShapeNode> {
        let size = 6 + rng.below(5);
        let mut nodes =
            vec![ShapeNode { parent: None, axis: Axis::Child, tag: "manager", predicate: false }];
        while nodes.len() < size - 2 {
            let parent = rng.below(nodes.len());
            let (children, descendants) = (
                lookup(PERS_CHILDREN, nodes[parent].tag),
                lookup(PERS_DESCENDANTS, nodes[parent].tag),
            );
            let (axis, tags) = if !descendants.is_empty() && rng.below(3) == 0 {
                (Axis::Descendant, descendants)
            } else {
                (Axis::Child, children)
            };
            if tags.is_empty() {
                continue;
            }
            let tag = tags[rng.below(tags.len())];
            nodes.push(ShapeNode { parent: Some(parent), axis, tag, predicate: false });
        }
        // Two predicated text leaves, each under a node that can hold it.
        for _ in 0..2 {
            let (parent, tag) = loop {
                let p = rng.below(nodes.len());
                let hosts: Vec<_> = PREDICATED.iter().filter(|(h, _)| *h == nodes[p].tag).collect();
                if !hosts.is_empty() {
                    break (p, hosts[rng.below(hosts.len())].1);
                }
            };
            nodes.push(ShapeNode { parent: Some(parent), axis: Axis::Child, tag, predicate: true });
        }
        nodes
    }

    fn draw(&self, rng: &mut Rng) -> String {
        let shape = &self.shapes[rng.below(self.shapes.len())];
        let pattern = Self::pattern(shape, |i| {
            let node = &shape[i];
            if !node.predicate {
                return None;
            }
            let parent = shape[node.parent.expect("predicates sit on leaves")].tag;
            let pool = &self.literals[&(parent, node.tag)];
            Some(pool[rng.below(pool.len())].clone())
        });
        pattern.to_string()
    }
}
