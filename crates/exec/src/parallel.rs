//! Morsel-driven intra-query parallelism via region-range partitioning.
//!
//! The paper's binding lists arrive sorted by region `(start, end)`,
//! and a node's descendants fall entirely inside its ancestor's
//! interval — so splitting the document's start-axis at *clean cuts*
//! makes the structural-join pipeline embarrassingly parallel:
//!
//! * A cut `c` is **valid** when no record in any scanned binding
//!   list straddles it (`start < c <= end`). Morsel `k` is the plan
//!   restricted to records with `start ∈ [c_k, c_{k+1})`; validity
//!   means every record's whole interval lies inside its morsel's
//!   range, so every join partner pair is co-located in one morsel.
//! * At a valid cut the serial algorithm's ancestor stack is empty,
//!   so the serial run is event-for-event the concatenation of the
//!   independent morsel runs: concatenating morsel outputs in cut
//!   order reproduces the serial output sequence exactly, and every
//!   work counter (cardinalities, stack traffic, buffered pairs,
//!   scanned records, merge rescans, sorted tuples) sums
//!   bit-identically to the single-threaded totals — the PL034 batch
//!   contract extended to partitions, verified dynamically by planck
//!   rule **PL068 partition-sound**.
//! * Plans over lists with no valid interior cut — a wildcard scan
//!   (the document root spans everything) or a query binding the root
//!   tag — degrade mechanically to one morsel, i.e. the serial
//!   engine.
//!
//! The general seam machinery (replicating a straddling ancestor into
//! every morsel it overlaps and deduplicating at stitch-up — see
//! [`scatter`] / [`stitch`]) exists for *arbitrary*, externally
//! chosen cuts; the partitioner's own cuts never produce replicas,
//! which is precisely what makes the metric totals exact rather than
//! merely correctable.
//!
//! Workers come from [`std::thread::scope`] (no extra crates, no
//! condvars — the vendored `parking_lot` stub has none): each worker
//! claims morsel indices from a shared atomic counter, re-installs
//! the session's [`IoTap`] so per-session I/O attribution survives
//! the thread hop, runs its morsel's operator pipeline under the
//! *shared* [`QueryGuard`] (budgets bound the aggregate footprint;
//! cancellation and deadlines are observed at every batch boundary of
//! every worker), and parks its tuples and [`MetricsSnapshot`] in its
//! morsel's slot. The first failure (lowest morsel index wins, so
//! errors are deterministic) aborts the remaining workers.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use sjos_pattern::Pattern;
use sjos_storage::{Extent, IoTap, XmlStore};
use sjos_xml::Region;

use crate::error::EngineError;
use crate::executor::{run_morsel, ExecOptions, MorselOut};
use crate::guard::QueryGuard;
use crate::metrics::MetricsSnapshot;
use crate::plan::PlanNode;

/// How records flow into the cut chooser between guard checkpoints.
const PREPASS_CHECK_EVERY: u64 = 4096;

/// A partition of the document's start-axis into region-disjoint
/// morsel ranges: `cuts` are the interior boundaries, strictly
/// increasing, each valid (no scanned interval straddles it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPartition {
    /// Interior cut points on the `region.start` axis.
    pub cuts: Vec<u32>,
    /// Total records across all scanned lists (self-joins counted per
    /// scan), from the index statistics.
    pub total_records: u64,
}

impl RegionPartition {
    /// The trivial partition: one morsel covering everything.
    pub fn serial() -> RegionPartition {
        RegionPartition { cuts: Vec::new(), total_records: 0 }
    }

    /// Number of morsels (`cuts.len() + 1`).
    pub fn morsel_count(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The half-open `[lo, hi)` start-ranges of each morsel, in
    /// document order, jointly covering `[0, u32::MAX)`.
    pub fn ranges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.cuts.len() + 1);
        let mut lo = 0u32;
        for &c in &self.cuts {
            out.push((lo, c));
            lo = c;
        }
        out.push((lo, u32::MAX));
        out
    }
}

/// Choose valid cuts over in-memory region lists (each sorted by
/// `start`), aiming for `target_morsels` morsels of roughly equal
/// record counts. The pure-core twin of [`plan_partition`], exposed
/// so property tests can drive it with arbitrary lists.
pub fn partition_regions(lists: &[Vec<Region>], target_morsels: usize) -> RegionPartition {
    let total: u64 = lists.iter().map(|l| l.len() as u64).sum();
    let streams: Vec<_> = lists
        .iter()
        .map(|l| l.iter().map(|r| Ok::<(u32, u32), EngineError>((r.start, r.end))))
        .collect();
    let cuts = choose_cuts(streams, &vec![1u64; lists.len()], total, target_morsels, None)
        .expect("in-memory streams cannot fail");
    RegionPartition { cuts, total_records: total }
}

/// Choose valid cuts for `plan` against `store` by streaming the
/// scanned binding lists once (page-pruned index scans; the paper's
/// `f_I·n` cost, paid once before the parallel run). Plans containing
/// a wildcard scan return the serial partition: the document root's
/// interval spans every candidate cut, so no interior cut is valid.
/// So do plans whose lists' directory extents already rule out every
/// cut ([`straddles_every_cut`]); they read no page.
///
/// # Errors
/// [`EngineError::Storage`] if the pre-pass hits an unrecoverable
/// page fault, [`EngineError::Guard`] if `guard` trips mid-pass.
pub fn plan_partition(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    target_morsels: usize,
    guard: Option<&QueryGuard>,
) -> Result<RegionPartition, EngineError> {
    if target_morsels <= 1 {
        return Ok(RegionPartition::serial());
    }
    // Collect the scanned tags (with multiplicity — a self-join scans
    // the same list twice and its records weigh double).
    let mut tags: HashMap<sjos_xml::Tag, u64> = HashMap::new();
    for pnode in plan.bound_nodes() {
        let pat_node = pattern.node(pnode);
        if pat_node.is_wildcard() {
            // The heap list contains the document root, which spans
            // every element: no interior cut can be valid.
            return Ok(RegionPartition::serial());
        }
        if let Some(t) = store.document().tag(&pat_node.tag) {
            *tags.entry(t).or_insert(0) += 1;
        }
        // A missing tag scans an empty list: no cut constraints.
    }
    let mut tags: Vec<(sjos_xml::Tag, u64)> = tags.into_iter().collect();
    tags.sort_unstable_by_key(|&(t, _)| t);
    let total: u64 = tags.iter().map(|&(t, m)| store.tag_cardinality(t) * m).sum();
    if total == 0 {
        return Ok(RegionPartition::serial());
    }
    let extents: Vec<Extent> = tags.iter().filter_map(|&(t, _)| store.index().extent(t)).collect();
    if straddles_every_cut(&extents) {
        // Decided from the directory alone: skip the pre-pass reads.
        return Ok(RegionPartition { cuts: Vec::new(), total_records: total });
    }
    let weights: Vec<u64> = tags.iter().map(|&(_, m)| m).collect();
    let streams: Vec<_> = tags
        .iter()
        .map(|&(t, _)| {
            store.scan_tag(t).map(|r| match r {
                Ok(rec) => Ok((rec.region.start, rec.region.end)),
                Err(e) => Err(EngineError::Storage(e)),
            })
        })
        .collect();
    let cuts = choose_cuts(streams, &weights, total, target_morsels, guard)?;
    Ok(RegionPartition { cuts, total_records: total })
}

/// True when the lists' directory extents alone prove that no interior
/// cut is valid: the record that starts first ends at or after the
/// last start of every list, so it straddles every start `choose_cuts`
/// could cut at. (Ties on the first start do not matter: the chooser
/// never cuts before its first record, and every record ends at or
/// after its own start.) Mbench's root `eNest` is the common case.
pub fn straddles_every_cut(extents: &[Extent]) -> bool {
    let Some(first) = extents.iter().map(|e| e.first).min_by_key(|r| r.start) else {
        return false;
    };
    extents.iter().all(|e| first.end >= e.last_start)
}

/// The streaming cut chooser: k-way-merge the per-list streams by
/// `start`, track the running maximum `end` over everything consumed,
/// and greedily cut at the first boundary at-or-after each `j·N/M`
/// record target where the boundary is valid (`max_end < start` — no
/// consumed interval reaches past it, and unconsumed records start
/// later still). `O(n log k)` time, `O(k)` memory.
fn choose_cuts<I>(
    streams: Vec<I>,
    weights: &[u64],
    total: u64,
    target_morsels: usize,
    guard: Option<&QueryGuard>,
) -> Result<Vec<u32>, EngineError>
where
    I: Iterator<Item = Result<(u32, u32), EngineError>>,
{
    let stride = (total / target_morsels.max(1) as u64).max(1);
    let mut next_target = stride;
    let mut consumed = 0u64;
    let mut since_check = 0u64;
    let mut max_end = 0u32;
    let mut cuts: Vec<u32> = Vec::new();
    let mut streams = streams;
    let mut heap: BinaryHeap<Reverse<(u32, u32, usize)>> = BinaryHeap::new();
    for (i, s) in streams.iter_mut().enumerate() {
        if let Some(r) = s.next() {
            let (start, end) = r?;
            heap.push(Reverse((start, end, i)));
        }
    }
    while let Some(Reverse((start, end, i))) = heap.pop() {
        if consumed >= next_target && max_end < start && cuts.last().is_none_or(|&c| c < start) {
            cuts.push(start);
            next_target = consumed + stride;
        }
        consumed += weights[i];
        max_end = max_end.max(end);
        since_check += 1;
        if since_check >= PREPASS_CHECK_EVERY {
            since_check = 0;
            if let Some(g) = guard {
                g.check_point().map_err(|breach| EngineError::Guard {
                    breach,
                    partial: Box::new(MetricsSnapshot::default()),
                })?;
            }
        }
        if let Some(r) = streams[i].next() {
            let (s2, e2) = r?;
            heap.push(Reverse((s2, e2, i)));
        }
    }
    Ok(cuts)
}

/// Assign each record of a document-ordered region list to every
/// morsel range its interval overlaps: the owner morsel (the one
/// holding its `start`) plus a *seam replica* in each later range the
/// interval straddles into. Partitioner-chosen cuts are valid, so
/// under them this is a plain partition by `start` with zero
/// replicas; the general form exists so the seam contract
/// ([`stitch`] deduplicates exactly the replicas) is testable against
/// arbitrary cut choices.
pub fn scatter(list: &[Region], ranges: &[(u32, u32)]) -> Vec<Vec<Region>> {
    let mut out: Vec<Vec<Region>> = vec![Vec::new(); ranges.len()];
    for r in list {
        for (k, &(lo, hi)) in ranges.iter().enumerate() {
            // The interval [start, end] overlaps [lo, hi): the owner
            // morsel holds `start`; later overlapped ranges get seam
            // replicas.
            if r.start < hi && r.end >= lo {
                out[k].push(*r);
            }
        }
    }
    out
}

/// Reassemble scattered morsel lists into one document-ordered list,
/// dropping seam replicas: a record belongs to the morsel that owns
/// its `start`, so any copy sitting in a range that begins *after*
/// its start is a replica [`scatter`] planted for a straddled cut.
/// Ownership (not adjacency) identifies replicas, because nested
/// intervals can interleave a straddler with later same-morsel
/// records. `stitch(&scatter(list, ranges), ranges) == list` for any
/// cover of the start axis — the partition round-trip invariant the
/// property suite pins.
///
/// # Panics
/// Panics if `parts` and `ranges` disagree on the morsel count (a
/// caller bug).
pub fn stitch(parts: &[Vec<Region>], ranges: &[(u32, u32)]) -> Vec<Region> {
    assert_eq!(parts.len(), ranges.len(), "one range per morsel part");
    let mut out: Vec<Region> = Vec::new();
    for (part, &(lo, _)) in parts.iter().zip(ranges) {
        out.extend(part.iter().filter(|r| r.start >= lo));
    }
    out
}

/// Run one morsel per range across up to `opts.threads` scoped
/// workers and return their outputs in morsel order. The first
/// failure (lowest morsel index wins, so errors are deterministic)
/// aborts the remaining workers; a guard breach's partial snapshot
/// then folds in every completed morsel's counters.
///
/// Under more than one worker that partial is a lower bound on
/// progress, not a deterministic value: which morsels completed, and
/// where a shared guard breached, depend on the interleaving, so it
/// may vary from run to run. Folding in only the morsels below the
/// failing index would not fix that, since those may themselves have
/// been aborted. Each exact counter is still at most the serial
/// run's, because completed morsels sum to their serial share.
pub(crate) fn run_morsels(
    store: &XmlStore,
    pattern: &Pattern,
    plan: &PlanNode,
    opts: &ExecOptions,
    guard: &Arc<QueryGuard>,
    ranges: &[(u32, u32)],
) -> Result<Vec<MorselOut>, EngineError> {
    let morsels = ranges.len();
    let workers = opts.workers().min(morsels);
    let tap = IoTap::current();

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<MorselOut>>> = (0..morsels).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<(usize, EngineError)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Per-session I/O attribution survives the thread
                // hop: mirror the session thread's tap here.
                let _tap = tap.clone().map(IoTap::install);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= morsels || abort.load(Ordering::Relaxed) {
                        break;
                    }
                    match run_morsel(store, pattern, plan, opts, guard, Some(ranges[i]), &abort) {
                        Ok(Some(out)) => {
                            *slots[i].lock().expect("morsel slot poisoned") = Some(out);
                        }
                        Ok(None) => break, // aborted by a sibling's failure
                        Err(e) => {
                            abort.store(true, Ordering::Relaxed);
                            let mut f = failure.lock().expect("failure slot poisoned");
                            // Deterministic error: lowest morsel wins.
                            if f.as_ref().is_none_or(|&(j, _)| i < j) {
                                *f = Some((i, e));
                            }
                        }
                    }
                }
            });
        }
    });

    let outs: Vec<Option<MorselOut>> =
        slots.into_iter().map(|m| m.into_inner().expect("morsel slot poisoned")).collect();
    if let Some((_, e)) = failure.into_inner().expect("failure slot poisoned") {
        return Err(match e {
            EngineError::Guard { breach, partial } => {
                let mut all: Vec<MetricsSnapshot> =
                    outs.iter().flatten().map(|o| o.snapshot).collect();
                all.push(*partial);
                EngineError::Guard { breach, partial: Box::new(MetricsSnapshot::merged(&all)) }
            }
            other => other,
        });
    }
    // No failure, no abort: every slot is filled.
    Ok(outs.into_iter().map(|o| o.expect("all morsels completed")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GuardBreach;
    use crate::executor::{execute, ExecOutcome};
    use crate::plan::JoinAlgo;
    use sjos_pattern::{parse_pattern, Axis, PnId};
    use sjos_xml::Document;

    fn forest(subtrees: usize) -> XmlStore {
        let mut xml = String::from("<db>");
        for i in 0..subtrees {
            xml.push_str(&format!(
                "<dept><emp><name>p{i}</name></emp><emp><name>q{i}</name></emp></dept>"
            ));
        }
        xml.push_str("</db>");
        XmlStore::load(Document::parse(&xml).unwrap())
    }

    fn scan(i: u16) -> PlanNode {
        PlanNode::IndexScan { pnode: PnId(i) }
    }

    fn run(st: &XmlStore, pat: &Pattern, opts: ExecOptions) -> Result<ExecOutcome, EngineError> {
        execute(st, pat, &two_way_plan(), &opts)
    }

    fn threads(threads: usize) -> ExecOptions {
        ExecOptions { threads, ..ExecOptions::default() }
    }

    fn two_way_plan() -> PlanNode {
        PlanNode::StructuralJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Descendant,
            algo: JoinAlgo::StackTreeDesc,
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let st = forest(64);
        let pat = parse_pattern("//dept//emp").unwrap();
        let serial = run(&st, &pat, threads(1)).unwrap().result;
        for n in [2, 4, 8] {
            let par = run(&st, &pat, threads(n)).unwrap();
            assert!(par.morsel_count() > 1, "forest must split at {n} threads");
            assert_eq!(par.result.tuples, serial.tuples, "output sequence must be identical");
            let m = &par.result.metrics;
            assert_eq!(m.output_tuples, serial.metrics.output_tuples);
            assert_eq!(m.stack_pushes, serial.metrics.stack_pushes);
            assert_eq!(m.stack_pops, serial.metrics.stack_pops);
            assert_eq!(m.scanned_records, serial.metrics.scanned_records);
            assert_eq!(m.produced_tuples, serial.metrics.produced_tuples);
        }
    }

    #[test]
    fn partitioner_cuts_are_valid_and_balanced() {
        let st = forest(40);
        let pat = parse_pattern("//dept//emp").unwrap();
        let part = plan_partition(&st, &pat, &two_way_plan(), 8, None).unwrap();
        assert!(part.morsel_count() > 1);
        assert!(part.cuts.windows(2).all(|w| w[0] < w[1]), "cuts strictly increase");
        // Validity: no scanned interval straddles any cut.
        let dept = st.document().tag("dept").unwrap();
        let emp = st.document().tag("emp").unwrap();
        for tag in [dept, emp] {
            for rec in st.scan_tag(tag).map(Result::unwrap) {
                for &c in &part.cuts {
                    assert!(
                        !(rec.region.start < c && c <= rec.region.end),
                        "record {:?} straddles cut {c}",
                        rec.region
                    );
                }
            }
        }
    }

    #[test]
    fn wildcard_plans_fall_back_to_serial() {
        let st = forest(16);
        let pat = parse_pattern("//*//emp").unwrap();
        let part = plan_partition(&st, &pat, &two_way_plan(), 8, None).unwrap();
        assert_eq!(part.morsel_count(), 1);
        let out = run(&st, &pat, threads(4)).unwrap();
        assert_eq!(out.morsel_count(), 1, "wildcard runs as one serial morsel");
        assert!(!out.result.is_empty());
    }

    #[test]
    fn root_binding_plans_are_refused_from_the_directory() {
        let st = forest(64);
        let pat = parse_pattern("//db//emp").unwrap();
        let before = st.stats().snapshot();
        let part = plan_partition(&st, &pat, &two_way_plan(), 8, None).unwrap();
        let io = st.stats().snapshot().since(&before);
        assert_eq!(part.morsel_count(), 1, "the root straddles every cut");
        let db = st.document().tag("db").unwrap();
        let emp = st.document().tag("emp").unwrap();
        assert_eq!(part.total_records, st.tag_cardinality(db) + st.tag_cardinality(emp));
        assert_eq!((io.buffer_hits, io.disk_reads), (0, 0), "no page is read");
    }

    #[test]
    fn scatter_stitch_round_trips_with_seam_dedup() {
        // A list with an interval straddling the (invalid) cut at 5.
        let list = vec![
            Region { start: 0, end: 3, level: 1 },
            Region { start: 1, end: 9, level: 1 }, // straddles
            Region { start: 6, end: 8, level: 2 },
        ];
        let ranges = [(0u32, 5u32), (5, u32::MAX)];
        let parts = scatter(&list, &ranges);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 2, "straddler replicated into the seam");
        assert_eq!(stitch(&parts, &ranges), list, "stitch drops the replica");
    }

    #[test]
    fn guard_cancellation_stops_all_workers() {
        let st = forest(64);
        let pat = parse_pattern("//dept//emp").unwrap();
        let guard = Arc::new(QueryGuard::unlimited());
        guard.cancel_token().cancel();
        let opts = ExecOptions { guard: Some(guard), ..threads(4) };
        let err = run(&st, &pat, opts).unwrap_err();
        assert!(matches!(err, EngineError::Guard { breach: GuardBreach::Cancelled, .. }));
    }

    #[test]
    fn shared_guard_bounds_the_aggregate() {
        let st = forest(64);
        let pat = parse_pattern("//dept//emp").unwrap();
        let guard = Arc::new(QueryGuard::unlimited().with_batch_budget(2));
        let opts = ExecOptions { guard: Some(guard), ..threads(4) };
        let err = run(&st, &pat, opts).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Guard { breach: GuardBreach::BatchBudget { limit: 2 }, .. }
        ));
    }

    #[test]
    fn single_thread_policy_is_the_serial_engine() {
        let st = forest(8);
        let pat = parse_pattern("//dept//emp").unwrap();
        let serial = run(&st, &pat, ExecOptions::default()).unwrap().result;
        let one = run(&st, &pat, threads(0)).unwrap();
        assert_eq!(one.morsel_count(), 1, "zero threads clamp to the serial engine");
        assert_eq!(one.result.tuples, serial.tuples);
        assert_eq!(one.result.metrics, serial.metrics);
    }
}
