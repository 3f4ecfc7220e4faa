//! [`XmlStore`]: a loaded document behind the storage stack.

use std::sync::Arc;

use sjos_xml::{Document, Tag};

use crate::buffer::{BufferPool, RetryPolicy};
use crate::disk::{DiskManager, InMemoryDisk};
use crate::fault::{FaultPlan, FaultyDisk};
use crate::heap::HeapFile;
use crate::index::{IndexScanIter, TagIndex};
use crate::iostats::IoStats;
use crate::page::PAGE_SIZE;
use crate::record::{value_digest, ElementRecord};
use crate::spill::SpillSegment;

/// Knobs for building a store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Buffer pool size in bytes (default 16 MiB as in the paper).
    pub buffer_pool_bytes: usize,
    /// Buffer-pool reaction to transient read faults.
    pub retry: RetryPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            buffer_pool_bytes: crate::buffer::DEFAULT_CAPACITY_BYTES,
            retry: RetryPolicy::default(),
        }
    }
}

/// A document loaded into the storage engine: heap file + tag index +
/// buffer pool + shared I/O counters. The source [`Document`] is kept
/// for result materialization and value-predicate verification, but
/// query operators read element records only through the pool.
pub struct XmlStore {
    document: Arc<Document>,
    disk: Arc<dyn DiskManager>,
    /// Present when the store was built with [`XmlStore::load_faulty`].
    fault: Option<Arc<FaultyDisk>>,
    pool: BufferPool,
    heap: HeapFile,
    index: TagIndex,
    spill: SpillSegment,
    stats: Arc<IoStats>,
}

impl XmlStore {
    /// Load `document` with default configuration.
    pub fn load(document: Document) -> XmlStore {
        Self::load_with(document, StoreConfig::default())
    }

    /// Load `document` with explicit configuration.
    pub fn load_with(document: Document, config: StoreConfig) -> XmlStore {
        // The disk shares the store's counters so `stats()` sees every
        // layer: a private disk instance would hide `disk_reads` from
        // callers while the thread-local `IoTap` still observed them.
        let stats = Arc::new(IoStats::new());
        let disk = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        Self::build(document, config, disk, None, stats)
    }

    /// Load `document` onto a fault-injected in-memory disk. The bulk
    /// load runs clean (the harness arms only afterwards), so faults
    /// hit exactly the query read path — the scenario the chaos suite
    /// exercises. Use [`XmlStore::fault`] to re-seed between runs.
    pub fn load_faulty(document: Document, config: StoreConfig, plan: FaultPlan) -> XmlStore {
        let stats = Arc::new(IoStats::new());
        let inner = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        let faulty = Arc::new(FaultyDisk::new(inner, plan));
        let disk: Arc<dyn DiskManager> = Arc::clone(&faulty) as Arc<dyn DiskManager>;
        let store = Self::build(document, config, disk, Some(Arc::clone(&faulty)), stats);
        faulty.arm();
        store
    }

    fn build(
        document: Document,
        config: StoreConfig,
        disk: Arc<dyn DiskManager>,
        fault: Option<Arc<FaultyDisk>>,
        stats: Arc<IoStats>,
    ) -> XmlStore {
        let records: Vec<ElementRecord> = document
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| ElementRecord {
                node: sjos_xml::NodeId(i as u32),
                region: n.region,
                tag: n.tag,
                value_hash: value_digest(&n.text),
            })
            .collect();
        // Invariant: the load path writes to an in-memory disk that is
        // not yet armed for fault injection, so bulk builds cannot
        // fail here; a failure would be a programming error.
        let heap = HeapFile::bulk_build(disk.as_ref(), &records)
            .expect("bulk load on an unarmed in-memory disk is infallible");
        let index = TagIndex::bulk_build(disk.as_ref(), &records)
            .expect("bulk load on an unarmed in-memory disk is infallible");
        let frames = (config.buffer_pool_bytes / PAGE_SIZE).max(1);
        let pool = BufferPool::new(Arc::clone(&disk), Arc::clone(&stats), frames)
            .with_retry_policy(config.retry);
        XmlStore {
            document: Arc::new(document),
            disk,
            fault,
            pool,
            heap,
            index,
            spill: SpillSegment::new(),
            stats,
        }
    }

    /// The stored document.
    pub fn document(&self) -> &Arc<Document> {
        &self.document
    }

    /// Shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// The buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The fault-injection handle, when the store was built with
    /// [`XmlStore::load_faulty`].
    pub fn fault(&self) -> Option<&Arc<FaultyDisk>> {
        self.fault.as_ref()
    }

    /// The heap file of all elements in document order.
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// The tag index.
    pub fn index(&self) -> &TagIndex {
        &self.index
    }

    /// The temp-page segment spilling sorts allocate from. Its
    /// [`SpillSegment::live_pages`] must be zero whenever no query is
    /// mid-spill — the leak-freedom invariant the chaos and spill
    /// suites assert.
    pub fn spill(&self) -> &SpillSegment {
        &self.spill
    }

    /// Cardinality of a tag (number of elements).
    pub fn tag_cardinality(&self, tag: Tag) -> u64 {
        self.index.cardinality(tag)
    }

    /// Scan a tag's binding list in document order.
    pub fn scan_tag(&self, tag: Tag) -> IndexScanIter<'_> {
        self.index.scan(&self.pool, tag)
    }

    /// Scan the slice of a tag's binding list whose `region.start`
    /// falls in `[lo, hi)`, in document order — the access path behind
    /// region-range morsels (per-page start keys prune the page set,
    /// so each morsel reads only its own slice of the list).
    pub fn scan_tag_range(&self, tag: Tag, lo: u32, hi: u32) -> IndexScanIter<'_> {
        self.index.scan_range(&self.pool, tag, lo, hi)
    }

    /// Scan *every* element in document order (the heap file) — the
    /// access path behind wildcard (`*`) pattern nodes.
    pub fn scan_all(&self) -> crate::heap::HeapScan<'_> {
        self.heap.scan(&self.pool)
    }

    /// The elements of [`XmlStore::scan_all`] whose `region.start`
    /// falls in `[lo, hi)`, in document order (see
    /// [`HeapFile::scan_range`]).
    pub fn scan_all_range(&self, lo: u32, hi: u32) -> crate::heap::HeapScan<'_> {
        self.heap.scan_range(&self.pool, lo, hi)
    }

    /// Total pages allocated (heap + index).
    pub fn total_pages(&self) -> usize {
        self.disk.num_pages()
    }
}

impl std::fmt::Debug for XmlStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XmlStore({} elements, {} pages)", self.document.len(), self.total_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "<dept><emp><name>a</name></emp><emp><name>b</name>\
                          <name>c</name></emp></dept>";

    fn collect(iter: IndexScanIter<'_>) -> Vec<ElementRecord> {
        iter.collect::<Result<Vec<_>, _>>().unwrap()
    }

    #[test]
    fn load_exposes_tag_lists() {
        let doc = Document::parse(SAMPLE).unwrap();
        let store = XmlStore::load(doc);
        let name = store.document().tag("name").unwrap();
        assert_eq!(store.tag_cardinality(name), 3);
        let recs = collect(store.scan_tag(name));
        assert_eq!(recs.len(), 3);
        assert!(recs.windows(2).all(|w| w[0].region.start < w[1].region.start));
    }

    #[test]
    fn value_digests_survive_storage() {
        let doc = Document::parse(SAMPLE).unwrap();
        let store = XmlStore::load(doc);
        let name = store.document().tag("name").unwrap();
        let recs = collect(store.scan_tag(name));
        assert_eq!(recs[0].value_hash, value_digest("a"));
        assert_ne!(recs[0].value_hash, recs[1].value_hash);
    }

    #[test]
    fn node_ids_round_trip_to_document() {
        let doc = Document::parse(SAMPLE).unwrap();
        let store = XmlStore::load(doc);
        let emp = store.document().tag("emp").unwrap();
        for rec in collect(store.scan_tag(emp)) {
            let node = store.document().node(rec.node);
            assert_eq!(node.tag, emp);
            assert_eq!(node.region, rec.region);
        }
    }

    #[test]
    fn tiny_pool_still_scans_correctly() {
        let doc = Document::parse(SAMPLE).unwrap();
        let store = XmlStore::load_with(
            doc,
            StoreConfig { buffer_pool_bytes: PAGE_SIZE, ..StoreConfig::default() },
        );
        let name = store.document().tag("name").unwrap();
        assert_eq!(store.scan_tag(name).count(), 3);
    }

    #[test]
    fn faulty_store_loads_clean_then_injects() {
        let doc = Document::parse(SAMPLE).unwrap();
        let store = XmlStore::load_faulty(
            doc,
            StoreConfig { retry: RetryPolicy::no_backoff(4), ..StoreConfig::default() },
            FaultPlan { seed: 9, transient_read: 0.5, ..FaultPlan::none() },
        );
        let fault = store.fault().expect("fault handle present").clone();
        let name = store.document().tag("name").unwrap();
        // Retries absorb 50% transient failures (4 attempts each).
        let recs: Vec<_> = store.scan_tag(name).collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(recs.len(), 3);
        assert!(fault.injected() > 0 || store.stats().snapshot().read_retries == 0);
        // Re-seed and clear the cache: physical reads (and faults)
        // come back.
        fault.set_plan(FaultPlan::none());
        store.pool().reset_cache().unwrap();
        assert_eq!(store.scan_tag(name).count(), 3);
    }
}
