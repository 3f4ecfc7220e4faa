//! Heap file: all element records in document order.
//!
//! The heap file is the substrate for full-document scans (the naive
//! "walk the subtree" evaluation the paper's Example 2.2 warns about)
//! and the source the tag index is bulk-built from.

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::error::StorageError;
use crate::index::{Posting, RecordCursor};
use crate::page::PageId;
use crate::record::ElementRecord;

/// A sequence of element records packed onto pages in append order.
#[derive(Debug, Clone)]
pub struct HeapFile {
    list: Posting,
}

impl HeapFile {
    /// Bulk-build a heap file by appending `records` (in document
    /// order) to fresh pages on `disk`. This is the load path; it
    /// writes straight to disk, bypassing the buffer pool (as bulk
    /// loaders do). Pages are checksum-stamped as written.
    pub fn bulk_build(
        disk: &dyn DiskManager,
        records: &[ElementRecord],
    ) -> Result<HeapFile, StorageError> {
        Ok(HeapFile { list: Posting::write(disk, records)? })
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.list.count()
    }

    /// True when the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.list.pages().len()
    }

    /// The page ids backing this file, in order.
    pub fn page_ids(&self) -> &[PageId] {
        self.list.pages()
    }

    /// Scan every record through the buffer pool, in append order.
    /// The iterator yields `Err` once and then fuses if a page read
    /// fails beyond recovery.
    pub fn scan<'a>(&'a self, pool: &'a BufferPool) -> HeapScan<'a> {
        self.list.scan(pool)
    }

    /// [`HeapFile::scan`] restricted to records whose `region.start`
    /// falls in `[lo, hi)`: every page from the first is still read
    /// (no page is skipped by its start key), records before `lo` are
    /// dropped, and the scan ends at the first record at or past `hi`.
    pub fn scan_range<'a>(&'a self, pool: &'a BufferPool, lo: u32, hi: u32) -> HeapScan<'a> {
        self.list.scan_bounded(pool, lo, hi)
    }
}

/// Iterator over a [`HeapFile`] through a buffer pool.
pub type HeapScan<'a> = RecordCursor<'a>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use crate::iostats::IoStats;
    use crate::record::RECORDS_PER_PAGE;
    use sjos_xml::{NodeId, Region, Tag};
    use std::sync::Arc;

    fn records(n: u32) -> Vec<ElementRecord> {
        (0..n)
            .map(|i| ElementRecord {
                node: NodeId(i),
                region: Region { start: 2 * i, end: 2 * i + 1, level: 1 },
                tag: Tag(0),
                value_hash: u64::from(i),
            })
            .collect()
    }

    fn setup(n: u32) -> (HeapFile, BufferPool) {
        let stats = Arc::new(IoStats::new());
        let disk = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        let heap = HeapFile::bulk_build(disk.as_ref(), &records(n)).unwrap();
        let pool = BufferPool::new(disk, stats, 64);
        (heap, pool)
    }

    fn collect(scan: HeapScan<'_>) -> Vec<ElementRecord> {
        scan.collect::<Result<Vec<_>, _>>().unwrap()
    }

    #[test]
    fn scan_returns_all_records_in_order() {
        let n = RECORDS_PER_PAGE as u32 * 2 + 17;
        let (heap, pool) = setup(n);
        let got = collect(heap.scan(&pool));
        assert_eq!(got.len(), n as usize);
        assert_eq!(got, records(n));
    }

    #[test]
    fn page_count_matches_capacity_math() {
        let n = RECORDS_PER_PAGE as u32 * 3;
        let (heap, _pool) = setup(n);
        assert_eq!(heap.num_pages(), 3);
        let (heap2, _pool2) = setup(n + 1);
        assert_eq!(heap2.num_pages(), 4);
    }

    #[test]
    fn empty_heap_scans_empty() {
        let (heap, pool) = setup(0);
        assert!(heap.is_empty());
        assert_eq!(heap.scan(&pool).count(), 0);
    }

    #[test]
    fn scan_does_physical_io_once_then_hits() {
        let (heap, pool) = setup(RECORDS_PER_PAGE as u32);
        let before = pool.stats().snapshot();
        let _ = heap.scan(&pool).count();
        let mid = pool.stats().snapshot();
        assert_eq!(mid.since(&before).disk_reads, 1);
        let _ = heap.scan(&pool).count();
        let after = pool.stats().snapshot();
        assert_eq!(after.since(&mid).disk_reads, 0, "second scan fully cached");
        assert_eq!(after.since(&mid).buffer_hits, 1);
    }

    #[test]
    fn bulk_built_pages_are_stamped() {
        let stats = Arc::new(IoStats::new());
        let disk = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        let heap = HeapFile::bulk_build(disk.as_ref(), &records(10)).unwrap();
        for pid in heap.page_ids() {
            let page = disk.read_page(*pid).unwrap();
            assert!(page.verify_checksum());
            assert_ne!(page.read_u32(crate::page::CHECKSUM_OFFSET), 0);
        }
    }

    #[test]
    fn scan_surfaces_read_failure_once_then_fuses() {
        use crate::buffer::RetryPolicy;
        use crate::fault::{FaultPlan, FaultyDisk};
        let stats = Arc::new(IoStats::new());
        let disk = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        let heap =
            HeapFile::bulk_build(disk.as_ref(), &records(RECORDS_PER_PAGE as u32 * 2)).unwrap();
        let faulty = Arc::new(FaultyDisk::new(
            disk,
            FaultPlan { seed: 5, sticky_corrupt: 1.0, ..FaultPlan::none() },
        ));
        faulty.arm();
        let pool = BufferPool::new(faulty as Arc<dyn DiskManager>, stats, 8)
            .with_retry_policy(RetryPolicy::no_backoff(2));
        let items: Vec<_> = heap.scan(&pool).collect();
        assert_eq!(items.len(), 1, "one error, then fused");
        assert!(matches!(items[0], Err(StorageError::RetriesExhausted { .. })));
    }
}
