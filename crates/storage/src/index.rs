//! Clustered per-tag element index.
//!
//! The paper assumes "candidate matches for individual query nodes
//! can be found efficiently, for instance, through an index scan"
//! (§2.2.1): for every tag, the index stores that tag's elements —
//! full records — packed onto contiguous pages in document order.
//! Scanning a tag therefore yields a binding list already sorted by
//! region `start`, exactly what the stack-tree joins require, at a
//! cost linear in the list size (`f_I * n` in the cost model).

use std::collections::HashMap;
use std::sync::Arc;

use sjos_xml::{Region, Tag};

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::error::StorageError;
use crate::heap::HeapFile;
use crate::page::{Page, PageId};
use crate::record::{
    page_record_count, set_page_record_count, ElementRecord, PAGE_HEADER_SIZE, RECORDS_PER_PAGE,
    RECORD_SIZE,
};

/// Per-tag posting directory.
#[derive(Debug, Clone, Default)]
pub struct TagIndex {
    postings: HashMap<Tag, Posting>,
}

/// Where a document-ordered record list begins and ends on the start
/// axis, as the directory records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Region of the list's first record.
    pub first: Region,
    /// `region.start` of the list's last record.
    pub last_start: u32,
}

/// The pages and cardinality of one document-ordered record list: a
/// tag's list in the index, or every element in the heap file.
#[derive(Debug, Clone)]
pub struct Posting {
    pages: Vec<PageId>,
    /// `region.start` of each page's first record (parallel to
    /// `pages`; the list is in document order, so these are strictly
    /// increasing). Lets a range scan binary-search its first page
    /// instead of reading the whole list.
    first_starts: Vec<u32>,
    count: u64,
    /// `None` for an empty list.
    extent: Option<Extent>,
}

impl Posting {
    /// Pack `records` (in document order) onto fresh pages of `disk`,
    /// checksum-stamped as written — the one page writer behind both
    /// bulk loaders. It writes straight to disk, bypassing the buffer
    /// pool, as bulk loaders do.
    pub(crate) fn write(
        disk: &dyn DiskManager,
        records: &[ElementRecord],
    ) -> Result<Posting, StorageError> {
        debug_assert!(
            records.windows(2).all(|w| w[0].region.start < w[1].region.start),
            "record list must be in document order"
        );
        let n_pages = records.len().div_ceil(RECORDS_PER_PAGE);
        let mut pages = Vec::with_capacity(n_pages);
        let mut first_starts = Vec::with_capacity(n_pages);
        for chunk in records.chunks(RECORDS_PER_PAGE) {
            let id = disk.allocate_page()?;
            let mut page = Page::zeroed();
            for (slot, rec) in chunk.iter().enumerate() {
                rec.encode(&mut page, slot);
            }
            set_page_record_count(&mut page, chunk.len());
            page.stamp_checksum();
            disk.write_page(id, &page)?;
            first_starts.push(chunk[0].region.start);
            pages.push(id);
        }
        let extent = records
            .first()
            .zip(records.last())
            .map(|(first, last)| Extent { first: first.region, last_start: last.region.start });
        Ok(Posting { pages, first_starts, count: records.len() as u64, extent })
    }

    /// The pages, in document order.
    pub(crate) fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Number of records.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Scan every record through `pool`, in document order.
    pub(crate) fn scan<'a>(&'a self, pool: &'a BufferPool) -> RecordCursor<'a> {
        self.scan_bounded(pool, 0, u32::MAX)
    }

    /// Scan every page through `pool`, delivering only the records
    /// whose `region.start` falls in `[lo, hi)`.
    pub(crate) fn scan_bounded<'a>(
        &'a self,
        pool: &'a BufferPool,
        lo: u32,
        hi: u32,
    ) -> RecordCursor<'a> {
        RecordCursor::new(&self.pages, pool, lo, hi)
    }
}

impl TagIndex {
    /// Bulk-build from element records already in document order.
    /// Records are partitioned by tag, preserving document order
    /// within each tag, and written (checksum-stamped) to fresh pages
    /// on `disk`.
    pub fn bulk_build(
        disk: &dyn DiskManager,
        records: &[ElementRecord],
    ) -> Result<TagIndex, StorageError> {
        let mut by_tag: HashMap<Tag, Vec<ElementRecord>> = HashMap::new();
        for rec in records {
            by_tag.entry(rec.tag).or_default().push(*rec);
        }
        let mut postings = HashMap::with_capacity(by_tag.len());
        // Deterministic page layout: write tags in ascending order.
        let mut tags: Vec<Tag> = by_tag.keys().copied().collect();
        tags.sort_unstable();
        for tag in tags {
            postings.insert(tag, Posting::write(disk, &by_tag[&tag])?);
        }
        Ok(TagIndex { postings })
    }

    /// Build from a heap file (reads it through `pool`).
    pub fn build_from_heap(
        disk: &dyn DiskManager,
        pool: &BufferPool,
        heap: &HeapFile,
    ) -> Result<TagIndex, StorageError> {
        let records: Vec<ElementRecord> = heap.scan(pool).collect::<Result<_, _>>()?;
        Self::bulk_build(disk, &records)
    }

    /// Cardinality of `tag`'s list (0 if absent).
    pub fn cardinality(&self, tag: Tag) -> u64 {
        self.postings.get(&tag).map_or(0, |p| p.count)
    }

    /// The directory's extent of `tag`'s list (`None` if absent) —
    /// known without reading a page.
    pub fn extent(&self, tag: Tag) -> Option<Extent> {
        self.postings.get(&tag).and_then(|p| p.extent)
    }

    /// Tags present in the index.
    pub fn tags(&self) -> impl Iterator<Item = Tag> + '_ {
        self.postings.keys().copied()
    }

    /// Pages backing `tag`'s list.
    pub fn pages(&self, tag: Tag) -> &[PageId] {
        self.postings.get(&tag).map_or(&[], |p| p.pages.as_slice())
    }

    /// Scan `tag`'s elements in document order through `pool`. The
    /// iterator yields `Err` once and then fuses if a page read fails
    /// beyond recovery.
    pub fn scan<'a>(&'a self, pool: &'a BufferPool, tag: Tag) -> IndexScanIter<'a> {
        RecordCursor::new(self.pages(tag), pool, 0, u32::MAX)
    }

    /// Scan the slice of `tag`'s list whose `region.start` falls in
    /// `[lo, hi)`, in document order.
    ///
    /// The per-page `first_starts` keys prune the page set to the
    /// candidates that can hold in-range starts, so a morsel reads
    /// `O(pages_in_range + 1)` pages instead of the whole list; the
    /// records of the (at most one) leading boundary page that start
    /// before `lo` are filtered out, and the scan fuses at the first
    /// record with `start >= hi`. Region-range partitions therefore
    /// deliver each record of the list exactly once across morsels.
    pub fn scan_range<'a>(
        &'a self,
        pool: &'a BufferPool,
        tag: Tag,
        lo: u32,
        hi: u32,
    ) -> IndexScanIter<'a> {
        let (pages, first_starts) = match self.postings.get(&tag) {
            Some(p) => (p.pages.as_slice(), p.first_starts.as_slice()),
            None => (&[][..], &[][..]),
        };
        // First candidate page: the last one whose first start is
        // <= lo (an earlier page cannot hold starts >= lo beyond it);
        // pages whose first start is >= hi are out entirely.
        let begin = first_starts.partition_point(|&s| s <= lo).saturating_sub(1);
        let end = first_starts.partition_point(|&s| s < hi);
        let pages = if begin < end { &pages[begin..end] } else { &[][..] };
        RecordCursor::new(pages, pool, lo, hi)
    }
}

/// Iterator over one tag's posting list.
pub type IndexScanIter<'a> = RecordCursor<'a>;

/// The one scan cursor over a run of record pages, shared by index and
/// heap scans. It takes each page as a [`BufferPool::fetch_snapshot`]
/// (no pin is held between calls) and decodes records from it in
/// place. [`RecordCursor::fill`] decodes a page's records in one loop;
/// the `Iterator` impl takes one record per step.
pub struct RecordCursor<'a> {
    pages: &'a [PageId],
    pool: &'a BufferPool,
    /// Index of the next page to fetch.
    next_page: usize,
    /// The current page snapshot and its record count.
    page: Option<Arc<Page>>,
    count: usize,
    slot: usize,
    /// Set once the scan is over (error yielded, or past `hi`).
    done: bool,
    /// Records with `region.start` below this are skipped.
    skip_below: u32,
    /// Exclusive upper bound on `region.start`: the scan fuses at the
    /// first record at or past it (`u32::MAX` = unbounded, and region
    /// starts are always below `u32::MAX`, so a full scan never fuses
    /// early).
    hi: u32,
}

impl<'a> RecordCursor<'a> {
    fn new(pages: &'a [PageId], pool: &'a BufferPool, skip_below: u32, hi: u32) -> Self {
        RecordCursor {
            pages,
            pool,
            next_page: 0,
            page: None,
            count: 0,
            slot: 0,
            done: false,
            skip_below,
            hi,
        }
    }

    /// A cursor over no pages (the list of a tag the document lacks).
    pub fn empty(pool: &'a BufferPool) -> Self {
        RecordCursor::new(&[], pool, 0, u32::MAX)
    }

    /// Deliver the next records, in document order, to `keep`, which
    /// returns whether it kept each one; stop once it has kept `want`
    /// records or the scan ends. `delivered` counts every record
    /// handed to `keep`. A page is fetched only when a record is still
    /// wanted and the current page is used up, so the pool sees the
    /// same fetches, in the same order, as one-record-at-a-time
    /// iteration.
    ///
    /// # Errors
    /// A page read that fails beyond recovery ends the scan with its
    /// error; the records delivered before it stay counted.
    pub fn fill(
        &mut self,
        want: usize,
        delivered: &mut u64,
        mut keep: impl FnMut(&ElementRecord) -> bool,
    ) -> Result<(), StorageError> {
        let mut kept = 0;
        while kept < want && !self.done {
            if let Some(page) = self.page.as_deref().filter(|_| self.slot < self.count) {
                let bytes = &page.data[PAGE_HEADER_SIZE + self.slot * RECORD_SIZE
                    ..PAGE_HEADER_SIZE + self.count * RECORD_SIZE];
                let mut used = 0;
                for raw in bytes.chunks_exact(RECORD_SIZE) {
                    if kept == want {
                        break;
                    }
                    used += 1;
                    let rec = ElementRecord::from_bytes(raw);
                    if rec.region.start < self.skip_below {
                        continue;
                    }
                    if rec.region.start >= self.hi {
                        // Document order: everything after is out of
                        // range.
                        self.done = true;
                        break;
                    }
                    *delivered += 1;
                    if keep(&rec) {
                        kept += 1;
                    }
                }
                self.slot += used;
                continue;
            }
            let Some(&pid) = self.pages.get(self.next_page) else {
                break;
            };
            self.next_page += 1;
            match self.pool.fetch_snapshot(pid) {
                Ok(page) => {
                    self.count = page_record_count(&page);
                    self.slot = 0;
                    self.pool.stats().bump_records(self.count as u64);
                    self.page = Some(page);
                }
                Err(e) => {
                    self.done = true;
                    self.page = None;
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

impl Iterator for RecordCursor<'_> {
    type Item = Result<ElementRecord, StorageError>;

    #[inline]
    fn next(&mut self) -> Option<Result<ElementRecord, StorageError>> {
        let mut rec = None;
        match self.fill(1, &mut 0, |r| {
            rec = Some(*r);
            true
        }) {
            Ok(()) => rec.map(Ok),
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use crate::iostats::IoStats;
    use sjos_xml::{NodeId, Region};
    use std::sync::Arc;

    fn mixed_records(n: u32, tags: u32) -> Vec<ElementRecord> {
        (0..n)
            .map(|i| ElementRecord {
                node: NodeId(i),
                region: Region { start: 2 * i, end: 2 * i + 1, level: 1 },
                tag: Tag(i % tags),
                value_hash: 0,
            })
            .collect()
    }

    fn setup(n: u32, tags: u32) -> (TagIndex, BufferPool) {
        let stats = Arc::new(IoStats::new());
        let disk = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        let index = TagIndex::bulk_build(disk.as_ref(), &mixed_records(n, tags)).unwrap();
        let pool = BufferPool::new(disk, stats, 128);
        (index, pool)
    }

    fn collect(iter: IndexScanIter<'_>) -> Vec<ElementRecord> {
        iter.collect::<Result<Vec<_>, _>>().unwrap()
    }

    #[test]
    fn scan_is_docorder_and_tag_pure() {
        let (index, pool) = setup(1000, 3);
        for t in 0..3u32 {
            let recs = collect(index.scan(&pool, Tag(t)));
            assert!(!recs.is_empty());
            assert!(recs.iter().all(|r| r.tag == Tag(t)));
            assert!(recs.windows(2).all(|w| w[0].region.start < w[1].region.start));
        }
    }

    #[test]
    fn cardinalities_partition_the_input() {
        let (index, _pool) = setup(1000, 3);
        let total: u64 = (0..3).map(|t| index.cardinality(Tag(t))).sum();
        assert_eq!(total, 1000);
        assert_eq!(index.cardinality(Tag(99)), 0);
    }

    #[test]
    fn range_scans_partition_the_list_and_prune_pages() {
        let n = (RECORDS_PER_PAGE as u32) * 3 + 17;
        let (index, pool) = setup(n, 1);
        let all = collect(index.scan(&pool, Tag(0)));
        // Cuts at arbitrary start values, including ones that fall
        // mid-page and past the end.
        let cuts = [0u32, 7, 2 * n / 3, 2 * n - 1, 2 * n + 100, u32::MAX];
        let mut reassembled = Vec::new();
        for w in cuts.windows(2) {
            let part = collect(index.scan_range(&pool, Tag(0), w[0], w[1]));
            assert!(part.iter().all(|r| r.region.start >= w[0] && r.region.start < w[1]));
            reassembled.extend(part);
        }
        assert_eq!(reassembled, all, "ranges over consecutive cuts must partition the list");
        // A narrow range reads O(1) pages, not the whole list.
        let before = pool.stats().snapshot().record_reads;
        let _ = collect(index.scan_range(&pool, Tag(0), 2, 4));
        let read = pool.stats().snapshot().record_reads - before;
        assert!(
            read <= 2 * RECORDS_PER_PAGE as u64,
            "narrow range decoded {read} records (page pruning broken)"
        );
    }

    #[test]
    fn fill_fetches_a_page_only_when_a_record_is_still_wanted() {
        let per_page = RECORDS_PER_PAGE;
        let (index, pool) = setup(per_page as u32 * 2 + 5, 1);
        let all: Vec<u32> =
            collect(index.scan(&pool, Tag(0))).iter().map(|r| r.region.start).collect();
        pool.reset_cache().unwrap();
        let pages_touched = || {
            let s = pool.stats().snapshot();
            s.buffer_hits + s.disk_reads
        };
        let before = pages_touched();
        let mut cursor = index.scan(&pool, Tag(0));
        let mut delivered = 0;
        let mut starts = Vec::new();
        // Exactly one page's worth: the second page is not fetched.
        cursor
            .fill(per_page, &mut delivered, |r| {
                starts.push(r.region.start);
                true
            })
            .unwrap();
        assert_eq!((delivered, pages_touched() - before), (per_page as u64, 1));
        // A filter keeping every other record: `delivered` counts the
        // dropped ones too, and the fill stops at the tenth kept one.
        let keep = |s: u32| s.is_multiple_of(4);
        cursor
            .fill(10, &mut delivered, |r| {
                let kept = keep(r.region.start);
                if kept {
                    starts.push(r.region.start);
                }
                kept
            })
            .unwrap();
        let tail = &all[per_page..];
        let upto = tail.iter().enumerate().filter(|&(_, &s)| keep(s)).nth(9).unwrap().0 + 1;
        assert_eq!((delivered, pages_touched() - before), ((per_page + upto) as u64, 2));
        // The iterator resumes exactly where `fill` stopped.
        starts.extend(cursor.map(|r| r.unwrap().region.start));
        let mut expected = all[..per_page].to_vec();
        expected.extend(tail[..upto].iter().copied().filter(|&s| keep(s)));
        expected.extend_from_slice(&tail[upto..]);
        assert_eq!(starts, expected);
    }

    #[test]
    fn bounded_heap_scan_reads_every_page_up_to_hi() {
        let stats = Arc::new(IoStats::new());
        let disk = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        let n = (RECORDS_PER_PAGE as u32) * 3;
        let heap = HeapFile::bulk_build(disk.as_ref(), &mixed_records(n, 2)).unwrap();
        let pool = BufferPool::new(disk, stats, 16);
        // Starts are 2i: [lo, hi) picks records RECORDS_PER_PAGE + 1 ..
        // RECORDS_PER_PAGE + 11, all on the second page.
        let lo = 2 * (RECORDS_PER_PAGE as u32 + 1);
        let recs = collect(heap.scan_range(&pool, lo, lo + 20));
        let starts: Vec<u32> = recs.iter().map(|r| r.region.start).collect();
        assert_eq!(starts, (0..10).map(|i| lo + 2 * i).collect::<Vec<_>>());
        let s = pool.stats().snapshot();
        assert_eq!(s.disk_reads, 2, "the leading page is read, the trailing one is not");
    }

    #[test]
    fn range_scan_on_missing_tag_is_empty() {
        let (index, pool) = setup(10, 2);
        assert_eq!(index.scan_range(&pool, Tag(42), 0, u32::MAX).count(), 0);
    }

    #[test]
    fn missing_tag_scans_empty() {
        let (index, pool) = setup(10, 2);
        assert_eq!(index.scan(&pool, Tag(42)).count(), 0);
    }

    #[test]
    fn multi_page_lists_scan_completely() {
        let n = (RECORDS_PER_PAGE as u32) * 2 + 5;
        let (index, pool) = setup(n, 1);
        assert_eq!(index.scan(&pool, Tag(0)).count() as u64, index.cardinality(Tag(0)));
        assert!(index.pages(Tag(0)).len() >= 3);
    }

    #[test]
    fn build_from_heap_matches_bulk_build() {
        let stats = Arc::new(IoStats::new());
        let disk = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        let records = mixed_records(500, 4);
        let heap = HeapFile::bulk_build(disk.as_ref(), &records).unwrap();
        let pool = BufferPool::new(disk.clone(), stats, 64);
        let index = TagIndex::build_from_heap(disk.as_ref(), &pool, &heap).unwrap();
        for t in 0..4u32 {
            assert_eq!(index.cardinality(Tag(t)), 125);
        }
    }

    #[test]
    fn scan_surfaces_read_failure_once_then_fuses() {
        use crate::buffer::RetryPolicy;
        use crate::fault::{FaultPlan, FaultyDisk};
        let stats = Arc::new(IoStats::new());
        let disk = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        let index = TagIndex::bulk_build(disk.as_ref(), &mixed_records(100, 1)).unwrap();
        let faulty = Arc::new(FaultyDisk::new(
            disk,
            FaultPlan { seed: 3, sticky_corrupt: 1.0, ..FaultPlan::none() },
        ));
        faulty.arm();
        let pool = BufferPool::new(faulty as Arc<dyn DiskManager>, stats, 8)
            .with_retry_policy(RetryPolicy::no_backoff(2));
        let items: Vec<_> = index.scan(&pool, Tag(0)).collect();
        assert_eq!(items.len(), 1, "one error, then fused");
        assert!(matches!(items[0], Err(StorageError::RetriesExhausted { .. })));
    }
}
