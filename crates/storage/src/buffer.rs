//! LRU buffer pool with pin/unpin, dirty-page write-back, checksum
//! verification on load, and retry-with-backoff over transient read,
//! write, and allocate faults.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::disk::DiskManager;
use crate::error::StorageError;
use crate::iostats::IoStats;
use crate::page::{Page, PageId, PAGE_SIZE};

/// Default pool capacity: 16 MiB, the SHORE buffer-pool size used in
/// the paper's experiments.
pub const DEFAULT_CAPACITY_BYTES: usize = 16 * 1024 * 1024;

/// How the pool reacts to transient I/O faults (see
/// [`StorageError::is_transient`]): up to `max_attempts` reads,
/// writes, or allocations, with exponential backoff starting at
/// `backoff` between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total read attempts per fetch (first try included). Must be
    /// at least 1.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per further retry.
    /// `Duration::ZERO` disables sleeping (what chaos tests use).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, backoff: Duration::from_micros(100) }
    }
}

impl RetryPolicy {
    /// Retrying policy that never sleeps — for tests that hammer
    /// thousands of injected faults.
    pub fn no_backoff(max_attempts: u32) -> RetryPolicy {
        RetryPolicy { max_attempts: max_attempts.max(1), backoff: Duration::ZERO }
    }
}

/// End-of-list marker for the recency links.
const NIL: usize = usize::MAX;

struct Frame {
    page_id: Option<PageId>,
    /// The cached image; empty frames share the pool's zero page.
    data: Arc<Page>,
    pin: u32,
    dirty: bool,
    /// Recency-list neighbours toward the most / least recently used
    /// end ([`NIL`] at the ends and while the frame is empty).
    newer: usize,
    older: usize,
}

/// Frame table plus the two structures that make victim choice O(1):
/// an intrusive doubly-linked recency list over the occupied frames
/// and a stack of the empty ones.
struct Inner {
    frames: Vec<Frame>,
    page_table: HashMap<PageId, usize>,
    /// Most / least recently used occupied frame ([`NIL`] if none).
    mru: usize,
    lru: usize,
    /// Empty frames, the lowest index on top.
    free: Vec<usize>,
}

impl Inner {
    fn unlink(&mut self, slot: usize) {
        let (newer, older) = (self.frames[slot].newer, self.frames[slot].older);
        match newer {
            NIL => self.mru = older,
            n => self.frames[n].older = older,
        }
        match older {
            NIL => self.lru = newer,
            o => self.frames[o].newer = newer,
        }
        self.frames[slot].newer = NIL;
        self.frames[slot].older = NIL;
    }

    fn push_mru(&mut self, slot: usize) {
        self.frames[slot].older = self.mru;
        self.frames[slot].newer = NIL;
        match self.mru {
            NIL => self.lru = slot,
            m => self.frames[m].newer = slot,
        }
        self.mru = slot;
    }

    /// The least recently used unpinned occupied frame. Pinned frames
    /// keep their place in the list (their recency is that of their
    /// last fetch) and are stepped over; pins are few and short.
    fn lru_unpinned(&self) -> Option<usize> {
        let mut slot = self.lru;
        while slot != NIL {
            if self.frames[slot].pin == 0 {
                return Some(slot);
            }
            slot = self.frames[slot].newer;
        }
        None
    }
}

/// A fixed-capacity page cache in front of a [`DiskManager`].
///
/// Reads pin a frame and hand out a cheap [`PageRef`] (an `Arc` clone
/// of the page image); dropping the ref unpins. Misses fill an empty
/// frame if there is one, else evict the least-recently-used unpinned
/// frame, writing it back first if dirty; both choices are O(1) (the
/// scan past pinned frames aside).
/// Every page loaded from disk is checksum-verified; transient
/// failures (injected faults, OS errors, corrupt images) are retried
/// under the pool's [`RetryPolicy`] before surfacing as a typed
/// [`StorageError`].
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    stats: Arc<IoStats>,
    retry: RetryPolicy,
    /// The image every empty frame shares.
    zero: Arc<Page>,
    inner: Mutex<Inner>,
}

impl BufferPool {
    /// Pool with room for `capacity_pages` pages and the default
    /// retry policy.
    pub fn new(disk: Arc<dyn DiskManager>, stats: Arc<IoStats>, capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "buffer pool needs at least one frame");
        let zero: Arc<Page> = Arc::from(Page::zeroed());
        let frames = (0..capacity_pages)
            .map(|_| Frame {
                page_id: None,
                data: Arc::clone(&zero),
                pin: 0,
                dirty: false,
                newer: NIL,
                older: NIL,
            })
            .collect();
        BufferPool {
            disk,
            stats,
            retry: RetryPolicy::default(),
            zero,
            inner: Mutex::new(Inner {
                frames,
                page_table: HashMap::new(),
                mru: NIL,
                lru: NIL,
                free: (0..capacity_pages).rev().collect(),
            }),
        }
    }

    /// Pool with the paper's 16 MiB capacity.
    pub fn with_default_capacity(disk: Arc<dyn DiskManager>, stats: Arc<IoStats>) -> Self {
        Self::new(disk, stats, DEFAULT_CAPACITY_BYTES / PAGE_SIZE)
    }

    /// Override the retry policy (builder style).
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Run one fallible disk operation under the pool's retry policy:
    /// transient faults are retried (with exponential backoff and a
    /// `bump` per extra attempt), permanent faults return immediately,
    /// and an exhausted budget surfaces as
    /// [`StorageError::RetriesExhausted`] naming the last fault.
    fn with_retries<T>(
        &self,
        bump: impl Fn(&IoStats),
        op: impl Fn() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut last: Option<StorageError> = None;
        for attempt in 0..self.retry.max_attempts.max(1) {
            if attempt > 0 {
                bump(&self.stats);
                if !self.retry.backoff.is_zero() {
                    std::thread::sleep(self.retry.backoff * 2u32.saturating_pow(attempt - 1));
                }
            }
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(StorageError::RetriesExhausted {
            attempts: self.retry.max_attempts.max(1),
            last: Box::new(last.expect("loop ran at least once and only exits Ok/permanent early")),
        })
    }

    /// One checksum-verified read from the disk, retried per the
    /// pool's policy.
    fn read_verified(&self, id: PageId) -> Result<Box<Page>, StorageError> {
        self.with_retries(IoStats::bump_retry, || {
            self.disk.read_page(id).and_then(|page| {
                if page.verify_checksum() {
                    Ok(page)
                } else {
                    Err(StorageError::ChecksumMismatch { page: id })
                }
            })
        })
    }

    /// Allocate a fresh page on the underlying disk, retrying
    /// transient allocation faults per the pool's policy — the
    /// allocate-side twin of [`BufferPool::fetch`]'s read retries.
    pub fn allocate(&self) -> Result<PageId, StorageError> {
        self.with_retries(IoStats::bump_write_retry, || self.disk.allocate_page())
    }

    /// Stamp `page`'s checksum and write it straight through to disk,
    /// retrying transient write faults per the pool's policy. If the
    /// page is cached, the frame is updated in place (and marked
    /// clean) so later fetches cannot observe a stale image. This is
    /// the write path of the spill segment
    /// ([`crate::spill::SpillSegment`]).
    pub fn write_through(&self, id: PageId, page: &Page) -> Result<(), StorageError> {
        let mut stamped = page.clone();
        stamped.stamp_checksum();
        self.with_retries(IoStats::bump_write_retry, || self.disk.write_page(id, &stamped))?;
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.page_table.get(&id) {
            let frame = &mut inner.frames[slot];
            frame.data = Arc::new(stamped.clone());
            frame.dirty = false;
        }
        Ok(())
    }

    /// Fetch (and pin) page `id`.
    pub fn fetch(&self, id: PageId) -> Result<PageRef<'_>, StorageError> {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.page_table.get(&id) {
            self.stats.bump_hit();
            inner.unlink(slot);
            inner.push_mru(slot);
            let frame = &mut inner.frames[slot];
            frame.pin += 1;
            let data = Arc::clone(&frame.data);
            return Ok(PageRef { pool: self, slot, data });
        }
        // Miss: an empty frame if any, else evict the LRU unpinned one.
        let slot = match inner.free.pop() {
            Some(slot) => slot,
            None => {
                let capacity = inner.frames.len();
                let slot = inner.lru_unpinned().ok_or(StorageError::PoolExhausted { capacity })?;
                let frame = &inner.frames[slot];
                let old_id = frame.page_id.expect("frames on the recency list are occupied");
                // Write back before unmapping: a failed write leaves
                // the victim resident, mapped and dirty.
                if frame.dirty {
                    let data = Arc::clone(&frame.data);
                    self.write_back(old_id, &data)?;
                }
                self.stats.bump_eviction();
                inner.page_table.remove(&old_id);
                inner.unlink(slot);
                let frame = &mut inner.frames[slot];
                frame.page_id = None;
                frame.dirty = false;
                slot
            }
        };
        // The in-memory disk is fast and the pool is coarse-grained
        // by design; hold the lock across the (possibly retried) read.
        // A failed read leaves an empty frame, not a stale mapping.
        let data: Arc<Page> = match self.read_verified(id) {
            Ok(page) => Arc::from(page),
            Err(e) => {
                inner.frames[slot].data = Arc::clone(&self.zero);
                // The frame came off the free stack (and goes back on
                // top) or the stack was empty: the order holds.
                inner.free.push(slot);
                return Err(e);
            }
        };
        let frame = &mut inner.frames[slot];
        frame.page_id = Some(id);
        frame.data = Arc::clone(&data);
        frame.pin = 1;
        inner.page_table.insert(id, slot);
        inner.push_mru(slot);
        Ok(PageRef { pool: self, slot, data })
    }

    /// Fetch page `id` and return its image without keeping a pin:
    /// the pin is taken and dropped inside the call, as for a
    /// [`PageRef`] released at once. The snapshot stays valid however
    /// long it is held, because eviction installs a fresh `Arc` in the
    /// frame and [`BufferPool::with_page_mut`] copies on write.
    pub fn fetch_snapshot(&self, id: PageId) -> Result<Arc<Page>, StorageError> {
        Ok(Arc::clone(&self.fetch(id)?.data))
    }

    /// Stamp the page's checksum and write it to disk — the single
    /// write-back path, so every image the disk holds verifies.
    /// Transient write faults are retried like reads.
    fn write_back(&self, id: PageId, data: &Arc<Page>) -> Result<(), StorageError> {
        let mut page = (**data).clone();
        page.stamp_checksum();
        self.with_retries(IoStats::bump_write_retry, || self.disk.write_page(id, &page))
    }

    /// Mutate page `id` in place through the pool, marking it dirty.
    /// The write reaches disk on eviction or [`BufferPool::flush_all`].
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        // Pin via fetch to pull the page in, then mutate under the lock.
        let slot = {
            let page_ref = self.fetch(id)?;
            page_ref.slot
            // page_ref drops here, unpinning; we re-lock below. The
            // frame cannot be evicted between: eviction requires the
            // same lock we immediately retake, and even if another
            // thread raced us, we re-check the page id.
        };
        let mut inner = self.inner.lock();
        let frame = &mut inner.frames[slot];
        if frame.page_id != Some(id) {
            drop(inner);
            // Lost the race; retry (rare, test workloads are single
            // threaded).
            return self.with_page_mut(id, f);
        }
        frame.dirty = true;
        let page = Arc::make_mut(&mut frame.data);
        Ok(f(page))
    }

    /// Write every dirty frame back to disk.
    pub fn flush_all(&self) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        for i in 0..inner.frames.len() {
            if let (Some(id), true) = (inner.frames[i].page_id, inner.frames[i].dirty) {
                let data = Arc::clone(&inner.frames[i].data);
                self.write_back(id, &data)?;
                inner.frames[i].dirty = false;
            }
        }
        Ok(())
    }

    /// Drop every unpinned cached page (flushing dirty ones first),
    /// returning how many frames were released. Pinned frames stay
    /// resident. Chaos harnesses call this between runs so a re-armed
    /// fault plan sees physical reads again instead of pure cache
    /// hits.
    pub fn reset_cache(&self) -> Result<usize, StorageError> {
        let mut inner = self.inner.lock();
        let mut dropped = 0;
        let mut failure = None;
        for i in 0..inner.frames.len() {
            if inner.frames[i].pin > 0 {
                continue;
            }
            if let Some(id) = inner.frames[i].page_id {
                if inner.frames[i].dirty {
                    let data = Arc::clone(&inner.frames[i].data);
                    if let Err(e) = self.write_back(id, &data) {
                        failure = Some(e);
                        break;
                    }
                }
                inner.page_table.remove(&id);
                inner.unlink(i);
                let frame = &mut inner.frames[i];
                frame.page_id = None;
                frame.dirty = false;
                frame.data = Arc::clone(&self.zero);
                inner.free.push(i);
                dropped += 1;
            }
        }
        // Frames were freed in index order; keep the lowest on top.
        inner.free.sort_unstable_by(|a, b| b.cmp(a));
        failure.map_or(Ok(dropped), Err)
    }

    /// Number of currently pinned frames (test/diagnostic hook for
    /// pin-count accounting).
    pub fn pinned_frames(&self) -> usize {
        self.inner.lock().frames.iter().filter(|f| f.pin > 0).count()
    }

    fn unpin(&self, slot: usize) {
        let mut inner = self.inner.lock();
        let frame = &mut inner.frames[slot];
        debug_assert!(frame.pin > 0, "unpin of unpinned frame");
        frame.pin = frame.pin.saturating_sub(1);
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        let resident = inner.page_table.len();
        write!(f, "BufferPool({} frames, {} resident)", inner.frames.len(), resident)
    }
}

/// A pinned page. Derefs to [`Page`]; unpins on drop. The data is an
/// `Arc` snapshot, so reads need no lock.
pub struct PageRef<'a> {
    pool: &'a BufferPool,
    slot: usize,
    data: Arc<Page>,
}

impl std::fmt::Debug for PageRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageRef(slot {})", self.slot)
    }
}

impl Deref for PageRef<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        &self.data
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use crate::fault::{FaultPlan, FaultyDisk};

    fn setup(capacity: usize, npages: usize) -> (Arc<InMemoryDisk>, BufferPool, Vec<PageId>) {
        let stats = Arc::new(IoStats::new());
        let disk = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        let ids: Vec<PageId> = (0..npages)
            .map(|i| {
                let id = disk.allocate_page().unwrap();
                let mut p = Page::zeroed();
                p.write_u32(0, i as u32);
                disk.write_page(id, &p).unwrap();
                id
            })
            .collect();
        // Tests below compare stat deltas, so setup traffic is fine.
        let pool = BufferPool::new(disk.clone(), stats, capacity);
        (disk, pool, ids)
    }

    /// Same fixture but behind an armed [`FaultyDisk`], with a
    /// no-sleep retry policy.
    fn faulty_setup(
        capacity: usize,
        npages: usize,
        plan: FaultPlan,
    ) -> (Arc<FaultyDisk>, BufferPool, Vec<PageId>) {
        let stats = Arc::new(IoStats::new());
        let disk = Arc::new(InMemoryDisk::new(Arc::clone(&stats)));
        let ids: Vec<PageId> = (0..npages)
            .map(|i| {
                let id = disk.allocate_page().unwrap();
                let mut p = Page::zeroed();
                p.write_u32(0, i as u32);
                p.stamp_checksum();
                disk.write_page(id, &p).unwrap();
                id
            })
            .collect();
        let faulty = Arc::new(FaultyDisk::new(disk, plan));
        faulty.arm();
        let pool = BufferPool::new(faulty.clone() as Arc<dyn DiskManager>, stats, capacity)
            .with_retry_policy(RetryPolicy::no_backoff(4));
        (faulty, pool, ids)
    }

    #[test]
    fn hit_after_miss() {
        let (_d, pool, ids) = setup(4, 2);
        let before = pool.stats().snapshot();
        {
            let p = pool.fetch(ids[0]).unwrap();
            assert_eq!(p.read_u32(0), 0);
        }
        {
            let p = pool.fetch(ids[0]).unwrap();
            assert_eq!(p.read_u32(0), 0);
        }
        let delta = pool.stats().snapshot().since(&before);
        assert_eq!(delta.disk_reads, 1, "second fetch must hit");
        assert_eq!(delta.buffer_hits, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (_d, pool, ids) = setup(2, 3);
        pool.fetch(ids[0]).unwrap();
        pool.fetch(ids[1]).unwrap();
        pool.fetch(ids[0]).unwrap(); // 0 is now most recent
        let before = pool.stats().snapshot();
        pool.fetch(ids[2]).unwrap(); // evicts 1
        pool.fetch(ids[0]).unwrap(); // still resident
        let delta = pool.stats().snapshot().since(&before);
        assert_eq!(delta.disk_reads, 1);
        assert_eq!(delta.evictions, 1);
        assert_eq!(delta.buffer_hits, 1);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let (_d, pool, ids) = setup(2, 3);
        let _held = pool.fetch(ids[0]).unwrap(); // keep pinned
        pool.fetch(ids[1]).unwrap();
        pool.fetch(ids[2]).unwrap(); // must evict 1, not pinned 0
        let p = pool.fetch(ids[0]).unwrap();
        assert_eq!(p.read_u32(0), 0);
        let snap = pool.stats().snapshot();
        // ids[0] read exactly once from disk in this test.
        assert_eq!(snap.buffer_hits, 1, "re-fetch of the pinned page must be a hit");
    }

    #[test]
    fn exhausting_pool_is_a_typed_error() {
        let (_d, pool, ids) = setup(2, 3);
        let _a = pool.fetch(ids[0]).unwrap();
        let _b = pool.fetch(ids[1]).unwrap();
        match pool.fetch(ids[2]) {
            Err(StorageError::PoolExhausted { capacity: 2 }) => {}
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
        // Dropping a pin frees a frame and the fetch succeeds.
        drop(_a);
        assert!(pool.fetch(ids[2]).is_ok());
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let (disk, pool, ids) = setup(1, 2);
        pool.with_page_mut(ids[0], |p| p.write_u32(0, 777)).unwrap();
        pool.fetch(ids[1]).unwrap(); // evicts dirty page 0
        let back = disk.read_page(ids[0]).unwrap();
        assert_eq!(back.read_u32(0), 777);
        assert!(back.verify_checksum(), "write-back stamps the checksum");
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let (disk, pool, ids) = setup(4, 1);
        pool.with_page_mut(ids[0], |p| p.write_u32(8, 123)).unwrap();
        pool.flush_all().unwrap();
        assert_eq!(disk.read_page(ids[0]).unwrap().read_u32(8), 123);
    }

    #[test]
    fn mutation_visible_to_subsequent_fetch() {
        let (_disk, pool, ids) = setup(4, 1);
        pool.with_page_mut(ids[0], |p| p.write_u32(12, 9)).unwrap();
        let p = pool.fetch(ids[0]).unwrap();
        assert_eq!(p.read_u32(12), 9);
    }

    #[test]
    fn reset_cache_forces_physical_rereads() {
        let (_d, pool, ids) = setup(4, 3);
        for id in &ids {
            pool.fetch(*id).unwrap();
        }
        let before = pool.stats().snapshot();
        assert_eq!(pool.reset_cache().unwrap(), 3);
        for id in &ids {
            pool.fetch(*id).unwrap();
        }
        let delta = pool.stats().snapshot().since(&before);
        assert_eq!(delta.disk_reads, 3, "all pages re-read after reset");
        assert_eq!(delta.buffer_hits, 0);
    }

    #[test]
    fn reset_cache_skips_pinned_frames() {
        let (_d, pool, ids) = setup(4, 2);
        let held = pool.fetch(ids[0]).unwrap();
        pool.fetch(ids[1]).unwrap();
        assert_eq!(pool.reset_cache().unwrap(), 1, "only the unpinned frame drops");
        assert_eq!(held.read_u32(0), 0, "pinned data still valid");
        assert_eq!(pool.pinned_frames(), 1);
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        // 30% transient failures, 4 attempts: chance of one page
        // failing all 4 draws is ~0.8%; over 8 pages and this fixed
        // seed the run recovers fully (deterministic — seeded).
        let plan = FaultPlan { seed: 42, transient_read: 0.3, ..FaultPlan::none() };
        let (_faulty, pool, ids) = faulty_setup(8, 8, plan);
        for (i, id) in ids.iter().enumerate() {
            let p = pool.fetch(*id).unwrap();
            assert_eq!(p.read_u32(0), i as u32, "recovered read is byte-identical");
        }
        assert!(
            pool.stats().snapshot().read_retries > 0,
            "the plan injected faults, so retries happened"
        );
    }

    #[test]
    fn corrupt_reads_heal_on_retry() {
        let plan = FaultPlan { seed: 7, corrupt_read: 0.4, ..FaultPlan::none() };
        let (_faulty, pool, ids) = faulty_setup(8, 8, plan);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(pool.fetch(*id).unwrap().read_u32(0), i as u32);
        }
    }

    #[test]
    fn sticky_corruption_exhausts_retries_with_a_named_fault() {
        let plan = FaultPlan { seed: 11, sticky_corrupt: 1.0, ..FaultPlan::none() };
        let (_faulty, pool, ids) = faulty_setup(4, 1, plan);
        match pool.fetch(ids[0]) {
            Err(StorageError::RetriesExhausted { attempts: 4, last }) => {
                assert_eq!(*last, StorageError::ChecksumMismatch { page: ids[0] });
            }
            other => panic!("expected RetriesExhausted(ChecksumMismatch), got {other:?}"),
        };
    }

    #[test]
    fn transient_write_faults_are_retried_to_success() {
        let plan = FaultPlan { seed: 21, transient_write: 0.4, ..FaultPlan::none() };
        let (faulty, pool, ids) = faulty_setup(8, 4, plan);
        let mut p = Page::zeroed();
        for (i, id) in ids.iter().enumerate() {
            p.write_u32(16, 1000 + i as u32);
            pool.write_through(*id, &p).unwrap();
        }
        assert!(faulty.injected() > 0, "the plan injected write faults");
        assert!(pool.stats().snapshot().write_retries > 0, "retries absorbed them");
        faulty.disarm();
        pool.reset_cache().unwrap();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(pool.fetch(*id).unwrap().read_u32(16), 1000 + i as u32);
        }
    }

    #[test]
    fn write_through_updates_a_cached_frame() {
        let (_d, pool, ids) = setup(4, 1);
        assert_eq!(pool.fetch(ids[0]).unwrap().read_u32(0), 0);
        let mut p = Page::zeroed();
        p.write_u32(0, 4242);
        pool.write_through(ids[0], &p).unwrap();
        let r = pool.fetch(ids[0]).unwrap();
        assert_eq!(r.read_u32(0), 4242, "no stale cached image after write-through");
        assert!(r.verify_checksum(), "write-through stamps the checksum");
    }

    #[test]
    fn allocate_retries_transient_allocation_faults() {
        let plan = FaultPlan { seed: 2, transient_allocate: 0.5, ..FaultPlan::none() };
        let (_faulty, pool, _ids) = faulty_setup(4, 0, plan);
        let mut allocated = 0;
        for _ in 0..16 {
            if pool.allocate().is_ok() {
                allocated += 1;
            }
        }
        assert!(allocated > 0, "retries must get some allocations through");
        assert!(pool.stats().snapshot().write_retries > 0);
    }

    #[test]
    fn exhausted_write_retries_surface_typed() {
        let plan = FaultPlan { seed: 9, transient_write: 1.0, ..FaultPlan::none() };
        let (_faulty, pool, ids) = faulty_setup(4, 1, plan);
        match pool.write_through(ids[0], &Page::zeroed()) {
            Err(StorageError::RetriesExhausted { attempts: 4, last }) => {
                assert_eq!(*last, StorageError::InjectedIo { page: ids[0] });
            }
            other => panic!("expected RetriesExhausted(InjectedIo), got {other:?}"),
        }
    }

    #[test]
    fn failed_eviction_write_back_keeps_the_victim_resident() {
        let plan = FaultPlan { seed: 13, transient_write: 1.0, ..FaultPlan::none() };
        let (faulty, pool, ids) = faulty_setup(1, 2, plan);
        pool.with_page_mut(ids[0], |p| p.write_u32(0, 777)).unwrap();
        let before = pool.stats().snapshot();
        assert!(pool.fetch(ids[1]).is_err(), "the victim's write-back fails");
        let held = pool.fetch(ids[0]).unwrap();
        assert_eq!(held.read_u32(0), 777, "the dirty image stays cached");
        assert_eq!(pool.stats().snapshot().since(&before).buffer_hits, 1);
        match pool.fetch(ids[1]) {
            Err(StorageError::PoolExhausted { capacity: 1 }) => {}
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
        assert_eq!(pool.pinned_frames(), 1, "the held pin survives");
        drop(held);
        faulty.disarm();
        assert_eq!(pool.fetch(ids[1]).unwrap().read_u32(0), 1);
        assert_eq!(pool.fetch(ids[0]).unwrap().read_u32(0), 777, "the dirty write was not lost");
    }

    /// The victim rule the recency list replaces, kept as a model: an
    /// empty frame if any, else the unpinned frame with the oldest
    /// last use, found by scanning every frame.
    struct ScanModel {
        /// `(page, pins, last_used)` per occupied frame.
        frames: Vec<Option<(usize, u32, u64)>>,
        tick: u64,
        hits: u64,
        reads: u64,
        evictions: u64,
    }

    impl ScanModel {
        fn new(capacity: usize) -> ScanModel {
            ScanModel { frames: vec![None; capacity], tick: 0, hits: 0, reads: 0, evictions: 0 }
        }

        fn fetch(&mut self, page: usize) -> Option<usize> {
            self.tick += 1;
            if let Some(slot) = self.frames.iter().position(|f| f.is_some_and(|f| f.0 == page)) {
                self.hits += 1;
                let f = self.frames[slot].as_mut().unwrap();
                f.1 += 1;
                f.2 = self.tick;
                return Some(slot);
            }
            let slot = match self.frames.iter().position(Option::is_none) {
                Some(slot) => slot,
                None => {
                    let (slot, _) = self
                        .frames
                        .iter()
                        .enumerate()
                        .filter_map(|(i, f)| f.filter(|f| f.1 == 0).map(|f| (i, f.2)))
                        .min_by_key(|&(_, last)| last)?;
                    self.evictions += 1;
                    slot
                }
            };
            self.reads += 1;
            self.frames[slot] = Some((page, 1, self.tick));
            Some(slot)
        }

        fn unpin(&mut self, slot: usize) {
            self.frames[slot].as_mut().unwrap().1 -= 1;
        }

        fn reset(&mut self) {
            for f in &mut self.frames {
                if f.is_some_and(|f| f.1 == 0) {
                    *f = None;
                }
            }
        }
    }

    #[test]
    fn recency_list_evicts_exactly_what_the_frame_scan_did() {
        let (_d, pool, ids) = setup(8, 20);
        let mut model = ScanModel::new(8);
        let base = pool.stats().snapshot();
        // Held pins: the pool's refs and the model's frame slots.
        let mut held: Vec<(PageRef<'_>, usize)> = Vec::new();
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        for step in 0..5_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let page = (rng >> 8) as usize % ids.len();
            match rng % 16 {
                0..=7 => {
                    let got = pool.fetch(ids[page]).map(drop);
                    let want = model.fetch(page).map(|slot| model.unpin(slot));
                    assert_eq!(got.is_ok(), want.is_some(), "step {step}: fetch outcome");
                }
                8..=10 => match (pool.fetch(ids[page]), model.fetch(page)) {
                    (Ok(r), Some(slot)) => held.push((r, slot)),
                    (Err(StorageError::PoolExhausted { .. }), None) => {}
                    (got, want) => panic!("step {step}: hold {got:?} vs model {want:?}"),
                },
                11..=13 if !held.is_empty() => {
                    let (r, slot) = held.swap_remove((rng >> 32) as usize % held.len());
                    drop(r);
                    model.unpin(slot);
                }
                14 => {
                    let got = pool.with_page_mut(ids[page], |p| p.write_u32(64, step));
                    let want = model.fetch(page).map(|slot| model.unpin(slot));
                    assert_eq!(got.is_ok(), want.is_some(), "step {step}: with_page_mut");
                }
                15 => {
                    pool.reset_cache().unwrap();
                    model.reset();
                }
                _ => {}
            }
            let d = pool.stats().snapshot().since(&base);
            assert_eq!(
                (d.buffer_hits, d.disk_reads, d.evictions),
                (model.hits, model.reads, model.evictions),
                "step {step}: hits, reads, evictions"
            );
        }
    }

    #[test]
    fn failed_fetch_leaves_no_stale_mapping() {
        let plan = FaultPlan { seed: 11, sticky_corrupt: 1.0, ..FaultPlan::none() };
        let (faulty, pool, ids) = faulty_setup(4, 1, plan);
        assert!(pool.fetch(ids[0]).is_err());
        assert_eq!(pool.pinned_frames(), 0, "failed fetch pins nothing");
        // Heal the disk; the page must now load cleanly (no cached
        // failure, no stale page-table entry).
        faulty.disarm();
        assert_eq!(pool.fetch(ids[0]).unwrap().read_u32(0), 0);
    }
}
