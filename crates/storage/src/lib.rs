//! # sjos-storage
//!
//! A miniature storage manager standing in for SHORE (the storage
//! layer Timber — and therefore the paper's experiments — ran on):
//!
//! * fixed-size [`page::Page`]s on an in-memory [`disk::InMemoryDisk`]
//!   that counts physical reads/writes,
//! * an LRU [`buffer::BufferPool`] with pin/unpin and dirty-page
//!   write-back (default capacity 16 MB, matching the paper's setup),
//! * a [`heap::HeapFile`] of fixed-width element records in document
//!   order, and
//! * a clustered per-tag [`index::TagIndex`] whose scans deliver
//!   binding lists sorted by document order — the inputs every
//!   structural join expects.
//!
//! The point of the crate is not durability (everything is in memory)
//! but *cost realism*: every element an operator touches flows through
//! the buffer pool, so logical/physical I/O counts and buffer-pool
//! pressure behave the way the paper's cost model assumes.
//!
//! Robustness: every fallible path reports a typed
//! [`error::StorageError`]; pages carry checksums verified on load;
//! the pool retries transient faults under a [`buffer::RetryPolicy`];
//! and [`fault::FaultyDisk`] injects seeded, reproducible faults for
//! chaos testing.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod disk;
pub mod error;
pub mod fault;
pub mod heap;
pub mod index;
pub mod iostats;
pub mod page;
pub mod record;
pub mod spill;
pub mod store;

pub use buffer::{BufferPool, PageRef, RetryPolicy};
pub use disk::{DiskManager, FileDisk, InMemoryDisk};
pub use error::StorageError;
pub use fault::{FaultPlan, FaultyDisk};
pub use heap::HeapFile;
pub use index::{Extent, TagIndex};
pub use iostats::{IoSnapshot, IoStats, IoTap};
pub use page::{Page, PageId, PAGE_SIZE};
pub use record::ElementRecord;
pub use spill::{SpillSegment, TempPages};
pub use store::{StoreConfig, XmlStore};

#[cfg(test)]
mod thread_safety {
    //! Compile-time pin of the storage layer's shareability: the query
    //! service hands one `XmlStore` (pool, disk, fault harness, stats)
    //! to many session threads at once.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn storage_is_shareable() {
        assert_send_sync::<XmlStore>();
        assert_send_sync::<BufferPool>();
        assert_send_sync::<HeapFile>();
        assert_send_sync::<TagIndex>();
        assert_send_sync::<IoStats>();
        assert_send_sync::<FaultyDisk>();
        assert_send_sync::<StorageError>();
        assert_send_sync::<SpillSegment>();
    }
}
