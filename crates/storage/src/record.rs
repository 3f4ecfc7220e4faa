//! Fixed-width element records and their page layout.
//!
//! Each element is stored as a 28-byte record carrying everything the
//! structural join operators need: the region encoding, the interned
//! tag, the arena node id (to build result tuples), and a 64-bit
//! digest of the element's text value (for index-side equality
//! predicates).
//!
//! Page layout: an 8-byte header (`u16` record count, rest reserved)
//! followed by densely packed records.

use sjos_xml::{NodeId, Region, Tag};

use crate::page::{Page, PAGE_SIZE};

/// Bytes per encoded record.
pub const RECORD_SIZE: usize = 28;
/// Bytes reserved at the start of each data page.
pub const PAGE_HEADER_SIZE: usize = 8;
/// Records that fit on one page.
pub const RECORDS_PER_PAGE: usize = (PAGE_SIZE - PAGE_HEADER_SIZE) / RECORD_SIZE;

/// One stored element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementRecord {
    /// Arena id of the element in the source document.
    pub node: NodeId,
    /// Region (interval + level) encoding.
    pub region: Region,
    /// Interned tag.
    pub tag: Tag,
    /// FNV-1a digest of the element's immediate text (0 for empty).
    pub value_hash: u64,
}

impl ElementRecord {
    /// Encode into `page` at `slot`.
    ///
    /// # Panics
    /// Panics if `slot >= RECORDS_PER_PAGE`.
    pub fn encode(&self, page: &mut Page, slot: usize) {
        assert!(slot < RECORDS_PER_PAGE, "slot {slot} out of range");
        let off = PAGE_HEADER_SIZE + slot * RECORD_SIZE;
        page.write_u32(off, self.node.0);
        page.write_u32(off + 4, self.region.start);
        page.write_u32(off + 8, self.region.end);
        page.write_u16(off + 12, self.region.level);
        // 2 bytes padding at off+14.
        page.write_u32(off + 16, self.tag.0);
        page.write_u64(off + 20, self.value_hash);
    }

    /// Decode from `page` at `slot`.
    #[inline]
    pub fn decode(page: &Page, slot: usize) -> ElementRecord {
        assert!(slot < RECORDS_PER_PAGE, "slot {slot} out of range");
        let off = PAGE_HEADER_SIZE + slot * RECORD_SIZE;
        ElementRecord::from_bytes(&page.data[off..off + RECORD_SIZE])
    }

    /// Decode one record's `RECORD_SIZE` bytes.
    #[inline]
    pub(crate) fn from_bytes(raw: &[u8]) -> ElementRecord {
        let b: &[u8; RECORD_SIZE] =
            raw.try_into().expect("a slice of RECORD_SIZE bytes converts to the array");
        let u32_at = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        ElementRecord {
            node: NodeId(u32_at(0)),
            region: Region {
                start: u32_at(4),
                end: u32_at(8),
                level: u16::from_le_bytes([b[12], b[13]]),
            },
            tag: Tag(u32_at(16)),
            value_hash: u64::from(u32_at(20)) | u64::from(u32_at(24)) << 32,
        }
    }
}

/// Number of records currently on `page`.
pub fn page_record_count(page: &Page) -> usize {
    page.read_u16(0) as usize
}

/// Set the record count of `page`.
pub fn set_page_record_count(page: &mut Page, n: usize) {
    debug_assert!(n <= RECORDS_PER_PAGE);
    page.write_u16(0, n as u16);
}

/// FNV-1a hash of a text value; the digest stored in records. Empty
/// text hashes to 0 so "no value" is cheap to test.
pub fn value_digest(text: &str) -> u64 {
    if text.is_empty() {
        return 0;
    }
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    // Avoid colliding with the "empty" sentinel.
    if h == 0 {
        1
    } else {
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u32) -> ElementRecord {
        ElementRecord {
            node: NodeId(i),
            region: Region { start: i * 2, end: i * 2 + 1, level: (i % 7) as u16 },
            tag: Tag(i % 5),
            value_hash: u64::from(i) * 101,
        }
    }

    #[test]
    fn record_roundtrip() {
        let mut page = Page::zeroed();
        let rec = sample(42);
        rec.encode(&mut page, 0);
        assert_eq!(ElementRecord::decode(&page, 0), rec);
    }

    #[test]
    fn page_holds_advertised_count() {
        let mut page = Page::zeroed();
        for slot in 0..RECORDS_PER_PAGE {
            sample(slot as u32).encode(&mut page, slot);
        }
        set_page_record_count(&mut page, RECORDS_PER_PAGE);
        assert_eq!(page_record_count(&page), RECORDS_PER_PAGE);
        for slot in 0..RECORDS_PER_PAGE {
            assert_eq!(ElementRecord::decode(&page, slot), sample(slot as u32));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overflow_slot_panics() {
        let mut page = Page::zeroed();
        sample(0).encode(&mut page, RECORDS_PER_PAGE);
    }

    #[test]
    fn record_layout_has_no_overlap() {
        let mut page = Page::zeroed();
        let a = sample(1);
        let b = sample(2);
        a.encode(&mut page, 0);
        b.encode(&mut page, 1);
        assert_eq!(ElementRecord::decode(&page, 0), a);
        assert_eq!(ElementRecord::decode(&page, 1), b);
    }

    #[test]
    fn digest_of_empty_is_zero_and_stable() {
        assert_eq!(value_digest(""), 0);
        assert_eq!(value_digest("abc"), value_digest("abc"));
        assert_ne!(value_digest("abc"), value_digest("abd"));
        assert_ne!(value_digest("x"), 0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn capacity_math_is_consistent() {
        assert!(PAGE_HEADER_SIZE + RECORDS_PER_PAGE * RECORD_SIZE <= PAGE_SIZE);
        assert!(RECORDS_PER_PAGE > 200, "28-byte records should pack densely");
    }
}
