//! Fixed-size pages.

/// Page size in bytes. 8 KiB, SHORE's default.
pub const PAGE_SIZE: usize = 8192;

/// Byte offset of the page checksum inside the page header. The
/// record-page header is 8 bytes (`u16` record count at offset 0,
/// rest reserved — see [`crate::record`]); the checksum claims the
/// reserved `u32` at bytes 4..8.
pub const CHECKSUM_OFFSET: usize = 4;

/// Independent lanes of [`Page::compute_checksum`]. Sixteen `u32`
/// lanes fill a 64-byte block, so the per-word loop vectorises.
const CHECKSUM_LANES: usize = 16;

/// Identifier of a page on disk (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Dense index of the page.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A page image. Pages are heap-allocated (`Box<Page>` in the disk,
/// `Arc<Page>` in buffer frames) so moving handles never copies 8 KiB.
#[derive(Clone)]
pub struct Page {
    /// Raw bytes.
    pub data: [u8; PAGE_SIZE],
}

impl Page {
    /// A zeroed page. An 8 KiB array briefly lives on the stack here;
    /// that is well within any thread's stack and the compiler
    /// routinely elides the copy into the box.
    pub fn zeroed() -> Box<Page> {
        Box::new(Page { data: [0u8; PAGE_SIZE] })
    }

    /// Read a little-endian u32 at byte offset `off`.
    #[inline]
    pub fn read_u32(&self, off: usize) -> u32 {
        // Invariant: the slice is exactly 4 bytes, so try_into cannot fail.
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap())
    }

    /// Write a little-endian u32 at byte offset `off`.
    #[inline]
    pub fn write_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian u16 at byte offset `off`.
    #[inline]
    pub fn read_u16(&self, off: usize) -> u16 {
        // Invariant: the slice is exactly 2 bytes, so try_into cannot fail.
        u16::from_le_bytes(self.data[off..off + 2].try_into().unwrap())
    }

    /// Write a little-endian u16 at byte offset `off`.
    #[inline]
    pub fn write_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian u64 at byte offset `off`.
    #[inline]
    pub fn read_u64(&self, off: usize) -> u64 {
        // Invariant: the slice is exactly 8 bytes, so try_into cannot fail.
        u64::from_le_bytes(self.data[off..off + 8].try_into().unwrap())
    }

    /// Write a little-endian u64 at byte offset `off`.
    #[inline]
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Checksum of the page: a multiply-xor over its little-endian
    /// `u32` words in `CHECKSUM_LANES` independent lanes (word `i`
    /// feeds lane `i % CHECKSUM_LANES`), the lanes then folded one by
    /// one. The checksum word itself reads as 0, and a result of 0 is
    /// mapped to 1 (0 is reserved to mean "unstamped").
    ///
    /// Every step `h = (h ^ w) * M` with odd `M` is a bijection mod
    /// 2³² in both `h` and `w`, so changing any one word — any damage
    /// confined to 4 aligned bytes, such as the single-byte flip
    /// [`crate::fault::FaultyDisk`] injects — changes the raw sum.
    /// The one blind spot is the 0 → 1 mapping: a change that moves
    /// the raw sum between exactly 0 and 1 goes unseen.
    pub fn compute_checksum(&self) -> u32 {
        const SEED: u32 = 0x811c_9dc5;
        const MUL: u32 = 0x9e37_79b1;
        const CHUNK: usize = 4 * CHECKSUM_LANES;
        fn mix(lanes: &mut [u32; CHECKSUM_LANES], chunk: &[u8]) {
            for (h, w) in lanes.iter_mut().zip(chunk.chunks_exact(4)) {
                let w = u32::from_le_bytes(w.try_into().expect("chunks_exact(4) yields 4 bytes"));
                *h = (*h ^ w).wrapping_mul(MUL);
            }
        }
        let mut lanes = [0u32; CHECKSUM_LANES];
        for (j, h) in lanes.iter_mut().enumerate() {
            *h = SEED.wrapping_add(j as u32);
        }
        let (head, rest) = self.data.split_at(CHUNK);
        let mut first = [0u8; CHUNK];
        first.copy_from_slice(head);
        first[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].fill(0);
        mix(&mut lanes, &first);
        for chunk in rest.chunks_exact(CHUNK) {
            mix(&mut lanes, chunk);
        }
        let h = lanes.iter().fold(SEED, |acc, &h| (acc ^ h).wrapping_mul(MUL));
        if h == 0 {
            1
        } else {
            h
        }
    }

    /// Stamp the page's checksum field from its current contents.
    /// Done by the bulk loaders at build time and by the buffer pool
    /// on dirty write-back, so every page image the disk holds
    /// verifies.
    pub fn stamp_checksum(&mut self) {
        let sum = self.compute_checksum();
        self.write_u32(CHECKSUM_OFFSET, sum);
    }

    /// Verify the stamped checksum. A stored value of 0 means the
    /// page was never stamped (raw test pages written straight to a
    /// disk image) and is accepted; any nonzero stored value must
    /// match the recomputed one.
    pub fn verify_checksum(&self) -> bool {
        let stored = self.read_u32(CHECKSUM_OFFSET);
        stored == 0 || stored == self.compute_checksum()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({PAGE_SIZE} bytes)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_pages_are_all_zero() {
        let p = Page::zeroed();
        assert!(p.data.iter().all(|&b| b == 0));
    }

    #[test]
    fn scalar_roundtrips() {
        let mut p = Page::zeroed();
        p.write_u32(0, 0xDEADBEEF);
        p.write_u16(4, 0xABCD);
        p.write_u64(8, u64::MAX - 7);
        assert_eq!(p.read_u32(0), 0xDEADBEEF);
        assert_eq!(p.read_u16(4), 0xABCD);
        assert_eq!(p.read_u64(8), u64::MAX - 7);
    }

    #[test]
    fn writes_do_not_bleed() {
        let mut p = Page::zeroed();
        p.write_u32(100, u32::MAX);
        assert_eq!(p.data[99], 0);
        assert_eq!(p.data[104], 0);
    }

    #[test]
    fn page_id_index() {
        assert_eq!(PageId(7).index(), 7);
    }

    #[test]
    fn unstamped_pages_verify() {
        let mut p = Page::zeroed();
        assert!(p.verify_checksum(), "fresh zero page is unstamped, accepted");
        p.write_u64(100, 12345);
        assert!(p.verify_checksum(), "raw writes leave the page unstamped");
    }

    #[test]
    fn stamped_pages_verify_and_detect_corruption() {
        let mut p = Page::zeroed();
        p.write_u64(64, 0xABCD);
        p.stamp_checksum();
        assert!(p.verify_checksum());
        p.data[64] ^= 0xFF;
        assert!(!p.verify_checksum(), "bit flip must be detected");
        p.data[64] ^= 0xFF;
        assert!(p.verify_checksum(), "restoring the byte restores validity");
    }

    #[test]
    fn every_single_byte_change_is_detected() {
        let mut patterned = Page::zeroed();
        for (i, b) in patterned.data.iter_mut().enumerate() {
            *b = (i * 31 % 251) as u8;
        }
        for mut p in [Page::zeroed(), patterned] {
            p.stamp_checksum();
            assert!(p.verify_checksum());
            let payload =
                (0..PAGE_SIZE).filter(|o| !(CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4).contains(o));
            for off in payload {
                for mask in [0x01u8, 0x5A, 0xFF] {
                    p.data[off] ^= mask;
                    assert!(!p.verify_checksum(), "flip {mask:#04x} at byte {off} went unseen");
                    p.data[off] ^= mask;
                }
            }
        }
    }

    #[test]
    fn checksum_is_never_zero() {
        let p = Page::zeroed();
        assert_ne!(p.compute_checksum(), 0);
    }

    #[test]
    fn restamping_after_mutation_keeps_pages_valid() {
        let mut p = Page::zeroed();
        p.stamp_checksum();
        p.write_u32(200, 7);
        assert!(!p.verify_checksum());
        p.stamp_checksum();
        assert!(p.verify_checksum());
    }
}
