//! Size classes for the durable allocator.
//!
//! Objects are served from per-(thread, class) free lists. Every object
//! carries a 16-byte durable header ([`crate::header`]), so an object's
//! slab stride is `header + payload class`. Payload classes are spaced
//! every 16 bytes up to 512, so no object under 512 bytes wastes more than
//! 15; above that they are 768, 1024, 2048 and 4096. The paper's 32-byte
//! value buffers (§6, footnote 6) are the 16-byte class behind its header,
//! and durable Masstree nodes are 320 bytes, so both map to exact classes.
//!
//! A slab starts at the largest power of two (at most 64) that divides its
//! stride ([`slab_align`]), so an object whose stride is 32 or 64 bytes
//! never straddles a cache line.

use crate::HEADER_BYTES;

/// Payload size classes in bytes (excluding the 16-byte object header).
///
/// The largest class bounds [`crate::PAlloc::alloc`]; larger requests are
/// an error (the tree never makes one).
pub const CLASS_SIZES: &[usize] = &[
    16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256, 272, 288, 304, 320,
    336, 352, 368, 384, 400, 416, 432, 448, 464, 480, 496, 512, 768, 1024, 2048, 4096,
];

/// Payload sizes served with **64-byte (cache-line) alignment** — durable
/// tree nodes, whose embedded in-cache-line logs depend on exact line
/// placement. Each object costs an extra 48 bytes of padding so the header
/// still sits at `payload - 16`.
pub const ALIGNED64_CLASS_SIZES: &[usize] = &[320, 576];

/// Number of 16-aligned size classes.
pub const NUM_CLASSES: usize = CLASS_SIZES.len();
/// Total classes including the 64-aligned ones.
pub const TOTAL_CLASSES: usize = NUM_CLASSES + ALIGNED64_CLASS_SIZES.len();

/// Objects per refill slab, per class (kept small for small classes so
/// tests with tiny arenas still work; large enough to amortise carving).
pub const SLAB_OBJECTS: usize = 64;

/// Maps a 16-aligned payload size to its class index.
///
/// Returns `None` for zero or oversized requests.
pub fn class_for(size: usize) -> Option<usize> {
    if size == 0 {
        return None;
    }
    CLASS_SIZES.iter().position(|&c| size <= c)
}

/// Maps a 64-aligned payload size to its (total-index) class.
pub fn class_for_aligned64(size: usize) -> Option<usize> {
    if size == 0 {
        return None;
    }
    ALIGNED64_CLASS_SIZES
        .iter()
        .position(|&c| size <= c)
        .map(|i| NUM_CLASSES + i)
}

/// Whether a (total-index) class serves 64-aligned payloads.
pub fn is_aligned64(class: usize) -> bool {
    class >= NUM_CLASSES
}

/// Distance from an object's slab slot start to its header.
///
/// 64-aligned classes pad the slot so the payload (`header + 16`) lands on
/// a cache line: slot → [48 pad][16 header][payload].
pub fn header_off_in_stride(class: usize) -> usize {
    if is_aligned64(class) {
        48
    } else {
        0
    }
}

/// Slab stride (bytes between consecutive object slots) for a class.
pub fn stride(class: usize) -> usize {
    if is_aligned64(class) {
        48 + HEADER_BYTES + ALIGNED64_CLASS_SIZES[class - NUM_CLASSES]
    } else {
        HEADER_BYTES + CLASS_SIZES[class]
    }
}

/// Alignment of a class's slab start: the largest power of two, at most
/// one cache line, that divides the stride. Every slot of the slab then
/// keeps that alignment, so a 32- or 64-byte object lies inside one line
/// and a 64-aligned class's payload lands on a line.
pub fn slab_align(class: usize) -> usize {
    let s = stride(class);
    (s & s.wrapping_neg()).min(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_sorted_and_16_aligned() {
        let mut prev = 0;
        for &c in CLASS_SIZES {
            assert!(c > prev);
            assert_eq!(c % 16, 0);
            prev = c;
        }
    }

    #[test]
    fn class_lookup_boundaries() {
        assert_eq!(class_for(0), None);
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(16), Some(0));
        assert_eq!(class_for(17), Some(1));
        assert_eq!(class_for(32), Some(1));
        assert_eq!(class_for(4096), Some(NUM_CLASSES - 1));
        assert_eq!(class_for(4097), None);
    }

    #[test]
    fn paper_sizes_map_exactly() {
        // 32-byte value buffers and 320-byte durable leaves.
        assert_eq!(stride(class_for(16).unwrap()), 32);
        assert_eq!(CLASS_SIZES[class_for(320).unwrap()], 320);
    }

    #[test]
    fn small_objects_waste_at_most_15_bytes() {
        for size in 1..=512 {
            let class = CLASS_SIZES[class_for(size).unwrap()];
            assert!(class - size <= 15, "{size} B lands in the {class} B class");
        }
    }

    #[test]
    fn aligned_classes_index_past_normal_ones() {
        let c = class_for_aligned64(320).unwrap();
        assert!(is_aligned64(c));
        assert_eq!(c, NUM_CLASSES);
        assert!(class_for_aligned64(4096).is_none());
        assert!(class_for_aligned64(0).is_none());
    }

    #[test]
    fn aligned_stride_keeps_payload_on_line() {
        for (i, &sz) in ALIGNED64_CLASS_SIZES.iter().enumerate() {
            let c = NUM_CLASSES + i;
            // Slab slot layout: [48 pad][16 header][payload].
            assert_eq!(stride(c) % 64, 0, "stride of {sz}");
            assert_eq!(header_off_in_stride(c) + HEADER_BYTES, 64);
        }
        // Normal classes: header leads the slot.
        assert_eq!(header_off_in_stride(0), 0);
        assert_eq!(stride(class_for(32).unwrap()), 48);
    }
}
