//! Key slicing for the trie-of-B+trees structure (§2.2).
//!
//! Masstree indexes arbitrary byte strings by consuming them 8 bytes at a
//! time: each trie *layer* is a B+tree keyed by one 64-bit big-endian
//! slice (`ikey`). Within a layer an entry is either **terminal** — the key
//! ends within this slice, `keylenx` = remaining length 0..=8 — or a
//! **layer pointer** (`keylenx` = [`KLEN_LAYER`]) leading to the next trie
//! layer for keys sharing this slice prefix.
//!
//! Entries sort by `(ikey, keylenx)`: big-endian slicing makes the `u64`
//! comparison agree with lexicographic byte order, shorter keys sort before
//! longer ones with the same padded slice, and a layer (holding keys strictly
//! longer than the slice) sorts after every terminal variant.
//!
//! Design note (DESIGN.md): keys longer than 8 bytes *always* descend into
//! a sub-layer; we do not store inline suffixes. At most one of
//! {terminal-8, layer} exists per `ikey` — inserting an overlong key onto a
//! terminal-8 entry converts it into a layer holding the old key as the
//! empty suffix.

/// `keylenx` marker for a slot that points at the next trie layer.
pub const KLEN_LAYER: u8 = 255;

/// A cursor over a key being consumed layer by layer.
///
/// # Example
///
/// ```
/// use incll_masstree::key::KeyCursor;
///
/// let mut k = KeyCursor::new(b"abcdefghij"); // 10 bytes: two layers
/// assert_eq!(k.ikey(), u64::from_be_bytes(*b"abcdefgh"));
/// assert!(!k.is_terminal());
/// k.descend();
/// assert_eq!(k.klen(), 2);
/// assert!(k.is_terminal());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyCursor<'a> {
    full: &'a [u8],
    /// Byte offset of the current layer's slice.
    offset: usize,
}

impl<'a> KeyCursor<'a> {
    /// Starts a cursor at layer 0.
    pub fn new(key: &'a [u8]) -> Self {
        KeyCursor {
            full: key,
            offset: 0,
        }
    }

    /// Remaining bytes at the current layer (including this slice).
    #[inline]
    pub fn remaining(&self) -> usize {
        self.full.len().saturating_sub(self.offset)
    }

    /// The current layer's 8-byte big-endian slice, zero-padded.
    #[inline]
    pub fn ikey(&self) -> u64 {
        ikey_of(&self.full[self.offset.min(self.full.len())..])
    }

    /// The `keylenx` this key would have as a *terminal* entry in the
    /// current layer: `min(remaining, 8)` — meaningful only when
    /// [`KeyCursor::is_terminal`].
    #[inline]
    pub fn klen(&self) -> u8 {
        self.remaining().min(8) as u8
    }

    /// Whether the key ends within the current layer (remaining ≤ 8).
    #[inline]
    pub fn is_terminal(&self) -> bool {
        self.remaining() <= 8
    }

    /// Advances to the next layer (consumes 8 bytes).
    pub fn descend(&mut self) {
        self.offset += 8;
    }
}

/// Builds the 8-byte big-endian slice of `bytes` (zero-padded).
#[inline]
pub fn ikey_of(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(buf)
}

/// Compares two layer entries by `(ikey, keylenx)` with the layer marker
/// ordered after all terminal lengths.
#[inline]
pub fn entry_cmp(a_ikey: u64, a_klenx: u8, b_ikey: u64, b_klenx: u8) -> std::cmp::Ordering {
    let rank = |k: u8| if k == KLEN_LAYER { 9u8 } else { k };
    (a_ikey, rank(a_klenx)).cmp(&(b_ikey, rank(b_klenx)))
}

/// The `keylenx` a search key targets in the current layer: its terminal
/// length when the key ends here, otherwise the layer marker.
#[inline]
pub fn search_klenx(cur: &KeyCursor<'_>) -> u8 {
    if cur.is_terminal() {
        cur.klen()
    } else {
        KLEN_LAYER
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn ikey_is_big_endian_lexicographic() {
        assert!(ikey_of(b"a") < ikey_of(b"b"));
        assert!(ikey_of(b"ab") < ikey_of(b"b"));
        assert!(ikey_of(b"abcdefgh") < ikey_of(b"abcdefgi"));
        // Padding: "ab" and "ab\0" share a slice; klen disambiguates.
        assert_eq!(ikey_of(b"ab"), ikey_of(b"ab\0"));
    }

    #[test]
    fn cursor_walks_layers() {
        let mut c = KeyCursor::new(b"0123456789abcdef_tail");
        assert_eq!(c.remaining(), 21);
        assert!(!c.is_terminal());
        assert_eq!(c.ikey(), ikey_of(b"01234567"));
        c.descend();
        assert_eq!(c.ikey(), ikey_of(b"89abcdef"));
        assert_eq!(c.remaining(), 13);
        c.descend();
        assert!(c.is_terminal());
        assert_eq!(c.klen(), 5);
    }

    #[test]
    fn empty_key_is_terminal_len_zero() {
        let c = KeyCursor::new(b"");
        assert!(c.is_terminal());
        assert_eq!(c.klen(), 0);
        assert_eq!(c.ikey(), 0);
    }

    #[test]
    fn exactly_eight_bytes_is_terminal() {
        let c = KeyCursor::new(b"abcdefgh");
        assert!(c.is_terminal());
        assert_eq!(c.klen(), 8);
        assert_eq!(search_klenx(&c), 8);
    }

    #[test]
    fn nine_bytes_targets_layer() {
        let c = KeyCursor::new(b"abcdefghi");
        assert!(!c.is_terminal());
        assert_eq!(search_klenx(&c), KLEN_LAYER);
    }

    #[test]
    fn entry_order_shorter_first_layer_last() {
        let ik = ikey_of(b"ab");
        assert_eq!(entry_cmp(ik, 2, ik, 3), Ordering::Less);
        assert_eq!(entry_cmp(ik, 8, ik, KLEN_LAYER), Ordering::Less);
        assert_eq!(entry_cmp(ik, KLEN_LAYER, ik, KLEN_LAYER), Ordering::Equal);
        // Different ikeys dominate.
        assert_eq!(
            entry_cmp(ikey_of(b"aa"), KLEN_LAYER, ikey_of(b"ab"), 0),
            Ordering::Less
        );
    }

    #[test]
    fn lexicographic_agreement_with_layers() {
        // For any two keys, comparing their layered (ikey, klenx) tuples
        // layer by layer agrees with byte-wise lexicographic order.
        let keys: Vec<&[u8]> = vec![
            b"",
            b"a",
            b"a\0",
            b"ab",
            b"abcdefgh",
            b"abcdefghi",
            b"abcdefgh\0",
            b"abcdefghij",
            b"b",
        ];
        for x in &keys {
            for y in &keys {
                let expect = x.cmp(y);
                let got = layered_cmp(x, y);
                assert_eq!(got, expect, "{x:?} vs {y:?}");
            }
        }
    }

    fn layered_cmp(x: &[u8], y: &[u8]) -> Ordering {
        let mut cx = KeyCursor::new(x);
        let mut cy = KeyCursor::new(y);
        loop {
            let ord = entry_cmp(cx.ikey(), search_klenx(&cx), cy.ikey(), search_klenx(&cy));
            if ord != Ordering::Equal {
                return ord;
            }
            if cx.is_terminal() && cy.is_terminal() {
                return Ordering::Equal;
            }
            cx.descend();
            cy.descend();
        }
    }
}
