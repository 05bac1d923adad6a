//! Torn external-log entries: whatever part of a sealed entry fails to
//! reach the medium — a whole cache line, a single bit, a length word
//! gone wild — replay must stop **at** that entry, apply no byte of it,
//! keep the valid prefix before it and leave the cursor there.
//!
//! Each battery builds one log buffer holding three entries of the
//! crashed epoch, `[A: 64 B undo][B: the entry under test][C: 64 B
//! undo]`, written over intact debris of the same three entries from the
//! previous (completed) epoch — the nastiest pre-append content, since a
//! line that failed to persist then still holds a well-formed older
//! entry. `B` is a 320 B node image or a batch intent; both are sealed by
//! the same checksum (see `incll-extlog`'s "Entry format").

use incll_extlog::ExtLog;
use incll_pmem::{superblock, PArena};

/// Entry header bytes (epoch, target, length word, checksum).
const HEADER: u64 = 32;
const LINE: u64 = 64;
const NODE_BYTES: usize = 320;
/// Not a multiple of 8: the checksum's word and byte tails both run, and
/// the entry carries 4 bytes of padding the sum does not cover.
const INTENT_BYTES: usize = 100;
const PER_SLOT: u64 = 8 * 1024;
const A_BYTES: u64 = HEADER + 64;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Node,
    Intent,
}

struct Fixture {
    arena: PArena,
    kind: Kind,
    /// Arena offset of the log buffer.
    slot: u64,
    /// Header + payload bytes of `B` (padding excluded).
    b_bytes: u64,
    /// The lines overlapping `B`, as they were just before `B`'s append:
    /// `(line offset, content)`.
    pre_append: Vec<(u64, [u8; LINE as usize])>,
    obj_a: u64,
    obj_b: u64,
    obj_c: u64,
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

fn read(arena: &PArena, off: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    arena.pread_bytes(off, &mut buf);
    buf
}

impl Fixture {
    fn new(kind: Kind) -> Fixture {
        let arena = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        superblock::format(&arena);
        let log = ExtLog::create(&arena, 1, PER_SLOT as usize).unwrap();
        let slot = arena.pread_u64(superblock::SB_EXTLOG_OFF);
        let obj_a = arena.carve(64, 64).unwrap();
        let obj_b = arena.carve(NODE_BYTES, 64).unwrap();
        let obj_c = arena.carve(64, 64).unwrap();
        let b_bytes = HEADER
            + match kind {
                Kind::Node => NODE_BYTES,
                Kind::Intent => INTENT_BYTES,
            } as u64;
        let b_lines = (slot + A_BYTES) / LINE..=(slot + A_BYTES + b_bytes - 1) / LINE;
        let mut pre_append = Vec::new();
        for epoch in [1u64, 2] {
            let seed = epoch as u8 * 10;
            arena.pwrite_bytes(obj_a, &pattern(seed, 64));
            arena.pwrite_bytes(obj_b, &pattern(seed + 1, NODE_BYTES));
            arena.pwrite_bytes(obj_c, &pattern(seed + 2, 64));
            log.log_object_in(0, 0, epoch, obj_a, 64);
            if epoch == 2 {
                for line in b_lines.clone() {
                    let content = read(&arena, line * LINE, LINE as usize);
                    pre_append.push((line * LINE, content.try_into().unwrap()));
                }
            }
            match kind {
                Kind::Node => log.log_object_in(0, 0, epoch, obj_b, NODE_BYTES),
                Kind::Intent => {
                    log.log_intent_in(0, 0, epoch, 40 + epoch, &pattern(seed + 3, INTENT_BYTES))
                }
            }
            log.log_object_in(0, 0, epoch, obj_c, 64);
            if epoch == 1 {
                log.reset(); // epoch 1 completed: its entries are debris
            }
        }
        arena.global_flush();
        Fixture {
            arena,
            kind,
            slot,
            b_bytes,
            pre_append,
            obj_a,
            obj_b,
            obj_c,
        }
    }

    /// Arena offset of `B`'s header.
    fn b(&self) -> u64 {
        self.slot + A_BYTES
    }

    /// Puts `bytes` on the medium at `off` (log surgery: written and
    /// flushed, so the crash below cannot take it back).
    fn poke(&self, off: u64, bytes: &[u8]) {
        self.arena.pwrite_bytes(off, bytes);
        self.arena.clwb_range(off, bytes.len());
        self.arena.sfence();
    }

    /// Dooms the three guarded objects (unflushed), crashes, reopens the
    /// log and replays `[min_epoch, max_epoch]`. Returns the report, the
    /// reopened log and what `B`'s and `C`'s objects held when replay
    /// began.
    fn crash_and_replay(
        &self,
        seed: u64,
        min_epoch: u64,
        max_epoch: u64,
    ) -> (incll_extlog::ReplayReport, ExtLog, Vec<u8>, Vec<u8>) {
        self.arena.pwrite_bytes(self.obj_a, &pattern(90, 64));
        self.arena
            .pwrite_bytes(self.obj_b, &pattern(91, NODE_BYTES));
        self.arena.pwrite_bytes(self.obj_c, &pattern(92, 64));
        self.arena.crash_seeded(seed);
        let b_before = read(&self.arena, self.obj_b, NODE_BYTES);
        let c_before = read(&self.arena, self.obj_c, 64);
        let log = ExtLog::open(&self.arena);
        let report = log.replay_domain(0, min_epoch, max_epoch);
        (report, log, b_before, c_before)
    }

    /// The contract under test: `A` applied, nothing of `B` or anything
    /// behind it, cursor repositioned at `B`.
    fn assert_stops_at_b(&self, case: &str, seed: u64, min_epoch: u64, max_epoch: u64) {
        let (r, log, b_before, c_before) = self.crash_and_replay(seed, min_epoch, max_epoch);
        let kind = self.kind;
        assert_eq!(r.applied, vec![(self.obj_a, 64)], "{kind:?} {case}");
        assert_eq!(r.entries_applied, 1, "{kind:?} {case}");
        assert!(
            r.intents.is_empty(),
            "{kind:?} {case}: torn intent surfaced"
        );
        assert_eq!(
            read(&self.arena, self.obj_a, 64),
            pattern(20, 64),
            "{kind:?} {case}: the valid prefix must be restored"
        );
        assert!(
            read(&self.arena, self.obj_b, NODE_BYTES) == b_before,
            "{kind:?} {case}: bytes of the torn entry were applied"
        );
        assert!(
            read(&self.arena, self.obj_c, 64) == c_before,
            "{kind:?} {case}: replay ran past the torn entry"
        );
        assert_eq!(r.scan_stopped_at, vec![A_BYTES], "{kind:?} {case}");
        assert_eq!(log.used_in(0, 0), A_BYTES, "{kind:?} {case}: cursor");
    }
}

#[test]
fn intact_entries_replay_in_full() {
    // The control: unharmed, all three entries verify and the scan ends
    // behind C (at epoch-1 debris, out of the failed range).
    for kind in [Kind::Node, Kind::Intent] {
        let f = Fixture::new(kind);
        let (r, log, _, _) = f.crash_and_replay(1, 2, 2);
        let padded = (f.b_bytes + 7) & !7;
        assert_eq!(log.used_in(0, 0), A_BYTES + padded + A_BYTES, "{kind:?}");
        assert_eq!(read(&f.arena, f.obj_a, 64), pattern(20, 64));
        assert_eq!(read(&f.arena, f.obj_c, 64), pattern(22, 64));
        match kind {
            Kind::Node => {
                assert_eq!(r.entries_applied, 3);
                assert_eq!(read(&f.arena, f.obj_b, NODE_BYTES), pattern(21, NODE_BYTES));
            }
            Kind::Intent => {
                assert_eq!(r.entries_applied, 2);
                assert_eq!(r.intents.len(), 1);
                assert_eq!(r.intents[0].batch_id, 42);
                assert_eq!(r.intents[0].payload, pattern(23, INTENT_BYTES));
            }
        }
    }
}

#[test]
fn any_line_left_at_its_pre_append_content_stops_replay_there() {
    for kind in [Kind::Node, Kind::Intent] {
        let f = Fixture::new(kind);
        for (i, (line, old)) in f.pre_append.iter().enumerate() {
            let sealed = read(&f.arena, *line, LINE as usize);
            f.poke(*line, old);
            f.assert_stops_at_b(&format!("line {i} not persisted"), i as u64, 2, 2);
            f.poke(*line, &sealed);
        }
        // Several lines at once, first and last included.
        let sealed: Vec<Vec<u8>> = f
            .pre_append
            .iter()
            .map(|(line, _)| read(&f.arena, *line, LINE as usize))
            .collect();
        for (line, old) in f.pre_append.iter().step_by(2) {
            f.poke(*line, old);
        }
        f.assert_stops_at_b("every other line not persisted", 99, 2, 2);
        for ((line, _), new) in f.pre_append.iter().zip(&sealed) {
            f.poke(*line, new);
        }
        // Healed, the entry verifies again: the harness tears, not the fixture.
        let (r, ..) = f.crash_and_replay(100, 2, 2);
        assert_eq!(r.entries_applied + r.intents.len() as u64, 3, "{kind:?}");
    }
}

#[test]
fn any_single_bit_flip_stops_replay_there() {
    // The replay range is everything, so a flipped epoch bit is not saved
    // by the range check, and domain 0 admits both of its own tags, so a
    // flipped intent bit — an undo entry turned intent, or back — is not
    // saved by the tag check: the checksum must reject every flip of the
    // payload and of each of the four header words that the tag check
    // lets through.
    for kind in [Kind::Node, Kind::Intent] {
        let f = Fixture::new(kind);
        for bit in 0..f.b_bytes * 8 {
            let at = f.b() + bit / 8;
            let byte = read(&f.arena, at, 1)[0];
            f.poke(at, &[byte ^ 1 << (bit % 8)]);
            f.assert_stops_at_b(&format!("bit {bit} flipped"), bit, 0, u64::MAX);
            f.poke(at, &[byte]);
        }
    }
}

#[test]
fn a_length_word_pointing_past_the_buffer_stops_replay_there() {
    for kind in [Kind::Node, Kind::Intent] {
        let f = Fixture::new(kind);
        let len_word = f.arena.pread_u64(f.b() + 16);
        let tag = len_word & !((1 << 48) - 1);
        // One byte too long for the buffer, the buffer's whole size, the
        // arena's, and the largest length the word can hold.
        let room = PER_SLOT - A_BYTES - HEADER;
        for len in [room + 1, PER_SLOT, 1 << 20, (1 << 48) - 1] {
            f.poke(f.b() + 16, &(tag | len).to_le_bytes());
            f.assert_stops_at_b(&format!("length {len}"), len, 0, u64::MAX);
        }
        // In range but wrong: the checksum's turn.
        f.poke(f.b() + 16, &(tag | room).to_le_bytes());
        f.assert_stops_at_b("length fills the buffer", 7, 0, u64::MAX);
    }
}
