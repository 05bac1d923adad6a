//! The arena's backing mapping, through the public API: 2 MiB-aligned,
//! kernel-zeroed to the last word, refused typed when the host cannot
//! back it, really unmapped on drop, where the host grants them really on
//! huge pages — and resident only where the store has written, its
//! external log included.

use std::sync::Mutex;

use incll::{Options, Store};
use incll_pmem::{superblock, Error, PArena};

const MIB: usize = 1 << 20;
const HUGE_PAGE: usize = 2 * MIB;

/// The tests below read process-wide numbers from `/proc/self`; one at a
/// time, so a neighbour's 64 MiB arena is never in another's reading.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn arena(capacity: usize) -> PArena {
    PArena::builder().capacity_bytes(capacity).build().unwrap()
}

/// `field`'s value in KiB from a `/proc/self/{status,smaps_rollup}`-style
/// file; `None` where the file or the field does not exist.
fn proc_kib(file: &str, field: &str) -> Option<usize> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[test]
fn base_is_huge_page_aligned() {
    let _g = serial();
    for capacity in [MIB, 5 * MIB + 4096, 64 * MIB] {
        let a = arena(capacity);
        // SAFETY: offset 0 is in bounds; the pointer is only inspected.
        let base = unsafe { a.ptr_at(0) } as usize;
        assert_eq!(base % HUGE_PAGE, 0, "{capacity}-byte arena at {base:#x}");
    }
}

#[test]
fn fresh_arena_reads_zero_to_its_last_word() {
    let _g = serial();
    // Not a multiple of 2 MiB: the last word sits in a partial huge page.
    let a = arena(5 * MIB + 4096);
    let cap = a.capacity() as u64;
    assert_eq!(cap, (5 * MIB + 4096) as u64);
    assert_eq!(a.pread_u64(0), 0);
    for off in (0..cap).step_by(HUGE_PAGE) {
        assert_eq!(a.pread_u64(off), 0, "word at {off:#x}");
    }
    assert_eq!(a.pread_u64(cap - 8), 0);
    a.pwrite_u64(cap - 8, 7);
    assert_eq!(a.pread_u64(cap - 8), 7);
    a.prefetch(cap - 64, 64); // the last line is in range
}

#[test]
fn absurd_capacity_fails_typed() {
    let _g = serial();
    for capacity in [1usize << 46, usize::MAX - 4096, usize::MAX] {
        let err = PArena::builder()
            .capacity_bytes(capacity)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            Error::HostAllocationFailed {
                requested: capacity
            }
        );
    }
}

#[test]
fn drop_unmaps() {
    let _g = serial();
    let Some(before) = proc_kib("/proc/self/status", "VmSize") else {
        println!("skipped: no VmSize in /proc/self/status on this host");
        return;
    };
    let cap = 64 * MIB;
    for i in 0..2000u64 {
        let a = arena(cap);
        a.pwrite_u64(superblock::CARVE_START, i);
        a.pwrite_u64(cap as u64 - 8, i);
    }
    let after = proc_kib("/proc/self/status", "VmSize").unwrap();
    // A leak would read 2 000 arenas. The slack is for the harness: each
    // test thread it starts meanwhile (they queue on `serial`) has glibc
    // reserve a 64 MiB heap of address space, this thread's own included.
    assert!(
        after <= before + 8 * cap / 1024,
        "VmSize grew {before} -> {after} KiB over 2000 build/drop cycles"
    );
}

#[test]
fn a_large_log_region_is_resident_only_where_it_is_written() {
    let _g = serial();
    let Some(before) = proc_kib("/proc/self/status", "VmRSS") else {
        println!("skipped: no VmRSS in /proc/self/status on this host");
        return;
    };
    // 8 slots x 16 MiB: 128 MiB of log capacity, 32 buffers of 4 MiB.
    let a = arena(192 * MIB);
    let options = Options::new()
        .threads(8)
        .shards(4)
        .log_bytes_per_thread(16 * MIB);
    let (store, _) = Store::open(&a, options).unwrap();
    let sess = store.session().unwrap();
    for i in 0..1000u64 {
        store.put(&sess, &i.to_be_bytes(), &[7; 64]).unwrap();
    }
    let after = proc_kib("/proc/self/status", "VmRSS").unwrap();
    assert!(
        after < before + 32 * 1024,
        "VmRSS grew {before} -> {after} KiB for 1 000 puts on 128 MiB of log capacity"
    );
}

#[test]
fn touched_arena_sits_on_huge_pages_where_the_host_grants_them() {
    let _g = serial();
    let a = arena(64 * MIB);
    let mode =
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").unwrap_or_default();
    let granted = mode.contains("[always]") || mode.contains("[madvise]");
    if !a.huge_pages_advised() || !granted {
        println!(
            "skipped: huge pages advised = {}, host THP mode = {:?}",
            a.huge_pages_advised(),
            mode.trim()
        );
        return;
    }
    a.populate(0, a.capacity());
    let Some(huge_kib) = proc_kib("/proc/self/smaps_rollup", "AnonHugePages") else {
        println!("skipped: no AnonHugePages in /proc/self/smaps_rollup");
        return;
    };
    assert!(
        huge_kib >= 32 * 1024,
        "64 MiB touched under MADV_HUGEPAGE, only {huge_kib} KiB on huge pages"
    );
}
