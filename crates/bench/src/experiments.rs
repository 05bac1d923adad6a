//! One function per paper figure / in-text table (§6).
//!
//! Each returns a [`Table`] (and prints it) for the `figures` binary to
//! save and record.

use std::time::{Duration, Instant};

use incll_ycsb::{load, run, Dist, Mix, RunConfig};

use crate::json::Json;
use crate::systems::{build_incll, build_mt, build_mtplus, SystemConfig};

/// Experiment sizing.
#[derive(Debug, Clone)]
pub struct ExpParams {
    /// Key-space size (paper: 20 M).
    pub keys: u64,
    /// Operations per driver thread (paper: 1 M).
    pub ops_per_thread: u64,
    /// Driver threads (paper: 8).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ExpParams {
    /// The paper's configuration (§6).
    pub fn paper() -> Self {
        ExpParams {
            keys: 20_000_000,
            ops_per_thread: 1_000_000,
            threads: 8,
            seed: 42,
        }
    }

    /// Default laptop-scale parameters.
    pub fn default_scale() -> Self {
        ExpParams {
            keys: 1_000_000,
            ops_per_thread: 100_000,
            threads: 4,
            seed: 42,
        }
    }

    /// Uniformly scales keys and ops by `f`.
    #[must_use]
    pub fn scaled(mut self, f: f64) -> Self {
        self.keys = ((self.keys as f64 * f) as u64).max(1_000);
        self.ops_per_thread = ((self.ops_per_thread as f64 * f) as u64).max(1_000);
        self
    }

    fn run_config(&self, mix: Mix, dist: Dist) -> RunConfig {
        RunConfig {
            threads: self.threads,
            ops_per_thread: self.ops_per_thread,
            nkeys: self.keys,
            mix,
            dist,
            seed: self.seed,
        }
    }

    fn sys_config(&self) -> SystemConfig {
        SystemConfig::new(self.keys, self.threads)
    }
}

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure/table identifier and description.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Row data.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn push(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = format!("# {}\n", self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8) + 2))
                .collect::<String>()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table as a JSON object (`{"title", "header", "rows"}`) for the
    /// `figures` binary's `BENCH_results.json`.
    pub fn to_json(&self) -> Json {
        let cells = |row: &[String]| Json::Arr(row.iter().cloned().map(Json::Str).collect());
        Json::obj([
            ("title", Json::Str(self.title.clone())),
            ("header", cells(&self.header)),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| cells(r)).collect()),
            ),
        ])
    }
}

fn f2(x: f64) -> String {
    format!("{x:.3}")
}
fn pct(base: f64, v: f64) -> String {
    format!("{:+.1}%", (v - base) / base * 100.0)
}

// =====================================================================
// Figure 2 — throughput of MT, MT+, INCLL across YCSB mixes
// =====================================================================

/// Figure 2: throughput of the three systems on YCSB A/B/C/E × uniform/
/// zipfian. Paper result: MT+ 2.4–68.5 % above MT; INCLL 5.9–15.4 % below
/// MT+.
pub fn fig2(p: &ExpParams) -> Table {
    let mut t = Table::new(
        "Figure 2: throughput (Mops/s) of MT, MT+, INCLL",
        &["workload", "dist", "MT", "MT+", "INCLL", "INCLL vs MT+"],
    );
    let cfg = p.sys_config();

    let mt = build_mt(&cfg);
    load(&mt.tree, p.keys, p.threads);
    let mtp = build_mtplus(&cfg);
    load(&mtp.tree, p.keys, p.threads);
    let inc = build_incll(&cfg);
    load(&inc.store, p.keys, p.threads);

    for mix in Mix::ALL {
        for dist in Dist::ALL {
            let rc = p.run_config(mix, dist);
            let a = run(&mt.tree, &rc).mops();
            let b = run(&mtp.tree, &rc).mops();
            let c = run(&inc.store, &rc).mops();
            t.push(vec![
                mix.label().into(),
                dist.label().into(),
                f2(a),
                f2(b),
                f2(c),
                pct(b, c),
            ]);
        }
    }
    t.print();
    t
}

// =====================================================================
// Figure 3 — INCLL vs emulated NVM latency
// =====================================================================

/// The latency points the paper sweeps (ns after `sfence`).
pub const LATENCY_SWEEP_NS: &[u64] = &[0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000];

/// Figure 3: INCLL throughput as emulated NVM (post-`sfence`) latency
/// grows, YCSB A. Paper: ≤ 4.3 % (uniform) / 6.0 % (zipfian) drop at 1 µs.
pub fn fig3(p: &ExpParams) -> Table {
    let mut t = Table::new(
        "Figure 3: INCLL throughput vs emulated sfence latency (YCSB_A)",
        &["latency_ns", "uniform", "vs 0ns", "zipfian", "vs 0ns"],
    );
    let cfg = p.sys_config();
    let inc = build_incll(&cfg);
    load(&inc.store, p.keys, p.threads);

    let mut base = [0.0f64; 2];
    for &ns in LATENCY_SWEEP_NS {
        inc.arena.latency().set_sfence_ns(ns);
        let u = run(&inc.store, &p.run_config(Mix::A, Dist::Uniform)).mops();
        let z = run(&inc.store, &p.run_config(Mix::A, Dist::Zipfian)).mops();
        if ns == 0 {
            base = [u, z];
        }
        t.push(vec![
            ns.to_string(),
            f2(u),
            pct(base[0], u),
            f2(z),
            pct(base[1], z),
        ]);
    }
    t.print();
    t
}

// =====================================================================
// Figure 4 — thread scaling
// =====================================================================

/// Figure 4: MT+ vs INCLL across thread counts, YCSB A. Paper: INCLL loss
/// roughly constant in the thread count (14.6–21.3 % uniform).
pub fn fig4(p: &ExpParams, thread_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "Figure 4: throughput vs threads (YCSB_A)",
        &["threads", "dist", "MT+", "INCLL", "INCLL vs MT+"],
    );
    let max_threads = thread_counts.iter().copied().max().unwrap_or(1);
    let mut cfg = p.sys_config();
    cfg.threads = max_threads;
    let mtp = build_mtplus(&cfg);
    load(&mtp.tree, p.keys, max_threads.min(4));
    let inc = build_incll(&cfg);
    load(&inc.store, p.keys, max_threads.min(4));

    for &n in thread_counts {
        for dist in Dist::ALL {
            let mut rc = p.run_config(Mix::A, dist);
            rc.threads = n;
            let b = run(&mtp.tree, &rc).mops();
            let c = run(&inc.store, &rc).mops();
            t.push(vec![
                n.to_string(),
                dist.label().into(),
                f2(b),
                f2(c),
                pct(b, c),
            ]);
        }
    }
    t.print();
    t
}

// =====================================================================
// Figures 5 + 6 — tree-size sweep and the overhead parabola
// =====================================================================

/// Figures 5 & 6: throughput and INCLL-overhead across tree sizes, YCSB A.
/// Paper: overhead forms a parabola peaking at 1–3 M keys (Fig. 6).
pub fn figs5_6(p: &ExpParams, sizes: &[u64]) -> (Table, Table) {
    let mut t5 = Table::new(
        "Figure 5: throughput vs tree size (YCSB_A)",
        &["keys", "dist", "MT+", "INCLL"],
    );
    let mut t6 = Table::new(
        "Figure 6: INCLL overhead over MT+ vs tree size (YCSB_A)",
        &["keys", "dist", "overhead"],
    );
    for &keys in sizes {
        let sub = ExpParams { keys, ..p.clone() };
        let cfg = sub.sys_config();
        let mtp = build_mtplus(&cfg);
        load(&mtp.tree, keys, p.threads);
        let inc = build_incll(&cfg);
        load(&inc.store, keys, p.threads);
        for dist in Dist::ALL {
            let rc = sub.run_config(Mix::A, dist);
            let b = run(&mtp.tree, &rc).mops();
            let c = run(&inc.store, &rc).mops();
            t5.push(vec![keys.to_string(), dist.label().into(), f2(b), f2(c)]);
            t6.push(vec![keys.to_string(), dist.label().into(), pct(b, c)]);
        }
    }
    t5.print();
    t6.print();
    (t5, t6)
}

// =====================================================================
// Figure 7 — externally logged nodes, LOGGING vs INCLL
// =====================================================================

/// Figure 7: number of externally logged nodes across tree sizes with
/// InCLL disabled (LOGGING) and enabled (INCLL), YCSB A. Paper: INCLL
/// collapses logging for large uniform trees; zipfian keeps logging.
pub fn fig7(p: &ExpParams, sizes: &[u64]) -> Table {
    let mut t = Table::new(
        "Figure 7: externally logged nodes (YCSB_A)",
        &["keys", "dist", "LOGGING", "INCLL", "reduction"],
    );
    for &keys in sizes {
        let sub = ExpParams { keys, ..p.clone() };
        for dist in Dist::ALL {
            let mut counts = [0u64; 2];
            for (i, incll) in [false, true].into_iter().enumerate() {
                let mut cfg = sub.sys_config();
                cfg.incll = incll;
                let sys = build_incll(&cfg);
                load(&sys.store, keys, p.threads);
                // Count from a boundary: nodes the load created in the
                // current epoch are born logged, and a run shorter than
                // one epoch would log nothing in either mode.
                sys.store.checkpoint();
                let before = sys.arena.stats().snapshot();
                run(&sys.store, &sub.run_config(Mix::A, dist));
                counts[i] = sys.arena.stats().snapshot().delta(&before).ext_nodes_logged;
            }
            let reduction = if counts[0] > 0 {
                format!("{:.1}x", counts[0] as f64 / counts[1].max(1) as f64)
            } else {
                "-".into()
            };
            t.push(vec![
                keys.to_string(),
                dist.label().into(),
                counts[0].to_string(),
                counts[1].to_string(),
                reduction,
            ]);
        }
    }
    t.print();
    t
}

// =====================================================================
// Figure 8 — LOGGING vs INCLL under NVM latency
// =====================================================================

/// Figure 8: throughput under emulated latency with InCLL on/off, YCSB A.
/// Paper: at 1 µs LOGGING drops 42.5 %/28.5 % while INCLL drops only
/// 4.1 %/5.7 % — the headline robustness result.
pub fn fig8(p: &ExpParams) -> Table {
    let mut t = Table::new(
        "Figure 8: throughput vs sfence latency, LOGGING vs INCLL (YCSB_A)",
        &["latency_ns", "dist", "LOGGING", "vs 0ns", "INCLL", "vs 0ns"],
    );
    let mut cfg_log = p.sys_config();
    cfg_log.incll = false;
    let logsys = build_incll(&cfg_log);
    load(&logsys.store, p.keys, p.threads);
    let inc = build_incll(&p.sys_config());
    load(&inc.store, p.keys, p.threads);

    let mut base = std::collections::HashMap::new();
    for &ns in LATENCY_SWEEP_NS {
        logsys.arena.latency().set_sfence_ns(ns);
        inc.arena.latency().set_sfence_ns(ns);
        for dist in Dist::ALL {
            let rc = p.run_config(Mix::A, dist);
            let l = run(&logsys.store, &rc).mops();
            let i = run(&inc.store, &rc).mops();
            let (bl, bi) = *base.entry(dist.label()).or_insert((l, i));
            t.push(vec![
                ns.to_string(),
                dist.label().into(),
                f2(l),
                pct(bl, l),
                f2(i),
                pct(bi, i),
            ]);
        }
    }
    t.print();
    t
}

// =====================================================================
// §6.2 — global flush cost
// =====================================================================

/// §6.2: cost of the whole-cache flush at each epoch boundary. Paper:
/// 1.38–1.39 ms per flush ⇒ 2.2 % of a 64 ms epoch.
pub fn flush_cost(p: &ExpParams) -> Table {
    let mut t = Table::new(
        "§6.2: epoch checkpoint (global flush) cost",
        &["metric", "value"],
    );
    let mut cfg = p.sys_config();
    cfg.epoch_interval = None; // advance manually, measured
    let inc = build_incll(&cfg);
    load(&inc.store, p.keys, p.threads);

    // Background mutators keep caches dirty while we checkpoint.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut durations = Vec::new();
    std::thread::scope(|s| {
        for tid in 0..p.threads {
            let store = inc.store.clone();
            let stop = &stop;
            let keys = p.keys;
            s.spawn(move || {
                let sess = store.session().expect("one slot per mutator");
                let mut i = tid as u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    store
                        .put_u64(&sess, &incll_ycsb::storage_key(i % keys), i)
                        .expect("arena sized for the keys");
                    i += 1;
                }
            });
        }
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(64));
            let t0 = Instant::now();
            inc.store.checkpoint();
            durations.push(t0.elapsed());
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    durations.sort();
    let avg: Duration = durations.iter().sum::<Duration>() / durations.len() as u32;
    let p95 = durations[durations.len() * 95 / 100];
    let frac = avg.as_secs_f64() / 0.064 * 100.0;
    t.push(vec![
        "advances measured".into(),
        durations.len().to_string(),
    ]);
    t.push(vec!["avg advance".into(), format!("{avg:?}")]);
    t.push(vec!["p95 advance".into(), format!("{p95:?}")]);
    t.push(vec![
        "fraction of a 64ms epoch".into(),
        format!("{frac:.2}% (paper: 2.2%)"),
    ]);
    t.print();
    t
}

// =====================================================================
// §6.1 — InCLL-for-interior-nodes ablation
// =====================================================================

/// §6.1: the paper tried InCLL on interior nodes and rejected it — leaf
/// logging dominates. This ablation quantifies that: how much of the
/// external log is interior nodes at all.
pub fn ablation_internal(p: &ExpParams) -> Table {
    let mut t = Table::new(
        "§6.1: interior-node share of external logging (YCSB_A uniform)",
        &["metric", "value"],
    );
    let sys = build_incll(&p.sys_config());
    load(&sys.store, p.keys, p.threads);
    let before = sys.arena.stats().snapshot();
    run(&sys.store, &p.run_config(Mix::A, Dist::Uniform));
    let d = sys.arena.stats().snapshot().delta(&before);
    let total = d.ext_nodes_logged.max(1);
    t.push(vec![
        "nodes ext-logged".into(),
        d.ext_nodes_logged.to_string(),
    ]);
    t.push(vec![
        "interior nodes ext-logged".into(),
        format!(
            "{} ({:.1}% of all logs)",
            d.ext_interior_logged,
            d.ext_interior_logged as f64 / total as f64 * 100.0
        ),
    ]);
    t.push(vec![
        "InCLLp logs (free)".into(),
        d.incll_perm_logs.to_string(),
    ]);
    t.push(vec![
        "ValInCLL logs (free)".into(),
        d.incll_val_logs.to_string(),
    ]);
    t.push(vec![
        "conclusion".into(),
        "interior logging is a tiny fraction; per-leaf InCLL is where the win is".into(),
    ]);
    t.print();
    t
}

// =====================================================================
// Per-shard checkpoint cadence: a time bound against a byte bound
// =====================================================================

/// Shards the cadence experiment runs on.
pub const CADENCE_SHARDS: usize = 4;
/// Static per-shard cadences (ms), each a row of its own.
pub const CADENCE_STATIC_MS: &[u64] = &[2, 10, 40];
/// The log-room row's byte budget per (slot, shard) buffer, under the
/// laziest static cadence.
pub const CADENCE_LOG_ROOM_BYTES: usize = 512 << 10;
/// Run→crash→recover cycles per cadence mode. Several cycles, each
/// crashing at an uncorrelated point of the checkpoint window, so no
/// mode gets lucky with a crash right after (or right before) a
/// boundary.
pub const CADENCE_SEGMENTS: usize = 16;

/// A checkpoint byte budget against static checkpoint intervals on a
/// **skew-shifting** workload: a migrating tenant sweeps one shard's whole
/// bucket uniformly (its undo footprint grows with the checkpoint window)
/// and rotates across the 4 shards, while small Zipfian resident sets
/// keep every shard mildly dirty.
///
/// Each mode runs [`CADENCE_SEGMENTS`] cycles of *run → fail → recover*:
/// writers run for a fixed slice, the store is torn down mid-flight, and
/// the reopen's undo replay back to each shard's last boundary is timed
/// under an emulated NVM streaming-read cost. The score is **effective
/// throughput over the whole horizon including recoveries** —
/// `ops / (run + recovery)` — the quantity a cadence actually trades:
/// checkpointing too often stalls writers on per-shard scoped flushes
/// and once-per-epoch relogging, too rarely leaves long undo tails to
/// replay. A static interval is wrong for some shard in every phase
/// (the per-shard optimum tracks the shard's write rate, which the
/// rotating hotspot keeps moving). The `log_room_40ms` row keeps the
/// laziest interval and sizes the log at [`CADENCE_LOG_ROOM_BYTES`] per
/// (slot, shard): the log-room rule then checkpoints a shard exactly when
/// its undo fills that budget, so a hot shard checkpoints by bytes and a
/// cold one by the clock. `crash_tail_kb` is the log a crash leaves per
/// segment, entry headers included.
///
/// Runs the paper's external-LOGGING mode: with InCLL on, the in-line
/// logs absorb nearly all undo traffic (the paper's point) and cadence
/// barely moves the undo tail; the cadence trade-off is legible in the
/// mode whose undo bytes are explicit.
pub fn cadence(p: &ExpParams) -> Table {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use incll_epoch::Cadence;
    use incll_ycsb::{storage_key, ShiftingHotspot};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut t = Table::new(
        "Log-room byte budget vs static per-shard cadence on a skew-shifting workload (score includes recovery after each of the 16 mid-flight failures)",
        &[
            "cadence",
            "put_mops",
            "advances",
            "skipped",
            "crash_tail_kb",
            "recovery_ms",
            "eff_mops",
        ],
    );
    // One writer: the cadence driver must actually *deliver* the tight
    // intervals under test, and on small CPU budgets a pack of writers
    // starves it into a blunt every-few-ms policy no matter what the
    // cadence asks for — which would measure the scheduler, not the
    // policy.
    let threads = 1;
    // Not a multiple of any swept interval: every static cadence crashes
    // mid-window, so the measured undo tail reflects the cadence rather
    // than a razor-edge race between the segment end and a boundary.
    let seg = Duration::from_millis(415);
    let keys = p.keys.clamp(4_000, 1_000_000);
    let laziest = *CADENCE_STATIC_MS.last().unwrap();

    // (row, cadence, log bytes per (slot, shard); `None` = the default).
    let mut modes: Vec<(String, Cadence, Option<usize>)> = CADENCE_STATIC_MS
        .iter()
        .map(|&ms| {
            (
                format!("static_{ms}ms"),
                Cadence::lazy(Duration::from_millis(ms)),
                None,
            )
        })
        .collect();
    modes.push((
        format!("log_room_{laziest}ms"),
        Cadence::lazy(Duration::from_millis(laziest)),
        Some(CADENCE_LOG_ROOM_BYTES),
    ));

    for (name, cadence, log_room) in modes {
        let mut cfg = p.sys_config();
        cfg.threads = threads;
        cfg.shards = CADENCE_SHARDS;
        cfg.keys = keys;
        if let Some(bytes) = log_room {
            cfg.log_bytes_per_thread = bytes * CADENCE_SHARDS;
        }
        // Preload on a driverless store: no cadence ticks pollute the
        // counters; the log-room rule alone ends its epochs. The mode's
        // cadence arrives with the reopen below.
        cfg.epoch_interval = None;
        cfg.incll = false;
        cfg.sfence_ns = 600;
        cfg.scoped_flush_ns = Some(1_000_000);
        cfg.replay_read_ns_per_kb = 600_000;
        let sys = build_incll(&cfg);
        let arena = sys.arena.clone();
        // The open used after each simulated failure: same shape the
        // store runs with (cadence included, so each segment's driver
        // comes back up with it).
        let reopen_options = || {
            incll::Options::new()
                .threads(cfg.threads)
                .log_bytes_per_thread(cfg.log_bytes_per_thread)
                .incll(cfg.incll)
                .shards(cfg.shards)
                .cadence(cadence)
        };
        let store = sys.store.clone();
        drop(sys); // keep exactly one owner; `store` is rebuilt per segment
        {
            let sess = store.session().expect("preload session");
            let val = [7u8; 64];
            for i in 0..keys {
                store.put(&sess, &storage_key(i), &val).expect("preload");
            }
        }
        store.checkpoint();
        drop(store);
        // Untimed cadenced reopen: segment 1 starts from a clean boundary
        // with zeroed counters and the mode's own driver.
        let (s0, _report) = incll::Store::open(&arena, reopen_options()).expect("cadenced open");
        let mut store = s0;

        // Per-thread generators survive the failures: the rotation and
        // the RNG streams continue across segments.
        let mut gens: Vec<(ShiftingHotspot, StdRng)> = (0..threads)
            .map(|tid| {
                (
                    ShiftingHotspot::new(
                        keys,
                        CADENCE_SHARDS,
                        |k| store.shard_of(k),
                        220_000,
                        0.7,
                        128,
                    ),
                    StdRng::seed_from_u64(p.seed ^ ((tid as u64) << 17)),
                )
            })
            .collect();

        let (mut total, mut run_secs, mut rec_secs) = (0u64, 0.0f64, 0.0f64);
        let (mut fired, mut skipped, mut tail_kb) = (0u64, 0u64, 0u64);
        for _ in 0..CADENCE_SEGMENTS {
            let stop = AtomicBool::new(false);
            let puts = AtomicU64::new(0);
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for (hotspot, rng) in gens.iter_mut() {
                    let store = store.clone();
                    let stop = &stop;
                    let puts = &puts;
                    s.spawn(move || {
                        let sess = store.session().expect("writer session");
                        let val = [9u8; 64];
                        let mut n = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let idx = hotspot.next_index(rng);
                            store
                                .put(&sess, &storage_key(idx), &val)
                                .expect("fits size class");
                            n += 1;
                        }
                        puts.fetch_add(n, Ordering::Relaxed);
                    });
                }
                std::thread::sleep(seg);
                // Freeze the cadence *before* quiescing the writers: this
                // teardown stands in for a power failure, and a backlogged
                // driver must not spend the sudden idle time on one last
                // catch-up advance that erases the very undo tail the
                // reopen below is supposed to replay.
                store.halt_cadence();
                stop.store(true, Ordering::Relaxed);
            });
            run_secs += t0.elapsed().as_secs_f64();
            total += puts.load(Ordering::Relaxed);

            // Counters at this failure point (they reset with the store,
            // so sample before tearing it down).
            for d in 0..CADENCE_SHARDS {
                let st = store.shard_stats(d);
                fired += st.advances_fired;
                skipped += st.advances_skipped;
                tail_kb += st.bytes_since_boundary >> 10;
            }
            drop(store); // the last owner: the cadence driver stops too

            // Fail + recover: the reopen replays each shard's undo tail
            // back to its last boundary — the exposure the cadence was
            // (or wasn't) bounding — and doubles as the next segment's
            // store.
            let t0 = Instant::now();
            let (s2, _report) = incll::Store::open(&arena, reopen_options()).expect("recovery");
            rec_secs += t0.elapsed().as_secs_f64();
            store = s2;
        }
        drop(store);

        t.push(vec![
            name,
            f2(total as f64 / run_secs / 1e6),
            fired.to_string(),
            skipped.to_string(),
            (tail_kb / CADENCE_SEGMENTS as u64).to_string(),
            ((rec_secs * 1e3) as u64).to_string(),
            f2(total as f64 / (run_secs + rec_secs) / 1e6),
        ]);
    }
    t.print();
    t
}
