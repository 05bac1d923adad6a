//! One function per paper figure / in-text table (§6).
//!
//! Each returns a [`Table`] (and prints it) so the `figures` binary, the
//! Criterion benches and EXPERIMENTS.md all share one source of truth.

use std::time::{Duration, Instant};

use incll_ycsb::{load, run, Dist, Mix, RunConfig};

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

    /// Tiny parameters for `cargo bench` smoke runs.
    pub fn quick() -> Self {
        ExpParams {
            keys: 20_000,
            ops_per_thread: 10_000,
            threads: 2,
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

    /// Renders as a JSON object (`{"title", "header", "rows"}`) for the
    /// `figures` binary's `BENCH_results.json`. Hand-rolled: the workspace
    /// builds without crates.io, so there is no serde.
    pub fn to_json(&self) -> String {
        let arr = |cells: &[String]| {
            let inner: Vec<String> = cells.iter().map(|c| json_string(c)).collect();
            format!("[{}]", inner.join(","))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        format!(
            "{{\"title\":{},\"header\":{},\"rows\":[{}]}}",
            json_string(&self.title),
            arr(&self.header),
            rows.join(",")
        )
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    load(&inc.tree, p.keys, p.threads);

    for mix in Mix::ALL {
        for dist in Dist::ALL {
            let rc = p.run_config(mix, dist);
            let a = run(&mt.tree, &rc).mops();
            let b = run(&mtp.tree, &rc).mops();
            let c = run(&inc.tree, &rc).mops();
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
    load(&inc.tree, p.keys, p.threads);

    let mut base = [0.0f64; 2];
    for &ns in LATENCY_SWEEP_NS {
        inc.arena.latency().set_sfence_ns(ns);
        let u = run(&inc.tree, &p.run_config(Mix::A, Dist::Uniform)).mops();
        let z = run(&inc.tree, &p.run_config(Mix::A, Dist::Zipfian)).mops();
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
    load(&inc.tree, p.keys, max_threads.min(4));

    for &n in thread_counts {
        for dist in Dist::ALL {
            let mut rc = p.run_config(Mix::A, dist);
            rc.threads = n;
            let b = run(&mtp.tree, &rc).mops();
            let c = run(&inc.tree, &rc).mops();
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
        load(&inc.tree, keys, p.threads);
        for dist in Dist::ALL {
            let rc = sub.run_config(Mix::A, dist);
            let b = run(&mtp.tree, &rc).mops();
            let c = run(&inc.tree, &rc).mops();
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
                load(&sys.tree, keys, p.threads);
                let before = sys.arena.stats().snapshot();
                run(&sys.tree, &sub.run_config(Mix::A, dist));
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
    load(&logsys.tree, p.keys, p.threads);
    let inc = build_incll(&p.sys_config());
    load(&inc.tree, p.keys, p.threads);

    let mut base = std::collections::HashMap::new();
    for &ns in LATENCY_SWEEP_NS {
        logsys.arena.latency().set_sfence_ns(ns);
        inc.arena.latency().set_sfence_ns(ns);
        for dist in Dist::ALL {
            let rc = p.run_config(Mix::A, dist);
            let l = run(&logsys.tree, &rc).mops();
            let i = run(&inc.tree, &rc).mops();
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
    load(&inc.tree, p.keys, p.threads);

    // Background mutators keep caches dirty while we checkpoint.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut durations = Vec::new();
    std::thread::scope(|s| {
        for tid in 0..p.threads {
            let tree = inc.tree.clone();
            let stop = &stop;
            let keys = p.keys;
            s.spawn(move || {
                let ctx = tree.thread_ctx(tid).expect("tid within thread slots");
                let mut i = tid as u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    tree.put(&ctx, &incll_ycsb::storage_key(i % keys), i);
                    i += 1;
                }
            });
        }
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(64));
            let t0 = Instant::now();
            inc.tree.epoch_manager().advance();
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
// §6.3 — recovery time
// =====================================================================

/// §6.3: worst-case recovery — crash right before the epoch boundary on a
/// write-heavy 1 M-key tree. Paper: ~84 K logged nodes replayed in ~15 ms.
pub fn recovery_time(p: &ExpParams) -> Table {
    let mut t = Table::new(
        "§6.3: recovery after a crash at the end of a write-heavy epoch",
        &["metric", "value"],
    );
    let mut cfg = p.sys_config();
    cfg.epoch_interval = None; // one long doomed epoch, worst case
    let inc = build_incll(&cfg);
    load(&inc.tree, p.keys, p.threads);
    inc.tree.epoch_manager().advance(); // checkpoint the loaded tree

    let before = inc.arena.stats().snapshot();
    run(&inc.tree, &p.run_config(Mix::A, Dist::Uniform));
    let logged = inc.arena.stats().snapshot().delta(&before).ext_nodes_logged;

    // "Crash": drop the running system without advancing, then recover
    // through the same unified entry point production code uses.
    let arena = inc.arena.clone();
    drop(inc);
    let (store2, report) = incll::Store::open(&arena, incll::Options::new()).unwrap();
    assert!(!report.created, "reopen must recover, not re-create");

    // Lazy phase: first touch of every key (amortised in real use). Use
    // the mid-level u64 scan so the timing measures node repair, not the
    // facade's per-value byte copies.
    let sess = store2.session().unwrap();
    let t0 = Instant::now();
    let mut n = 0u64;
    store2
        .masstree()
        .scan(sess.ctx(), b"", usize::MAX, &mut |_, _| n += 1);
    let lazy = t0.elapsed();

    t.push(vec!["keys".into(), p.keys.to_string()]);
    t.push(vec![
        "nodes logged in doomed epoch".into(),
        logged.to_string(),
    ]);
    t.push(vec![
        "entries replayed".into(),
        report.replayed_entries.to_string(),
    ]);
    t.push(vec![
        "bytes replayed".into(),
        report.replayed_bytes.to_string(),
    ]);
    t.push(vec![
        "eager replay time".into(),
        format!("{:?} (paper: ~15ms for 84K nodes)", report.replay_time),
    ]);
    t.push(vec![
        "full lazy sweep (whole-tree scan)".into(),
        format!("{lazy:?} over {n} keys"),
    ]);
    t.print();
    t
}

// =====================================================================
// Recovery latency — parallel per-shard replay vs sequential
// =====================================================================

/// Shard counts the recovery-latency experiment sweeps.
pub const RECOVERY_SHARDS: &[usize] = &[1, 4, 8];
/// Recovery worker counts the experiment sweeps (clamped per shard count).
pub const RECOVERY_WORKERS: &[usize] = &[1, 2, 4];

/// Emulated NVM streaming-read cost of replay for the recovery-latency
/// experiment: ~1 GiB/s per recovery stream (conservative PMem read
/// bandwidth), i.e. 1000 ns per KiB of log scanned.
pub const RECOVERY_NVM_READ_NS_PER_KB: u64 = 1000;

/// Recovery latency: restart time after a write-heavy doomed epoch, as a
/// function of shards × recovery workers.
///
/// Each cell builds a fresh store in the LOGGING configuration (InCLL
/// off, so every touched leaf external-logs once per epoch — the
/// worst-case replay volume the paper's §6.3 experiment targets), loads
/// the keyspace, checkpoints, then runs an update burst with **no**
/// checkpoint and drops the store mid-epoch. The reopen replays every
/// shard's log buffers; [`incll::Options::recovery_threads`] spreads the
/// shards over recovery workers. Replay work is per-shard-disjoint, so
/// parallel replay beats sequential on multi-shard restarts while
/// recovering byte-identical state (the crash-matrix suite asserts the
/// equivalence; this experiment records the wall-clock).
///
/// Replay runs under an emulated NVM streaming-read cost
/// ([`RECOVERY_NVM_READ_NS_PER_KB`], the Figs. 3/8 latency-model idea
/// applied to recovery): each buffer's scan charges device time
/// proportional to the bytes streamed, and concurrent workers overlap
/// their streams' device time — the memory-level parallelism a
/// partitioned log exposes. The host-CPU share of replay (checksums,
/// copies) additionally parallelises on hosts with cores ≥ workers.
pub fn recovery_latency(p: &ExpParams) -> Table {
    let mut t = Table::new(
        "Recovery latency: parallel per-shard replay vs sequential restart",
        &[
            "shards",
            "workers",
            "entries",
            "replay_ms",
            "vs 1 worker",
            "max_shard_ms",
        ],
    );
    let threads = p.threads.max(2);
    let keys = p.keys.clamp(1_000, 300_000);
    let ops = p.ops_per_thread.min(keys);

    for &shards in RECOVERY_SHARDS {
        let mut base_ms = 0.0f64;
        for &workers in RECOVERY_WORKERS {
            if workers > shards && workers != RECOVERY_WORKERS[0] {
                continue; // extra workers would idle: nothing to measure
            }
            let mut cfg = p.sys_config();
            cfg.threads = threads;
            cfg.shards = shards;
            cfg.incll = false; // LOGGING ablation: maximal replay volume
            cfg.epoch_interval = None; // one long doomed epoch
            cfg.keys = keys;
            let sys = build_incll(&cfg);
            let store = sys.store.clone();
            load(&store, keys, threads);
            store.checkpoint();

            // The doomed epoch: every thread updates a uniform slice of
            // the keyspace; in LOGGING mode each touched leaf seals one
            // external pre-image into its shard's (thread, domain) buffer.
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let store = store.clone();
                    s.spawn(move || {
                        let sess = store.session().expect("driver session");
                        let mut i = tid as u64;
                        let mut done = 0u64;
                        while done < ops {
                            store.put_u64(&sess, &incll_ycsb::storage_key(i % keys), i);
                            i += threads as u64;
                            done += 1;
                        }
                    });
                }
            });

            // "Crash": drop the running system without a checkpoint, then
            // recover through the production entry point with the worker
            // count under test, charging emulated NVM device time for the
            // log streaming.
            let arena = sys.arena.clone();
            drop(sys);
            drop(store);
            arena
                .latency()
                .set_replay_read_ns_per_kb(RECOVERY_NVM_READ_NS_PER_KB);
            let (store2, report) = incll::Store::open(
                &arena,
                incll::Options::new()
                    .threads(threads)
                    .incll(false)
                    .shards(shards)
                    .recovery_threads(workers),
            )
            .expect("reopen recovers");
            assert!(!report.created, "reopen must recover, not re-create");
            assert_eq!(report.parallel_workers, workers.min(shards));
            drop(store2);

            // The report's replay_time IS the eager restart phase.
            let ms = report.replay_time.as_secs_f64() * 1e3;
            if workers == 1 {
                base_ms = ms;
            }
            let max_shard_ms = report
                .per_shard
                .iter()
                .map(|s| s.replay_time.as_secs_f64() * 1e3)
                .fold(0.0f64, f64::max);
            t.push(vec![
                shards.to_string(),
                report.parallel_workers.to_string(),
                report.replayed_entries.to_string(),
                f2(ms),
                pct(base_ms, ms),
                f2(max_shard_ms),
            ]);
        }
    }
    t.print();
    t
}

// =====================================================================
// Shard scaling — N trees under one epoch vs the single-tree baseline
// =====================================================================

/// The shard counts the scaling experiment sweeps.
pub const SHARD_SWEEP: &[usize] = &[1, 2, 4, 8];

/// Shard scaling: the same multi-thread workloads against 1/2/4/8
/// keyspace shards. The contended column interleaves monotonically
/// increasing keys across all threads — on one shard every insert lands
/// on the same right-edge leaf; hash routing spreads that hot edge over
/// the shards, so throughput should grow with the shard count. The
/// YCSB-A column shows the (near-contention-free) uniform mix for
/// contrast, and the scan column proves the k-way merge still visits
/// every key in global order.
pub fn shard_scaling(p: &ExpParams) -> Table {
    use incll_ycsb::KvBench;

    let mut t = Table::new(
        "Shard scaling: throughput vs shard count (same thread count)",
        &[
            "shards",
            "seq_put_mops",
            "vs 1 shard",
            "ycsb_a_mops",
            "scan_keys",
        ],
    );
    let threads = p.threads.max(2);
    let total_puts = p.ops_per_thread * threads as u64;
    let mut base = 0.0f64;
    for &shards in SHARD_SWEEP {
        let mut cfg = p.sys_config();
        cfg.threads = threads;
        cfg.shards = shards;
        // The experiment inserts `total_puts` sequential keys *and* (for
        // the YCSB phase) `total_puts` preloaded storage keys — size the
        // arena from that, not from `p.keys`, or a large --ops exhausts it.
        cfg.keys = (2 * total_puts).max(p.keys);
        let sys = build_incll(&cfg);
        let store = &sys.store;
        assert_eq!(store.bench_shards(), shards);

        // Contended phase: interleaved ascending keys from every thread.
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..threads {
                let store = store.clone();
                s.spawn(move || {
                    let sess = store.session().expect("one slot per driver thread");
                    let mut i = tid as u64;
                    while i < total_puts {
                        store.put_u64(&sess, &i.to_be_bytes(), i);
                        i += threads as u64;
                    }
                });
            }
        });
        let put_mops = total_puts as f64 / t0.elapsed().as_secs_f64() / 1e6;
        if shards == 1 {
            base = put_mops;
        }

        // Merged-scan proof: every sequentially-inserted key, globally
        // ordered (before the YCSB phase adds its own key encoding).
        let scanned;
        {
            let sess = store.session().expect("scan session");
            let mut last: Option<Vec<u8>> = None;
            let mut ordered = true;
            scanned = store.scan(&sess, b"", usize::MAX, &mut |k, _| {
                if let Some(prev) = &last {
                    ordered &= prev.as_slice() < k;
                }
                last = Some(k.to_vec());
            });
            assert_eq!(scanned as u64, total_puts, "merge must visit every key");
            assert!(ordered, "merge must yield global key order");
        }

        // Uniform YCSB-A for contrast, on a properly preloaded keyspace
        // (the driver addresses scrambled `storage_key`s, not the
        // sequential keys above).
        load(store, total_puts, threads);
        let mut rc = p.run_config(Mix::A, Dist::Uniform);
        rc.threads = threads;
        rc.nkeys = total_puts;
        let ycsb = run(store, &rc).mops();

        t.push(vec![
            shards.to_string(),
            f2(put_mops),
            pct(base, put_mops),
            f2(ycsb),
            scanned.to_string(),
        ]);
    }
    t.print();
    t
}

// =====================================================================
// Epoch domains — per-shard checkpoint cadence vs the global barrier
// =====================================================================

/// Shards used by the epoch-domains experiment.
const DOMAIN_SHARDS: usize = 4;

/// Epoch domains: contended inserts into hot shards while a cold-shard
/// scan runs concurrently, under two checkpoint regimes on the **same**
/// 4-shard store:
///
/// * `global` — one cadence advances every domain at each tick (the PR-3
///   barrier: every advance quiesces all sessions, including the scanner,
///   and pays the whole store's flush);
/// * `per_shard` — each domain is advanced on its own cadence only when
///   dirty (the dirty-work heuristic): hot-shard advances never stall the
///   cold-shard scanner, and the clean cold shard is never advanced at
///   all.
///
/// Reports insert and scan throughput, advances taken, and an
/// advance-stall histogram (p50/p99/max of the advance's quiesce + flush
/// + hook time).
pub fn epoch_domains(p: &ExpParams) -> Table {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let mut t = Table::new(
        "Epoch domains: per-shard cadence vs global barrier (contended inserts + cold-shard scan)",
        &[
            "mode",
            "put_mops",
            "scan_mops",
            "advances",
            "stall_p50_us",
            "stall_p99_us",
            "stall_max_us",
        ],
    );
    let threads = p.threads.max(2);
    let run_for = Duration::from_millis(600);
    let tick = Duration::from_millis(8);

    // The inserters cycle over a bounded key span (fresh inserts on the
    // first pass, contended updates after), so memory stays steady via
    // epoch-based buffer recycling however fast the host is.
    let span = 200_000u64;

    for mode in ["global", "per_shard"] {
        let mut cfg = p.sys_config();
        cfg.threads = threads + 1; // +1 session slot for the scanner
        cfg.shards = DOMAIN_SHARDS;
        cfg.epoch_interval = None; // the experiment drives (and times) advances
        cfg.keys = (2 * span).max(p.keys); // arena sizing
        let sys = build_incll(&cfg);
        let store = &sys.store;

        // The cold shard: preloaded, scanned, never written during the
        // run. Keys are routed by hash, so pick per-key.
        let cold = DOMAIN_SHARDS - 1;
        {
            let sess = store.session().expect("preload session");
            let mut loaded = 0u64;
            let mut i = 0u64;
            while loaded < 20_000 {
                let key = i.to_be_bytes();
                if store.shard_of(&key) == cold {
                    store.put_u64(&sess, &key, i);
                    loaded += 1;
                }
                i += 1;
            }
        }
        store.checkpoint();

        let stop = AtomicBool::new(false);
        let puts = AtomicU64::new(0);
        let scanned = AtomicU64::new(0);
        let mut stalls_us: Vec<u64> = Vec::new();
        std::thread::scope(|s| {
            // Hot inserters: interleaved ascending keys, skipping the cold
            // shard — on each hot shard every insert lands on the same
            // right-edge leaf (the contended workload).
            for tid in 0..threads {
                let store = store.clone();
                let stop = &stop;
                let puts = &puts;
                s.spawn(move || {
                    let sess = store.session().expect("inserter session");
                    let mut n = 0u64;
                    let mut i = tid as u64;
                    while !stop.load(Ordering::Relaxed) {
                        let key = (i % span).to_be_bytes();
                        if store.shard_of(&key) != cold {
                            store.put_u64(&sess, &key, i);
                            n += 1;
                        }
                        i += threads as u64;
                    }
                    puts.fetch_add(n, Ordering::Relaxed);
                });
            }
            // Cold-shard scanner: repeated bounded scans over the cold
            // shard's own tree (pins only that shard's domain).
            {
                let store = store.clone();
                let stop = &stop;
                let scanned = &scanned;
                s.spawn(move || {
                    let sess = store.session().expect("scanner session");
                    let shard = store.masstree().shard(cold);
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        n += shard.scan(sess.ctx(), b"", 512, &mut |_, _| {}) as u64;
                    }
                    scanned.fetch_add(n, Ordering::Relaxed);
                });
            }
            // Advancer: the checkpoint regime under test, timed per
            // advance. Deadline-based ticking: both regimes target the
            // same checkpoint cadence, and a slow barrier eats into its
            // own next period instead of silently checkpointing less
            // often.
            let t0 = Instant::now();
            let mut next = t0 + tick;
            while t0.elapsed() < run_for {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep(next - now);
                }
                next += tick;
                if mode == "global" {
                    let a0 = Instant::now();
                    store.checkpoint();
                    stalls_us.push(a0.elapsed().as_micros() as u64);
                } else {
                    let mgr = store.epoch_manager();
                    for d in 0..DOMAIN_SHARDS {
                        if mgr.domain_dirty(d) {
                            let a0 = Instant::now();
                            store.checkpoint_shard(d);
                            stalls_us.push(a0.elapsed().as_micros() as u64);
                        }
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        let secs = run_for.as_secs_f64();
        stalls_us.sort_unstable();
        let pick = |q: usize| stalls_us[(stalls_us.len() - 1) * q / 100];
        t.push(vec![
            mode.into(),
            f2(puts.load(Ordering::Relaxed) as f64 / secs / 1e6),
            f2(scanned.load(Ordering::Relaxed) as f64 / secs / 1e6),
            stalls_us.len().to_string(),
            pick(50).to_string(),
            pick(99).to_string(),
            stalls_us.last().copied().unwrap_or(0).to_string(),
        ]);
    }
    t.print();
    t
}

// =====================================================================
// Read path — zero-copy gets and epoch-snapshot scans
// =====================================================================

/// Read path: the scan-vs-advance stall histogram before/after
/// epoch-snapshot scans.
///
/// Times `checkpoint_shard(0)` on a 1-shard store while a scanner loops
/// over the whole keyspace, under two scan disciplines:
///
/// * `pinned_scan` — the mid-level tree scan, which holds the shard's
///   epoch pin for the scan's **whole lifetime** (the pre-snapshot
///   behavior of the facade's scans): every advance waits out the
///   in-flight full scan;
/// * `snapshot_scan` — the facade's batched scan, which pins only per
///   batch refill: an advance waits at most one bounded refill.
///
/// The stall columns are the p50/p99/max of the advance's quiesce +
/// flush + hook time, the [`epoch_domains`] metric.
pub fn read_path(p: &ExpParams) -> Table {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let mut t = Table::new(
        "Read path: advance stall while a long scan runs (pinned vs snapshot scan)",
        &[
            "mode",
            "scanned_keys",
            "advances",
            "stall_p50_us",
            "stall_p99_us",
            "stall_max_us",
        ],
    );
    let keys = p.keys.clamp(2_000, 200_000);
    let run_for = Duration::from_millis(400);
    let tick = Duration::from_millis(8);
    for mode in ["pinned_scan", "snapshot_scan"] {
        let mut cfg = p.sys_config();
        cfg.threads = 3; // scanner + writer (+ headroom)
        cfg.shards = 1;
        cfg.epoch_interval = None; // the experiment drives (and times) advances
        cfg.keys = keys;
        // Both disciplines pay the emulated flush identically; zero it so
        // the stall columns isolate the quiesce wait — the part the scan
        // discipline actually changes.
        cfg.wbinvd_ns = 0;
        let sys = build_incll(&cfg);
        let store = &sys.store;
        load(store, keys, 2);
        store.checkpoint();

        let stop = AtomicBool::new(false);
        let scanned = AtomicU64::new(0);
        let mut stalls_us: Vec<u64> = Vec::new();
        std::thread::scope(|s| {
            // The long scanner: repeated whole-keyspace scans. The pinned
            // discipline is the mid-level tree scan (one pin across the
            // whole pass); the snapshot discipline is the facade scan
            // (one short pin per batch refill).
            {
                let store = store.clone();
                let stop = &stop;
                let scanned = &scanned;
                s.spawn(move || {
                    let sess = store.session().expect("scanner session");
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        n += if mode == "pinned_scan" {
                            store
                                .masstree()
                                .scan(sess.ctx(), b"", usize::MAX, &mut |_, _| {})
                                as u64
                        } else {
                            store.scan(&sess, b"", usize::MAX, &mut |_, _| {}) as u64
                        };
                    }
                    scanned.fetch_add(n, Ordering::Relaxed);
                });
            }
            // A low-duty writer keeps the domain dirty so every advance
            // has real flush + hook work, without competing for the CPU
            // (its own pin must not be what the advance waits on).
            {
                let store = store.clone();
                let stop = &stop;
                s.spawn(move || {
                    let sess = store.session().expect("writer session");
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..16 {
                            store.put_u64(&sess, &incll_ycsb::storage_key(i % keys), i);
                            i += 1;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                });
            }
            // Advancer: deadline-ticking scoped checkpoints, timed. With a
            // pinned scanner each advance waits out the in-flight full
            // scan; with snapshot scans it waits at most one batch.
            let t0 = Instant::now();
            let mut next = t0 + tick;
            while t0.elapsed() < run_for {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep(next - now);
                }
                next += tick;
                let a0 = Instant::now();
                store.checkpoint_shard(0);
                stalls_us.push(a0.elapsed().as_micros() as u64);
            }
            stop.store(true, Ordering::Relaxed);
        });
        stalls_us.sort_unstable();
        let pick = |q: usize| stalls_us[(stalls_us.len() - 1) * q / 100];
        t.push(vec![
            mode.into(),
            scanned.load(Ordering::Relaxed).to_string(),
            stalls_us.len().to_string(),
            pick(50).to_string(),
            pick(99).to_string(),
            stalls_us.last().copied().unwrap_or(0).to_string(),
        ]);
    }
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
    load(&sys.tree, p.keys, p.threads);
    let before = sys.arena.stats().snapshot();
    run(&sys.tree, &p.run_config(Mix::A, Dist::Uniform));
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
// Adaptive per-shard cadence
// =====================================================================

/// Shards the adaptive-cadence experiment runs on.
pub const CADENCE_SHARDS: usize = 4;
/// Static per-shard cadences (ms) the adaptive controller competes
/// against; its `[min, max]` clamp spans the same range.
pub const CADENCE_STATIC_MS: &[u64] = &[2, 10, 40];
/// Run→crash→recover cycles per cadence mode. Several cycles, each
/// crashing at an uncorrelated point of the checkpoint window, so no
/// mode gets lucky with a crash right after (or right before) a
/// boundary.
pub const CADENCE_SEGMENTS: usize = 16;

/// Adaptive vs static checkpoint cadences on a **skew-shifting**
/// workload: a migrating tenant sweeps one shard's whole bucket
/// uniformly (its undo footprint grows with the checkpoint window) and
/// rotates across the 4 shards, while small Zipfian resident sets keep
/// every shard mildly dirty.
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
/// rotating hotspot keeps moving); the adaptive controller re-tunes
/// each shard toward its own `target_dirty_bytes` equilibrium.
///
/// Runs the paper's external-LOGGING mode: with InCLL on, the in-line
/// logs absorb nearly all undo traffic (the paper's point) and cadence
/// barely moves the undo tail; the cadence trade-off is legible in the
/// mode whose undo bytes are explicit.
pub fn adaptive_cadence(p: &ExpParams) -> Table {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use incll_epoch::{AdaptiveCadence, Cadence};
    use incll_ycsb::{storage_key, ShiftingHotspot};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut t = Table::new(
        "Adaptive vs static per-shard cadence on a skew-shifting workload (score includes recovery after each of the 16 mid-flight failures)",
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
    let min = Duration::from_millis(CADENCE_STATIC_MS[0]);
    let max = Duration::from_millis(*CADENCE_STATIC_MS.last().unwrap());

    let mut modes: Vec<(String, Cadence)> = CADENCE_STATIC_MS
        .iter()
        .map(|&ms| {
            (
                format!("static_{ms}ms"),
                Cadence::lazy(Duration::from_millis(ms)),
            )
        })
        .collect();
    modes.push((
        "adaptive".into(),
        Cadence::adaptive(AdaptiveCadence {
            min,
            max,
            target_dirty_bytes: 224 << 10,
            hysteresis: 2,
        }),
    ));

    for (name, cadence) in modes {
        let mut cfg = p.sys_config();
        cfg.threads = threads;
        cfg.shards = CADENCE_SHARDS;
        cfg.keys = keys;
        cfg.epoch_interval = None;
        // Preload on a driverless store: no cadence ticks pollute the
        // counters (or make preload duration mode-dependent); the mode's
        // cadence arrives with the reopen below.
        cfg.cadence = None;
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
                // No driver is advancing epochs yet: bound the undo tail
                // (and the per-slot log cursors) by hand.
                if i % 20_000 == 19_999 {
                    store.checkpoint();
                }
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

            // Controller observations at this failure point (counters
            // reset with the store, so sample before tearing it down).
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

// =====================================================================
// Extent growth — chunked extents vs the static per-shard split
// =====================================================================

/// Shards the extent-growth experiment runs on.
pub const EXTENT_GROWTH_SHARDS: usize = 8;
/// Arena capacity for the extent-growth experiment (bytes).
pub const EXTENT_GROWTH_ARENA: usize = 64 << 20;
/// Value length: 3000 → the 4 KiB size class, so space consumption per
/// put is predictable.
pub const EXTENT_GROWTH_VAL: usize = 3000;

/// Extent growth: a skewed-hotspot fill on an 8-shard store, every
/// insert routed to **one** shard — the workload that makes a static
/// one-region-per-shard split return `OutOfMemory` once the hot shard's
/// 1/8th fills, with 7/8ths of the arena still free. Under the chunked
/// extent pool the hot shard claims free extents online and the fill
/// completes.
///
/// The proof is in the extent accounting, not timing: the hot shard
/// ends the fill owning **more extents than the static per-shard
/// quota** (`extents_total / shards`), i.e. it consumed space a static
/// split could never have handed it. A uniform-fill row shows the
/// other regime: balanced pressure claims extents evenly, so the
/// per-shard ownership spread stays tight.
pub fn extent_growth(p: &ExpParams) -> Table {
    let mut t = Table::new(
        "Extent growth: skewed fill on 8 shards under the chunked extent pool",
        &[
            "workload",
            "completed",
            "puts",
            "mb_written",
            "extents_total",
            "extent_kb",
            "hot_extents",
            "static_quota",
            "min_owned",
            "max_owned",
        ],
    );
    // Enough 4 KiB-class puts to push the hot shard well past the static
    // quota (64 MiB arena → ~62 extents → quota ~7 ≈ 8 MiB; the lower
    // clamp alone writes ~12 MiB), however small the CI overrides are.
    let puts = usize::try_from(p.ops_per_thread)
        .unwrap_or(usize::MAX)
        .clamp(3_000, 6_000);

    for skewed in [false, true] {
        let arena = incll_pmem::PArena::builder()
            .capacity_bytes(EXTENT_GROWTH_ARENA)
            .build()
            .expect("arena");
        let (store, r) = incll::Store::open(
            &arena,
            incll::Options::new()
                .threads(2)
                .shards(EXTENT_GROWTH_SHARDS),
        )
        .expect("create");
        assert!(r.created);
        let sess = store.session().expect("driver session");
        let hot = 0usize;
        let val = vec![0x6bu8; EXTENT_GROWTH_VAL];
        let mut done = 0usize;
        let mut completed = true;
        let mut i = 0u64;
        while done < puts {
            let key = format!("eg{i}").into_bytes();
            i += 1;
            if skewed && store.shard_of(&key) != hot {
                continue; // the hotspot: every put lands on shard `hot`
            }
            if store.put(&sess, &key, &val).is_err() {
                completed = false; // typed OutOfMemory: the pool is spent
                break;
            }
            done += 1;
            if done.is_multiple_of(512) {
                store.checkpoint(); // bound the undo-log tail
            }
        }
        let stats = store.extent_stats().expect("multi-shard store");
        let quota = stats.extent_count / EXTENT_GROWTH_SHARDS;
        t.push(vec![
            if skewed {
                "skewed_hot_shard"
            } else {
                "uniform"
            }
            .into(),
            if completed { "yes" } else { "no" }.into(),
            done.to_string(),
            format!(
                "{:.1}",
                (done * EXTENT_GROWTH_VAL) as f64 / (1 << 20) as f64
            ),
            stats.extent_count.to_string(),
            (stats.extent_bytes >> 10).to_string(),
            stats.owned_per_shard[hot].to_string(),
            quota.to_string(),
            stats
                .owned_per_shard
                .iter()
                .min()
                .copied()
                .unwrap_or(0)
                .to_string(),
            stats
                .owned_per_shard
                .iter()
                .max()
                .copied()
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    t.print();
    t
}
