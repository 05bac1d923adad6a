//! Per-layer metrics every traced run derives the same way: counter
//! deltas per thousand operations, recovery reports, checkpoint spans,
//! the probes on the workload's own store, and the span file.

use incll::{Session, Store};
use incll_pmem::{LatencyModel, StatsSnapshot};

use crate::gen::Keyspace;
use crate::harness::{self, Restarted};
use crate::json::Json;
use crate::probes;
use crate::report::Outcome;
use crate::trace::{self, Span, Tracer};

/// The `count` metrics of `pmem`, `palloc`, `extlog` and `core`: counter
/// deltas `d` over `ops` operations that took `busy_ns`, of which writes
/// carried `user_bytes_written` of keys and values.
pub fn count_metrics(
    out: &mut Outcome,
    d: &StatsSnapshot,
    ops: u64,
    busy_ns: f64,
    lat: &LatencyModel,
    user_bytes_written: u64,
) {
    let kop = ops as f64 / 1e3;
    let per_kop = |n: u64| n as f64 / kop;
    out.set("pmem.sfence_per_kop", per_kop(d.sfence));
    out.set("pmem.clwb_per_kop", per_kop(d.clwb));
    out.set("pmem.global_flush_per_mop", per_kop(d.global_flush) * 1e3);
    out.set("pmem.scoped_flush_per_mop", per_kop(d.scoped_flush) * 1e3);
    out.set(
        "pmem.fence_wait_share",
        (d.sfence * lat.sfence_ns()) as f64 / busy_ns,
    );
    out.set(
        "pmem.flush_wait_share",
        (d.global_flush * lat.wbinvd_ns() + d.scoped_flush * lat.scoped_flush_ns()) as f64
            / busy_ns,
    );
    out.set("palloc.allocs_per_kop", per_kop(d.palloc_allocs));
    out.set("palloc.frees_per_kop", per_kop(d.palloc_frees));
    out.set("palloc.incll_logs_per_kop", per_kop(d.incll_alloc_logs));
    out.set("extlog.nodes_per_kop", per_kop(d.ext_nodes_logged));
    out.set("extlog.interior_per_kop", per_kop(d.ext_interior_logged));
    out.set("extlog.bytes_per_kop", per_kop(d.ext_bytes_logged));
    out.set(
        "extlog.bytes_per_user_byte",
        d.ext_bytes_logged as f64 / user_bytes_written.max(1) as f64,
    );
    out.set("core.incll_perm_logs_per_kop", per_kop(d.incll_perm_logs));
    out.set("core.incll_val_logs_per_kop", per_kop(d.incll_val_logs));
    out.extra("counters", counted_json(d));
}

/// The raw counter deltas, for the exact-repeat check.
fn counted_json(d: &StatsSnapshot) -> Json {
    Json::obj(
        [
            ("clwb", d.clwb),
            ("sfence", d.sfence),
            ("global_flush", d.global_flush),
            ("scoped_flush", d.scoped_flush),
            ("ext_nodes_logged", d.ext_nodes_logged),
            ("ext_interior_logged", d.ext_interior_logged),
            ("ext_bytes_logged", d.ext_bytes_logged),
            ("incll_perm_logs", d.incll_perm_logs),
            ("incll_val_logs", d.incll_val_logs),
            ("incll_alloc_logs", d.incll_alloc_logs),
            ("palloc_allocs", d.palloc_allocs),
            ("palloc_frees", d.palloc_frees),
            ("nodes_lazy_recovered", d.nodes_lazy_recovered),
            ("ext_entries_replayed", d.ext_entries_replayed),
        ]
        .map(|(k, v)| (k, Json::from(v))),
    )
}

/// `(checkpoints completed, driver ticks skipped)` over all shards.
pub fn shard_totals(store: &Store) -> (u64, u64) {
    (0..store.shard_count())
        .map(|i| store.shard_stats(i))
        .fold((0, 0), |a, s| {
            (a.0 + s.advances_fired, a.1 + s.advances_skipped)
        })
}

/// `epoch.checkpoint_us_p50` / `_max` from the `epoch.checkpoint` spans.
pub fn checkpoint_metrics(out: &mut Outcome, spans: &[Span]) {
    let ckpt = trace::durations_ns(spans, "epoch.checkpoint");
    let n = ckpt.len() as u64;
    let us = |d: Option<&f64>| d.map_or(0.0, |d| d / 1e3);
    out.set_n("epoch.checkpoint_us_p50", us(ckpt.get(ckpt.len() / 2)), n);
    out.set_n("epoch.checkpoint_us_max", us(ckpt.last()), n);
}

/// The probes that need the workload's own store: `epoch.pin_ns` and
/// `core.batch_commit_us`; then the layer and wire probes.
pub fn probe_metrics(
    out: &mut Outcome,
    sess: &Session,
    ks: &Keyspace,
    value_len: usize,
    wire_mix: &crate::gen::Mix,
    wire_value_len: usize,
) {
    out.set("epoch.pin_ns", probes::pin_ns(sess));
    out.set(
        "core.batch_commit_us",
        probes::batch_commit_us(sess, ks, value_len),
    );
    probes::layer_probes(out);
    probes::wire_probes(out, ks, wire_mix, wire_value_len);
}

/// `core.recovery.*` and `extlog.replay_*` from a [`harness::restart`],
/// with a `core.open` span per reopen under `parent` when tracing.
pub fn recovery_metrics(out: &mut Outcome, r: &Restarted, tracer: Option<(&mut Tracer, u32)>) {
    let rep = &r.report;
    out.set_n(
        "core.recovery.open_ms",
        r.restart_ms,
        harness::REOPENS as u64,
    );
    out.set(
        "core.recovery.replay_ms",
        rep.replay_time.as_secs_f64() * 1e3,
    );
    out.set(
        "core.recovery.max_shard_ms",
        rep.per_shard
            .iter()
            .map(|s| s.replay_time.as_secs_f64() * 1e3)
            .fold(0.0, f64::max),
    );
    out.set_n(
        "core.recovery.first_pass_ms",
        r.first_pass_ms,
        harness::PASS_CHUNKS as u64,
    );
    out.set("core.recovery.lazy_nodes", r.lazy_nodes as f64);
    out.set(
        "core.recovery.batches_redone",
        rep.per_shard.iter().map(|s| s.batches_redone).sum::<u64>() as f64,
    );
    out.set("extlog.replay_entries", rep.replayed_entries as f64);
    out.set("extlog.replay_bytes", rep.replayed_bytes as f64);
    if let Some((t, parent)) = tracer {
        for (i, (start, end)) in r.opens.iter().enumerate() {
            t.push(Span {
                name: "core.open",
                start_ns: t.at(*start),
                end_ns: t.at(*end),
                parent,
                op: i as u64,
                weight: 1.0,
            });
        }
    }
}

/// `trace.unattributed_pct` and the span file
/// `benchmark/results/trace-<workload>.json` (under the current
/// directory; a failure to write is reported, not fatal). `lanes` threads
/// or connections ran side by side under `root`.
pub fn finish_trace(out: &mut Outcome, tracer: &Tracer, root: u32, lanes: usize) {
    let (layers, wall_ns) = trace::accounting(tracer.spans(), root, lanes);
    out.set(
        "trace.unattributed_pct",
        (wall_ns - layers.values().sum::<f64>()) / wall_ns * 100.0,
    );
    let dir = std::path::Path::new("benchmark/results");
    let path = dir.join(format!("trace-{}.json", out.workload));
    let text = trace::to_json(out.workload, tracer.spans(), root, lanes).render();
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}
