//! Regenerates the figures and in-text tables of the paper's evaluation
//! (Fig. 2–8, §6.1's ablation, §6.2's flush cost), all through the
//! `Store` facade. Recovery, scans, sharding, checkpoint cadence, churn
//! and the network path are the repo benchmark's (`benchmark/`).
//!
//! ```text
//! cargo run --release -p incll-bench --bin figures -- <experiment> [options]
//! cargo run --release -p incll-bench --bin figures -- --plot [results/BENCH_results.json] [--out DIR]
//!
//! experiments:
//!   fig2 fig3 fig4 fig5 fig6 fig7 fig8 flushcost ablation all
//!
//! options:
//!   --paper            paper-scale parameters (20M keys, 8x1M ops)
//!   --scale F          multiply keys and ops by F (default 1.0)
//!   --keys N           key-space size override
//!   --ops N            ops per thread override
//!   --threads N        driver threads override
//!   --out DIR          also write tables to DIR (default: results)
//!
//! `--plot [FILE]` runs no experiments: it renders every table of a
//! recorded `BENCH_results.json` (default `results/BENCH_results.json`)
//! into standalone SVG bar charts under `<out>/plots/` — hand-rolled,
//! since the workspace builds without plotting dependencies.
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use incll_bench::experiments::{self, ExpParams, Table};
use incll_bench::json::{self, Json};

struct Args {
    experiment: String,
    params: ExpParams,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().unwrap_or_else(|| usage("missing experiment"));
    if experiment == "--plot" {
        let mut file = String::from("results/BENCH_results.json");
        let mut out = PathBuf::from("results");
        let mut rest = args.peekable();
        while let Some(a) = rest.next() {
            match a.as_str() {
                "--out" => {
                    out = PathBuf::from(rest.next().unwrap_or_else(|| usage("--out needs a value")))
                }
                other if !other.starts_with("--") => file = other.to_string(),
                other => usage(&format!("unknown --plot flag {other}")),
            }
        }
        run_plot(&file, &out);
    }
    let mut params = ExpParams::default_scale();
    let mut scale = 1.0f64;
    let mut out = PathBuf::from("results");
    while let Some(flag) = args.next() {
        let mut val = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--paper" => params = ExpParams::paper(),
            "--scale" => scale = val().parse().unwrap_or_else(|_| usage("bad --scale")),
            "--keys" => params.keys = val().parse().unwrap_or_else(|_| usage("bad --keys")),
            "--ops" => params.ops_per_thread = val().parse().unwrap_or_else(|_| usage("bad --ops")),
            "--threads" => {
                params.threads = val().parse().unwrap_or_else(|_| usage("bad --threads"))
            }
            "--out" => out = PathBuf::from(val()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    params = params.scaled(scale);
    Args {
        experiment,
        params,
        out,
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: figures <fig2|fig3|fig4|fig5|fig6|fig7|fig8|flushcost|ablation\
         |all> \
         [--paper] [--scale F] [--keys N] [--ops N] [--threads N] [--out DIR]\n\
         \x20      figures --plot [RESULTS.json] [--out DIR]"
    );
    std::process::exit(2);
}

/// `--plot [FILE] [--out DIR]`: render every recorded table as an SVG
/// bar chart under `DIR/plots/`, then exit.
fn run_plot(file: &str, out: &Path) -> ! {
    let text = fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("error: cannot read {file}: {e}");
        std::process::exit(2);
    });
    let doc = json::parse_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {file} is not valid BENCH_results.json: {e}");
        std::process::exit(2);
    });
    let plots = incll_bench::plot::plot_results(&doc).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if plots.is_empty() {
        eprintln!("error: {file} contains no plottable tables");
        std::process::exit(1);
    }
    let dir = out.join("plots");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    for (stem, svg) in &plots {
        let path = dir.join(format!("{stem}.svg"));
        if let Err(e) = fs::write(&path, svg) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("wrote {}", path.display());
    }
    std::process::exit(0);
}

fn size_sweep(p: &ExpParams) -> Vec<u64> {
    // The paper sweeps 10K..100M; cap the ladder at the configured size.
    let ladder = [
        10_000u64,
        30_000,
        100_000,
        300_000,
        1_000_000,
        3_000_000,
        10_000_000,
        100_000_000,
    ];
    ladder
        .into_iter()
        .filter(|&s| s <= p.keys.max(100_000))
        .collect()
}

fn thread_sweep(p: &ExpParams) -> Vec<usize> {
    let mut v = vec![1usize, 2, 4, 8, 16];
    v.retain(|&t| t <= p.threads.max(8) * 2);
    v
}

fn save(out: &Path, name: &str, tables: &[Table]) {
    let _ = fs::create_dir_all(out);
    let body: String = tables.iter().map(|t| t.render() + "\n").collect();
    let path = out.join(format!("{name}.txt"));
    if let Err(e) = fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("(saved to {})", path.display());
    }
}

/// Serialises every experiment's tables into `BENCH_results.json` so runs
/// are comparable across revisions (experiment name -> result tables,
/// whose rows carry throughput, op-mix and flush counters).
///
/// Experiments already recorded in the file but *not* re-run this
/// invocation are carried forward, so a targeted `figures <one-exp>` run
/// refreshes one entry instead of silently discarding the rest.
fn save_json(out: &Path, params: &ExpParams, results: &[(String, Vec<Table>)]) {
    let _ = fs::create_dir_all(out);
    let path = out.join("BENCH_results.json");
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut experiments = fs::read_to_string(&path)
        .ok()
        .and_then(|text| json::parse_json(&text).ok())
        .and_then(|doc| match doc {
            Json::Obj(mut m) => m.remove("experiments"),
            _ => None,
        })
        .and_then(|exps| match exps {
            Json::Obj(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    for (name, tables) in results {
        let tables = tables.iter().map(Table::to_json).collect();
        experiments.insert(name.clone(), Json::Arr(tables));
    }
    let num = |n: u64| Json::Num(n as f64);
    let doc = Json::obj([
        ("generated_unix", num(stamp)),
        (
            "params",
            Json::obj([
                ("keys", num(params.keys)),
                ("ops_per_thread", num(params.ops_per_thread)),
                ("threads", num(params.threads as u64)),
                ("seed", num(params.seed)),
            ]),
        ),
        ("experiments", Json::Obj(experiments)),
    ]);
    if let Err(e) = fs::write(&path, doc.render() + "\n") {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("(results recorded in {})", path.display());
    }
}

fn main() {
    let args = parse_args();
    let p = &args.params;
    println!(
        "== experiment {} | keys={} ops/thread={} threads={} ==\n",
        args.experiment, p.keys, p.ops_per_thread, p.threads
    );
    let run_one = |name: &str| -> (String, Vec<Table>) {
        let (file, tables) = match name {
            "fig2" => ("fig2", vec![experiments::fig2(p)]),
            "fig3" => ("fig3", vec![experiments::fig3(p)]),
            "fig4" => ("fig4", vec![experiments::fig4(p, &thread_sweep(p))]),
            "fig5" | "fig6" => {
                let (t5, t6) = experiments::figs5_6(p, &size_sweep(p));
                ("fig5_fig6", vec![t5, t6])
            }
            "fig7" => ("fig7", vec![experiments::fig7(p, &size_sweep(p))]),
            "fig8" => ("fig8", vec![experiments::fig8(p)]),
            "flushcost" => ("flushcost", vec![experiments::flush_cost(p)]),
            "ablation" => ("ablation", vec![experiments::ablation_internal(p)]),
            other => usage(&format!("unknown experiment {other}")),
        };
        save(&args.out, file, &tables);
        (file.to_string(), tables)
    };
    let mut results = Vec::new();
    if args.experiment == "all" {
        for name in [
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig7",
            "fig8",
            "flushcost",
            "ablation",
        ] {
            println!("---- {name} ----");
            results.push(run_one(name));
        }
    } else {
        results.push(run_one(&args.experiment));
    }
    save_json(&args.out, p, &results);
}
