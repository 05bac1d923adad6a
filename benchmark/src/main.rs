//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! benchmark run W [--seed N] [--seconds S] [--trace]        one run, every metric by name
//! benchmark all [--seed N] [--seconds S] [--repeat K]       every workload, timed then traced
//! benchmark compare A.json[,A2.json..] B.json[,B2.json..]   verdict per workload x metric
//! ```

mod compare;
mod embedded;
mod gen;
mod harness;
mod hist;
mod json;
mod layers;
mod net;
mod probes;
mod report;
mod restart;
mod spec;
mod sys;
mod trace;
mod verify;
mod window;

use std::process::{Command, ExitCode};

use json::Json;
use report::Outcome;

/// Workloads the harness runs (`run`, `all`, `compare`) that
/// `BENCHMARK.json` does not list: the driver's time limit fits four
/// workloads at a window long enough to be steady on a shared host.
const UNLISTED: [&str; 3] = ["scan_e", "net_open", restart::NAME];

/// Every workload: the listed ones, then [`UNLISTED`].
fn workloads() -> impl Iterator<Item = &'static str> {
    let listed = spec::spec().workloads.iter().map(String::as_str);
    listed.chain(UNLISTED)
}

/// Runs workload `name` once in this process.
fn run_workload(name: &str, seed: u64, seconds: u64, traced: bool) -> Option<Outcome> {
    if let Some(w) = embedded::workload(name) {
        return Some(if traced {
            w.run_traced(seed, seconds)
        } else {
            w.run_timed(seed, seconds)
        });
    }
    if let Some(w) = net::workload(name) {
        return Some(w.run(seed, seconds, traced));
    }
    (name == restart::NAME).then(|| restart::run(seed, seconds, traced))
}

/// Command-line flags: `--name value` pairs and bare `--name` switches.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} wants a whole number, got {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// Arguments that are neither flags nor flag values (`--trace` is the
    /// one switch of the subcommand forms).
    fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &self.0 {
            if skip {
                skip = false;
            } else if a.starts_with("--") {
                skip = a != "--trace";
            } else {
                out.push(a.as_str());
            }
        }
        out
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload W --seed N --seconds S --trace 0|1\n\
         \x20      benchmark run W [--seed N] [--seconds S] [--trace]\n\
         \x20      benchmark all [--seed N] [--seconds S] [--repeat K]\n\
         \x20      benchmark compare A.json[,A2.json..] B.json[,B2.json..]\n\
         workloads: {}",
        workloads().collect::<Vec<_>>().join(" ")
    );
    ExitCode::from(2)
}

fn real_main(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.number("--seed", 1)?;
    let seconds = flags.number("--seconds", spec::spec().run_seconds)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    // The driver's form: flags only, the result line last on stdout.
    if let Some(name) = flags.value("--workload") {
        let traced = flags.number("--trace", 0)? != 0;
        let out = run_workload(name, seed, seconds, traced)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        eprint!("{}", out.table());
        println!("{}", out.contract_line());
        return Ok(ExitCode::from(out.exit_code()));
    }
    match flags.positional().as_slice() {
        ["run", name] => {
            let out = run_workload(name, seed, seconds, flags.has("--trace"))
                .ok_or_else(|| format!("unknown workload {name:?}"))?;
            eprint!("{}", out.table());
            // The full record, for `all` (and for people with jq).
            println!("{}", out.record().render());
            Ok(ExitCode::from(out.exit_code()))
        }
        ["all"] => all(seed, seconds, flags.number("--repeat", 1)?),
        ["compare", a, b] => compare::run(a, b),
        _ => Ok(usage()),
    }
}

/// Every workload, timed then traced, each in a process of its own (so
/// `peak_rss_mb` is the workload's), `repeat` times over. Prints every
/// metric, writes `benchmark/results/<run>.json`, fails if any run did.
fn all(seed: u64, seconds: u64, repeat: u64) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut failed = false;
    for _ in 0..repeat {
        for name in workloads() {
            for traced in [false, true] {
                let mut cmd = Command::new(&exe);
                cmd.args(["run", name, "--seed", &seed.to_string()]);
                cmd.args(["--seconds", &seconds.to_string()]);
                if traced {
                    cmd.arg("--trace");
                }
                let child = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
                eprint!("{}", String::from_utf8_lossy(&child.stderr));
                let stdout = String::from_utf8_lossy(&child.stdout);
                let record = stdout.lines().last().map(Json::parse);
                match record {
                    Some(Ok(r)) => runs.push(r),
                    _ => {
                        eprintln!("{name}: no result (exit {})", child.status);
                        failed = true;
                    }
                }
                failed |= !child.status.success();
            }
        }
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let dir = std::path::Path::new("benchmark/results");
    let path = dir.join(format!("run-{stamp}-seed{seed}.json"));
    let file = Json::obj([
        ("environment", sys::environment(seed, seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, file.render() + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("results: {}", path.display());
    println!("{}", path.display());
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let flags = Flags(std::env::args().skip(1).collect());
    real_main(&flags).unwrap_or_else(|msg| {
        eprintln!("benchmark: {msg}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_workload_is_implemented() {
        for w in super::workloads() {
            assert!(
                crate::embedded::workload(w).is_some()
                    || crate::net::workload(w).is_some()
                    || w == crate::restart::NAME,
                "{w}"
            );
        }
    }
}
