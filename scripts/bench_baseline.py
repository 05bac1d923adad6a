#!/usr/bin/env python3
"""Exact-counter baseline of the repo benchmark: BENCH_baseline.json.

Runs the traced counted pass of each workload below at each seed, under
`taskset -c 0,1` so the benchmark drives one thread on any runner, and
compares every counter the file names with the run's value. The counters
repeat bit for bit per seed, so any difference fails. `space_amp` comes
from the same workload's timed run (it is measured after preload, which
the traced run does not report); that preload runs under the workload's
background cadence, which decides how far its external-log buffers grow,
so `space_amp` may move by a pool extent between runs and is held within
SPACE_AMP_TOLERANCE of the file instead.

    python3 scripts/bench_baseline.py check [--bin PATH]   # exit 1 on any difference
    python3 scripts/bench_baseline.py write [--bin PATH]   # rewrite the file

A change that moves a counter updates the file with `write` and says in
CHANGES.md which counter moved and why.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILE = os.path.join(ROOT, "BENCH_baseline.json")
WORKLOADS = ["ycsb_a", "ycsb_c", "churn"]
SEEDS = [1, 2]
SECONDS = 2
SPACE_AMP_TOLERANCE = 0.03
COUNTERS = [
    "pmem.sfence_per_kop",
    "pmem.clwb_per_kop",
    "pmem.global_flush_per_mop",
    "pmem.scoped_flush_per_mop",
    "palloc.allocs_per_kop",
    "palloc.frees_per_kop",
    "palloc.incll_logs_per_kop",
    "palloc.extents_claimed",
    "extlog.nodes_per_kop",
    "extlog.interior_per_kop",
    "extlog.bytes_per_kop",
    "extlog.replay_entries",
    "extlog.replay_bytes",
    "core.incll_perm_logs_per_kop",
    "core.incll_val_logs_per_kop",
    "epoch.checkpoints",
    "epoch.skipped",
    "core.recovery.lazy_nodes",
]


def run(binary, workload, seed, traced):
    cmd = ["taskset", "-c", "0,1", binary, "run", workload,
           "--seed", str(seed), "--seconds", str(SECONDS)]
    if traced:
        cmd.append("--trace")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])["metrics"]


def measure(binary):
    values = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            traced = run(binary, workload, seed, True)
            row = {k: traced[k]["value"] for k in COUNTERS}
            row["space_amp"] = run(binary, workload, seed, False)["space_amp"]["value"]
            values[f"{workload}/seed{seed}"] = row
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["check", "write"])
    ap.add_argument("--bin", default=None, help="a built benchmark binary "
                    "(default: cargo build --release of benchmark/Cargo.toml)")
    args = ap.parse_args()
    binary = args.bin
    if binary is None:
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                        "--manifest-path", os.path.join(ROOT, "benchmark/Cargo.toml")],
                       check=True)
        target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "benchmark/target"))
        binary = os.path.join(target, "release", "benchmark")
    got = measure(binary)
    if args.mode == "write":
        doc = {
            "about": "Exact counters of the repo benchmark's traced counted pass "
                     f"({SECONDS} s, one driver thread) and space_amp of its timed "
                     "run, per workload and seed. Checked by "
                     "scripts/bench_baseline.py (exactly; space_amp within "
                     f"{SPACE_AMP_TOLERANCE:.0%}); a change that moves one says "
                     "why in CHANGES.md.",
            "values": got,
        }
        with open(FILE, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote", FILE)
        return 0
    want = json.load(open(FILE))["values"]
    diffs = []
    for key in sorted(set(want) | set(got)):
        w, g = want.get(key, {}), got.get(key, {})
        for name in sorted(set(w) | set(g)):
            a, b = w.get(name), g.get(name)
            if name == "space_amp" and a and b is not None \
                    and abs(b - a) <= SPACE_AMP_TOLERANCE * a:
                continue
            if a != b:
                diffs.append(f"{key} {name}: file {a}, run {b}")
    for d in diffs:
        print(d)
    print(f"{len(diffs)} values differ from {os.path.basename(FILE)}"
          if diffs else f"every value matches {os.path.basename(FILE)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
