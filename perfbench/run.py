#!/usr/bin/env python3
"""The repository benchmark: raw capture or frame bytes to an HHH answer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the `perfbench` package twice
(plain, and with `--features traced`) into `$CARGO_TARGET_DIR` (default
`.bench_build` in the checkout), runs one workload and prints a report. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
measured by the plain build. With `--trace 1` they are the per-layer metrics:
the plain build and the traced build each run for half of `--seconds`, and
the tracing overhead and the share of wall time inside the traced layer
calls are reported next to the layer numbers. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ddos-pcap", "scan-sweep", "drift-window")
# The held-out seed for confirming a claimed gain is in perfbench/README.md.
DEFAULT_SEED = 1
# Every run, builds included, must end within this many seconds.
DEADLINE_S = 170.0
# Unit of each metric the program reports under its own name.
E2E_UNITS = {
    "setup_s": "s",
    "e2e_mpps": "Mpkt/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mib": "MiB",
    "failed_ratio": "ratio",
    "coverage_error": "ratio",
    "accuracy_error": "ratio",
    "coverage_violations": "ratio",
}


def declared_metrics():
    """The end-to-end and per-layer metric lists of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def target_dir():
    """`$CARGO_TARGET_DIR` as cargo reads it, else `.bench_build` in the checkout."""
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else ROOT / ".bench_build"


def build(traced, deadline):
    """Builds one variant of the benchmark binary and returns its path."""
    tdir = target_dir() / "traced" if traced else target_dir()
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if traced:
        cmd += ["--features", "traced"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(tdir))
    subprocess.run(cmd, env=env, check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return tdir / "release" / "perfbench"


def run_binary(binary, args, seconds, deadline):
    """Runs one workload in one build; returns its JSON result."""
    work = target_dir() / "perfbench-work"
    # A killed run can leave its capture behind.
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--work-dir", str(work)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_label(threads):
    """Where the numbers came from: they compare only within one machine."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE,
                           text=True).stdout.strip()
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = git.stdout.strip() or commit
    digest = hashlib.sha256()
    sources = [p for p in (ROOT / "crates").rglob("*")
               if p.is_file() and (p.suffix == ".rs" or p.name == "Cargo.toml")]
    sources += [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for path in sorted(p for p in sources if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return (f"nproc {os.cpu_count()} | cpu {cpu} | kernel {platform.release()} | "
            f"{rustc} | commit {commit} | sources sha256 {digest.hexdigest()[:12]} | "
            f"threads used {threads}")


def print_e2e(result):
    mpps = sorted(result["pass_mpps"])
    print(f"  end-to-end, {result['passes']} passes of {result['packets_per_pass']:,} packets "
          f"({mpps[0]:.4g} to {mpps[-1]:.4g} Mpkt/s), {result['polls']} polls:")
    for name, value in result["e2e"].items():
        if name in E2E_UNITS:
            print(f"    {name:<20} {value:>14.6g} {E2E_UNITS[name]}")
    print(f"  answer: {result['answer_size']} prefixes; exact theta-HHH set: "
          f"{result['exact_size']} prefixes")


def end_to_end_metrics(result, declared):
    """Maps the program's numbers onto the declared end-to-end metrics.

    `failed_ratio` is 0 on a correct run, so the declared metric is its
    complement, which is never 0.
    """
    values = dict(result["e2e"])
    values["success_ratio"] = 1.0 - values["failed_ratio"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def per_layer_metrics(plain, traced, declared):
    """Per-layer metrics of the traced build; 0 where a layer has no work."""
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = plain["e2e"]["e2e_mpps"] / traced["e2e"]["e2e_mpps"] - 1.0
    values["trace.e2e_mpps_traced"] = traced["e2e"]["e2e_mpps"]
    values["trace.e2e_mpps_untraced"] = plain["e2e"]["e2e_mpps"]
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # Turn SIGTERM into an exit, so `subprocess.run` kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        end_to_end, per_layer = declared_metrics()
        plain_bin = build(False, deadline)
        traced_bin = build(True, deadline)
        if args.trace:
            plain = run_binary(plain_bin, args, args.seconds / 2, deadline)
            traced = run_binary(traced_bin, args, args.seconds / 2, deadline)
            results = [plain, traced]
        else:
            plain = run_binary(plain_bin, args, args.seconds, deadline)
            results = [plain]
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  machine: {machine_label(plain['threads'])}")
    print_e2e(plain)
    if args.trace:
        metrics = per_layer_metrics(plain, traced, per_layer)
        print(f"  traced build: {traced['e2e']['e2e_mpps']:.6g} Mpkt/s against "
              f"{plain['e2e']['e2e_mpps']:.6g} untraced "
              f"(overhead {metrics['trace.overhead_ratio']['value']:+.2%}); traced layer "
              f"calls cover {metrics['trace.layer_share']['value']:.2%} of wall time")
        for name, m in metrics.items():
            print(f"    {name:<42} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = end_to_end_metrics(plain, end_to_end)
    gate = [g for r in results for g in r["gate"]]
    print("  correctness gate: " + ("pass" if not gate else "FAIL: " + "; ".join(gate)))
    print(json.dumps({
        "correct": not gate,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
