#!/usr/bin/env python3
"""Repository benchmark: builds the dpmd library and the benchmark child from
source, runs one workload as several child processes and prints the result.

    python3 perfbench/run.py --workload water256-sim|lj-2rank --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Each child process is one attempted run; a
child that dies on a signal, exits non-zero or fails a correctness check is
a failed run and is named in the detail line.  Failed runs are never
retried or skipped.

Standard output ends with two JSON lines: a detail object (host and build
fingerprint, per-child outcomes, sample counts) and, last, the result object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CHILD = BUILD / "perfbench" / "perfbench_child"

# Child processes per run: each is set up from scratch (its set-up time is
# one setup_s sample) and times its share of the run.
CHILDREN = {"water256-sim": 2, "lj-2rank": 5}
# Extra children per run that only set up, so setup_s is a median over more
# samples than water's two timed children give.
SETUP_ONLY_CHILDREN = 3
CHILD_TIMEOUT_PAD_S = 60.0

END_TO_END_UNITS = {
    "ns_per_day": "ns/day",
    "step_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.pair_ms.refresh": "ms",
    "core.pair_ms.rebuild": "ms",
    "core.env_refresh_ms": "ms",
    "core.env_build_ms": "ms",
    "core.sweep_ms": "ms",
    "core.sweep_gflops": "GFLOP/s",
    "core.flops_per_step": "count",
    "core.atoms_evaluated_per_step": "count",
    "core.pack_build_s": "s",
    "md.neigh_build_ms": "ms",
    "md.rebuilds_per_1k": "count",
    "md.self_ms": "ms",
    "engine.self_ms": "ms",
    "comm.halo_ms": "ms",
    "comm.force_return_ms": "ms",
    "md.neigh_ms": "ms",
    "simmpi.messages_per_step": "count",
    "simmpi.bytes_per_step": "count",
    "comm.ghosts_per_rank": "count",
    "lj.pair_ms": "ms",
    "lb.pair_imbalance": "ratio",
    "trace.step_ms": "ms",
    "trace.step_ms_p99": "ms",
    "trace.ns_per_day": "ns/day",
}


def run_checked(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-4000:], file=sys.stderr)
        raise SystemExit(f"build step failed: {' '.join(map(str, cmd))}")


def build():
    """Builds the library with the repository's own CMake project, then the
    benchmark child against it.  Incremental after the first run."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("run from a repository checkout: CMakeLists.txt and "
                         "src/ are missing")
    jobs = str(min(4, os.cpu_count() or 1))
    repo_build = BUILD / "repo"
    if not (repo_build / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", ROOT, "-B", repo_build,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", repo_build, "--target", "dpmd",
                 "-j", jobs])
    bench_build = BUILD / "perfbench"
    if not (bench_build / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", ROOT / "perfbench", "-B", bench_build,
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DDPMD_LIB={repo_build / 'libdpmd.a'}"])
    run_checked(["cmake", "--build", bench_build, "-j", jobs])


def fingerprint():
    """Host and build fingerprint recorded with every result."""
    cpu, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, val = line.partition(":")
            key = key.strip()
            if key in ("model name", "Model name") and cpu == "unknown":
                cpu = val.strip()
            elif key in ("flags", "Features") and not flags:
                flags = set(val.split())
    except OSError:
        pass
    isa = sorted(flags & {"sse4_2", "avx", "avx2", "fma", "f16c", "avx512f",
                          "avx512bw", "avx512vl", "avx512_vnni",
                          "avx512_bf16", "amx_tile", "asimd", "sve", "sve2"})
    cache = {}
    cache_file = BUILD / "repo" / "CMakeCache.txt"
    if cache_file.is_file():
        for line in cache_file.read_text().splitlines():
            name, sep, val = line.partition("=")
            if sep and ":" in name:
                cache[name.split(":")[0]] = val
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL
                                  ).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    cxx_flags = "unknown"
    flags_make = BUILD / "repo" / "CMakeFiles" / "dpmd.dir" / "flags.make"
    if flags_make.is_file():
        for line in flags_make.read_text().splitlines():
            if line.startswith("CXX_FLAGS"):
                cxx_flags = line.partition("=")[2].strip()
    sha = None
    try:
        # Only when ROOT itself is the work tree, not a directory inside one.
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, text=True, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except OSError:
        pass
    # The checkout may not be a git repository: hash the sources as well.
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "cores": os.cpu_count(),
        "isa": isa,
        "machine": platform.machine(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "cxx_flags": cxx_flags,
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
    }


def run_child(workload, seed, budget_s, trace, mode_flag):
    """One attempted run.  mode_flag is None, "--smoke" or "--setup-only".
    Returns (report or None, failure reason or None, set-up seconds from
    spawn to the first timed step)."""
    cmd = [str(CHILD), "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget_s), "--trace", "1" if trace else "0"]
    if mode_flag:
        cmd.append(mode_flag)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget_s + CHILD_TIMEOUT_PAD_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timeout", None
    if proc.returncode < 0:
        return None, f"crash: {signal.Signals(-proc.returncode).name}", None
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        report = None
    if proc.returncode != 0 or report is None:
        failed = [c["name"] for c in (report or {}).get("checks", [])
                  if not c["ok"]]
        reason = (f"check failed: {', '.join(failed)}" if failed else
                  f"exit {proc.returncode}: {err.strip()[-300:]}")
        return report, reason, None
    return report, None, report["ready_mono"] - t_spawn


def nearest_rank(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[k - 1]


def median(vals):
    return statistics.median(vals) if vals else 0.0


def mean(vals):
    return statistics.fmean(vals) if vals else 0.0


def ns_per_day(report):
    """Simulated time over the wall time of one child's timed window."""
    return report["sim_fs"] * 1e-6 / report["window_s"] * 86400.0


def step_stats(r):
    """One child's step-time statistics; every child has >= 1000 samples, so
    >= 10 lie beyond its p99."""
    steps = sorted(r["step_ms"])
    p99 = nearest_rank(steps, 0.99)
    return {"ns_per_day": ns_per_day(r),
            "step_ms_p50": nearest_rank(steps, 0.5),
            "step_ms_p99": p99,
            "step_samples": len(steps),
            "beyond_p99": sum(1 for s in steps if s > p99)}


def end_to_end(reports, setups, detail):
    """Every child's window gives one value of each timing metric and the run
    reports the median over the children, so a burst of host interference
    that catches one child does not move the result.  setup_s is the median
    over the set-up-only children as well."""
    per_child = [step_stats(r) for r in reports]
    detail["per_child"] = per_child
    return {
        "ns_per_day": median([c["ns_per_day"] for c in per_child]),
        "step_ms_p50": median([c["step_ms_p50"] for c in per_child]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
    }


def per_layer(reports, detail):
    """Per-layer metrics.  A layer the workload does not execute did no work
    and reads 0 (see perfbench/README.md for which workload owns which)."""
    samples = {}
    for r in reports:
        for name, vals in r["layers"].items():
            samples.setdefault(name, []).extend(vals)
    counts = {}
    for r in reports:
        for name, val in r["counts"].items():
            counts.setdefault(name, []).append(val)
    total = lambda name: sum(counts.get(name, []))
    steps = sum(len(r["step_ms"]) for r in reports)
    per_step = lambda name: total(name) / steps if steps else 0.0

    m = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in ("core.pair_ms.refresh", "core.pair_ms.rebuild",
                 "core.env_refresh_ms", "core.env_build_ms", "core.sweep_ms",
                 "core.sweep_gflops", "core.pack_build_s",
                 "md.neigh_build_ms", "lj.pair_ms"):
        m[name] = median(samples.get(name, []))
    for name in ("md.self_ms", "engine.self_ms", "trace.step_ms"):
        m[name] = mean(samples.get(name, []))
    m["core.flops_per_step"] = median(counts.get("core.flops_per_step", []))
    m["core.atoms_evaluated_per_step"] = per_step("core.atoms_evaluated")
    m["md.rebuilds_per_1k"] = 1000.0 * per_step("md.rebuilds")
    m["comm.halo_ms"] = 1e3 * per_step("comm.halo_s")
    m["comm.force_return_ms"] = 1e3 * per_step("comm.force_return_s")
    m["md.neigh_ms"] = 1e3 * per_step("md.neigh_s")
    m["simmpi.messages_per_step"] = per_step("simmpi.messages")
    m["simmpi.bytes_per_step"] = per_step("simmpi.bytes")
    m["comm.ghosts_per_rank"] = mean(counts.get("comm.ghosts_per_rank", []))
    m["lb.pair_imbalance"] = median([
        pmax / pmean - 1.0 for pmax, pmean in zip(
            counts.get("lb.pair_max_s", []), counts.get("lb.pair_mean_s", []))
        if pmean > 0])
    per_child = [step_stats(r) for r in reports]
    detail["per_child"] = per_child
    m["trace.ns_per_day"] = median([c["ns_per_day"] for c in per_child])
    m["trace.step_ms_p99"] = median([c["step_ms_p99"] for c in per_child])
    detail["layer_samples"] = {name: len(v) for name, v in samples.items()}
    detail["layer_samples"]["steps"] = steps
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CHILDREN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up-only child and one child of a few steps: "
                         "checks the pipeline only")
    args = ap.parse_args()
    if args.seed < 0:
        raise SystemExit("--seed must be non-negative")

    build()
    nchildren = 1 if args.smoke else CHILDREN[args.workload]
    nsetup = 1 if args.smoke else SETUP_ONLY_CHILDREN
    budget = max(args.seconds, 1.0) / nchildren
    reports, setups, outcomes = [], [], []
    modes = ["--setup-only"] * nsetup + \
        ["--smoke" if args.smoke else None] * nchildren
    for mode in modes:
        report, reason, setup_s = run_child(args.workload, args.seed, budget,
                                            args.trace == 1, mode)
        outcomes.append({"ok": reason is None, "reason": reason,
                         "setup_only": mode == "--setup-only",
                         "setup_s": setup_s,
                         "steps": len(report["step_ms"]) if report else 0,
                         "checks": report["checks"] if report else []})
        if reason is None:
            setups.append(setup_s)
            if mode != "--setup-only":
                reports.append(report)
    failed = sum(1 for o in outcomes if not o["ok"])
    # Same seed, same single-thread trajectory: every child must land on the
    # bitwise-same final PE.
    cross = {"name": "final_pe_bitwise_across_children", "ok": True}
    if args.workload == "water256-sim":
        cross["ok"] = len({r["final_pe_hex"] for r in reports}) <= 1
    correct = failed == 0 and bool(reports) and cross["ok"]

    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "children": outcomes,
              "cross_checks": [cross], "fingerprint": fingerprint()}
    if not reports:
        metrics = {}
    elif args.trace:
        metrics = {name: {"value": v, "unit": PER_LAYER_UNITS[name]}
                   for name, v in per_layer(reports, detail).items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in end_to_end(reports, setups, detail).items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
