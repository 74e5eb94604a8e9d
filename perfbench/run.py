#!/usr/bin/env python3
"""SymCeX end-to-end benchmark: model -> verdict -> certified trace -> bundle.

Run from the root of a SymCeX source tree:

    python3 perfbench/run.py --workload deep-trace --seed 1 --seconds 45 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt, a Release build of
src/ plus symcex-serve, symcex-verify and the driver) under .bench_build/,
runs one workload, re-verifies every distinct evidence bundle with
symcex-verify, and prints the metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from two traced runs, whose counts and bundle digests must
agree exactly.  The exit code is 0 only when every correctness check
passed.  NOTES.md in this directory explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("deep-trace", "serve-repeat")
CAUSES = ("wrong_verdict", "unknown", "cert_rejected", "exception", "daemon_lost")

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("verdict_ms.p50", "ms"),
    ("evidence_ms.p50", "ms"),
    ("hit_ms.p50", "ms"),
    ("miss_ms.p50", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]

PER_LAYER = [  # name, unit
    ("smv.compile_ms", "ms"),
    ("smv.state_bits", "count"),
    ("ts.reachable_ms", "ms"),
    ("bdd.apply_calls", "count"),
    ("bdd.cache_lookups", "count"),
    ("bdd.cache_hit_ratio", "ratio"),
    ("bdd.nodes_created", "count"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.gc_runs", "count"),
    ("core.check_ms", "ms"),
    ("core.preimage_calls", "count"),
    ("core.eu_iterations", "count"),
    ("core.eg_iterations", "count"),
    ("core.faireg_reuse_hits", "count"),
    ("core.explain_ms", "ms"),
    ("core.witness_ring_steps", "count"),
    ("core.witness_restarts", "count"),
    ("core.trace_states", "count"),
    ("core.witness_share", "ratio"),
    ("certify.path_ms", "ms"),
    ("certify.obligations", "count"),
    ("evidence.build_ms", "ms"),
    ("evidence.json_ms", "ms"),
    ("evidence.bundle_bytes", "bytes"),
    ("serve.hit_ratio", "ratio"),
    ("serve.misses", "count"),
    ("serve.evictions", "count"),
    ("serve.session_evictions", "count"),
    ("serve.poisoned", "count"),
    ("serve.overload_rejects", "count"),
]

DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The process environment minus every SYMCEX_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SYMCEX_")}


def build(root, build_dir, env):
    """Configure (once) and build the benchmark package; returns bin dir."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no SymCeX sources at {root / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = [cmake, "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, env)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked([cmake, "--build", str(build_dir), "-j", jobs], env)
    return build_dir


def run_checked(cmd, env):
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise RuntimeError(f"command failed: {' '.join(cmd)}")


def run_driver(bin_dir, root, work, args, trace, env):
    """One driver run in a fresh work directory; returns its result."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(bin_dir / "perfbench-driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0", "--root", str(root),
           "--work", ".", "--serve-bin", str(bin_dir / "symcex-serve")]
    proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise RuntimeError(f"driver exited with {proc.returncode}")
    with open(work / f"result-{args.workload}.json") as f:
        return json.load(f)


def verify_bundles(bin_dir, work, result):
    """symcex-verify every distinct bundle; returns the failing ones."""
    files = result["bundles"]
    failed = []
    for i in range(0, len(files), 200):
        batch = files[i:i + 200]
        proc = subprocess.run([str(bin_dir / "symcex-verify")] + batch,
                              cwd=work, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=DRIVER_TIMEOUT_S)
        if proc.returncode != 0:
            failed += [line for line in proc.stdout.splitlines() if "FAIL" in line]
            if not failed:
                failed.append(f"symcex-verify exited with {proc.returncode}")
    return failed


def percentile(values, q):
    """Nearest-rank percentile, with the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(result, problems):
    samples = result["samples"]
    values = result["values"]
    out = {"setup_s": statistics.median(samples["setup_s"])}
    for name in ("job_ms.p50", "job_ms.p90", "verdict_ms.p50",
                 "evidence_ms.p50", "hit_ms.p50", "miss_ms.p50"):
        series, q = name.rsplit(".p", 1)
        data = samples.get(series, [])
        if not data:
            problems.append(f"no samples for {name}")
            out[name] = 0.0
            continue
        value, beyond = percentile(data, int(q) / 100)
        if beyond < 10:
            problems.append(f"{name} has only {beyond} samples beyond it")
        out[name] = value
    out["jobs_per_s"] = values["jobs_per_s"]
    out["peak_rss_mb"] = values["peak_rss_mb"]
    out["ok_ratio"] = values["ok"] / max(1, result["attempted"])
    return out


def per_layer(result):
    layers = dict(result["layers"])
    total = layers.get("core.check_ms", 0) + layers.get("core.explain_ms", 0)
    layers["core.witness_share"] = (layers.get("core.explain_ms", 0) / total
                                    if total else 0.0)
    lookups = layers.get("bdd.cache_lookups", 0)
    layers["bdd.cache_hit_ratio"] = (layers.get("bdd.cache_hits", 0) / lookups
                                     if lookups else 0.0)
    return {name: layers.get(name, 0.0) for name, _ in PER_LAYER}


def counts_of(result):
    """The parts of a traced run that must repeat exactly."""
    counts = {name: v for name, v in per_layer(result).items()
              if not name.endswith("_ms") and name != "core.witness_share"}
    return counts, result["digests"]


def host_probe(bin_dir, env):
    """The driver's host-speed probe (a fixed kernel that uses no SymCeX
    code), median of 5, in ms."""
    proc = subprocess.run([str(bin_dir / "perfbench-driver"), "--host-probe", "5"],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S, check=True)
    return round(float(proc.stdout), 3)


def provenance(root, result, probes):
    """Commit, source digest, compiler, build type, core count, and the
    host probe before and after the run (host speed, not a metric)."""
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for sub in ("src", "tools", "perfbench"):
        for path in sorted((root / sub).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "compiler": result["compiler"], "build_type": result["build_type"],
            "nproc": os.cpu_count(), "host_probe_ms": probes}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    env = clean_env()
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    try:
        bin_dir = build(root, build_dir, env)
        # Everything after the build runs on one CPU: the in-process loop
        # is single-threaded, and serve-repeat's client, connection thread
        # and worker hand each request to one another.  Spread over CPUs,
        # each hand-off wakes an idle virtual CPU, which took ~80 us per
        # round trip on the reference VM and varied with the host's load
        # (NOTES.md, "Measured spread").
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        probes = [host_probe(bin_dir, env)]
        runs = [run_driver(bin_dir, root, build_dir / f"work-{args.workload}",
                           args, args.trace == 1, env)
                for _ in range(2 if args.trace else 1)]
        probes.append(host_probe(bin_dir, env))
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            subprocess.CalledProcessError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    result = runs[-1]
    work = build_dir / f"work-{args.workload}"

    problems = []
    failures = {c: sum(r["failures"][c] for r in runs) for c in CAUSES}
    for r in runs:
        problems += r["failure_notes"]
    bad_bundles = verify_bundles(bin_dir, work, result)
    failures["cert_rejected"] += len(bad_bundles)
    problems += bad_bundles

    if args.trace:
        metrics = per_layer(runs[0])
        first, second = counts_of(runs[0]), counts_of(runs[1])
        if first != second:
            problems.append(f"traced runs differ: {first} vs {second}")
        v = result["values"]
        overhead = v["traced_pass_ms"] / v["untraced_pass_ms"] - 1
        print(f"tracing overhead: {overhead:+.1%} "
              f"({v['traced_pass_ms']:.1f} ms traced vs "
              f"{v['untraced_pass_ms']:.1f} ms untraced, same work)")
        print("self time per span (ms): " + json.dumps(
            {k: round(x, 3) for k, x in result["self_ms"].items()}))
        print(f"determinism: digests {json.dumps(result['digests'])}, "
              f"counts {'identical' if first == second else 'DIFFER'} "
              "across two traced runs")
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(result, problems)
        units = dict(END_TO_END)

    print("provenance: " + json.dumps(provenance(root, result, probes)))
    print(f"census ({args.workload}): " + json.dumps(result["census"]))
    print("failures by cause: " + json.dumps(failures))
    for problem in problems[:20]:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")

    failed = sum(failures.values())
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
