#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the shadow-superpages simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig3-sweep --seed 1 --seconds 20 --trace 0

Builds the `perfbench` crate next to this file (release profile, into
$CARGO_TARGET_DIR, default `.bench_build`), then starts one child
process per workload run until `--seconds` have been spent, so each
run's peak memory is its own and an abort fails only that run's cells.

With `--trace 0` the last stdout line carries the end-to-end metrics:
the median over runs of wall, CPU and set-up seconds, simulated
throughput and peak resident memory. With `--trace 1` it alternates
untraced and traced runs and carries the per-layer metrics (medians
over traced runs) plus the host probe and the tracing overhead. Each
child first times a fixed memory-latency probe (src/host.rs) and
reports it with its results, because this host's speed drifts. Every line before the
last is for people: provenance, one summary line per run, and the
failure reasons. The same result, with provenance and every run's raw
numbers, is written as JSON under `perfbench/out/results/` (or
`--results-dir`), and a traced run's spans under `perfbench/out/spans/`.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Cells per run of each workload: an aborted run fails all of them.
CELLS = {"fig3-sweep": 12, "fig5-fig6": 10}
# A child that runs longer than this is killed and its cells fail.
CHILD_TIMEOUT_S = 150
# Per-layer metrics the harness adds to what the child reports.
SELF_LAYERS = ("bench", "runner", "trace", "workloads", "sim", "os")
OVERHEAD = "bench.tracing_overhead_frac"
PROBE = "bench.host_probe_s"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(env):
    """Builds the benchmark; returns the binary path or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    target = env.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    exe = os.path.join(ROOT, target, "release", "perfbench")
    return exe if os.path.exists(exe) else None


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else None
    except (OSError, IndexError):
        return None


def git_rev():
    """HEAD of the repository this checkout is, if it is one."""
    top = first_line(["git", "rev-parse", "--show-toplevel"])
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        return first_line(["git", "rev-parse", "HEAD"])
    return None


def source_digest():
    """SHA-256 over the simulator's and the benchmark's sources."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor",
                "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args):
    return {
        "git_rev": git_rev() or "none",
        "source_sha256": source_digest(),
        "rustc": first_line(["rustc", "-V"]) or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "scale": "paper",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_child(exe, args, traced, index):
    """One workload run in its own process; returns its record."""
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0"]
    if traced:
        spans_dir = os.path.join(OUT_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}-run{index}.jsonl")]
    t0 = time.monotonic()
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    try:
        stdout = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    rec = {
        "traced": traced,
        "exit": child.returncode,
        "process_wall_s": time.monotonic() - t0,
        "process_cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    try:
        child_out = json.loads(stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        child_out = None
    if child.returncode != 0 or child_out is None:
        rec.update(attempted=CELLS[args.workload], failed=CELLS[args.workload],
                   failures=[f"run aborted with exit status {child.returncode}"])
    else:
        rec.update(child_out)
    return rec


def measure(exe, args):
    """Runs children until the time is spent; at least one of each kind."""
    kinds = [False, True] if args.trace else [False]
    runs, start = [], time.monotonic()
    while True:
        traced = kinds[len(runs) % len(kinds)]
        runs.append(run_child(exe, args, traced, len(runs)))
        elapsed = time.monotonic() - start
        done_kinds = len(runs) >= len(kinds)
        next_s = statistics.median(r["process_wall_s"] for r in runs)
        if done_kinds and elapsed + next_s > args.seconds:
            return runs


def ok(run):
    return run["exit"] == 0 and "wall_s" in run


def median_of(runs, key):
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else 0.0


def end_to_end(runs):
    """The end-to-end metrics: medians over the untraced runs."""
    good = [r for r in runs if not r["traced"] and ok(r)]
    for r in good:
        r["sim_mops_per_s"] = r["sim_ops"] / r["wall_s"] / 1e6 if r["wall_s"] else 0.0
    return {k: median_of(good, k) for k in
            ("wall_s", "cpu_s", "sim_mops_per_s", "peak_rss_mb", "setup_s")}


def per_layer(runs, names):
    """The per-layer metrics: medians over the traced runs, plus the
    tracing overhead against the untraced runs of the same process.
    A layer that did no work on this workload reads 0. A name the child
    reports that `BENCHMARK.json` does not list is an error."""
    traced = [r for r in runs if r["traced"] and ok(r)]
    plain = [r for r in runs if not r["traced"] and ok(r)]
    rows = []
    for r in traced:
        row = dict(r["layers"])
        for layer, s in r["self_s"].items():
            row[f"self_s.{layer}"] = s
        rows.append(row)
    unknown = sorted({k for row in rows for k in row} - set(names))
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {unknown}")
    out = {n: statistics.median(row.get(n, 0.0) for row in rows) if rows else 0.0
           for n in names}
    out[PROBE] = median_of(traced, "host_probe_s")
    base = median_of(plain, "wall_s")
    out[OVERHEAD] = median_of(traced, "wall_s") / base - 1.0 if base else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results-dir", default=os.path.join(OUT_DIR, "results"))
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    exe = build(env)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    prov = provenance(args)
    runs = measure(exe, args)
    prov["runner_threads"] = next((r["threads"] for r in runs if "threads" in r), None)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        values = per_layer(runs, [n for n in units if n not in (OVERHEAD, PROBE)])
    else:
        values = end_to_end(runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for i, r in enumerate(runs):
        print(f"run {i} ({'traced' if r['traced'] else 'untraced'}): exit {r['exit']}, "
              f"{r['failed']}/{r['attempted']} cells failed, host wall_s {r.get('wall_s', 0):.4f}, "
              f"setup_s {r.get('setup_s', 0):.5f}, host_probe_s {r.get('host_probe_s', 0):.4f}, "
              f"peak_rss_mb {r['peak_rss_mb']:.1f}")
        for reason in r["failures"][:10]:
            print(f"  failure: {reason}")
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted} cells)")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    os.makedirs(args.results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(args.results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump({"provenance": prov, "runs": runs, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
