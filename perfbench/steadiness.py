#!/usr/bin/env python3
"""A-versus-A steadiness report for the benchmark.

Collect two sets of runs of one build, then compare them:

    python3 perfbench/steadiness.py collect --out perfbench/out/steady/a
    python3 perfbench/steadiness.py collect --out perfbench/out/steady/b
    python3 perfbench/steadiness.py report perfbench/out/steady/a perfbench/out/steady/b

`collect` runs `run.py` once per seed (1..10) on every workload in
`BENCHMARK.json` with tracing off, and once more per workload with
tracing on. `report` prints, for every (end-to-end metric, workload),
each set's median and quartiles, the spread (quartile distance over
the median), and whether the two sets agree within the metric's bound
in `BENCHMARK.json`: the second median is not worse than the first by
more than the bound, and each set's spread stays within it. It also
prints the tracing overhead the traced runs measured. It exits 1 when
any pair disagrees or the sets come from different sources.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OVERHEAD = "bench.tracing_overhead_frac"
# Untraced runs per workload in one set, one seed each.
RUNS = 10


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    jobs = [(w, seed, 0) for w in workloads for seed in range(1, RUNS + 1)]
    jobs += [(w, 1, 1) for w in workloads]
    for w, seed, trace in jobs:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", w,
               "--seed", str(seed), "--seconds", seconds, "--trace", str(trace),
               "--results-dir", args.out]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        print(f"{w} seed {seed} trace {trace}: exit {out.returncode} {last[:160]}", flush=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return 1
    return 0


def load_set(directory):
    """{(workload, trace): [result file, ...]} of one set."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        key = (doc["provenance"]["workload"], doc["provenance"]["trace"])
        runs.setdefault(key, []).append(doc)
    return runs


def summary(values):
    """(median, q1, q3, spread); quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def compare(spec, set_a, set_b):
    """Report rows and whether every pair agrees."""
    rows, all_ok = [], True
    for m in spec["end_to_end"]:
        for w in [w["name"] for w in spec["workloads"]]:
            docs = [set_a.get((w, 0), []), set_b.get((w, 0), [])]
            if not all(docs):
                rows.append(f"{m['name']:16} {w:14} missing runs")
                all_ok = False
                continue
            stats = [summary([d["result"]["metrics"][m["name"]]["value"] for d in ds])
                     for ds in docs]
            (ma, _, _, sa), (mb, _, _, sb) = stats
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= m["bound"] and sa <= m["bound"] and sb <= m["bound"]
            all_ok &= ok
            cells = "  ".join(f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}] spread {s[3]:.3f}"
                              for s in stats)
            rows.append(f"{m['name']:16} {w:14} n={len(docs[0])}/{len(docs[1])}  {cells}  "
                        f"B vs A {worse:+.3f} bound {m['bound']}  {'agree' if ok else 'DISAGREE'}")
    for w in [w["name"] for w in spec["workloads"]]:
        for name, runs in (("A", set_a.get((w, 1), [])), ("B", set_b.get((w, 1), []))):
            vals = [d["result"]["metrics"][OVERHEAD]["value"] for d in runs]
            if vals:
                rows.append(f"tracing overhead {w:14} set {name}: median {statistics.median(vals):+.3f}"
                            f" over {len(vals)} traced run(s)")
    return rows, all_ok


def report(args, spec):
    set_a, set_b = load_set(args.a), load_set(args.b)
    sources = {d["provenance"]["source_sha256"]
               for s in (set_a, set_b) for docs in s.values() for d in docs}
    rows, ok = compare(spec, set_a, set_b)
    print(f"sources: {sorted(sources)}")
    print("\n".join(rows))
    if len(sources) > 1:
        print("the two sets come from different sources: not an A-vs-A comparison")
        ok = False
    print("verdict:", "steady" if ok else "NOT steady")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    r = sub.add_parser("report")
    r.add_argument("a")
    r.add_argument("b")
    args = ap.parse_args(argv)
    spec = load_spec()
    return collect(args, spec) if args.cmd == "collect" else report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
