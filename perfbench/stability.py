#!/usr/bin/env python3
"""Stability evidence for the benchmark's bounds.

    python3 perfbench/stability.py [--runs 10] [--sets 2] [--workloads a,b]

Runs every workload (or the listed ones) in `--sets` sets of `--runs` runs,
each run with its own seed (set s uses seeds 1000*s+1 .. 1000*s+runs), all
with the run length BENCHMARK.json fixes. For each end-to-end metric it
prints, per set, the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median, then whether every spread is within the
metric's bound and whether each later set's median differs from the first
set's, in either direction, by no more than the bound. It also checks that the share of failed
operations is the same in every run. Raw results go to
.bench_build/stability/results.json, each run's output to
.bench_build/stability/<workload>-<seed>.log. Exit code 0 when everything agrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, log_dir):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"]
    start = time.time()
    with open(os.path.join(log_dir, f"{workload}-{seed}.log"), "w") as log:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                              text=True)
        log.write(proc.stdout)
    wall = time.time() - start
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def drift(first, later):
    """Relative change of `later` against `first`."""
    return (later - first) / first if first else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--workloads", default="")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    out_dir = os.path.join(ROOT, ".bench_build", "stability")
    os.makedirs(out_dir, exist_ok=True)
    results = {}
    ok = True
    for w in workloads:
        for s in range(args.sets):
            for i in range(args.runs):
                seed = 1000 * s + i + 1
                r = run_once(bench, w, seed, out_dir)
                results.setdefault(w, []).append({"set": s, "seed": seed, **r})
                print(f"{w} set {s} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"wall={r['wall_s']:.1f}s", file=sys.stderr)
                ok &= r["correct"]

    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump(results, f, indent=1)

    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            ok = False
        print(f"\n{w}: failed share {sorted(shares)}; "
              f"run wall {min(r['wall_s'] for r in runs):.1f}-"
              f"{max(r['wall_s'] for r in runs):.1f}s")
        print(f"  {'metric':16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            first_median = None
            for s in range(args.sets):
                vals = [r["metrics"][m["name"]]["value"] for r in runs if r["set"] == s]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                verdict = ["spread ok" if spread <= m["bound"] else "SPREAD TOO WIDE"]
                ok &= spread <= m["bound"]
                if spread > m["bound"] / 3:
                    verdict.append("(above a third of the bound)")
                if first_median is None:
                    first_median = med
                else:
                    d = drift(first_median, med)
                    good = abs(d) <= m["bound"]
                    ok &= good
                    verdict.append(f"median {d:+.1%} vs set 0: " + ("ok" if good else "DIFFERS"))
                print(f"  {m['name']:16} {s:>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>7.1%} {m['bound']:>6.2f}  {' '.join(verdict)}")
    print("\nall agree" if ok else "\nDISAGREEMENT (see above)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
