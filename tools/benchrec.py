"""A/B runs of the unmodified benchmark, in fresh processes, with a
calibration of the machine they ran on.

    python3 tools/benchrec.py --ab A B --workload run-desk --pairs 10 \\
        [--seconds 30] [--seed 7] [--label X]

A and B are git revisions (a commit, a tag, a tree id). Each is exported
with ``git archive`` into a temporary directory: the two checkouts sit at
paths of equal length and start with no byte-compiled files. Each pair
runs ``bench/run.py`` once per side, in a fresh interpreter, alternating
which side goes first. Every run's
result line is kept verbatim, with the load average before and after it
and the CPU seconds of the child and its set-up probes
(``RUSAGE_CHILDREN``).

Printed per metric: each side's median and quartiles, the pairs B wins
out of those where both sides read the metric (ties count for neither)
and the relative change of the medians, (B - A) / A. "gain" marks a
metric where B wins at least nine tenths of the pairs and its median is
better than A's by more than A's interquartile range. ``--label X``
also writes ``BENCH_X.json`` at the root of this repository: every run,
the summary and a calibration (single-thread float64 GEMM GFLOP/s, how
much faster two such loops on two threads run than one, and µs per small
product call).

The script times and writes only its own processes and files, removes
its directories when it ends and leaves no process running.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GEMM_SIDE = 512
# (rows, inner, cols) of the small product: one desk stage-1 window
# projection, the size of most of a run's products
SMALL_PRODUCT = (64, 32, 32)
# seconds of GEMM per loop, and rounds of one loop then two
CALIBRATION_S = 0.25
CALIBRATION_ROUNDS = 5


def export(rev: str, dest: Path) -> str:
    """Extract revision rev of this repository into dest; returns the id
    git resolved it to."""
    resolved = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{tree}"],
        capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar",
                           resolved], stdout=subprocess.PIPE) as git:
        with tarfile.open(fileobj=git.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if git.returncode:
        raise RuntimeError(f"git archive {rev} failed")
    return resolved


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One fresh-process run of the checkout's bench/run.py."""
    load_before = os.getloadavg()
    used = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
        timeout=10 * seconds + 600)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = res.stdout.strip().splitlines()
    run = {
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "cpu_s": round(after.ru_utime + after.ru_stime
                       - used.ru_utime - used.ru_stime, 3),
        "wall_s": round(wall, 3),
        "returncode": res.returncode,
        "result": lines[-1] if res.returncode == 0 and lines else None,
    }
    if run["result"] is None:
        run["stderr"] = res.stderr[-2000:]
    evidence = [json.loads(line)["evidence"] for line in lines
                if line.startswith('{"evidence"')]
    if evidence:
        run["environment"] = evidence[-1].get("environment")
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def metric_values(run: dict) -> dict[str, float]:
    """{metric: value} of a run's result line, {} for a failed run."""
    if run.get("result") is None:
        return {}
    line = json.loads(run["result"])
    return {name: m["value"] for name, m in line["metrics"].items()}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, B's wins over the pairs where
    both sides read it, the relative change of the medians (B - A) / A
    where A's median is not 0, and whether B's gain meets the claim rule.

    pairs holds {"a": run, "b": run}; better maps a metric to "lower" or
    "higher" (a metric it lacks gets no wins and no gain)."""
    values = [(metric_values(p["a"]), metric_values(p["b"])) for p in pairs]
    names = sorted({n for a, b in values for n in a} |
                   {n for a, b in values for n in b})
    out = {}
    for name in names:
        sides = {side: [v[i][name] for v in values if name in v[i]]
                 for i, side in enumerate("ab")}
        entry = {side: dict(zip(("q1", "median", "q3"), quartiles(xs)))
                 for side, xs in sides.items() if xs}
        both = [(a[name], b[name]) for a, b in values
                if name in a and name in b]
        sign = {"lower": -1, "higher": 1}.get(better.get(name))
        if "a" in entry and "b" in entry and entry["a"]["median"]:
            a, b = entry["a"]["median"], entry["b"]["median"]
            entry["change"] = (b - a) / a
        entry["pairs"] = len(both)
        entry["better"] = better.get(name)
        if sign is not None and both:
            entry["wins"] = sum(sign * (b - a) > 0 for a, b in both)
            a, b = entry["a"], entry["b"]
            entry["gain"] = (entry["wins"] >= math.ceil(0.9 * len(both))
                             and sign * (b["median"] - a["median"])
                             > a["q3"] - a["q1"])
        out[name] = entry
    for side in "ab":
        runs = [p[side] for p in pairs]
        lines = [json.loads(r["result"]) for r in runs if r["result"]]
        out.setdefault("operations", {})[side] = {
            "runs_failed": sum(r["result"] is None for r in runs),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines)}
    return out


def report(summary: dict, header: str) -> str:
    rows = [header, f"{'metric':<14} {'A median [q1, q3]':>28} "
            f"{'B median [q1, q3]':>28} {'B wins':>8} {'(B-A)/A':>8}"]
    for name, e in summary.items():
        if name == "operations":
            continue
        cells = [f"{e[s]['median']:.4g} [{e[s]['q1']:.4g}, {e[s]['q3']:.4g}]"
                 if s in e else "-" for s in "ab"]
        wins = f"{e['wins']}/{e['pairs']}" if "wins" in e else "-"
        change = f"{e['change']:+.2%}" if "change" in e else "-"
        gain = "  gain" if e.get("gain") else ""
        rows.append(f"{name:<14} {cells[0]:>28} {cells[1]:>28} "
                    f"{wins:>8} {change:>8}{gain}")
    ops = summary["operations"]
    rows.append("operations failed/attempted: " + ", ".join(
        f"{s.upper()} {ops[s]['failed']}/{ops[s]['attempted']}"
        f" ({ops[s]['runs_failed']} runs failed)" for s in "ab"))
    return "\n".join(rows)


def _gemm_loop(reps: int) -> None:
    import numpy as np
    a = np.full((GEMM_SIDE, GEMM_SIDE), 0.5)
    out = np.empty_like(a)
    for _ in range(reps):
        np.matmul(a, a, out=out)


def _small_loop(reps: int) -> None:
    import numpy as np
    m, k, n = SMALL_PRODUCT
    a, b = np.full((m, k), 0.5), np.full((k, n), 0.5)
    for _ in range(reps):
        np.matmul(a, b)


def _reps(loop, step: int) -> int:
    """Repetitions of loop, in multiples of step, that take about
    CALIBRATION_S once it has run step of them."""
    loop(step)
    reps, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < CALIBRATION_S:
        loop(step)
        reps += step
    return reps


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _two_loops(reps: int) -> None:
    threads = [threading.Thread(target=_gemm_loop, args=(reps,))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def calibrate() -> dict:
    """Run in a child whose OpenBLAS holds one thread. Over CALIBRATION_ROUNDS
    rounds of one GEMM loop on one thread, then two on two threads, then
    one loop of small products: single-thread GFLOP/s at GEMM_SIDE, two
    threads' rate over one thread's, and µs per np.matmul call at
    SMALL_PRODUCT (the last two as median, least and most). numpy's own
    product, not docprune's, so the figure describes the machine alone."""
    reps, small_reps = _reps(_gemm_loop, 5), _reps(_small_loop, 1000)
    rates, scaling, small_us = [], [], []
    for _ in range(CALIBRATION_ROUNDS):
        one = _timed(lambda: _gemm_loop(reps))
        two = _timed(lambda: _two_loops(reps))
        rates.append(2 * GEMM_SIDE ** 3 * reps / one / 1e9)
        scaling.append(2 * one / two)
        small_us.append(_timed(lambda: _small_loop(small_reps))
                        / small_reps * 1e6)

    def spread(values):
        return [round(f(values), 3) for f in (statistics.median, min, max)]

    return {"gemm_side": GEMM_SIDE, "reps": reps,
            "rounds": CALIBRATION_ROUNDS,
            "gemm_gflop_per_s_1_thread": round(statistics.median(rates), 3),
            "two_thread_scaling": spread(scaling),
            "small_product": list(SMALL_PRODUCT), "small_reps": small_reps,
            "small_product_us": spread(small_us)}


def calibration() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    load_before = os.getloadavg()
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--calibrate"], capture_output=True, text=True,
                         env=env, timeout=600, check=True)
    return {**json.loads(res.stdout), "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg())}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--ab", nargs=2, metavar=("A", "B"))
    p.add_argument("--workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--label")
    p.add_argument("--calibrate", action="store_true",
                   help="internal: print the calibration of this process")
    args = p.parse_args(argv)
    if not args.calibrate and (args.ab is None or args.workload is None
                               or args.pairs < 1):
        p.error("--ab A B, --workload and --pairs >= 1 are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.calibrate:
        print(json.dumps(calibrate()))
        return 0
    better = {m["name"]: m["better"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    scratch = Path(tempfile.mkdtemp(prefix="benchrec-"))
    try:
        dirs = {"a": scratch / "a", "b": scratch / "b"}
        ids = {side: export(rev, dirs[side])
               for side, rev in zip("ab", args.ab)}
        pairs = []
        for i in range(args.pairs):
            order = "ab" if i % 2 == 0 else "ba"
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(dirs[side], args.workload, args.seed,
                                      args.seconds)
                print(f"pair {i + 1} {side.upper()}: "
                      f"{pair[side]['result'] or 'FAILED'}", flush=True)
            pairs.append(pair)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = summarize(pairs, better)
    header = (f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
              f"{args.seconds:g} s: A = {args.ab[0]} (tree {ids['a'][:10]}),"
              f" B = {args.ab[1]} (tree {ids['b'][:10]})")
    print(report(summary, header))
    if args.label:
        record = {"label": args.label, "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds,
                  "revisions": {s: {"rev": r, "tree": ids[s]}
                                for s, r in zip("ab", args.ab)},
                  "pairs": pairs, "summary": summary,
                  "calibration": calibration()}
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
