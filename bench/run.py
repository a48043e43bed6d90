"""docprune benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload run-desk --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
Workloads, metrics and their bounds are declared in ``BENCHMARK.json``.

With ``--trace 0`` the run times untraced operations for ``--seconds``
and reports the end-to-end metrics. Set-up time is what a fresh
interpreter spends from its start to the first operation, as every CLI
call pays it: the median of this process's own and of further fresh
interpreters that set up and exit.
With ``--trace 1`` it reports the per-layer metrics of a traced pass.

Standard output holds a span table (traced runs), one JSON line of
evidence (environment, per-operation samples, output digests, failures,
spans) and, last, the result line the metrics are read from.

BLAS may use one thread per available core (``nproc``), as it does for a
user who sets nothing; the setting is pinned before numpy loads, so every
run, set-up probe included, uses the same count, and it is recorded.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import envinfo  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150
WORKLOAD_NAMES = ("run-desk", "sweep-desk", "train-recipes")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up once, print the time, exit")
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int, n: int) -> list[float]:
    """Set-up time of n fresh interpreters, each measured from its start."""
    samples = []
    for _ in range(n):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        samples.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def print_spans(title: str, rows: list[dict]) -> None:
    print(f"# {title}: per operation")
    print(f"# {'span':<38} {'ms':>10} {'self ms':>10} {'calls':>9} "
          f"{'MFLOP':>10} {'GFLOP/s':>8}")
    for r in rows:
        self_ms = "" if r["self_ms"] is None else f"{r['self_ms']:.3f}"
        mflop = "" if not r["flops"] else f"{r['flops'] / 1e6:.3f}"
        gfs = "" if not r["gflop_per_s"] else f"{r['gflop_per_s']:.3f}"
        print(f"# {r['span']:<38} {r['ms']:>10.3f} {self_ms:>10} "
              f"{r['calls']:>9.1f} {mflop:>10} {gfs:>8}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "docprune" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'docprune'}; run the "
              "benchmark from the root of a docprune checkout",
              file=sys.stderr)
        return 2
    blas_threads = envinfo.nproc()
    envinfo.pin_blas_threads(blas_threads)
    sys.path.insert(0, str(SRC))
    import harness

    if args.setup_probe:
        harness.WORKLOADS[args.workload](args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    res = harness.measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    setup_s = res.pop("setup_end") - _T0
    if args.trace:
        print_spans("traced operations", res["spans"])
        if res["setup_spans"]:
            print_spans("set-up", res["setup_spans"])
        units = {n: u for n, u, _ in harness.per_layer_spec()}
    else:
        # probes run after the timed operations so they cannot disturb them
        samples = [setup_s] + probe_setup(args.workload, args.seed,
                                          SETUP_SAMPLES - 1)
        res["setup_s_samples"] = samples
        res["metrics"]["setup_s"] = statistics.median(samples)
        units = harness.END_TO_END
    res["environment"] = envinfo.environment(ROOT, args.seed, blas_threads)
    print(json.dumps({"evidence": res}, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
