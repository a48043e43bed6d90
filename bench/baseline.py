"""Record the benchmark's baseline into bench/baseline.json.

    python3 bench/baseline.py

Runs every workload on the default seed and on a held-out seed, untraced
and traced, with the run length declared in BENCHMARK.json, and keeps each
run's result line and evidence (samples, digests, span table). The
environment is stored once, from the first run.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = (7, 11)     # the default seed, then one held out while writing


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True)
    lines = res.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]),
            "evidence": json.loads(lines[-2])["evidence"]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    environment = None
    for w in spec["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                r = run_once(w["name"], seed, spec["run_seconds"], trace)
                env = r["evidence"].pop("environment")
                environment = environment or {
                    k: v for k, v in env.items() if k not in ("seed", "argv")}
                runs.append({"workload": w["name"], "seed": seed,
                             "trace": trace, **r})
                print(w["name"], seed, trace, r["result"]["correct"],
                      flush=True)
    out = {"environment": environment, "run_seconds": spec["run_seconds"],
           "runs": runs}
    (BENCH / "baseline.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
