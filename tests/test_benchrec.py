"""tools/benchrec.py's statistics over fixed result lines, and its
calibration at toy sizes; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "benchrec.py"
BETTER = {"op_s": "lower", "peak_rss_mb": "lower", "ops_per_s": "higher"}


@pytest.fixture(scope="module")
def benchrec():
    spec = importlib.util.spec_from_file_location("benchrec", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(failed=0, **metrics):
    """A run whose result line reads these metrics, as bench/run.py
    prints it."""
    return {"result": json.dumps({
        "correct": failed == 0, "attempted": 20, "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}
    })}


def test_quartiles_are_inclusive(benchrec):
    assert benchrec.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
    assert benchrec.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert benchrec.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_and_the_claim_rule(benchrec):
    # B's peak is lower in 9 of 10 pairs, by 1.95 MB at the median against
    # A's interquartile range of 0.45 MB: a gain. Its op_s wins 4 pairs,
    # ties 1 and loses 5: no gain.
    a_peak = [65.0 + 0.1 * i for i in range(10)]
    b_peak = [63.5] * 9 + [66.0]
    a_op = [1.0, 1.2] * 5
    b_op = [1.1, 1.1] * 4 + [1.0, 1.3]
    pairs = [{"a": _run(op_s=a_op[i], peak_rss_mb=a_peak[i], extra=1.0),
              "b": _run(op_s=b_op[i], peak_rss_mb=b_peak[i], extra=2.0)}
             for i in range(10)]
    s = benchrec.summarize(pairs, BETTER)
    peak = s["peak_rss_mb"]
    assert peak["a"] == pytest.approx(
        {"q1": 65.225, "median": 65.45, "q3": 65.675})
    assert peak["b"] == {"q1": 63.5, "median": 63.5, "q3": 63.5}
    assert (peak["wins"], peak["pairs"], peak["gain"]) == (9, 10, True)
    assert (s["op_s"]["wins"], s["op_s"]["gain"]) == (4, False)
    # a metric BENCHMARK.json does not rank gets quartiles, no wins
    assert "wins" not in s["extra"] and s["extra"]["b"]["median"] == 2.0
    assert s["operations"]["b"] == {"runs_failed": 0, "attempted": 200,
                                    "failed": 0}
    text = benchrec.report(s, "header")
    assert "9/10   -2.98%  gain" in text and "4/10" in text
    assert "4/10  gain" not in text


def test_relative_change_of_the_medians(benchrec):
    # op_s medians 1.25 -> 1.1: B's change is -12%. None is stated where
    # A's median is 0 (ops_per_s, 0 -> 3) or only A reads the metric
    pairs = [{"a": _run(op_s=a, ops_per_s=0.0, extra=1.0),
              "b": _run(op_s=b, ops_per_s=3.0)}
             for a, b in [(1.0, 1.1), (1.5, 1.1), (1.25, 1.0), (1.25, 1.2)]]
    s = benchrec.summarize(pairs, BETTER)
    assert s["op_s"]["change"] == pytest.approx(-0.12)
    assert "change" not in s["ops_per_s"] and "change" not in s["extra"]
    rows = benchrec.report(s, "header").splitlines()
    assert rows[1].split()[-1] == "(B-A)/A"
    extra, op_s, ops_per_s = (r.split() for r in rows[2:5])
    assert (extra[-1], op_s[-1], ops_per_s[-2:]) == ("-", "-12.00%",
                                                      ["-", "gain"])


def test_a_higher_is_better_metric_wins_upwards(benchrec):
    pairs = [{"a": _run(ops_per_s=10.0), "b": _run(ops_per_s=12.0)}] * 10
    e = benchrec.summarize(pairs, BETTER)["ops_per_s"]
    assert (e["wins"], e["gain"]) == (10, True)


def test_a_failed_run_leaves_its_pair_out(benchrec):
    pairs = [{"a": _run(op_s=1.0), "b": _run(op_s=0.9, failed=3)},
             {"a": _run(op_s=1.0), "b": {"result": None}}]
    s = benchrec.summarize(pairs, BETTER)
    assert (s["op_s"]["wins"], s["op_s"]["pairs"]) == (1, 1)
    assert s["operations"] == {
        "a": {"runs_failed": 0, "attempted": 40, "failed": 0},
        "b": {"runs_failed": 1, "attempted": 20, "failed": 3}}


def test_calibration_times_small_products(benchrec, monkeypatch):
    monkeypatch.setattr(benchrec, "CALIBRATION_S", 0.002)
    monkeypatch.setattr(benchrec, "CALIBRATION_ROUNDS", 2)
    monkeypatch.setattr(benchrec, "GEMM_SIDE", 32)
    cal = benchrec.calibrate()
    assert cal["small_product"] == [64, 32, 32] and cal["small_reps"] >= 1000
    median, least, most = cal["small_product_us"]
    assert 0 < least <= median <= most
