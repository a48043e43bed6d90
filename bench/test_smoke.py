"""Smoke test of the benchmark at toy size (2 documents, 2 epochs).

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric the benchmark emits is declared in
BENCHMARK.json with the same unit, that the traced FLOPs reconcile with
the reports, and that a corrupted output counts as a failed operation.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run as bench_run  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402
from docprune import content_filter, tensor  # noqa: E402
from docprune.pipeline import RunReport  # noqa: E402

TOY = workloads.Size(docs=2, ifm_docs=2, det_docs=2, ifm_epochs=2,
                     det_epochs=2)
SEED = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_workloads_declared():
    assert {w["name"] for w in SPEC["workloads"]} == set(
        bench_run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_per_layer_spec_declared():
    assert {n: u for n, u, _ in harness.per_layer_spec()} == _declared(
        "per_layer")
    assert harness.END_TO_END == _declared("end_to_end")


@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_declared(name, trace):
    res = harness.measure(name, SEED, 0, trace, TOY)
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] == 2
    emitted = set(res["metrics"])
    if trace:
        assert emitted == set(_declared("per_layer"))
    else:
        # set-up time is measured in fresh interpreters by run.py
        assert emitted | {"setup_s"} == set(_declared("end_to_end"))
    assert all(math.isfinite(v) for v in res["metrics"].values())


@pytest.mark.parametrize("name", ["run-desk", "sweep-desk"])
def test_traced_flops_reconcile(name):
    res = harness.measure(name, SEED, 0, True, TOY)
    assert res["failed"] == 0, res["failures"]
    assert res["metrics"]["encoder.encode.flops"] > 0
    by_span = {r["span"]: r for r in res["spans"]}
    encode = by_span["encoder.encode"]["flops"]
    parts = sum(by_span[s]["flops"] for s in by_span
                if (s.startswith("encoder.s") and s.endswith(".attn"))
                or s.startswith("encoder.m"))
    parts += sum(res["metrics"][f"encoder.s{n}.ffn.flops"] for n in range(1, 5))
    assert parts == encode


def test_distinct_encode_share_is_per_operation():
    wl = workloads.SweepDesk(SEED, TOY)
    tr = Tracer()
    for _ in range(2):
        with tr.installed():
            wl.op()
    m = harness.layer_metrics(tr, Tracer(), 2, TOY, 0.0)
    assert m["encoder.encode.calls"] == 4 * TOY.docs
    assert m["sweep.distinct_encode_share"] == 0.25


def test_reconcile_detects_a_missing_flop():
    wl = workloads.RunDesk(SEED, TOY)
    out = wl.inspect(wl.op())
    cats = dict(out.reports[0].flops["by_category"])
    cats.pop("decoder_stub")
    spans = {k: v for k, v in cats.items() if v}
    assert harness.reconcile(spans, out.reports) == []
    spans["encoder_ffn"] -= 1
    assert harness.reconcile(spans, out.reports)


def _corrupt_after_first(monkeypatch, owner, attr, corrupt):
    """Make owner.attr return a corrupted result from its second call on."""
    orig = getattr(owner, attr)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        result = orig(*args, **kwargs)
        return corrupt(result) if len(calls) > 1 else result

    monkeypatch.setattr(owner, attr, wrapped)


def test_corrupted_report_bytes_fail(monkeypatch):
    _corrupt_after_first(monkeypatch, RunReport, "to_json",
                         lambda text: text.replace("1", "2", 1))
    res = harness.measure("run-desk", SEED, 0, False, TOY)
    assert res["attempted"] == 2 and res["failed"] == 1


def test_corrupted_flop_total_fails(monkeypatch):
    monkeypatch.setattr(tensor.FlopCounter, "total",
                        lambda self: sum(self.by_category.values()) + 1)
    res = harness.measure("sweep-desk", SEED, 0, False, TOY)
    assert res["failed"] == res["attempted"] == 2
    assert "category sum" in res["failures"][0]["problems"][0]


def test_corrupted_weights_fail(monkeypatch):
    def perturb(result):
        model, curve = result
        model.mlp.w1[0, 0] += 1e-12
        return model, curve

    _corrupt_after_first(monkeypatch, content_filter, "train_detector",
                         perturb)
    res = harness.measure("train-recipes", SEED, 0, False, TOY)
    assert res["attempted"] == 2 and res["failed"] == 1


def test_non_finite_loss_fails(monkeypatch):
    monkeypatch.setattr(content_filter, "bce_loss",
                        lambda *a, **k: float("nan"))
    res = harness.measure("train-recipes", SEED, 0, False, TOY)
    assert res["failed"] == res["attempted"] == 2
