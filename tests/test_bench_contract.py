"""The benchmark under bench/ reaches into the package by name: its
workloads import `cli.DEFAULT_GRID`, `cli._parse_grid` and
`synthdoc.make_corpus`, copy `Mlp2` heads, and its tracer wraps module
attributes such as `pipeline.make_corpus` and `tensor.gelu_grad` and reads
`EncoderModel.blocks`/`.merges` and the positional `grid`, `bw` and
`merge` arguments of the encoder's layers. A name deleted from the package
because nothing in it calls the name must fail here, not in the benchmark.
So must a sweep that stops calling `encode` once per setting: the
benchmark's `sweep.distinct_encode_share` counts the calls.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from docprune import pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("workloads"), _load("tracer")


def test_tracer_installs_every_wrapped_name(bench):
    _, tracer = bench
    real = pipeline.make_corpus
    with tracer.Tracer().installed():
        assert pipeline.make_corpus.__wrapped__ is real
    assert pipeline.make_corpus is real


@pytest.mark.parametrize("name", ["run-desk", "sweep-desk", "train-recipes"])
def test_traced_toy_workload_passes_its_checks(bench, name):
    workloads, tracer = bench
    toy = workloads.Size(docs=1, ifm_docs=1, det_docs=1, ifm_epochs=1,
                         det_epochs=1)
    workload = workloads.WORKLOADS[name](3, toy)
    t = tracer.Tracer()
    with t.installed():
        result = workload.op()
    assert workload.inspect(result).problems == []
    if name != "train-recipes":
        # the per-stage and per-merge spans name the encoder's layers
        # from the blocks and merges the tracer looked up
        assert {f"encoder.s{n}.{kind}" for n in range(1, 5)
                for kind in ("attn", "ffn")} <= set(t.spans)
        assert {f"encoder.m{n}.merge" for n in range(1, 4)} <= set(t.spans)
        assert t.encode_calls > 0
    if name == "sweep-desk":
        # one encode per setting of the default 4-setting grid per document,
        # even though the settings share one result
        assert t.encode_calls == 4 * toy.docs
