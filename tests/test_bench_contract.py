"""The benchmark under bench/ reaches into the package by name: its
workloads import `cli.DEFAULT_GRID`, `cli._parse_grid` and
`synthdoc.make_corpus`, copy `Mlp2` heads, and its tracer wraps module
attributes such as `pipeline.make_corpus` and `tensor.gelu_grad` and reads
`EncoderModel.blocks`/`.merges`, the positional `grid` and `bw` arguments
of the encoder's blocks and the `merge` argument of `merge_patches`, which
`encode` passes by keyword. A name deleted from the package
because nothing in it calls the name must fail here, not in the benchmark.
So must a change to how often a sweep calls `encode`, once per distinct
mask set of each document, which the benchmark's
`sweep.distinct_encode_share` counts, and an encode whose FLOPs are not
all charged inside the block and merge spans it contains. Its
`train-recipes` workload copies the CLI's training recipes (lr,
pos_weight, corpus size), which must stay equal to the parser's defaults.

The tracer keeps one span stack per process. `prepare_ifm_samples` runs
its documents on several threads, which the traced set-up of
`train-recipes` must survive; `run` and `sweep` must call `encode` on the
calling thread only, so walking their documents on threads fails here
until the tracer keeps its spans per thread. Below the spans, the parts
of an encoder sublayer do run on several threads (`attn_residual` is no
span), and the span FLOPs must still reconcile.
"""

import importlib.util
import inspect
import sys
import threading
from pathlib import Path

import pytest

from docprune import encoder, pipeline, tensor
from docprune.cli import build_parser
from docprune.content_filter import train_detector

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


def test_bench_recipes_copy_the_cli_defaults(bench):
    # the parser owns both training recipes; train-recipes copies them
    workloads, _ = bench
    det = build_parser().parse_args(["train-detector"])
    ifm = build_parser().parse_args(["train-ifm"])
    size = workloads.Size()
    assert (workloads.IFM_LR, workloads.IFM_POS_WEIGHT, size.ifm_docs) == (
        ifm.lr, ifm.pos_weight, ifm.n)
    # train-detector has no --pos-weight: it takes train_detector's default
    det_pos_weight = inspect.signature(train_detector).parameters[
        "pos_weight"].default
    assert (workloads.DET_LR, workloads.DET_POS_WEIGHT, size.det_docs) == (
        det.lr, det_pos_weight, det.n)


def test_tracer_installs_every_wrapped_name(bench):
    _, tracer = bench
    real = pipeline.make_corpus
    with tracer.Tracer().installed():
        assert pipeline.make_corpus.__wrapped__ is real
    assert pipeline.make_corpus is real


@pytest.mark.parametrize("name", ["run-desk", "sweep-desk", "train-recipes"])
def test_traced_toy_workload_passes_its_checks(bench, monkeypatch, name):
    workloads, tracer = bench
    toy = workloads.Size(docs=2, ifm_docs=2, det_docs=1, ifm_epochs=1,
                         det_epochs=1)
    # two cores, so sample preparation runs its two documents on two
    # threads wherever numpy's OpenBLAS is found
    monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0, 1})
    encode, encode_threads = pipeline.encode, []

    def recorded_encode(*args, **kwargs):
        encode_threads.append(threading.get_ident())
        return encode(*args, **kwargs)

    monkeypatch.setattr(pipeline, "encode", recorded_encode)
    # the first window part waits (up to 5 s) for a part on a second
    # thread, so the test does not rest on how the threads are scheduled
    attn, attn_threads, both = encoder.attn_residual, set(), threading.Event()

    def recorded_attn(*args, **kwargs):
        first = not attn_threads
        attn_threads.add(threading.get_ident())
        if len(attn_threads) > 1:
            both.set()
        if first:
            both.wait(timeout=5)
        return attn(*args, **kwargs)

    monkeypatch.setattr(encoder, "attn_residual", recorded_attn)
    setup = tracer.Tracer()
    with setup.installed():
        workload = workloads.WORKLOADS[name](3, toy)
    t = tracer.Tracer()
    with t.installed():
        result = workload.op()
    assert workload.inspect(result).problems == []
    if name == "train-recipes":
        assert setup.spans["pipeline.prepare_ifm_samples"].calls == 1
        assert len(encode_threads) == toy.ifm_docs
        if tensor._openblas() is not None:
            assert len(set(encode_threads)) == 2
        return
    # the tracer's single span stack needs the walk on the calling thread;
    # the window parts below its spans run on both cores
    assert encode_threads and set(encode_threads) == {threading.get_ident()}
    if tensor._openblas() is not None:
        assert threading.get_ident() in attn_threads
        assert len(attn_threads) > 1
    # the per-stage and per-merge spans name the encoder's layers from the
    # blocks and merges the tracer looked up
    assert {f"encoder.s{n}.{kind}" for n in range(1, 5)
            for kind in ("attn", "ffn")} <= set(t.spans)
    assert {f"encoder.m{n}.merge" for n in range(1, 4)} <= set(t.spans)
    assert t.encode_calls > 0
    # the encode span's FLOPs are its children's: the attention spans,
    # the FFN spans less the attention inside them, and the merges
    spans = t.spans
    parts = sum(sum(spans[f"encoder.s{n}.attn"].flops.values())
                + sum(spans[f"encoder.s{n}.ffn"].self_flops.values())
                for n in range(1, 5))
    parts += sum(sum(spans[f"encoder.m{n}.merge"].flops.values())
                 for n in range(1, 4))
    assert parts == sum(spans["encoder.encode"].flops.values()) > 0
    if name == "sweep-desk":
        # the oracle binarizes every page alike at each threshold of the
        # default grid: one mask set, so one encode, per document
        assert t.encode_calls == toy.docs
