"""Golden digests: the bytes a refactor must not move.

Every report below is the sha256 of its canonical `to_json()`; the IFM
training samples are hashed array by array in order, and trained weights
as w1, b1, w2, b2 in little-endian float64. A change to any digest means
the program computes something different, not just differently.

The report digests are portable: the last test below recomputes them in
subprocesses whose environment emulates another CPU or BLAS build. The
float digests (IFM samples, trained weights) hold only on the kernels
they were taken on: numpy's AVX-512 loops and OpenBLAS 0.3.31's AVX-512
GEMM kernels.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from docprune import tensor
from docprune.cli import DEFAULT_GRID, _parse_grid
from docprune.content_filter import mlp_detector, train_detector
from docprune.encoder import window_attn_flops
from docprune.instruction_filter import train_ifm
from docprune.pipeline import (PipelineConfig, build_models,
                               prepare_ifm_samples, run, sweep)
from docprune.synthdoc import make_corpus
from helpers import detector_file

SMALL = dict(image_size=128, patch_size=4, d0=16, depths=(1, 1, 2, 1),
             window=8, llm_dim=32, proj_hidden=64, corpus_n=3, seed=7)

# default sweep at seed 7, one digest per setting of the CLI's grid; the
# (0.25, 0.5) setting equals the desk `docprune run --seed 7` report
SWEEP_SEED7 = [
    "4850d5b5b3455cb677d1e0b3bf99d5f6be8ed2baa3bc23b18188e1f2b3362a91",
    "dc41961b88a479a663740c51cb4e3f062fb6ee76f86d49204c0e2c9b33ed6ac9",
    "0629fce6fd8f6090c84a112b34cf89ff0780b6b8881b91de7c4b48d6ab29ee12",
    "00f285e0b72e09ac70c494f7186c1613413227dc12a49f00338e893667d6c8d9",
]

# a small sweep with an untrained MLP detector (seed 2, saved as det.hrvd),
# whose graded probabilities split this grid's settings into mask sets of
# one, one and two settings
GRADED_GRID = [(0.25, 0.5), (0.5, 0.5), (0.75, 0.25), (0.75, 0.5)]
GRADED_SWEEP = [
    "12b826c29f751cc426e6665a617936c82f7a1406a43c93b552e7a9e4c8b49e83",
    "e4e46c33fdc40081e0191bc6f109f564b8208d0492bead5eaee8876a60571368",
    "66120c01e6dbb8f52c2d3610a4c507f8a8d6a0a63286b354fdc3156dc8b9aefd",
    "ba82da79991348dd73b5f37f4667ecbb3c3af5aca11193c8a128dd755f5ae375",
]

# the SMALL runs whose config names no weight file
CONFIG_RUNS = {"ungated": {"gated": False}, "soft": {"soft_gating": True},
               "no_bypass": {"bypass": False},
               "no_positions": {"use_positions": False}}

SMALL_RUNS = {
    "ungated":
        "cde49a6d9c3fe9cd8319749db838402db734f2d8c145b0e2133392f896d8958b",
    "soft":
        "7d957ed4ecd3475932e83e2d1269bb38838c4e5c5345fbfb8db38f3630df8af2",
    "no_bypass":
        "36679fd0e7af925eaa408a66fbbe77f5346cf7c9b269352d681ea7702e3b7d51",
    "no_positions":
        "921a324f74611ef8ac24b31cff4b955be55c0ba270e7979f8851be546995292e",
    "mlp_detector":
        "12b826c29f751cc426e6665a617936c82f7a1406a43c93b552e7a9e4c8b49e83",
}

IFM_SAMPLES_4DOCS = (
    "ef1a7a857b41ccf0f3ce8f5070a39d271c8898c5a2db98266535580287f08ae3")

# 10 epochs of each recipe; the hidden layers (1152 x 32 for the detector,
# 160 x 256 for the IFM classifier) are each cut into two row blocks, which
# the tests assert. Equal with one and two BLAS threads.
TRAINED_DETECTOR = (
    "f32a424bf16b0240dd4fa55ec0a4e859e66aa376dabba318baba710c1511196d",
    "0.6918669662311357")
TRAINED_IFM = (
    "5737407f1d2d282fb0e004abfa5954204d963d0629306fdacbb0fb09ae1d9a56",
    "1.0701517219846821")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _weights_sha(mlp) -> str:
    h = hashlib.sha256()
    for a in (mlp.w1, mlp.b1, mlp.w2, mlp.b2):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _assert_attention_closed_form(report) -> None:
    """Each stage's attn_flops is its computed windows times the closed
    form at the stage's width, and the stages sum to what the counter
    charged encoder_attention."""
    cfg = report.config
    for st in report.stages:
        width = cfg["d0"] * 2 ** (st["stage"] - 1)
        assert st["attn_flops"] == st["windows_computed"] * window_attn_flops(
            cfg["window"], width), st
    assert (sum(st["attn_flops"] for st in report.stages)
            == report.flops["by_category"]["encoder_attention"])


def test_default_sweep_digests():
    reports, _ = sweep(PipelineConfig(seed=7), _parse_grid(DEFAULT_GRID))
    assert [_sha(r.to_json()) for r in reports] == SWEEP_SEED7
    for r in reports:
        _assert_attention_closed_form(r)


@pytest.fixture()
def det_weights(tmp_path, monkeypatch):
    """The untrained seed-2 detector at the relative path det.hrvd: the
    report holds the path as the config names it, so its bytes do not
    depend on the test's directory."""
    monkeypatch.chdir(tmp_path)
    return detector_file("det.hrvd", seed=2)


def test_graded_sweep_digests(det_weights):
    cfg = PipelineConfig(**SMALL, detector="mlp", detector_weights=det_weights)
    reports, _ = sweep(cfg, GRADED_GRID)
    assert [_sha(r.to_json()) for r in reports] == GRADED_SWEEP
    for r in reports:
        _assert_attention_closed_form(r)


@pytest.mark.parametrize("name,overrides", [
    *CONFIG_RUNS.items(),
    ("mlp_detector", {"detector": "mlp", "detector_weights": "det.hrvd"}),
])
def test_small_run_digests(det_weights, name, overrides):
    report = run(PipelineConfig(**{**SMALL, **overrides}))
    assert _sha(report.to_json()) == SMALL_RUNS[name]
    _assert_attention_closed_form(report)


def test_ifm_samples_digest():
    cfg = PipelineConfig(**{**SMALL, "corpus_n": 4})
    corpus = make_corpus(4, cfg.content_fraction, cfg.image_size, cfg.seed)
    h = hashlib.sha256()
    for sample in prepare_ifm_samples(cfg, corpus, build_models(cfg)):
        for a in sample:
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    assert h.hexdigest() == IFM_SAMPLES_4DOCS


def _row_block_counts(monkeypatch) -> dict:
    """{(rows, width): blocks} of each cut of rows one row an item, as the
    MLP kernels cut their row blocks, from now on."""
    counts, real = {}, tensor.row_parts

    def recorded(n, rows, width):
        parts = real(n, rows, width)
        if rows == 1:
            counts[n, width] = len(parts)
        return parts

    monkeypatch.setattr(tensor, "row_parts", recorded)
    return counts


def test_trained_detector_digest(monkeypatch):
    corpus = make_corpus(2, 0.5, 96, seed=3)
    blocks = _row_block_counts(monkeypatch)
    det, curve = train_detector(mlp_detector(seed=3, patch_size=4), corpus,
                                epochs=10, lr=0.05)
    assert (_weights_sha(det.mlp), repr(curve[-1])) == TRAINED_DETECTOR
    assert blocks[1152, 32] == 2


def test_trained_ifm_digest(monkeypatch):
    cfg = PipelineConfig(seed=7, corpus_n=4)
    corpus = make_corpus(4, cfg.content_fraction, cfg.image_size, cfg.seed)
    models = build_models(cfg)
    samples = prepare_ifm_samples(cfg, corpus, models)
    blocks = _row_block_counts(monkeypatch)
    ifm, curve = train_ifm(models.ifm, samples, epochs=10, lr=0.05,
                           pos_weight="auto")
    assert (_weights_sha(ifm.clf), repr(curve[-1])) == TRAINED_IFM
    assert blocks[160, 256] == 2


# other CPUs and BLAS builds, emulated in the environment of a subprocess
EMULATIONS = {
    "default": {},
    "one-blas-thread": {"OPENBLAS_NUM_THREADS": "1"},
    "no-avx512-loops": {
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "haswell-kernels": {"OPENBLAS_CORETYPE": "Haswell"},
}


def _numpy_avx512() -> list[str]:
    """The features of NPY_DISABLE_CPU_FEATURES above that numpy dispatches
    loops for on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    names = EMULATIONS["no-avx512-loops"]["NPY_DISABLE_CPU_FEATURES"]
    return [f for f in names.split() if f in umath.__cpu_dispatch__
            and umath.__cpu_features__.get(f)]


def _openblas_core() -> str | None:
    """The CPU core name numpy's OpenBLAS picked its kernels for."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype, get.argtypes = ctypes.c_char_p, []
                return get().decode()
    return None


def portable_digests(part: str) -> None:
    """Print, as one JSON line, the report digests of one part ("sweep":
    SWEEP_SEED7, "runs": CONFIG_RUNS) and what this process's numpy and
    OpenBLAS run on."""
    from docprune.tensor import _openblas
    if part == "sweep":
        reports, _ = sweep(PipelineConfig(seed=7), _parse_grid(DEFAULT_GRID))
    else:
        reports = [run(PipelineConfig(**{**SMALL, **o}))
                   for o in CONFIG_RUNS.values()]
    blas = _openblas()
    print(json.dumps({"digests": [_sha(r.to_json()) for r in reports],
                      "blas_threads": blas[0]() if blas else None,
                      "avx512": _numpy_avx512(), "core": _openblas_core()}))


@pytest.mark.parametrize("setting", EMULATIONS)
def test_report_digests_hold_on_emulated_cpus(setting):
    if setting == "no-avx512-loops" and not _numpy_avx512():
        pytest.skip("numpy dispatches no AVX-512 loops on this CPU")
    here = Path(__file__).resolve().parent
    src = str(here.parent / "src")
    env = dict(os.environ, **EMULATIONS[setting], PYTHONPATH=os.pathsep.join(
        [src, str(here)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, test_golden; test_golden.portable_digests(sys.argv[1])"
    # the two parts run at once
    procs = [subprocess.Popen([sys.executable, "-c", code, part], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for part in ("sweep", "runs")]
    try:
        outs = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            p.kill()
    for p, (_, err) in zip(procs, outs):
        assert p.returncode == 0, err
    sweep_seen, runs_seen = (json.loads(out.splitlines()[-1])
                             for out, _ in outs)
    if setting == "one-blas-thread" and sweep_seen["blas_threads"] != 1:
        pytest.skip(f"OpenBLAS read {sweep_seen['blas_threads']} threads "
                    "under OPENBLAS_NUM_THREADS=1")
    if setting == "no-avx512-loops" and sweep_seen["avx512"]:
        pytest.skip("numpy kept its AVX-512 loops under "
                    "NPY_DISABLE_CPU_FEATURES")
    if setting == "haswell-kernels" and sweep_seen["core"] != "Haswell":
        pytest.skip(f"OpenBLAS picked {sweep_seen['core']} kernels "
                    "under OPENBLAS_CORETYPE=Haswell")
    assert sweep_seen["digests"] == SWEEP_SEED7
    assert runs_seen["digests"] == [SMALL_RUNS[n] for n in CONFIG_RUNS]
