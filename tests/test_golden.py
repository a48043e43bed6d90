"""Golden digests: the bytes a refactor must not move.

Every report below is the sha256 of its canonical `to_json()`; the IFM
training samples are hashed array by array in order. A change to any
digest means the program computes something different, not just
differently.
"""

import hashlib

import pytest

from docprune.cli import DEFAULT_GRID, _parse_grid
from docprune.content_filter import mlp_detector
from docprune.pipeline import (PipelineConfig, prepare_ifm_samples, run,
                               sweep)
from docprune.synthdoc import make_corpus

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
        "bf72f2b8998de70078491cdf2bb7737228fcb5f7720ff5cbfbfe3a306728bfac",
}

IFM_SAMPLES_4DOCS = (
    "ef1a7a857b41ccf0f3ce8f5070a39d271c8898c5a2db98266535580287f08ae3")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_default_sweep_digests():
    reports, _ = sweep(PipelineConfig(seed=7), _parse_grid(DEFAULT_GRID))
    assert [_sha(r.to_json()) for r in reports] == SWEEP_SEED7


@pytest.mark.parametrize("name,overrides", [
    ("ungated", {"gated": False}),
    ("soft", {"soft_gating": True}),
    ("no_bypass", {"bypass": False}),
    ("no_positions", {"use_positions": False}),
    ("mlp_detector", {"detector": "mlp"}),
])
def test_small_run_digests(name, overrides):
    cfg = PipelineConfig(**{**SMALL, **overrides})
    det = mlp_detector(2, 4) if cfg.detector == "mlp" else None
    assert _sha(run(cfg, detector=det).to_json()) == SMALL_RUNS[name]


def test_ifm_samples_digest():
    cfg = PipelineConfig(**{**SMALL, "corpus_n": 4})
    corpus = make_corpus(4, cfg.content_fraction, cfg.image_size, cfg.seed)
    h = hashlib.sha256()
    for sample in prepare_ifm_samples(cfg, corpus):
        for a in sample:
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    assert h.hexdigest() == IFM_SAMPLES_4DOCS
