"""Golden digests: the bytes a refactor must not move.

Every report below is the sha256 of its canonical `to_json()`; the IFM
training samples are hashed array by array in order, and trained weights
as w1, b1, w2, b2 in little-endian float64. A change to any digest means
the program computes something different, not just differently.
"""

import hashlib

import numpy as np
import pytest

from docprune.cli import DEFAULT_GRID, _parse_grid
from docprune.content_filter import mlp_detector, train_detector
from docprune.instruction_filter import train_ifm
from docprune.pipeline import (PipelineConfig, build_models,
                               prepare_ifm_samples, run, sweep)
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

# a small sweep with an untrained MLP detector, whose graded probabilities
# split this grid's settings into mask sets of one, one and two settings
GRADED_GRID = [(0.25, 0.5), (0.5, 0.5), (0.75, 0.25), (0.75, 0.5)]
GRADED_SWEEP = [
    "bf72f2b8998de70078491cdf2bb7737228fcb5f7720ff5cbfbfe3a306728bfac",
    "18d86da51621ccd98801ca8cccc21eaebef731fae504d22400e2db15749cb592",
    "e13b298a83c2afb866136ad2e022ff41f28e66c8afb1a6be14e88d84f8778fb7",
    "4e623e3ad823c550069589649e2b1e7ae20e6cd03473018cacd5478be6a3cf5b",
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

# 10 epochs of each recipe; the hidden layers (1152 x 32 for the detector,
# 160 x 256 for the IFM classifier) span several GELU row blocks. Equal
# with one and two BLAS threads.
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


def test_default_sweep_digests():
    reports, _ = sweep(PipelineConfig(seed=7), _parse_grid(DEFAULT_GRID))
    assert [_sha(r.to_json()) for r in reports] == SWEEP_SEED7


def test_graded_sweep_digests():
    cfg = PipelineConfig(**{**SMALL, "detector": "mlp"})
    reports, _ = sweep(cfg, GRADED_GRID, detector=mlp_detector(2, 4))
    assert [_sha(r.to_json()) for r in reports] == GRADED_SWEEP


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


def test_trained_detector_digest():
    corpus = make_corpus(2, 0.5, 96, seed=3)
    det, curve = train_detector(mlp_detector(seed=3, patch_size=4), corpus,
                                epochs=10, lr=0.05)
    assert (_weights_sha(det.mlp), repr(curve[-1])) == TRAINED_DETECTOR


def test_trained_ifm_digest():
    cfg = PipelineConfig(seed=7, corpus_n=4)
    corpus = make_corpus(4, cfg.content_fraction, cfg.image_size, cfg.seed)
    models = build_models(cfg)
    samples = prepare_ifm_samples(cfg, corpus, models)
    ifm, curve = train_ifm(models.ifm, samples, epochs=10, lr=0.05,
                           pos_weight="auto")
    assert (_weights_sha(ifm.clf), repr(curve[-1])) == TRAINED_IFM
