"""Acceptance suite: ten numbered criteria covering gating equivalences,
pruning and compute ratios, threshold dominance, merge and gradient oracles,
high-recall training, determinism, and token geometry.

Each criterion enforces its own wall-clock budget. The conftest prints one
ACCEPTANCE line per criterion at the end of the session.
"""

import time

import numpy as np
import pytest

from docprune.cli import build_parser, main
from docprune.content_filter import (detector_features, evaluate_detector,
                                     mlp_detector, save_detector,
                                     train_detector)
from docprune.encoder import encode, encoder_init
from docprune.instruction_filter import (evaluate_ifm, fuse, ifm_init,
                                         train_ifm)
from docprune.patching import TokenGrid
from docprune.pipeline import (PipelineConfig, build_models,
                               prepare_ifm_samples, run, sweep)
from docprune.rng import Rng
from docprune.synthdoc import generate, make_corpus, plan_layout
from docprune.tensor import bce_loss, mlp2_forward
from helpers import DEFAULT_EPS_C, mlp2_pass


def _recipe(command: str):
    """The training recipe of a CLI command: its flags' defaults, which
    the parser alone owns (--n documents, --epochs, --lr, --pos-weight)."""
    return build_parser().parse_args([command])


@pytest.fixture(scope="module")
def trained_detector(tmp_path_factory):
    """The train-detector recipe (16 documents, 250 epochs, lr 0.08, auto
    class weight); returns the model and its weight file for configs."""
    t0 = time.perf_counter()
    recipe = _recipe("train-detector")
    corpus = make_corpus(recipe.n, 0.5, 256, seed=0)
    det = mlp_detector(seed=0, patch_size=4)
    det, _ = train_detector(det, corpus, recipe.epochs, recipe.lr)
    path = tmp_path_factory.mktemp("detector") / "detector.hrvd"
    save_detector(path, det)
    return det, str(path), time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained_ifm():
    """The train-ifm recipe (48 documents, 3000 epochs, lr 0.3,
    pos_weight 5)."""
    t0 = time.perf_counter()
    recipe = _recipe("train-ifm")
    cfg = PipelineConfig(corpus_n=recipe.n, seed=5)
    models = build_models(cfg)
    corpus = make_corpus(recipe.n, 0.5, 256, seed=5)
    samples = prepare_ifm_samples(cfg, corpus, models)
    train_ifm(models.ifm, samples, recipe.epochs, recipe.lr,
              pos_weight=recipe.pos_weight)
    return models, time.perf_counter() - t0


def test_criterion_1_zero_threshold_equivalence():
    t0 = time.perf_counter()
    zero = dict(eps_c=(0.0, 0.0, 0.0, 0.0), eps_i=0.0, corpus_n=2, seed=7)
    configs = [PipelineConfig(**zero), PipelineConfig(gated=False, **zero)]
    gated, plain = (run(cfg) for cfg in configs)
    for a, b in zip(gated.per_doc, plain.per_doc):
        assert a["kept_final"] == 64  # full stage-4 grid on the 256/4 profile
        assert b["kept_final"] == 64
        # stage 2, stage 4 and the IFM's kept indices
        assert a["masks"] == b["masks"]
    # the projected tokens the IFM takes in; both add the same grid positions
    corpus = make_corpus(2, 0.5, 256, seed=7)
    samples = [prepare_ifm_samples(cfg, corpus, build_models(cfg))
               for cfg in configs]
    for (va, _, _), (vb, _, _) in zip(*samples):
        np.testing.assert_allclose(va, vb, rtol=1e-9, atol=1e-12)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_bypass_exactness():
    t0 = time.perf_counter()
    for seed in range(20):
        model = encoder_init(seed, d0=8, depths=(2, 1, 1, 1), window=4)
        rng = Rng(1000 + seed)
        tokens = rng.uniforms(16 * 16 * 8, -1.0, 1.0).reshape(256, 8)
        grid = TokenGrid(16, 16, 8, tokens)
        p = rng.uniforms(256)
        p[p < 0.3] = 0.0  # guarantee some fully blank windows
        fast = encode(model, grid, p, DEFAULT_EPS_C, bypass=True)
        slow = encode(model, grid, p, DEFAULT_EPS_C, bypass=False)
        np.testing.assert_array_equal(fast.sequence, slow.sequence)
        np.testing.assert_array_equal(fast.grid.tokens, slow.grid.tokens)
        np.testing.assert_array_equal(fast.kept_indices, slow.kept_indices)
    assert time.perf_counter() - t0 < 30.0


@pytest.fixture(scope="module")
def half_blank_runs():
    """Default-schedule and zero-threshold runs over one 32-document corpus,
    the one both configs generate."""
    corpus = make_corpus(32, 0.5, 256, seed=0)
    cfg = PipelineConfig(corpus_n=32, seed=0)
    zero_cfg = PipelineConfig(corpus_n=32, seed=0,
                              eps_c=(0.0, 0.0, 0.0, 0.0), eps_i=0.0)
    t0 = time.perf_counter()
    default_rep = run(cfg)
    zero_rep = run(zero_cfg)
    return corpus, default_rep, zero_rep, time.perf_counter() - t0


def test_criterion_3_content_pruning_ratio(half_blank_runs):
    from docprune.pipeline import mask_from_hex
    corpus, default_rep, _, run_secs = half_blank_runs
    t0 = time.perf_counter()
    blank_total = dropped_blank = 0
    for d, doc in zip(default_rep.per_doc, corpus):
        labels = doc.patch_labels(4)
        kept4 = mask_from_hex(d["masks"]["stage4"], 8)
        kept1 = np.kron(kept4, np.ones((8, 8), dtype=bool))
        blank = ~labels
        blank_total += int(blank.sum())
        dropped_blank += int((blank & ~kept1).sum())
    ratio = dropped_blank / blank_total
    assert ratio >= 0.45, f"only {ratio:.3f} of blank positions dropped"
    assert run_secs + time.perf_counter() - t0 < 60.0


def test_criterion_4_compute_reduction(half_blank_runs):
    _, default_rep, zero_rep, run_secs = half_blank_runs
    ratio = default_rep.flops["total"] / zero_rep.flops["total"]
    assert ratio <= 0.70, f"default thresholds use {ratio:.3f} of zero-threshold FLOPs"
    assert run_secs < 60.0


def test_criterion_5_threshold_dominance(trained_detector):
    _, weights, det_secs = trained_detector
    t0 = time.perf_counter()
    cfg = PipelineConfig(corpus_n=8, seed=3, detector="mlp",
                         detector_weights=weights)
    settings = [(0.25, 0.25), (0.25, 0.5), (0.5, 0.25), (0.5, 0.5)]
    # sweep() itself raises if compute ever increases along a threshold axis
    _, rows = sweep(cfg, settings)
    flops = {(r["eps_c"], r["eps_i"]): r["total_flops"] for r in rows}
    # near-binary probability maps produce exact ties along one axis, so
    # maximal/minimal are membership claims; the extremes stay strict
    assert flops[(0.25, 0.25)] == max(flops.values())
    assert flops[(0.5, 0.5)] == min(flops.values())
    assert flops[(0.25, 0.25)] > flops[(0.5, 0.5)]
    assert det_secs + time.perf_counter() - t0 < 120.0


def test_criterion_6_max_merge_oracle():
    t0 = time.perf_counter()
    model = encoder_init(0, d0=8, depths=(1, 1, 1, 1), window=4)
    for seed in range(100):
        rng = Rng(seed)
        p = rng.uniforms(64)
        grid = TokenGrid(8, 8, 8, rng.uniforms(64 * 8).reshape(64, 8))
        expected = p.copy()
        for _ in range(3):
            g = int(np.sqrt(expected.size))
            expected = (expected.reshape(g // 2, 2, g // 2, 2)
                        .transpose(0, 2, 1, 3).reshape(-1, 4).max(axis=1))
        merged = encode(model, grid, p).trace[3].raw_entry
        np.testing.assert_array_equal(merged, expected)
    assert time.perf_counter() - t0 < 5.0


def _numeric_grad(x, mlp, y, pw, param, idx, h=1e-5):
    arr = getattr(mlp, param)
    old = arr[idx]
    arr[idx] = old + h
    hi = bce_loss(mlp2_forward(x, mlp, sigmoid_out=True), y, pw)
    arr[idx] = old - h
    lo = bce_loss(mlp2_forward(x, mlp, sigmoid_out=True), y, pw)
    arr[idx] = old
    return (hi - lo) / (2.0 * h)


def _check_grads(x, mlp, y, pw):
    _, g = mlp2_pass(x, mlp, y, pw)
    hidden = mlp.w1.shape[1]
    coords = [("w1", (3 % x.shape[1], 5 % hidden)), ("b1", (2 % hidden,)),
              ("w2", (7 % hidden, 0)), ("b2", (0,))]
    for param, idx in coords:
        analytic = g["d" + param][idx]
        numeric = _numeric_grad(x, mlp, y, pw, param, idx)
        rel = abs(analytic - numeric) / max(abs(numeric), 1e-8)
        assert rel < 1e-4, f"{param}{idx}: {analytic} vs {numeric}"


def test_criterion_7_gradient_checks():
    t0 = time.perf_counter()
    doc = generate(plan_layout(64, 0.4, seed=1))
    for seed in range(20):
        det = mlp_detector(seed=seed, patch_size=4)
        feats = detector_features(det, doc.image)[seed:seed + 16]
        y = (Rng(seed).uniforms(16) > 0.5).astype(np.float64).reshape(-1, 1)
        _check_grads(feats, det.mlp, y, pw=1.0 if seed % 2 else 2.5)
    for seed in range(20):
        ifm = ifm_init(seed=seed, dim=16)
        rng = Rng(500 + seed)
        v = rng.uniforms(16 * 16, -1.0, 1.0).reshape(16, 16)
        instr = rng.uniforms(3 * 16, -1.0, 1.0).reshape(3, 16)
        fused, _ = fuse(ifm, v, instr)
        y = (rng.uniforms(16) > 0.5).astype(np.float64).reshape(-1, 1)
        _check_grads(fused, ifm.clf, y, pw=1.0 if seed % 2 else 4.0)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_8_high_recall_training(trained_detector, trained_ifm):
    det, _, det_secs = trained_detector
    models, ifm_secs = trained_ifm
    t0 = time.perf_counter()
    held_docs = make_corpus(16, 0.5, 256, seed=777)
    det_stats = evaluate_detector(det, held_docs, threshold=0.25)
    assert det_stats["recall"] >= 0.99, det_stats
    held_cfg = PipelineConfig(corpus_n=16, seed=777)
    held_samples = prepare_ifm_samples(held_cfg, held_docs, models)
    ifm_stats = evaluate_ifm(models.ifm, held_samples, eps=0.5)
    assert ifm_stats["recall"] >= 0.95, ifm_stats
    assert det_secs + ifm_secs + time.perf_counter() - t0 < 300.0


def test_criterion_9_byte_determinism(tmp_path):
    t0 = time.perf_counter()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["run", "--seed", "7", "--out", str(out_b)]) == 0
    bytes_a = (out_a / "report.json").read_bytes()
    assert bytes_a == (out_b / "report.json").read_bytes()
    assert len(bytes_a) > 0
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_token_geometry():
    t0 = time.perf_counter()
    large = PipelineConfig(profile="paper-scale", image_size=1536,
                           patch_size=16, d0=8, depths=(1, 1, 1, 1), window=8,
                           llm_dim=16, proj_hidden=32, corpus_n=1, seed=0)
    rep = run(large)
    assert rep.tokens["initial"] == 9216
    assert [s["n_tokens_per_doc"] for s in rep.stages] == [9216, 2304, 576, 144]

    desk = PipelineConfig(corpus_n=1, seed=0, eps_c=(0.0,) * 4, eps_i=0.0)
    rep = run(desk)
    assert rep.tokens["initial"] == 4096
    assert [s["n_tokens_per_doc"] for s in rep.stages] == [4096, 1024, 256, 64]
    assert rep.tokens["post_encoder"] == 64
    assert time.perf_counter() - t0 < 5.0
