"""Detector contracts: oracle probabilities equal ground truth, thresholds
keep the boundary, and the learned head trains by plain gradient descent."""

import hashlib
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from docprune import content_filter, tensor, weights_io
from docprune.content_filter import (DetectorModel, binarize, detect,
                                     evaluate_detector, fit_mlp2,
                                     load_detector, mlp_detector,
                                     oracle_detector, save_detector,
                                     train_detector)
from docprune.pipeline import PipelineConfig, sweep_schedule
from docprune.rng import Rng
from docprune.synthdoc import generate, make_corpus, plan_layout
from docprune.tensor import FlopCounter, mlp2_init
from helpers import DEFAULT_EPS_C, SecondThread, blas_threads, fake_cores


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(4, 0.5, 256, seed=11)


def test_oracle_matches_patch_labels(corpus):
    det = oracle_detector(patch_size=4)
    for doc in corpus:
        probs = detect(det, doc)
        assert probs.dtype == np.float64
        np.testing.assert_array_equal(
            probs, doc.patch_labels(4).astype(np.float64).ravel())


def test_binarize_keeps_boundary_value():
    out = binarize(np.array([0.1, 0.5, 0.9]), 0.5)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [0.0, 1.0, 1.0])


def test_binarize_idempotent():
    once = binarize(np.array([0.2, 0.6, 1.0]), 0.5)
    twice = binarize(once, 0.5)
    np.testing.assert_array_equal(once, twice)


def test_raising_threshold_never_adds_tokens():
    probs = np.linspace(0.0, 1.0, 101)
    previous = binarize(probs, 0.0).astype(bool)
    for eps in np.linspace(0.0, 1.0, 11):
        kept = binarize(probs, float(eps)).astype(bool)
        assert not (kept & ~previous).any()
        previous = kept


def test_schedule_defaults():
    config = PipelineConfig()
    assert config.eps_c == DEFAULT_EPS_C == sweep_schedule(0.25)
    assert config.eps_i == 0.5


def test_mlp_detector_deterministic(corpus):
    a = detect(mlp_detector(seed=1, patch_size=4), corpus[0])
    b = detect(mlp_detector(seed=1, patch_size=4), corpus[0])
    np.testing.assert_array_equal(a, b)
    c = detect(mlp_detector(seed=2, patch_size=4), corpus[0])
    assert not np.array_equal(a, c)


def test_loss_decreases_first_five_epochs(corpus):
    det = mlp_detector(seed=2, patch_size=4)
    _, curve = train_detector(det, corpus[:2], epochs=6, lr=1e-2)
    for i in range(5):
        assert curve[i + 1] < curve[i]


@pytest.mark.parametrize("epochs", [1, 4])
def test_training_evaluates_erf_once_per_epoch(corpus, monkeypatch, epochs):
    # the backward pass must reuse the forward's erf term, not recompute
    # it; the kernels walk blocks, so count evaluated elements, not calls
    evaluated = []
    real_erf = tensor.erf

    def counting_erf(x, out=None):
        evaluated.append(x.size)
        return real_erf(x, out=out)

    monkeypatch.setattr(tensor, "erf", counting_erf)
    det = mlp_detector(seed=2, patch_size=4)
    train_detector(det, corpus[:1], epochs=epochs, lr=1e-2)
    z1_size = corpus[0].patch_labels(4).size * det.mlp.w1.shape[1]
    assert sum(evaluated) == epochs * z1_size


def test_blank_corpus_drives_scores_to_zero():
    blank = make_corpus(3, 0.0, 256, seed=5)
    det, _ = train_detector(mlp_detector(seed=3, patch_size=4), blank,
                            epochs=20, lr=0.5)
    scores = np.concatenate([detect(det, d) for d in blank])
    assert scores.mean() < 0.1


def test_single_document_overfit():
    one = make_corpus(1, 0.5, 256, seed=8)
    det, curve = train_detector(mlp_detector(seed=4, patch_size=4), one,
                                epochs=400, lr=0.12)
    assert curve[-1] < curve[0]
    stats = evaluate_detector(det, one, threshold=0.25)
    assert stats["recall"] == 1.0
    assert stats["precision"] >= 0.95


def test_small_corpus_training_quality(corpus):
    det, _ = train_detector(mlp_detector(seed=1, patch_size=4), corpus,
                            epochs=150, lr=0.08)
    stats = evaluate_detector(det, corpus, threshold=0.25)
    assert stats["recall"] >= 0.95
    assert stats["precision"] >= 0.40


def test_oracle_not_trainable(corpus):
    with pytest.raises(ValueError, match="trainable"):
        train_detector(oracle_detector(4), corpus, epochs=1, lr=0.1)


def test_evaluate_oracle_is_perfect(corpus):
    stats = evaluate_detector(oracle_detector(4), corpus, threshold=0.5)
    assert stats == {"recall": 1.0, "precision": 1.0}


def test_detect_flops_counted_and_repeatable(corpus):
    det = mlp_detector(seed=1, patch_size=4)
    c1, c2 = FlopCounter(), FlopCounter()
    detect(det, corpus[0], c1)
    detect(det, corpus[0], c2)
    assert c1.total() == c2.total() > 0


def test_save_load_round_trip(tmp_path, corpus):
    det, _ = train_detector(mlp_detector(seed=6, patch_size=4), corpus[:1],
                            epochs=10, lr=0.05)
    path = tmp_path / "detector.npz"
    save_detector(path, det)
    back = load_detector(path)
    assert back.variant == "mlp"
    assert back.patch_size == det.patch_size
    np.testing.assert_array_equal(
        detect(back, corpus[0]), detect(det, corpus[0]))


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "other.npz"
    weights_io.write_weights(path, weights_io.KIND_IFM,
                             {"meta": np.zeros(3)})
    with pytest.raises(ValueError, match="not a detector"):
        load_detector(path)


def test_oracle_not_serialisable(tmp_path):
    with pytest.raises(ValueError, match="serialisable"):
        save_detector(tmp_path / "x.npz", oracle_detector(4))


def test_training_peak_memory_stays_below_three_hidden_arrays():
    # the loop holds h (written over z1) and gelu'(z1), reused each epoch;
    # tracemalloc counts this process's allocations, so machine load does
    # not move the figure
    n, in_dim, hidden = 8192, 16, 64
    rng = Rng(5)
    x = rng.uniforms(n * in_dim, -1, 1).reshape(n, in_dim)
    y = (rng.uniforms(n) > 0.7).astype(float).reshape(n, 1)
    mlp = mlp2_init(rng, in_dim, hidden, 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fit_mlp2(mlp, x, y, epochs=3, lr=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 3 * n * hidden * 8


# --- training on every core with BLAS held at one thread ---

def _fit_700_rows() -> bytes:
    """The weight bytes of a small fit_mlp2 run whose sample count, 700,
    is not a multiple of 64: x.T @ dz1 over it rounds differently at 1
    and at 2 OpenBLAS threads."""
    rng = Rng(11)
    x = rng.uniforms(700 * 64, -2, 2).reshape(700, 64)
    y = (rng.uniforms(700) > 0.8).astype(float).reshape(700, 1)
    mlp = mlp2_init(rng, 64, 256, 1)
    fit_mlp2(mlp, x, y, epochs=2, lr=0.3, pos_weight=5.0)
    return b"".join(a.tobytes() for a in (mlp.w1, mlp.b1, mlp.w2, mlp.b2))


def test_trained_bytes_depend_on_neither_blas_threads_nor_cores(monkeypatch):
    got = {}
    for threads in (1, 2):
        with blas_threads(threads):
            got[f"{threads} BLAS threads"] = _fit_700_rows()
    with blas_threads(2):
        for cores in (1, 2):
            fake_cores(monkeypatch, cores)
            got[f"{cores} cores"] = _fit_700_rows()
    assert len(set(got.values())) == 1, {
        k: hashlib.sha256(v).hexdigest()[:12] for k, v in got.items()}


@pytest.mark.parametrize("fail", [False, True])
def test_fit_mlp2_holds_one_blas_thread_and_restores_it(monkeypatch, fail):
    inside = []

    def loss(pred, y, pos_weight):
        inside.append(get_threads())
        return float("nan") if fail else 0.5

    monkeypatch.setattr(content_filter, "bce_loss", loss)
    rng = Rng(3)
    x = rng.uniforms(40 * 4, -1, 1).reshape(40, 4)
    y = (rng.uniforms(40) > 0.5).astype(float).reshape(40, 1)
    raised = (pytest.raises(FloatingPointError, match="non-finite") if fail
              else nullcontext())
    with blas_threads(2) as get_threads:
        with raised:
            fit_mlp2(mlp2_init(rng, 4, 8, 1), x, y, epochs=3, lr=0.1)
        assert get_threads() == 2
    assert inside == ([1] if fail else [1, 1, 1])


def _gelu_threads(monkeypatch) -> set:
    """The threads that compute GELU blocks from now on; the first block
    waits for a block on a second thread."""
    recorded = SecondThread(tensor._onep)
    monkeypatch.setattr(tensor, "_onep", recorded)
    return recorded.threads


def test_fit_mlp2_computes_gelu_prime_on_every_epoch(monkeypatch):
    # each epoch's forward fills the loop's gelu'(z1) before its loss
    primes, at_loss = [], []
    prime, loss = tensor._gelu_prime, content_filter.bce_loss

    def counted(*args):
        primes.append(len(args[0]))
        return prime(*args)

    def epoch_loss(*args):
        at_loss.append(len(primes))
        return loss(*args)

    monkeypatch.setattr(tensor, "_gelu_prime", counted)
    monkeypatch.setattr(content_filter, "bce_loss", epoch_loss)
    rng = Rng(6)
    x = rng.uniforms(40 * 4, -1, 1).reshape(40, 4)
    y = (rng.uniforms(40) > 0.5).astype(float).reshape(40, 1)
    fit_mlp2(mlp2_init(rng, 4, 8, 1), x, y, epochs=3, lr=0.1)
    assert len(at_loss) == 3 and 0 < at_loss[0] < at_loss[1] < at_loss[2]
    assert sum(primes) == 3 * 40


def test_training_runs_gelu_blocks_on_every_core(monkeypatch):
    if tensor._openblas() is None:
        pytest.skip("map_on_cores is the plain loop without OpenBLAS")
    fake_cores(monkeypatch, 2)
    threads = _gelu_threads(monkeypatch)
    rng = Rng(4)
    # 3 row blocks of the hidden layer
    x = rng.uniforms(700 * 8, -1, 1).reshape(700, 8)
    y = (rng.uniforms(700) > 0.5).astype(float).reshape(700, 1)
    fit_mlp2(mlp2_init(rng, 8, 256, 1), x, y, epochs=1, lr=0.1)
    assert len(threads) == 2

