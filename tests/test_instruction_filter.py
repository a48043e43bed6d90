"""Fusion and relevance filtering: instruction tokens are never dropped,
only the classifier learns, and without position stamps the fusion layer
treats the instruction as a set."""

import copy

import numpy as np
import pytest

from docprune import weights_io
from docprune.instruction_filter import (FilterResult, InstructionSpec,
                                         MAX_INSTRUCTION_LEN, embed_instruction,
                                         evaluate_ifm, filter_tokens, fuse,
                                         grid_positions, ifm_init, load_ifm,
                                         save_ifm, train_ifm)
from docprune.rng import Rng
from docprune.tensor import FlopCounter
from helpers import mlp2_zeros

DIM = 16


@pytest.fixture()
def model():
    return ifm_init(seed=3, dim=DIM)


def _visual(n=12, seed=0):
    return Rng(seed).uniforms(n * DIM, -1.0, 1.0).reshape(n, DIM)


def _instr(model, ids=(1, 33, 65)):
    return embed_instruction(model, InstructionSpec(tuple(ids)))


# --- instruction specs ------------------------------------------------------

def test_spec_rejects_empty():
    with pytest.raises(ValueError, match="non-empty"):
        InstructionSpec(())


def test_spec_rejects_overlong():
    with pytest.raises(ValueError, match="length"):
        InstructionSpec(tuple(range(MAX_INSTRUCTION_LEN + 1)))


def test_spec_rejects_bad_ids():
    with pytest.raises(ValueError, match="token ids"):
        InstructionSpec((1, 256))
    with pytest.raises(ValueError, match="token ids"):
        InstructionSpec((-1,))


def test_embedding_looks_up_rows(model):
    spec = InstructionSpec((5, 9, 5))
    rows = embed_instruction(model, spec)
    np.testing.assert_array_equal(rows[0], model.embed[5])
    np.testing.assert_array_equal(rows[1], model.embed[9])
    np.testing.assert_array_equal(rows[2], rows[0])


# --- fusion ------------------------------------------------------------------

def test_fuse_output_shapes(model):
    v, instr = _visual(10), _instr(model)
    vp, ip = fuse(model, v, instr)
    assert vp.shape == (10, DIM)
    assert ip.shape == (3, DIM)


def test_fuse_rejects_empty_instruction(model):
    with pytest.raises(ValueError, match="non-empty"):
        fuse(model, _visual(), np.zeros((0, DIM)))


def test_fuse_rejects_dim_mismatch(model):
    with pytest.raises(ValueError, match="dim mismatch"):
        fuse(model, np.zeros((4, DIM + 1)), _instr(model))
    with pytest.raises(ValueError, match="dim mismatch"):
        fuse(model, _visual(), np.zeros((2, DIM + 1)))


def test_fuse_changes_visual_tokens(model):
    v = _visual()
    vp, _ = fuse(model, v, _instr(model))
    assert not np.allclose(vp, v)


def test_instruction_order_ignored_without_positions():
    model = ifm_init(seed=3, dim=DIM, use_positions=False)
    v = _visual()
    instr = _instr(model, ids=(1, 33, 65, 70))
    vp, ip = fuse(model, v, instr)
    perm = [2, 0, 3, 1]
    vp2, ip2 = fuse(model, v, instr[perm])
    np.testing.assert_allclose(vp2, vp, atol=1e-12)
    np.testing.assert_allclose(ip2, ip[perm], atol=1e-12)


def test_instruction_order_matters_with_positions(model):
    assert model.use_positions
    v = _visual()
    instr = _instr(model, ids=(1, 33, 65, 70))
    vp, _ = fuse(model, v, instr)
    vp2, _ = fuse(model, v, instr[[2, 0, 3, 1]])
    assert not np.allclose(vp2, vp, atol=1e-9)


def test_fuse_deterministic_and_counted(model):
    v, instr = _visual(), _instr(model)
    c1, c2 = FlopCounter(), FlopCounter()
    a, _ = fuse(model, v, instr, c1)
    b, _ = fuse(model, v, instr, c2)
    np.testing.assert_array_equal(a, b)
    assert c1.get("ifm") == c2.get("ifm") > 0


# --- filtering ---------------------------------------------------------------

def test_threshold_zero_keeps_all(model):
    vp, _ = fuse(model, _visual(), _instr(model))
    res = filter_tokens(model, vp, eps=0.0)
    np.testing.assert_array_equal(res.kept_indices, np.arange(12))


def test_threshold_one_keeps_almost_nothing(model):
    vp, _ = fuse(model, _visual(), _instr(model))
    res = filter_tokens(model, vp, eps=1.0)
    # sigmoid never reaches 1 except in saturation; a seeded init stays inside
    assert res.kept_indices.size == 0


def test_kept_monotone_in_threshold(model):
    vp, _ = fuse(model, _visual(64, seed=5), _instr(model))
    previous = set(filter_tokens(model, vp, eps=0.0).kept_indices)
    for eps in np.linspace(0.0, 1.0, 11):
        kept = set(filter_tokens(model, vp, eps=float(eps)).kept_indices)
        assert kept <= previous
        previous = kept


def test_filter_result_indices_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        FilterResult(kept_indices=np.array([3, 1]),
                     relevance_scores=np.zeros(4))


# --- training ----------------------------------------------------------------

def _samples(model, n=8, all_relevant=False, seed=0):
    rng = Rng(seed)
    out = []
    for i in range(n):
        v = rng.uniforms(12 * DIM, -1.0, 1.0).reshape(12, DIM)
        instr = _instr(model)
        if all_relevant:
            y = np.ones(12)
        else:
            y = (rng.uniforms(12) > 0.5).astype(np.float64)
        out.append((v, instr, y))
    return out


def test_zero_classifier_starts_at_ln2(model):
    model.clf = mlp2_zeros(DIM, 4 * DIM, 1)
    _, curve = train_ifm(model, _samples(model), epochs=1, lr=0.1,
                         pos_weight=1.0)
    assert abs(curve[0] - np.log(2.0)) < 1e-9


def test_loss_decreases_first_five_epochs(model):
    _, curve = train_ifm(model, _samples(model), epochs=6, lr=0.1)
    for i in range(5):
        assert curve[i + 1] < curve[i]


def test_only_classifier_weights_move(model):
    embed_before = model.embed.copy()
    fusion_before = copy.deepcopy(model.fusion)
    clf_before = model.clf.copy()
    train_ifm(model, _samples(model), epochs=5, lr=0.1)
    np.testing.assert_array_equal(model.embed, embed_before)
    for name in ("wq", "wk", "wv", "wo", "w1", "w2", "ln1_g", "ln2_b"):
        np.testing.assert_array_equal(getattr(model.fusion, name),
                                      getattr(fusion_before, name))
    assert not np.array_equal(model.clf.w1, clf_before.w1)
    assert not np.array_equal(model.clf.w2, clf_before.w2)


def test_all_relevant_labels_learned(model):
    model.clf = mlp2_zeros(DIM, 4 * DIM, 1)
    samples = _samples(model, all_relevant=True)
    model, curve = train_ifm(model, samples, epochs=50, lr=0.5, pos_weight=1.0)
    assert curve[-1] < curve[0]
    vp, _ = fuse(model, samples[0][0], samples[0][1])
    assert filter_tokens(model, vp, eps=0.0).relevance_scores.mean() > 0.9


def test_label_length_checked(model):
    bad = [(_visual(4), _instr(model), np.ones(5))]
    with pytest.raises(ValueError, match="labels"):
        train_ifm(model, bad, epochs=1)


def test_auto_pos_weight_upweights_minority(model):
    samples = [(_visual(8), _instr(model),
                np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))]
    _, curve = train_ifm(model, samples, epochs=1, lr=0.0, pos_weight="auto")
    _, unweighted = train_ifm(ifm_init(seed=3, dim=DIM), samples, epochs=1,
                              lr=0.0, pos_weight=1.0)
    assert curve[0] != unweighted[0]


def test_evaluate_separable_data(model):
    # labels equal to thresholded scores give perfect recall and precision
    samples = _samples(model, n=2)
    labelled = []
    for v, instr, _ in samples:
        vp, _ = fuse(model, v, instr)
        scores = filter_tokens(model, vp, eps=0.0).relevance_scores
        labelled.append((v, instr, (scores >= 0.5).astype(np.float64)))
    stats = evaluate_ifm(model, labelled, eps=0.5)
    assert stats == {"recall": 1.0, "precision": 1.0}


# --- positions and persistence -------------------------------------------

def test_grid_positions_structure():
    pe = grid_positions(np.arange(16), side=4, dim=DIM)
    assert pe.shape == (16, DIM)
    half = DIM // 2
    # same row: identical row half; same column: identical column half
    np.testing.assert_array_equal(pe[0, :half], pe[3, :half])
    np.testing.assert_array_equal(pe[1, half:], pe[13, half:])
    assert not np.array_equal(pe[0, :half], pe[4, :half])
    assert not np.array_equal(pe[1, half:], pe[2, half:])


def test_save_load_round_trip(tmp_path, model):
    train_ifm(model, _samples(model), epochs=3, lr=0.1)
    path = tmp_path / "ifm.npz"
    save_ifm(path, model)
    back = load_ifm(path)
    assert back.dim == model.dim
    assert back.use_positions == model.use_positions
    v, instr = _visual(), _instr(model)
    a, _ = fuse(model, v, instr)
    b, _ = fuse(back, v, instr)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        filter_tokens(model, a, eps=0.0).relevance_scores,
        filter_tokens(back, b, eps=0.0).relevance_scores)
    save_ifm(path, ifm_init(seed=3, dim=DIM, use_positions=False))
    assert load_ifm(path).use_positions is False


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "other.npz"
    weights_io.write_weights(path, weights_io.KIND_DETECTOR,
                             {"meta": np.zeros(2)})
    with pytest.raises(ValueError, match="not an IFM"):
        load_ifm(path)
