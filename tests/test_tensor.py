"""Kernel-level checks: hand oracles for the dense ops, finite-difference
oracles for the MLP gradients, and exactness of the FLOP accounting."""

import importlib.machinery
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from docprune import tensor
from docprune.rng import Rng
from docprune.tensor import (ELEMWISE_FLOPS, NO_FLOPS, FlopCounter,
                             LossCurve, Mlp2, SharedFlops, attention,
                             bce_loss, gelu, gelu_grad, layernorm, linear,
                             map_on_cores, matmul, mlp2_forward, mlp2_init,
                             row_parts, sigmoid, softmax_rows)
from helpers import (SecondThread, blas_threads, fake_cores, mlp2_pass,
                     mlp2_zeros)


# --- matmul ---

def test_matmul_identity():
    b = np.array([[3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(matmul(np.eye(2), b), b)


def test_matmul_hand_case():
    out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(out, [[11.0]])


def test_matmul_against_triple_loop():
    rng = Rng(11)
    a = rng.uniforms(64, -1, 1).reshape(8, 8)
    b = rng.uniforms(64, -1, 1).reshape(8, 8)
    ref = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            s = 0.0
            for k in range(8):
                s += a[i, k] * b[k, j]
            ref[i, j] = s
    np.testing.assert_allclose(matmul(a, b), ref, atol=1e-12)


def test_matmul_rejects_mismatch():
    with pytest.raises(ValueError):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_matmul_transpose_consistency():
    rng = Rng(12)
    a = rng.uniforms(64, -1, 1).reshape(8, 8)
    b = rng.uniforms(64, -1, 1).reshape(8, 8)
    np.testing.assert_allclose(matmul(a, b).T, matmul(b.T, a.T), atol=1e-10)


# --- softmax ---

def test_softmax_symmetry_and_shift():
    np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])),
                               [[0.5, 0.5]])
    np.testing.assert_allclose(softmax_rows(np.array([[1000.0, 1000.0]])),
                               [[0.5, 0.5]])


def test_softmax_rows_sum_to_one():
    a = Rng(13).uniforms(16, -5, 5).reshape(4, 4)
    sums = softmax_rows(a).sum(axis=1)
    np.testing.assert_allclose(sums, np.ones(4), atol=1e-9)


def test_softmax_shift_invariance():
    a = Rng(14).uniforms(12, -3, 3).reshape(3, 4)
    np.testing.assert_allclose(softmax_rows(a), softmax_rows(a + 7.5),
                               atol=1e-12)


# --- layernorm ---

def test_layernorm_constant_row_is_zero():
    out = layernorm(np.full((1, 6), 4.2), np.ones(6), np.zeros(6))
    np.testing.assert_allclose(out, np.zeros((1, 6)), atol=1e-6)


def test_layernorm_two_point():
    out = layernorm(np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2))
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-5)


def test_layernorm_row_statistics():
    a = Rng(15).uniforms(32, -2, 2).reshape(4, 8)
    out = layernorm(a, np.ones(8), np.zeros(8))
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(4), atol=1e-6)
    np.testing.assert_allclose(out.var(axis=1), np.ones(4), atol=1e-3)


def test_row_kernels_take_only_2d_inputs():
    # layernorm and softmax_rows take stacks (test_stacked_kernels_equal_
    # their_slices); the MLP's hidden rows are a matrix, so a 3-D x fails
    with pytest.raises(ValueError):
        mlp2_forward(np.zeros((2, 3, 6)), mlp2_zeros(6, 8, 1))


def test_layernorm_validates_shapes():
    with pytest.raises(ValueError):
        layernorm(np.zeros((2, 4)), np.ones(3), np.zeros(4))
    with pytest.raises(ValueError):
        layernorm(np.zeros((2, 4)), np.ones(4), np.zeros(3))


# --- attention ---

def test_attention_one_hot_limit():
    # query aligned with key 0 at large scale: output is value row 0
    q = np.array([[100.0, 0.0]])
    k = np.array([[100.0, 0.0], [0.0, 100.0]])
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(attention(q, k, v), [[1.0, 2.0]], atol=1e-9)


def test_attention_identical_queries_identical_rows():
    q = np.tile(Rng(16).uniforms(4), (3, 1))
    k = Rng(17).uniforms(20).reshape(5, 4)
    v = Rng(18).uniforms(10).reshape(5, 2)
    out = attention(q, k, v)
    np.testing.assert_allclose(out[0], out[1])
    np.testing.assert_allclose(out[0], out[2])


def test_attention_matches_composed_oracle():
    rng = Rng(19)
    q = rng.uniforms(12, -1, 1).reshape(3, 4)
    k = rng.uniforms(12, -1, 1).reshape(3, 4)
    v = rng.uniforms(15, -1, 1).reshape(3, 5)
    ref = softmax_rows((q @ k.T) / 2.0) @ v
    np.testing.assert_allclose(attention(q, k, v), ref, atol=1e-10)


def test_attention_rejects_mismatch():
    with pytest.raises(ValueError):     # q/k width
        attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError):     # k/v rows
        attention(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 4)))


# --- stacked operands ---

def _stack(seed, *shape):
    return Rng(seed).uniforms(math.prod(shape), -1, 1).reshape(shape)


@pytest.mark.parametrize("rows", [1, 4, 16, 64])
def test_stacked_kernels_equal_their_slices(rows):
    q, k = _stack(40, 5, rows, 8), _stack(41, 5, rows, 8)
    v = _stack(42, 5, rows, 6)
    gamma, beta = _stack(43, 8), _stack(44, 8)
    cases = ((matmul, (q, k.swapaxes(1, 2))), (softmax_rows, (q,)),
             (attention, (q, k, v)),
             (lambda a, c: layernorm(a, gamma, beta, c), (q,)))
    for f, args in cases:
        c_stack, c_one = FlopCounter(), FlopCounter()
        out = f(*args, c_stack)
        for w in range(5):
            one = f(*(a[w] for a in args), c_one)
            assert one.tobytes() == out[w].tobytes()
        assert c_stack.total() == c_one.total() > 0


def test_stacked_flops_are_w_times_one_slice():
    c = FlopCounter()
    matmul(np.zeros((7, 3, 4)), np.zeros((7, 4, 5)), c)
    assert c.total() == 7 * 2 * 3 * 4 * 5
    c = FlopCounter()      # one (4, 5) operand broadcast over the stack
    assert matmul(np.zeros((7, 3, 4)), np.zeros((4, 5)), c).shape == (7, 3, 5)
    assert c.total() == 7 * 2 * 3 * 4 * 5
    c = FlopCounter()      # a vector operand: (3,) @ (3, 2) is 2 outputs
    assert matmul(np.ones(3), np.ones((3, 2)), c).tolist() == [3.0, 3.0]
    assert c.total() == 2 * 3 * 2
    c = FlopCounter()
    softmax_rows(np.zeros((7, 2, 8)), c)
    assert c.total() == 7 * ELEMWISE_FLOPS * 16
    c = FlopCounter()
    attention(np.zeros((7, 3, 4)), np.zeros((7, 5, 4)), np.zeros((7, 5, 6)), c)
    assert c.total() == 7 * (2 * 3 * 4 * 5 + ELEMWISE_FLOPS * 15
                             + 2 * 3 * 5 * 6)


def test_softmax_rows_into_its_input():
    a = _stack(43, 3, 4, 4)
    expect = softmax_rows(a)
    assert softmax_rows(a, out=a) is a
    assert a.tobytes() == expect.tobytes()


def test_stacked_shapes_are_checked_by_operand():
    with pytest.raises(ValueError):     # stacks of unequal W
        matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))
    with pytest.raises(ValueError):     # a key that is no matrix
        attention(np.zeros((3, 4)), np.zeros(4), np.zeros((3, 4)))
    with pytest.raises(ValueError):     # k/v rows
        attention(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)),
                  np.zeros((2, 5, 4)))


# --- MLP and gradients ---

def test_mlp2_zero_network_scores_half():
    x = Rng(20).uniforms(18).reshape(3, 6)
    out = mlp2_forward(x, mlp2_zeros(6, 8, 1), sigmoid_out=True)
    np.testing.assert_allclose(out, np.full((3, 1), 0.5))


def test_bce_head_gradient_closed_form():
    # prediction 0.5, label 1: dL/db2 = (pred - y) / n = -0.5
    x = np.zeros((1, 6))
    p = mlp2_zeros(6, 8, 1)
    _, g = mlp2_pass(x, p, np.array([[1.0]]))
    np.testing.assert_allclose(g["db2"], [-0.5])


def test_bce_loss_at_half_is_ln2():
    pred = np.full((4, 1), 0.5)
    y = np.array([[0.0], [1.0], [1.0], [0.0]])
    assert abs(bce_loss(pred, y) - np.log(2.0)) < 1e-9


def test_bce_pos_weight_scales_positive_term():
    pred = np.full((2, 1), 0.5)
    y = np.array([[1.0], [0.0]])
    assert abs(bce_loss(pred, y, pos_weight=3.0) - 2.0 * np.log(2.0)) < 1e-9


def _fd_grad(x, p, y, param, idx, pw, h=1e-5):
    arr = getattr(p, param)
    arr[idx] += h
    up = bce_loss(mlp2_forward(x, p, sigmoid_out=True), y, pw)
    arr[idx] -= 2 * h
    down = bce_loss(mlp2_forward(x, p, sigmoid_out=True), y, pw)
    arr[idx] += h
    return (up - down) / (2 * h)


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    rng = Rng(seed)
    x = rng.uniforms(30, -1, 1).reshape(5, 6)
    y = (rng.uniforms(5) > 0.5).astype(float).reshape(5, 1)
    p = mlp2_init(rng, 6, 7, 1)
    pw = 1.0 if seed % 2 == 0 else 2.5
    _, g = mlp2_pass(x, p, y, pos_weight=pw)
    checks = [("w1", (2, 3), "dw1"), ("b1", (1,), "db1"),
              ("w2", (4, 0), "dw2"), ("b2", (0,), "db2")]
    for param, idx, key in checks:
        arr_idx = idx if len(idx) > 1 else idx[0]
        analytic = g[key][arr_idx]
        numeric = _fd_grad(x, p, y, param, arr_idx, pw)
        denom = max(abs(numeric), 1e-8)
        assert abs(analytic - numeric) / denom < 1e-4, (param, idx)


def test_gelu_grad_matches_finite_differences():
    x = Rng(9).uniforms(50, -3, 3)
    h = 1e-6
    numeric = (gelu(x + h) - gelu(x - h)) / (2 * h)
    np.testing.assert_allclose(gelu_grad(x), numeric, atol=1e-6)


@pytest.mark.parametrize("rows,in_dim,hidden,pw", [
    (1, 3, 2, None), (7, 6, 5, 2.5), (64, 16, 24, None), (300, 32, 32, 9.0)])
def test_backward_reuses_forward_erf_exactly(rows, in_dim, hidden, pw):
    # reference: the standalone kernels, each evaluating erf itself
    rng = Rng(rows * 1000 + hidden)
    x = rng.uniforms(rows * in_dim, -2, 2).reshape(rows, in_dim)
    y = (rng.uniforms(rows) > 0.6).astype(float).reshape(rows, 1)
    p = mlp2_init(rng, in_dim, hidden, 1)
    z1 = linear(x, p.w1, p.b1)
    h = gelu(z1)
    pred = sigmoid(linear(h, p.w2, p.b2))
    dz2 = np.where(y > 0.5, 1.0 if pw is None else pw, 1.0) * (pred - y) / y.size
    dz1 = (dz2 @ p.w2.T) * gelu_grad(z1)
    want = {"dw1": x.T @ dz1, "db1": dz1.sum(axis=0), "dw2": h.T @ dz2,
            "db2": dz2.sum(axis=0)}
    out, g = mlp2_pass(x, p, y) if pw is None else mlp2_pass(x, p, y, pw)
    assert np.array_equal(out, pred)
    for key, ref in want.items():
        assert np.array_equal(g[key], ref), key


def _gelu_whole(x):
    return 0.5 * x * (1.0 + erf(x * 0.7071067811865476))


def _gelu_grad_whole(x):
    return (0.5 * (1.0 + erf(x * 0.7071067811865476))
            + x * 0.3989422804014327 * np.exp(-0.5 * x * x))


def _boundary_cases():
    # rows around the kernels' row block, and around the 16k-element block
    # of earlier versions (now arrays of one block or a few), for hidden
    # widths 1, 32 and 256
    cases = {}
    for width in (1, 32, 256):
        for block in (16384, tensor._BLOCK):
            b = max(1, block // width)
            for rows in (1, b - 1, b, b + 1, 3 * b + 7):
                cases[width, rows] = None
    return list(cases)


@pytest.mark.parametrize("width,rows", _boundary_cases())
def test_blocked_kernels_equal_whole_array_formulas(monkeypatch, width, rows):
    # two cores, so mlp2_forward's and mlp2_backward's blocks map on two
    # threads wherever numpy's OpenBLAS is found; gelu and gelu_grad walk
    # their blocks on the calling thread
    _cores(monkeypatch, 2)
    rng = Rng(rows * 7 + width)
    z = rng.uniforms(rows * width, -4, 4).reshape(rows, width)
    assert np.array_equal(gelu(z), _gelu_whole(z))
    assert np.array_equal(gelu_grad(z), _gelu_grad_whole(z))
    assert np.array_equal(gelu(z.ravel()), _gelu_whole(z.ravel()))

    x = rng.uniforms(rows * 5, -2, 2).reshape(rows, 5)
    y = (rng.uniforms(rows) > 0.7).astype(float).reshape(rows, 1)
    p = mlp2_init(rng, 5, width, 1)
    z1 = x @ p.w1 + p.b1
    h = _gelu_whole(z1)
    pred = sigmoid(h @ p.w2 + p.b2)
    dz2 = np.where(y > 0.5, 2.0, 1.0) * (pred - y) / y.size
    dz1 = (dz2 @ p.w2.T) * _gelu_grad_whole(z1)
    want = {"dw1": x.T @ dz1, "db1": dz1.sum(axis=0), "dw2": h.T @ dz2,
            "db2": dz2.sum(axis=0)}
    assert np.array_equal(mlp2_forward(x, p, sigmoid_out=True), pred)
    out, g = mlp2_pass(x, p, y, pos_weight=2.0)
    assert np.array_equal(out, pred)
    assert g.keys() == want.keys()
    for key, ref in want.items():
        assert np.array_equal(g[key], ref), key


@pytest.mark.parametrize("width,rows", _boundary_cases())
def test_row_blocks_hold_enough_rows(width, rows):
    # row_parts, the one cut of rows into parts (the MLP kernels' row
    # blocks, the encoder's sublayer parts), over `rows` rows in items of
    # `item` rows, at this width and at one so wide that _BLOCK elements
    # hold fewer than MIN_PRODUCT_ROWS rows: contiguous parts that cover
    # the items and differ by one item at most, each of MIN_PRODUCT_ROWS
    # rows at least unless the whole has fewer, two at least wherever
    # that is allowed, and of about _BLOCK elements
    for item, w in itertools.product((1, 9, 25, 64, 100, 4096),
                                     (width, 4096 * width)):
        assert row_parts(0, item, w) == []
        n = -(-rows // item)
        least = -(-tensor.MIN_PRODUCT_ROWS // item)   # items
        parts = row_parts(n, item, w)
        assert parts[0].start == 0 and parts[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
        sizes = [r.stop - r.start for r in parts]
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= least or parts == [slice(0, n)]
        assert len(parts) >= 2 or n < 2 * least
        assert max(sizes) <= max(1, tensor._BLOCK // (item * w),
                                 2 * least - 1)


def test_forward_product_blocks_run_on_every_core(monkeypatch):
    if tensor._openblas() is None:
        pytest.skip("map_on_cores is the plain loop without OpenBLAS")
    _cores(monkeypatch, 2)
    rng = Rng(6)
    # 700 rows at hidden width 256: three even row blocks of about
    # tensor._BLOCK elements
    x = rng.uniforms(700 * 8, -1, 1).reshape(700, 8)
    p = mlp2_init(rng, 8, 256, 1)
    blocks, real = [], tensor.linear

    def block(a, w, *args, **kwargs):
        blocks.append((len(a), threading.get_ident()))
        return real(a, w, *args, **kwargs)

    first = SecondThread(block)
    monkeypatch.setattr(tensor, "linear", lambda a, w, *args, **kwargs: (
        first if w is p.w1 else real)(a, w, *args, **kwargs))
    mlp2_forward(x, p, sigmoid_out=True)
    assert sorted(n for n, _ in blocks) == [233, 233, 234]
    assert len({t for _, t in blocks}) == 2


def test_mlp2_forward_returns_its_output_alone(monkeypatch):
    # no spent cache, no (output, cache) tuple, and no gelu'(z1) unless a
    # training loop passes in the arrays for it
    assert "spent" not in inspect.signature(mlp2_forward).parameters
    calls, prime = [], tensor._gelu_prime

    def counted(*args):
        calls.append(len(args[0]))
        return prime(*args)

    monkeypatch.setattr(tensor, "_gelu_prime", counted)
    x = Rng(34).uniforms(700 * 6).reshape(700, 6)
    for sigmoid_out in (False, True):
        out = mlp2_forward(x, mlp2_init(Rng(35), 6, 256, 2),
                           sigmoid_out=sigmoid_out)
        assert type(out) is np.ndarray and out.shape == (700, 2)
    assert calls == []


def test_mlp2_forward_rejects_bad_input():
    with pytest.raises(ValueError):     # width
        mlp2_forward(np.zeros((2, 5)), mlp2_zeros(6, 4, 1))


def test_backward_rejects_label_shape():
    with pytest.raises(ValueError, match="label shape"):
        mlp2_pass(np.zeros((2, 6)), mlp2_zeros(6, 4, 1), np.zeros((3, 1)))


# --- FLOP accounting ---

def test_flop_counts_are_exact_integers():
    c = FlopCounter()
    matmul(np.zeros((3, 4)), np.zeros((4, 5)), c)
    assert c.total() == 2 * 3 * 4 * 5

    c = FlopCounter()
    linear(np.zeros((3, 4)), np.zeros((4, 5)), np.zeros(5), c)
    assert c.total() == 2 * 3 * 4 * 5 + 15

    c = FlopCounter()
    softmax_rows(np.zeros((2, 8)), c)
    assert c.total() == ELEMWISE_FLOPS * 16

    c = FlopCounter()
    attention(np.zeros((3, 4)), np.zeros((5, 4)), np.zeros((5, 6)), c)
    expected = 2 * 3 * 4 * 5 + ELEMWISE_FLOPS * 15 + 2 * 3 * 5 * 6
    assert c.total() == expected


def test_flop_counter_additive_across_composition():
    c_both = FlopCounter()
    x = Rng(30).uniforms(24).reshape(4, 6)
    p = mlp2_init(Rng(31), 6, 5, 2)
    mlp2_forward(x, p, c_both)

    c1, c2, c3 = FlopCounter(), FlopCounter(), FlopCounter()
    z1 = linear(x, p.w1, p.b1, c1)
    h = gelu(z1, c2)
    linear(h, p.w2, p.b2, c3)
    assert c_both.total() == c1.total() + c2.total() + c3.total()


@pytest.mark.parametrize("sigmoid_out", [False, True])
def test_mlp2_forward_charges_its_parts_under_the_callers_category(
        sigmoid_out):
    # the hidden layer's blocks, on any thread, charge their linear and
    # gelu under the category that is current when the pass is called
    x = Rng(32).uniforms(700 * 6).reshape(700, 6)
    p = mlp2_init(Rng(33), 6, 256, 2)
    got, want = FlopCounter(), FlopCounter()
    with got.category("projector"):
        mlp2_forward(x, p, got, sigmoid_out=sigmoid_out)
    with want.category("projector"):
        h = gelu(linear(x, p.w1, p.b1, want), want)
        z2 = linear(h, p.w2, p.b2, want)
        if sigmoid_out:
            sigmoid(z2, want)
    assert got.by_category == want.by_category
    assert list(got.by_category) == ["projector"]


def test_flop_counter_categories_nest():
    c = FlopCounter()
    with c.category("outer"):
        c.add(10)
        with c.category("inner"):
            c.add(5)
        c.add(1)
    c.add(2)
    assert c.get("outer") == 11
    assert c.get("inner") == 5
    assert c.get("uncategorized") == 2
    assert c.total() == 18


def test_shared_flops_charge_each_counter_in_full():
    runs = [FlopCounter() for _ in range(3)]
    with runs[0].category("encoder_ffn"):
        shared = SharedFlops(runs)
        with shared.category("projector"):
            matmul(np.ones((2, 3)), np.ones((3, 4)), shared)   # 48 FLOPs
        shared.add(5)
        runs[0].add(1)
    for c in runs:
        assert c.get("projector") == 48 and c.get("uncategorized") == 5
    assert runs[0].get("encoder_ffn") == 1
    assert shared.by_category == {"projector": 3 * 48, "uncategorized": 15}
    # get reads the summed tally, as by_category does
    assert (shared.get("projector") == 3 * 48
            and shared.get("uncategorized") == 15)
    assert shared.get("encoder_ffn") == 0


def test_sigmoid_extremes_and_symmetry():
    x = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
    s = sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[2] == 0.5
    np.testing.assert_allclose(s + s[::-1], np.ones(5), atol=1e-12)


def test_loss_curve_rejects_non_finite():
    curve = LossCurve()
    curve.append(0.7)
    with pytest.raises(FloatingPointError):
        curve.append(float("nan"))


def test_mlp2_copy_is_deep():
    p = mlp2_init(Rng(8), 4, 3, 1)
    q = p.copy()
    q.w1[0, 0] += 1.0
    assert p.w1[0, 0] != q.w1[0, 0]


# --- erf, loaded from scipy's extension module ---

def _erf_inputs():
    branch = [np.nextafter(v, t) for v in (-8.0, -1.0, 1.0, 8.0)
              for t in (-np.inf, np.inf)]
    special = [0.0, -0.0, -1.0, 1.0, -8.0, 8.0, np.inf, -np.inf, np.nan,
               5e-324, -5e-324, 1e-300, -1e-300, 27.0, -27.0]
    normals = np.random.default_rng(0).standard_normal(10**6) * 4.0
    return np.concatenate([special, branch, np.linspace(-10, 10, 20001),
                           normals])


def _assert_bit_equal(f):
    x = _erf_inputs()
    got, want = f(x), erf(x)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    inplace = x.copy()
    f(inplace, out=inplace)
    assert np.array_equal(inplace, want, equal_nan=True)


def test_erf_is_scipys_ufunc_bit_for_bit():
    assert isinstance(tensor.erf, np.ufunc)
    _assert_bit_equal(tensor.erf)


@pytest.mark.parametrize("layout", ["no scipy", "no module", "unloadable"])
def test_erf_loader_falls_back_to_scipy_special(tmp_path, layout):
    scipy_dir = None if layout == "no scipy" else str(tmp_path)
    if layout == "unloadable":
        (tmp_path / "special").mkdir()
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (tmp_path / "special" / f"_special_ufuncs{suffix}").write_bytes(
            b"not a shared object")
    loaded = tensor._load_erf(scipy_dir)
    assert loaded is erf
    _assert_bit_equal(loaded)


def test_erf_loader_reads_the_extension_module():
    loaded = tensor._load_erf(tensor._scipy_dir())
    assert isinstance(loaded, np.ufunc) and loaded.__name__ == "erf"
    _assert_bit_equal(loaded)


_FRESH_RUN = """
import json, sys
import numpy


def openblas():
    if not sys.platform.startswith("linux"):
        return []
    with open("/proc/self/maps") as f:
        return sorted({line.rsplit("/", 1)[-1] for line in f
                       if "openblas" in line.lower()})


with_numpy = openblas()
from docprune.cli import main
assert main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps({"special": "scipy.special" in sys.modules,
                  "with_numpy": with_numpy, "after_run": openblas()}))
"""


def test_cli_run_does_not_import_scipy_special(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"image_size": 64, "corpus_n": 1}))
    src = str(Path(tensor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout.strip().splitlines()[-1])
    assert seen["special"] is False
    assert (tmp_path / "out" / "report.json").is_file()
    # numpy's own OpenBLAS, and not scipy's second one
    assert seen["after_run"] == seen["with_numpy"]
    if sys.platform.startswith("linux"):
        assert len(seen["after_run"]) == 1, seen


# --- map_on_cores ---

class _FakeBlas:
    """An OpenBLAS thread count that logs every change made to it."""

    def __init__(self, n: int):
        self.n, self.log = n, []

    def get(self) -> int:
        return self.n

    def set(self, n: int) -> None:
        self.n = n
        self.log.append(n)


def _cores(monkeypatch, n: int, blas=None) -> None:
    """map_on_cores sees n cores and, when given, a fake OpenBLAS."""
    fake_cores(monkeypatch, n)
    if blas is not None:
        monkeypatch.setattr(tensor, "_openblas", lambda: (blas.get, blas.set))


def test_map_on_cores_returns_results_in_input_order(monkeypatch):
    # more threads than cores and a short switch interval, so a lost
    # update of the shared cursor would skip or repeat an item; the first
    # item waits for a second thread, so that the caller cannot take
    # every item before another thread starts
    blas = _FakeBlas(2)
    _cores(monkeypatch, 8, blas)
    seen = []

    def square(x):
        seen.append(x)
        return x * x

    recorded = SecondThread(square)
    threads = recorded.threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = map_on_cores(recorded, range(3000))
    finally:
        sys.setswitchinterval(interval)
    assert out == [x * x for x in range(3000)]
    assert sorted(seen) == list(range(3000))
    assert len(threads) >= 2
    assert blas.log == [1, 2] and blas.n == 2


@pytest.mark.parametrize("cores", [1, 2])
def test_items_on_cores_charge_what_the_plain_loop_charges(monkeypatch,
                                                           cores):
    # on two cores the two named items are inside their own categories at
    # once (a barrier, 5 s at most); items that name none charge under
    # the caller's category, as they do in the plain loop
    _cores(monkeypatch, cores, _FakeBlas(2))
    counter, threads = FlopCounter(), set()
    barrier = threading.Barrier(cores, timeout=5)

    def item(x):
        name, n = x
        threads.add(threading.get_ident())
        if name is None:
            counter.add(n)
            return
        with counter.category(name):
            barrier.wait()
            counter.add(n)
        counter.add(1)

    with counter.category("caller"):
        map_on_cores(item, [("a", 10), ("b", 20), (None, 3), (None, 4)])
        counter.add(100)
    counter.add(1000)
    assert len(threads) == cores
    assert counter.by_category == {"a": 10, "b": 20, "caller": 109,
                                   "uncategorized": 1000}


def test_concurrent_adds_lose_no_update():
    # more threads than cores and a short switch interval, so a lost
    # read-modify-write of a tally would show
    counter = FlopCounter()
    shared = SharedFlops([counter, FlopCounter()])

    def charge():
        with counter.category("own"), shared.category("shared"):
            for _ in range(1000):
                counter.add(1)
                shared.add(1)
                NO_FLOPS.add(1)

    threads = [threading.Thread(target=charge, daemon=True)
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counter.by_category == {"own": 8000, "shared": 8000}
    assert shared.by_category == {"shared": 16000}
    assert shared.counters[1].by_category == {"shared": 8000}
    assert NO_FLOPS.by_category == {}


def test_map_on_cores_stops_at_a_failure_and_raises_the_lowest(monkeypatch):
    blas = _FakeBlas(4)
    _cores(monkeypatch, 2, blas)
    both = threading.Barrier(2, timeout=10)
    seen = []

    def fail_first_two(x):
        seen.append(x)
        if x < 2:
            both.wait()         # items 0 and 1 run at once, one per thread
            if x == 0:
                time.sleep(0.05)    # item 1 fails first
            raise ValueError(x)
        return x

    with pytest.raises(ValueError, match="^0$"):
        map_on_cores(fail_first_two, range(10))
    assert sorted(seen) == [0, 1]
    assert blas.log == [1, 4]


@pytest.mark.parametrize("fail", [False, True])
def test_map_on_cores_restores_the_blas_thread_count(monkeypatch, fail):
    found = tensor._openblas()
    if np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "name", "").endswith("openblas") and sys.platform == "linux":
        assert found is not None, "numpy's OpenBLAS was not found"
    _cores(monkeypatch, 2)
    inside = []
    with blas_threads(2) as get_threads:

        def work(x):
            inside.append(get_threads())
            if fail and x == 1:
                raise RuntimeError("item 1")
            return x

        if fail:
            with pytest.raises(RuntimeError, match="item 1"):
                map_on_cores(work, range(4))
        else:
            assert map_on_cores(work, range(4)) == [0, 1, 2, 3]
        assert get_threads() == 2
    assert inside and set(inside) == {1}


def test_one_blas_thread_restores_the_count_also_when_nested_or_failing(
        monkeypatch):
    blas = _FakeBlas(4)
    _cores(monkeypatch, 2, blas)
    with pytest.raises(RuntimeError, match="inner"):
        with tensor.one_blas_thread():
            with tensor.one_blas_thread():
                assert blas.n == 1
                raise RuntimeError("inner")
    assert blas.log == [1, 1, 1, 4] and blas.n == 4
    monkeypatch.setattr(tensor, "_openblas", lambda: None)
    with tensor.one_blas_thread():
        pass


@pytest.mark.parametrize("case", ["no openblas", "one core", "one item"])
def test_map_on_cores_is_the_plain_loop(monkeypatch, case):
    blas = _FakeBlas(2)
    _cores(monkeypatch, 1 if case == "one core" else 2, blas)
    if case == "no openblas":
        monkeypatch.setattr(tensor, "_openblas", lambda: None)
    items = [5] if case == "one item" else list(range(6))
    threads = []

    def double(x):
        threads.append(threading.get_ident())
        return 2 * x

    assert map_on_cores(double, items) == [2 * x for x in items]
    assert set(threads) == {threading.get_ident()}
    assert blas.log == []


class _TwoThreads(SecondThread):
    """An item function that returns 2 * x and records its thread; its
    first item waits for a second thread."""

    def __init__(self):
        super().__init__(lambda x: 2 * x)


def test_no_thread_outlives_a_call(monkeypatch):
    # 50 calls and then one whose item 2 fails: after each, the thread
    # that ran items besides the caller has ended
    _cores(monkeypatch, 2, _FakeBlas(2))
    for k in range(51):
        fn, before = _TwoThreads(), threading.active_count()
        if k < 50:
            assert map_on_cores(fn, range(4)) == [0, 2, 4, 6]
        else:

            def fail(x):
                if fn(x) == 4:
                    raise KeyError(x)

            with pytest.raises(KeyError):
                map_on_cores(fail, range(6))
        assert threading.active_count() == before
        (other,) = fn.threads - {threading.current_thread()}
        assert other.name == "docprune-core-1" and other.daemon
        assert not other.is_alive()


def _in_thread(fn, timeout=30):
    """fn() on a thread of its own; fails the test if it takes longer
    than timeout seconds, which is how a deadlock shows."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    t.join(timeout=timeout)
    assert not t.is_alive(), f"no result within {timeout} s"
    assert out, "the call raised"
    return out[0]


def test_map_on_cores_runs_a_call_inside_an_item_inline(monkeypatch):
    # 4 cores and 2 outer items: two cores stay free, and still each
    # inner call runs on the thread of its outer item
    _cores(monkeypatch, 4, _FakeBlas(2))
    outer_fn = _TwoThreads()

    def inner(y):
        time.sleep(0.01)            # time for another thread to join
        return y, threading.get_ident()

    def outer(x):
        pairs = map_on_cores(inner, range(4))
        return (outer_fn(x), [y for y, _ in pairs], {t for _, t in pairs},
                threading.get_ident())

    got = _in_thread(lambda: map_on_cores(outer, range(2)))
    assert len(outer_fn.threads) == 2       # inner calls on both threads
    for x, (double, inner_ys, threads, me) in enumerate(got):
        assert (double, inner_ys, threads) == (2 * x, [0, 1, 2, 3], {me})


def test_a_failed_call_leaves_the_cores_to_the_next(monkeypatch):
    _cores(monkeypatch, 2, _FakeBlas(2))

    def fail(x):
        raise KeyError(x)

    for _ in range(3):
        with pytest.raises(KeyError):
            map_on_cores(fail, range(6))
        fn = _TwoThreads()
        assert _in_thread(lambda: map_on_cores(fn, range(6))) == [
            0, 2, 4, 6, 8, 10]
        assert len(fn.threads) == 2


def test_a_call_waits_for_its_items_and_not_for_busy_threads(monkeypatch):
    # one call holds each of its 3 items on 3 cores: a second call, from
    # another thread, still runs its 4 items on threads of its own and
    # returns while the first call's threads stay held
    _cores(monkeypatch, 3, _FakeBlas(2))
    held, release = threading.Barrier(4, timeout=10), threading.Event()
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)

    def hold(x):
        held.wait()
        release.wait(timeout=30)
        return x

    other = []
    caller = threading.Thread(
        target=lambda: other.append(map_on_cores(hold, range(3))),
        daemon=True)
    caller.start()
    held.wait()                         # each thread of that call holds an item
    fn = _TwoThreads()
    assert _in_thread(lambda: map_on_cores(fn, range(4))) == [0, 2, 4, 6]
    assert len(fn.threads) >= 2 and not other   # the other call is held
    release.set()
    caller.join(timeout=30)
    assert not caller.is_alive() and other == [[0, 1, 2]]
    assert raised == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_maps_on_threads_of_its_own(monkeypatch):
    _cores(monkeypatch, 2, _FakeBlas(2))
    map_on_cores(abs, range(4))          # the parent's threads have ended
    pid = os.fork()
    if pid == 0:                         # the child reports by exit code
        code = 1
        try:
            fn = _TwoThreads()
            code = int(not (map_on_cores(fn, range(6)) == [0, 2, 4, 6, 8, 10]
                            and len(fn.threads) == 2))
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's map did not end in 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def _threads_after(code: str) -> list[str]:
    """What a fresh interpreter prints as its thread count after code."""
    src = str(Path(tensor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run(
        [sys.executable, "-c", f"import threading; {code}; "
         "print(threading.active_count())"],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_importing_the_cli_starts_no_thread():
    assert _threads_after("import docprune.cli") == ["1"]


def test_a_desk_run_starts_no_thread():
    # a desk page's encoder sublayers have too few parts to map
    assert _threads_after("from docprune.pipeline import PipelineConfig, "
                          "run; run(PipelineConfig(corpus_n=2))") == ["1"]


def test_training_leaves_no_thread_behind():
    # on 2 faked cores the 2 documents' samples are prepared on two
    # threads; the training that follows leaves no thread either
    assert _threads_after(
        "import os; os.sched_getaffinity = lambda pid: {0, 1}; "
        "from docprune.pipeline import PipelineConfig, build_models, "
        "prepare_ifm_samples; from docprune.synthdoc import make_corpus; "
        "from docprune.instruction_filter import train_ifm; "
        "c = PipelineConfig(image_size=128, corpus_n=2); "
        "m = build_models(c); s = prepare_ifm_samples(c, make_corpus("
        "2, c.content_fraction, 128, c.seed), m); "
        "train_ifm(m.ifm, s, 2, 0.05)") == ["1"]
