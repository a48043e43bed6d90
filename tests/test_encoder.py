"""Gating equivalences the encoder must honour exactly: zero gates are the
identity, unit gates match the ungated path bit for bit, and the window
bypass is a pure optimization."""

import numpy as np
import pytest

from docprune import encoder
from docprune.encoder import (EncoderModel, attn_residual, encode,
                              encoder_init, gate_combine, gated_block,
                              merge_patches, window_pass)
from docprune.patching import TokenGrid
from docprune.rng import Rng
from docprune.tensor import FlopCounter
from helpers import DEFAULT_EPS_C, ZERO_EPS_C


def _grid(side=16, dim=8, seed=0):
    tokens = Rng(seed).uniforms(side * side * dim, -1.0, 1.0)
    return TokenGrid(side, side, dim, tokens.reshape(side * side, dim))


def _model(seed=0, d0=8, depths=(2, 1, 1, 1), window=4):
    return encoder_init(seed, d0=d0, depths=depths, window=window)


def _block(seed=1, dim=8):
    return _model(seed, d0=dim).blocks[0][0]


# --- gating algebra -------------------------------------------------------

def test_zero_gate_is_identity():
    grid = _grid()
    p = np.zeros(grid.n_tokens)
    out, computed, total = gated_block(grid, p, _block(), window=4,
                                       shifted=False)
    np.testing.assert_array_equal(out.tokens, grid.tokens)
    assert (computed, total) == (0, 16)


def test_zero_gate_identity_without_bypass():
    grid = _grid()
    p = np.zeros(grid.n_tokens)
    out, computed, total = gated_block(grid, p, _block(), window=4,
                                       shifted=False, bypass=False)
    np.testing.assert_array_equal(out.tokens, grid.tokens)
    assert computed == total == 16


def test_unit_gate_matches_ungated():
    grid = _grid()
    p = np.ones(grid.n_tokens)
    gated, *_ = gated_block(grid, p, _block(), window=4, shifted=True)
    plain, *_ = gated_block(grid, None, _block(), window=4, shifted=True)
    np.testing.assert_array_equal(gated.tokens, plain.tokens)


def test_gate_combine_half_is_average():
    rng = Rng(2)
    h = rng.uniforms(40).reshape(10, 4)
    fh = rng.uniforms(40).reshape(10, 4)
    p = np.full((10, 1), 0.5)
    np.testing.assert_allclose(gate_combine(p, fh, h), (fh + h) / 2.0,
                               atol=1e-15)


def test_soft_half_gate_halves_the_update():
    grid = _grid()
    bw = _block()
    plain, *_ = window_pass(grid, None, bw, window=4, shifted=False)
    soft, *_ = window_pass(grid, np.full(grid.n_tokens, 0.5), bw, window=4,
                           shifted=False, bypass=False)
    update = plain.tokens - grid.tokens
    np.testing.assert_allclose(soft.tokens, grid.tokens + 0.5 * update,
                               atol=1e-12)


def test_gate_length_checked():
    grid = _grid()
    with pytest.raises(ValueError, match="gate length"):
        window_pass(grid, np.zeros(5), _block(), window=4, shifted=False)


# --- window bookkeeping ---------------------------------------------------

def test_window_bypass_counts():
    grid = _grid(side=16)
    p = np.zeros((16, 16))
    p[:4, :4] = 1.0  # exactly one window active at window=4, unshifted
    _, computed, total = window_pass(grid, p.ravel(), _block(), window=4,
                                     shifted=False)
    assert (computed, total) == (1, 16)


def test_window_order_does_not_matter():
    # windows touch disjoint tokens: attending them one at a time in
    # reverse order, each from the pass's input, gives the pass's output
    grid = _grid(side=16)
    p = (Rng(4).uniforms(256) > 0.5).astype(np.float64)
    bw = _block()
    out, *_ = window_pass(grid, p, bw, window=4, shifted=True)
    t = np.roll(grid.tokens.reshape(16, 16, -1), (-2, -2), axis=(0, 1))
    pm = np.roll(p.reshape(16, 16), (-2, -2), axis=(0, 1))
    expect = t.copy()
    for w in reversed(range(16)):
        r, c = divmod(w, 4)
        rs, cs = slice(4 * r, 4 * r + 4), slice(4 * c, 4 * c + 4)
        tv, pw = t[rs, cs].reshape(16, -1), pm[rs, cs].reshape(16, 1)
        if pw.any():
            new = gate_combine(pw, attn_residual(tv, bw), tv)
            expect[rs, cs] = new.reshape(4, 4, -1)
    expect = np.roll(expect, (2, 2), axis=(0, 1)).reshape(256, -1)
    np.testing.assert_array_equal(out.tokens, expect)


def test_bypass_is_a_pure_optimization():
    for seed in range(3):
        grid = _grid(seed=seed)
        p0 = Rng(seed + 10).uniforms(grid.n_tokens)
        model = _model(seed)
        fast = encode(model, grid, p0, DEFAULT_EPS_C, bypass=True)
        slow = encode(model, grid, p0, DEFAULT_EPS_C, bypass=False)
        np.testing.assert_array_equal(fast.sequence, slow.sequence)
        np.testing.assert_array_equal(fast.kept_indices, slow.kept_indices)
        np.testing.assert_array_equal(fast.grid.tokens, slow.grid.tokens)
        assert fast.trace[0].windows_bypassed >= 0
        assert slow.trace[0].windows_bypassed == 0


def test_padding_strip_on_non_divisible_grid():
    grid = _grid(side=12)
    out, _, total = window_pass(grid, None, _block(), window=8, shifted=False)
    assert (out.rows, out.cols) == (12, 12)
    assert out.tokens.shape == grid.tokens.shape
    assert total == 4  # padded up to 16x16
    # pad tokens are gate-0 scaffolding; the pass stays deterministic
    again, *_ = window_pass(grid, None, _block(), window=8, shifted=False)
    np.testing.assert_array_equal(out.tokens, again.tokens)


def test_shifted_blocks_differ_from_unshifted():
    grid = _grid()
    bw = _block()
    a, *_ = window_pass(grid, None, bw, window=4, shifted=False)
    b, *_ = window_pass(grid, None, bw, window=4, shifted=True)
    assert not np.array_equal(a.tokens, b.tokens)


# --- merges and probability propagation -----------------------------------

def test_merge_probability_is_child_max():
    p0 = np.zeros(64)
    p0[[0, 1, 8, 9]] = [0.2, 0.6, 0.1, 0.3]    # the top-left 2x2 block
    trace = encode(_model(), _grid(side=8), p0).trace
    assert trace[1].raw_entry[0] == 0.6
    # the merge itself carries tokens only: the grid halves, the dim doubles
    merged = merge_patches(_grid(side=2, dim=8), merge=_model().merges[0])
    assert (merged.rows, merged.cols, merged.dim) == (1, 1, 16)


def test_merge_probabilities_match_maxpool_oracle():
    raw = Rng(7).uniforms(64)
    merged = encode(_model(), _grid(side=8, seed=6), raw).trace[1].raw_entry
    oracle = raw.reshape(4, 2, 4, 2).transpose(0, 2, 1, 3).reshape(16, 4).max(axis=1)
    np.testing.assert_array_equal(merged, oracle)


def test_merge_rejects_odd_grid():
    # a 6x6 grid merges to 3x3, which the second merge cannot halve
    grid = TokenGrid(6, 6, 8, np.zeros((36, 8)))
    with pytest.raises(ValueError, match="odd grid"):
        encode(_model(), grid, np.zeros(36))


def test_encode_takes_one_child_max_per_merge(monkeypatch):
    # _stage_maps makes every stage's map; the merges take no child max
    calls = []
    real = encoder._child_max

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(encoder, "_child_max", counted)
    encode(_model(), _grid(), Rng(8).uniforms(256), DEFAULT_EPS_C)
    assert calls == [(16, 16), (8, 8), (4, 4)]


def test_stage_entry_probs_are_iterated_maxpools():
    grid = _grid(side=16)
    p0 = Rng(9).uniforms(256)
    result = encode(_model(), grid, p0, ZERO_EPS_C)
    raw = p0.copy()
    for s, entry in enumerate(result.trace):
        np.testing.assert_array_equal(entry.raw_entry, raw)
        g = 16 >> s
        raw = (raw.reshape(g // 2, 2, g // 2, 2)
               .transpose(0, 2, 1, 3).reshape(-1, 4).max(axis=1))


# --- whole-encoder equivalences --------------------------------------------

def test_zero_thresholds_equal_ungated():
    grid = _grid()
    p0 = Rng(11).uniforms(grid.n_tokens)
    model = _model()
    gated = encode(model, grid, p0, ZERO_EPS_C)
    plain = encode(model, grid, p0, gated=False)
    np.testing.assert_allclose(gated.sequence, plain.sequence, atol=1e-9)
    assert gated.kept_final == plain.kept_final == gated.grid.n_tokens


def test_all_zero_probs_prune_everything():
    grid = _grid()
    p0 = np.zeros(grid.n_tokens)
    result = encode(_model(), grid, p0, DEFAULT_EPS_C)
    assert result.kept_final == 0
    assert result.sequence.shape == (0, result.grid.dim)
    # the grid itself keeps its geometry until the final drop
    assert result.grid.n_tokens == 4


def test_compute_monotone_in_threshold():
    grid = _grid()
    p0 = Rng(13).uniforms(grid.n_tokens)
    model = _model()
    totals = []
    for e in (0.0, 0.3, 0.6, 0.9):
        counter = FlopCounter()
        encode(model, grid, p0, (e,) * 4, counter=counter)
        totals.append(counter.total())
    assert all(a >= b for a, b in zip(totals, totals[1:]))
    assert totals[0] > totals[-1]


def test_final_drop_matches_last_binarized_map():
    grid = _grid()
    p0 = (Rng(14).uniforms(grid.n_tokens) > 0.6).astype(float)
    result = encode(_model(), grid, p0, DEFAULT_EPS_C)
    final = result.trace[-1].binarized
    np.testing.assert_array_equal(result.kept_indices, np.flatnonzero(final))
    np.testing.assert_array_equal(result.sequence,
                                  result.grid.tokens[result.kept_indices])


def test_cached_encode_returns_the_stored_result():
    grid = _grid()
    p0 = (Rng(14).uniforms(grid.n_tokens) > 0.6).astype(float)
    model = _model()
    ref_counter = FlopCounter()
    ref = encode(model, grid, p0, DEFAULT_EPS_C, counter=ref_counter)
    cache, results = {}, []
    for _ in range(3):
        counter = FlopCounter()
        results.append(encode(model, grid, p0, DEFAULT_EPS_C, counter=counter,
                              cache=cache))
        # a hit charges what a fresh encode charges
        assert counter.by_category == ref_counter.by_category
    # and returns the result the first encode stored, not a copy of it
    assert results[1] is results[0] and results[2] is results[0]
    np.testing.assert_array_equal(results[0].grid.tokens, ref.grid.tokens)
    np.testing.assert_array_equal(results[0].kept_indices, ref.kept_indices)
    assert len(cache) == 1


def test_encode_validates_inputs():
    grid = _grid()
    model = _model()
    ones = np.ones(grid.n_tokens)
    with pytest.raises(ValueError, match="does not match"):
        encode(model, grid, np.ones(7))
    with pytest.raises(ValueError, match="does not match"):
        encode(model, grid, ones.reshape(16, 16))
    for bad in (np.nan, np.inf, -np.inf, -0.1, 1.5):
        p0 = ones.copy()
        p0[5] = bad
        with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
            encode(model, grid, p0)
    with pytest.raises(ValueError, match="thresholds"):
        encode(model, grid, ones, (0.1, 0.2))
    with pytest.raises(ValueError, match="FlopCounter"):
        encode(model, grid, ones, cache={})


# --- construction ----------------------------------------------------------

def test_encoder_dims_double_per_stage():
    model = encoder_init(0, d0=32, depths=(2, 2, 6, 2), window=8)
    assert [b[0].wq.shape[0] for b in model.blocks] == [32, 64, 128, 256]
    assert [len(b) for b in model.blocks] == [2, 2, 6, 2]
    assert len(model.merges) == 3
    for s, (w, b) in enumerate(model.merges):
        d = 32 * 2 ** s
        assert w.shape == (4 * d, 2 * d)
        assert b.shape == (2 * d,)


def test_encoder_init_deterministic():
    a = encoder_init(5, d0=8, depths=(1, 1, 1, 1), window=4)
    b = encoder_init(5, d0=8, depths=(1, 1, 1, 1), window=4)
    np.testing.assert_array_equal(a.blocks[0][0].wq, b.blocks[0][0].wq)
    c = encoder_init(6, d0=8, depths=(1, 1, 1, 1), window=4)
    assert not np.array_equal(a.blocks[0][0].wq, c.blocks[0][0].wq)


def test_encoder_requires_four_stages():
    with pytest.raises(ValueError, match="4 stages and 3 merges, got 2 and 2"):
        encoder_init(0, depths=(2, 2))
    with pytest.raises(ValueError, match="4 stages and 3 merges, got 1 and 0"):
        EncoderModel(blocks=[[_block()]], merges=[], window=4)
    # a merge follows stages 1-3 and no other
    model = _model()
    with pytest.raises(ValueError, match="4 stages and 3 merges, got 4 and 4"):
        EncoderModel(model.blocks, model.merges + model.merges[:1],
                     model.window)


def test_stage_config_validation():
    with pytest.raises(ValueError, match="depth"):
        encoder_init(0, d0=8, depths=(1, 0, 1, 1), window=4)
    with pytest.raises(ValueError, match="window"):
        encoder_init(0, d0=8, depths=(1, 1, 1, 1), window=0)
