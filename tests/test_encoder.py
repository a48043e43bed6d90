"""Gating equivalences the encoder must honour exactly: zero gates are the
identity, unit gates match the ungated path bit for bit, and the window
bypass is a pure optimization."""

import functools
import itertools
import threading

import numpy as np
import pytest

from docprune import encoder, tensor
from docprune.encoder import (attn_residual, block_init, encode, encoder_init,
                              ffn_residual, gate_combine, gated_block,
                              merge_patches, window_attn_flops, window_pass)
from docprune.patching import TokenGrid, flatten_patches
from docprune.pipeline import ConfigError, PipelineConfig
from docprune.rng import Rng
from docprune.synthdoc import corpus_doc
from docprune.tensor import FlopCounter
from helpers import DEFAULT_EPS_C, ZERO_EPS_C, SecondThread, fake_cores


def _grid(side=16, dim=8, seed=0):
    tokens = Rng(seed).uniforms(side * side * dim, -1.0, 1.0)
    return TokenGrid(side, side, dim, tokens.reshape(side * side, dim))


def _model(seed=0, d0=8, depths=(2, 1, 1, 1), window=4):
    return encoder_init(seed, d0=d0, depths=depths, window=window)


def _block(seed=1, dim=8):
    return _model(seed, d0=dim).blocks[0][0]


def _wide_block(seed, dim):
    return block_init(Rng(seed).derive("block"), dim, ffn_ratio=2)


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


def test_binary_gates_keep_signed_zeros_in_computed_windows():
    # token 9 sits in the first window of an 8x8 grid at window 4, with
    # gate 0 and -0.0 in every channel; its window is computed because
    # its neighbours have gate 1. A blend would turn -0.0 into
    # 0 * F(h) + (-0.0), which is +0.0 wherever F(h) > 0
    grid = _grid(side=8)
    grid.tokens[9] = -0.0
    p = np.ones(grid.n_tokens)
    p[9] = 0.0
    bw = _block()
    out, computed, _ = gated_block(grid, p, bw, window=4, shifted=False)
    assert computed == 4
    assert out.tokens[9].tobytes() == grid.tokens[9].tobytes()
    # every other token took the ungated sublayers' output
    plain, *_ = gated_block(grid, None, bw, window=4, shifted=False)
    rest = np.arange(grid.n_tokens) != 9
    assert out.tokens[rest].tobytes() == plain.tokens[rest].tobytes()


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
        assert fast.trace[0].windows_computed <= fast.trace[0].windows_total
        assert slow.trace[0].windows_computed == slow.trace[0].windows_total


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


# --- stacked windows against the per-window loop ---------------------------

def _reference_pass(grid, p, bw, window, shifted, counter=None, bypass=True):
    """window_pass one window at a time: pad, roll, attend, gate, strip."""
    rows, cols, d = grid.rows, grid.cols, grid.dim
    t = grid.tokens.reshape(rows, cols, d).copy()
    pv = None if p is None else p.reshape(rows, cols).copy()
    pad = ((0, (-rows) % window), (0, (-cols) % window))
    if pad[0][1] or pad[1][1]:
        t = np.pad(t, pad + ((0, 0),))
        pv = np.pad(np.ones((rows, cols)) if pv is None else pv, pad)
    shift = window // 2 if shifted else 0
    t = np.roll(t, (-shift, -shift), axis=(0, 1))
    if pv is not None:
        pv = np.roll(pv, (-shift, -shift), axis=(0, 1))
    wr_n, wc_n = t.shape[0] // window, t.shape[1] // window
    computed = 0
    for widx in range(wr_n * wc_n):
        wr, wc = divmod(widx, wc_n)
        rs = slice(wr * window, (wr + 1) * window)
        cs = slice(wc * window, (wc + 1) * window)
        pw = None if pv is None else pv[rs, cs].reshape(-1, 1)
        if bypass and pw is not None and not pw.any():
            continue
        computed += 1
        tv = t[rs, cs].reshape(window * window, d)
        new = attn_residual(tv, bw, counter)
        if pw is not None:
            new = gate_combine(pw, new, tv)
        t[rs, cs] = new.reshape(window, window, d)
    t = np.roll(t, (shift, shift), axis=(0, 1))[:rows, :cols]
    return t.reshape(rows * cols, d), computed, wr_n * wc_n


def _gates(kind, rows, cols, seed):
    """Gate values of one kind; binary and soft gates are zero on the top
    half of the grid, so that whole windows are bypassed."""
    if kind == "none":
        return None
    if kind == "zero":
        return np.zeros(rows * cols)
    p = Rng(seed).uniforms(rows * cols).reshape(rows, cols)
    if kind == "binary":
        p = (p > 0.4).astype(np.float64)
    p[:rows // 2] = 0.0
    return p.ravel()


def _assert_pass_matches_reference(grid, p, bw, window, shifted, bypass,
                                   atol=None):
    fast_c, ref_c = FlopCounter(), FlopCounter()
    out, computed, total = window_pass(grid, p, bw, window, shifted, fast_c,
                                       bypass)
    ref, *counts = _reference_pass(grid, p, bw, window, shifted, ref_c,
                                   bypass)
    if atol is None:
        assert out.tokens.tobytes() == ref.tobytes()
    else:
        np.testing.assert_allclose(out.tokens, ref, rtol=0.0, atol=atol)
    assert [computed, total] == counts
    assert fast_c.by_category == ref_c.by_category


@pytest.mark.parametrize("window,dim", [(2, 16), (3, 128), (4, 32), (5, 64),
                                        (8, 16), (10, 32)])
@pytest.mark.parametrize("gate", ["none", "binary", "soft", "zero"])
def test_window_pass_equals_per_window_loop(window, dim, gate):
    bw = _wide_block(seed=window, dim=dim)
    for side in (2 * window, 3 * window - 1):       # exact and padded grids
        grid = _grid(side=side, dim=dim, seed=side)
        p = _gates(gate, side, side, seed=side + 1)
        for shifted in (False, True):
            for bypass in (True, False):
                _assert_pass_matches_reference(grid, p, bw, window, shifted,
                                               bypass)


def test_window_one_stays_within_rounding_of_the_loop():
    # a 1-row window is a GEMV alone and part of a GEMM in a stack, so its
    # bits may move, by rounding only
    bw = _wide_block(seed=1, dim=16)
    grid = _grid(side=7, dim=16)
    for gate in ("none", "binary", "soft"):
        p = _gates(gate, 7, 7, seed=3)
        for shifted in (False, True):
            _assert_pass_matches_reference(grid, p, bw, 1, shifted, True,
                                           atol=1e-12)


def _encode_bytes_and_flops(model, grid, p0):
    counter = FlopCounter()
    result = encode(model, grid, p0, DEFAULT_EPS_C, counter=counter)
    return result.grid.tokens.tobytes(), counter.by_category


def test_chunk_size_does_not_change_bytes_or_flops(monkeypatch):
    # 24 tokens a side pads to 25 at window 5: 25 windows of 25 rows
    grid = _grid(side=24, dim=16, seed=5)
    model = _model(seed=2, d0=16, depths=(2, 2, 1, 1), window=5)
    p0 = Rng(7).uniforms(grid.n_tokens)
    runs = []
    # tensor.row_parts at the default, at the smallest parts it allows
    # (MIN_PRODUCT_ROWS rows), and at one part (MIN_PRODUCT_ROWS above
    # every whole)
    for block, least in ((tensor._BLOCK, tensor.MIN_PRODUCT_ROWS),
                         (1, tensor.MIN_PRODUCT_ROWS), (1 << 40, 1 << 40)):
        monkeypatch.setattr(tensor, "_BLOCK", block)
        monkeypatch.setattr(tensor, "MIN_PRODUCT_ROWS", least)
        run = [_encode_bytes_and_flops(model, grid, p0)]
        for gate in ("none", "soft"):
            counter = FlopCounter()
            out, *counts = window_pass(grid, _gates(gate, 24, 24, seed=6),
                                       model.blocks[0][0], 5, True, counter)
            run.append((out.tokens.tobytes(), counts, counter.by_category))
        runs.append(run)
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("window,d", [(1, 8), (2, 16), (3, 24), (8, 32),
                                      (5, 64)])
def test_window_attn_flops_is_what_attn_residual_charges(window, d):
    n, stack = window * window, 3
    x = Rng(window).uniforms(stack * n * d, -1, 1).reshape(stack, n, d)
    counter = FlopCounter()
    attn_residual(x, _wide_block(d, d), counter)
    assert counter.get("encoder_attention") == stack * window_attn_flops(
        window, d)
    if (window, d) == (8, 32):
        assert window_attn_flops(window, d) == 1_077_248


def test_encode_without_a_counter_returns_the_same_trace():
    # attn_flops comes from the computed windows, not from a counter
    model = _model(seed=3, d0=8, depths=(2, 1, 1, 1), window=4)
    grid = _grid(side=16, dim=8, seed=4)
    p0 = Rng(5).uniforms(grid.n_tokens)

    def trace(**counter):
        return [(e.stage, e.n_tokens, e.active, e.windows_total,
                 e.windows_computed, e.attn_flops, e.raw_entry.tobytes(),
                 e.binarized.tobytes())
                for e in encode(model, grid, p0, DEFAULT_EPS_C,
                                **counter).trace]

    counted = trace(counter=FlopCounter())
    assert all(e[5] > 0 for e in counted)
    assert trace() == counted


def test_sublayers_leave_their_inputs_unchanged():
    bw = _block(dim=8)
    x = _grid(side=4).tokens
    stack = x.reshape(2, 8, 8)
    p = Rng(3).uniforms(16).reshape(16, 1)
    for f, args in ((attn_residual, (x, bw)), (attn_residual, (stack, bw)),
                    (ffn_residual, (x, bw)), (gate_combine, (p, x + 1.0, x))):
        before = [a.copy() for a in args if isinstance(a, np.ndarray)]
        f(*args)
        after = [a for a in args if isinstance(a, np.ndarray)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


# --- sublayer parts on cores -----------------------------------------------

def _parts_grid_and_p0():
    """A 32x32 grid at window 8 whose stage 1 has exactly 128 active tokens
    (p0 0.9 on the top four rows, 0.1 elsewhere), so its FFN runs two
    parts of exactly tensor.MIN_PRODUCT_ROWS rows and 4 of its 16 windows are
    computed. Stage 3 is one window, and at eps 0.95 every window of
    stage 4 is bypassed."""
    p0 = np.full((32, 32), 0.1)
    p0[:4] = 0.9
    return _grid(side=32, dim=16, seed=3), p0.ravel()


def _recorded_maps(monkeypatch, wait: bool) -> list[tuple[int, set]]:
    """The part count and the threads of each encoder map_on_cores call
    from now on. With wait, the first part of a call of two or more waits
    for a part on a second thread (helpers.SecondThread)."""
    calls, real = [], encoder.map_on_cores

    def recorded(fn, items):
        items = list(items)
        part = SecondThread(fn, wait and len(items) > 1)
        calls.append((len(items), part.threads))
        return real(part, items)

    monkeypatch.setattr(encoder, "map_on_cores", recorded)
    return calls


def _encode_record(model, grid, p0, **options):
    counter = FlopCounter()
    r = encode(model, grid, p0, (0.25, 0.25, 0.5, 0.95), counter=counter,
               **options)
    trace = [(e.stage, e.n_tokens, e.active, e.windows_total,
              e.windows_computed, e.attn_flops, e.raw_entry.tobytes(),
              e.binarized.tobytes()) for e in r.trace]
    return (r.sequence.tobytes(), r.kept_indices.tobytes(), trace,
            counter.by_category)


@pytest.mark.parametrize("options", [
    {}, {"gated": False}, {"soft": True}, {"bypass": False}],
    ids=["gated", "ungated", "soft", "no-bypass"])
def test_sublayer_parts_run_on_two_cores_with_the_bytes_of_one(
        monkeypatch, options):
    if tensor._openblas() is None:
        pytest.skip("map_on_cores is the plain loop without OpenBLAS")
    model = _model(seed=4, d0=16, depths=(1, 1, 1, 1), window=8)
    grid, p0 = _parts_grid_and_p0()
    # the grid's sublayers have 2 parts at most: map every one of them
    monkeypatch.setattr(encoder, "MIN_MAPPED_PARTS", 2)
    got = {}
    for cores in (1, 2):
        fake_cores(monkeypatch, cores)
        calls = _recorded_maps(monkeypatch, wait=cores > 1)
        got[cores] = _encode_record(model, grid, p0, **options)
        me = threading.current_thread()
        assert all(len(threads) == min(n, cores) and (me in threads or not n)
                   for n, threads in calls), (cores, calls)
        assert max(n for n, _ in calls) > 1
    assert got[2] == got[1]
    # the parts, on any thread, charge what one part of the whole charges
    monkeypatch.setattr(encoder, "row_parts",
                        lambda n, rows, width: [slice(0, n)] if n else [])
    assert _encode_record(model, grid, p0, **options)[3] == got[1][3]
    if not options:
        trace = got[1][2]
        assert [e[4] for e in trace] == [4, 2, 1, 0]  # windows computed
        assert [e[2] for e in trace] == [128, 32, 8, 0]   # active tokens


def test_a_sublayer_maps_its_parts_from_min_mapped_parts_on(monkeypatch):
    # ungated at window 8, a 96x96 grid cuts stage 1's attention into 9
    # parts and its FFN into 5, and stage 2's sublayers into 3 parts each
    model = _model(seed=4, d0=16, depths=(1, 1, 1, 1), window=8)
    grid = _grid(side=96, dim=16, seed=3)
    p0 = np.ones(grid.n_tokens)
    cut, real = encoder.MIN_MAPPED_PARTS, encoder.row_parts
    chosen = {}
    for cores in (1, 2, 4):
        fake_cores(monkeypatch, cores)
        counts = []

        def recorded(n, rows, width):
            parts = real(n, rows, width)
            counts.append(len(parts))
            return parts

        monkeypatch.setattr(encoder, "row_parts", recorded)
        calls = _recorded_maps(monkeypatch, wait=cores == 2)
        encode(model, grid, p0, gated=False)
        assert [n for n, _ in calls] == [n for n in counts if n >= cut]
        assert counts[:4] == [9, 5, 3, 3] and cut in counts[:2]
        if cores == 2 and tensor._openblas() is not None:
            assert all(len(threads) == 2 for _, threads in calls)
        chosen[cores] = [n >= cut for n in counts]
    assert chosen[1] == chosen[2] == chosen[4]


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


# --- geometry is checked once, when the config is built -------------------

STAGE_DEPTHS = list(itertools.product((1, 2, 3), repeat=4))
# packable on every page side the sweep takes (0.5 is not at 56 px)
SWEEP_FRACTION = 0.25


def _accepted_configs(side):
    """Every config PipelineConfig builds on this page side, over each
    patch size, window 1 to the grid side and stage depths 1-3 in turn."""
    depths = itertools.cycle(STAGE_DEPTHS)
    for patch in range(1, side + 1):
        try:
            PipelineConfig(image_size=side, patch_size=patch,
                           content_fraction=SWEEP_FRACTION, window=1)
        except ConfigError:
            continue
        for window in range(1, side // patch + 1):
            yield PipelineConfig(image_size=side, patch_size=patch, d0=1,
                                 depths=next(depths), window=window,
                                 ffn_ratio=1, content_fraction=SWEEP_FRACTION)


@functools.cache
def _sweep_model(depths):
    """encoder_init's stages and merges depend on the depths alone, and it
    keeps the window it is given, so one build per depths tuple serves."""
    return encoder_init(0, 1, depths, 1, 1)


@pytest.mark.parametrize("side", [*range(8, 257, 8), 1536])
def test_a_built_config_fixes_the_geometry_the_helpers_assume(side):
    # what EncoderModel, _child_max, flatten_patches and patchify_any take
    # as given, shown for every config that builds
    doc = corpus_doc(0, SWEEP_FRACTION, side, seed=0)
    assert doc.image.shape == doc.content_mask.shape == (side, side)
    patches = set()
    for cfg in _accepted_configs(side):
        model = _sweep_model(cfg.depths)
        assert [len(b) for b in model.blocks] == list(cfg.depths)
        assert min(cfg.depths) >= 1 and len(model.merges) == 3
        assert cfg.window >= 1
        if cfg.patch_size in patches:
            continue
        patches.add(cfg.patch_size)
        assert side % cfg.patch_size == side % (cfg.patch_size * 8) == 0
        g = cfg.grid_side
        for _ in model.merges:
            assert g % 2 == 0
            g //= 2
        assert flatten_patches(doc.image, cfg.patch_size).shape == (
            cfg.grid_side ** 2, cfg.patch_size ** 2)
        assert doc.patch_labels(cfg.patch_size * 8).shape == (g, g)
        grid = TokenGrid(cfg.grid_side, cfg.grid_side, cfg.d0,
                         np.empty((cfg.grid_side ** 2, cfg.d0)))
        maps = encoder._stage_maps(model, grid, np.zeros(grid.n_tokens),
                                   cfg.eps_c)
        for s, (raw, binarized) in enumerate(maps):
            assert raw.shape == binarized.shape == (
                (cfg.grid_side >> s) ** 2,)
    assert patches
