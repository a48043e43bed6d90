"""Hierarchical windowed-attention encoder with content-gated computation.

Four stages of pre-norm transformer blocks over a square token grid.
Attention is restricted to non-overlapping windows; every other block
cyclically shifts the grid by half a window before partitioning so
information crosses window borders. After each of the first three stages
a 2x2 patch merge halves the grid in each dimension and doubles the
channel dim.

Each token carries a content probability. A gated sublayer computes
h' = p * F(h) + (1 - p) * h per token, and binary p selects: a token at
p = 1 takes F(h) and one at p = 0 is not written, so it keeps h to the
bit, a signed zero included. That exactness buys two optimizations that
are bit-identical to the unoptimized path: windows whose gate values are
all zero skip attention entirely, and the FFN runs only on rows with a
nonzero gate.

Both sublayers run in parts (_gated_parts), on every core once a
sublayer has tensor.MIN_MAPPED_PARTS of them and in order on the calling
thread below that: a 256-px page's sublayers run in order, a 1536-px
page's on cores. A window sublayer's parts are stacks (W, window*window,
d) of whole computed windows: one norm and one set of q/k/v/o products
over a part's rows, and one stacked product each for the scores and the
weighted values. No sum mixes two windows' rows, so a stack gives the
FLOPs of one window at a time, and its bits on OpenBLAS's AVX-512 GEMM
kernels (its AVX2 Haswell ones round a product's last bit by row count);
only a 1-token window, a GEMV alone and part of a GEMM in a stack, rounds
differently. An FFN's parts are rows of its active rows; tensor.row_parts
cuts both. A part charges the caller's counter as the plain loop would;
a stage's trace takes its attention FLOPs from its computed windows
(window_attn_flops), never from a counter. How a sublayer is cut, and
whether its parts are mapped, depends on its counts and widths alone, so
the bits do not depend on the core count.

Probabilities propagate through merges by taking the max over the four
children on the RAW values; each stage re-binarizes the raw map against
its own threshold on entry. Inactive tokens keep their grid positions
until after the final stage so merge geometry matches the unpruned
encoder; only then are they dropped from the output sequence.

Attention is single-head per window. Head count does not interact with
the gating semantics, so it is fixed rather than configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .content_filter import binarize
from .patching import TokenGrid
from .rng import Rng, init_uniform
from .tensor import (MIN_MAPPED_PARTS, NO_FLOPS, FlopCounter, attention,
                     gelu, layernorm, linear, map_on_cores, row_parts)


@dataclass
class BlockWeights:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class EncoderModel:
    """Four stages; stage s has depth len(blocks[s]), merges[s] follows it.

    encoder_init builds it from a checked config's depths and window."""

    blocks: list[list[BlockWeights]]       # blocks[stage][block]
    merges: list[tuple[np.ndarray, np.ndarray]]  # (weight 4d x 2d, bias 2d)
    window: int


@dataclass
class StageTraceEntry:
    stage: int
    n_tokens: int
    active: int
    windows_total: int
    windows_computed: int
    attn_flops: int
    raw_entry: np.ndarray
    binarized: np.ndarray


@dataclass
class EncodeResult:
    sequence: np.ndarray          # kept stage-4 tokens, in grid order
    kept_indices: np.ndarray      # positions within the stage-4 grid
    grid: TokenGrid               # full stage-4 grid before the drop
    trace: list[StageTraceEntry] = field(default_factory=list)

    @property
    def kept_final(self) -> int:
        return int(self.kept_indices.size)


def block_init(rng: Rng, dim: int, ffn_ratio: int) -> BlockWeights:
    hidden = ffn_ratio * dim
    bound = 1.0 / dim ** 0.5
    def proj(tag):
        r = rng.derive(tag)
        return init_uniform(r, dim, dim, dim), r.uniforms(dim, -bound, bound)
    wq, bq = proj("q")
    wk, bk = proj("k")
    wv, bv = proj("v")
    wo, bo = proj("o")
    rf = rng.derive("ffn")
    return BlockWeights(
        ln1_g=np.ones(dim), ln1_b=np.zeros(dim),
        wq=wq, bq=bq, wk=wk, bk=bk, wv=wv, bv=bv, wo=wo, bo=bo,
        ln2_g=np.ones(dim), ln2_b=np.zeros(dim),
        w1=init_uniform(rf, dim, hidden, dim),
        b1=rf.uniforms(hidden, -bound, bound),
        w2=init_uniform(rf, hidden, dim, hidden),
        b2=rf.uniforms(dim, -1.0 / hidden ** 0.5, 1.0 / hidden ** 0.5),
    )


def encoder_init(seed: int, d0: int = 32, depths: tuple[int, ...] = (2, 2, 6, 2),
                 window: int = 8, ffn_ratio: int = 2) -> EncoderModel:
    rng = Rng(seed).derive("encoder")
    blocks = []
    merges = []
    for s, depth in enumerate(depths):
        d = d0 * 2 ** s
        rs = rng.derive(f"stage{s}")
        blocks.append([block_init(rs.derive(f"block{j}"), d, ffn_ratio)
                       for j in range(depth)])
        if s < 3:
            rm = rs.derive("merge")
            merges.append((init_uniform(rm, 4 * d, 2 * d, 4 * d),
                           rm.uniforms(2 * d, -1.0 / (4 * d) ** 0.5,
                                       1.0 / (4 * d) ** 0.5)))
    return EncoderModel(blocks=blocks, merges=merges, window=window)


def attn_residual(x: np.ndarray, bw: BlockWeights,
                  counter: FlopCounter = NO_FLOPS,
                  cats: tuple[str, str] = ("encoder_norm", "encoder_attention")
                  ) -> np.ndarray:
    """x + attention(layernorm(x)): the attention half of a pre-norm block.

    x is (n, d), or a stack (W, n, d) of windows that each attend within
    themselves. The norm and the projections run once over all rows, the
    scores and the weighted values are stacked products, and x is left
    unchanged. cats names the FLOP categories of the norm and of the
    attention; the instruction filter charges both to its own category.
    """
    rows = x.reshape(-1, x.shape[-1])
    with counter.category(cats[0]):
        a = layernorm(rows, bw.ln1_g, bw.ln1_b, counter=counter)
    with counter.category(cats[1]):
        q, k, v = (linear(a, w, b, counter).reshape(x.shape)
                   for w, b in ((bw.wq, bw.bq), (bw.wk, bw.bk),
                                (bw.wv, bw.bv)))
        ctx = attention(q, k, v, counter).reshape(rows.shape)
        out = linear(ctx, bw.wo, bw.bo, counter, out=a)
    out += rows
    return out.reshape(x.shape)


def window_attn_flops(window: int, d: int) -> int:
    """The attention FLOPs attn_residual charges a window of n = window^2
    slots (pad slots too) of width d: Swin's cost (arXiv 2103.14030), q/k/v/o
    with biases 8nd^2 + 4nd and scores and values 4n^2 d, plus softmax 5n^2."""
    n = window * window
    return 8 * n * d * d + 4 * n * d + 4 * n * n * d + 5 * n * n


def ffn_residual(x: np.ndarray, bw: BlockWeights,
                 counter: FlopCounter = NO_FLOPS,
                 cats: tuple[str, str] = ("encoder_norm", "encoder_ffn")
                 ) -> np.ndarray:
    """x + FFN(layernorm(x)), GELU hidden layer: the FFN half of a block.

    x is left unchanged; the hidden layer and the output reuse the
    buffers of the pass itself.
    """
    with counter.category(cats[0]):
        a = layernorm(x, bw.ln2_g, bw.ln2_b, counter=counter)
    with counter.category(cats[1]):
        z = linear(a, bw.w1, bw.b1, counter)
        gelu(z, counter, out=z)
        out = linear(z, bw.w2, bw.b2, counter, out=a)
    out += x
    return out


def gate_combine(p: np.ndarray, fh: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-token convex combination p*F(h) + (1-p)*h, as a new array.

    The sublayers call it only for gates strictly between 0 and 1: at
    p = 0 it can turn h's -0.0 into +0.0, and at p = 1 F(h)'s -0.0 too.
    """
    out = p * fh
    out += (1.0 - p) * h
    return out


def _gated_parts(sublayer, t: np.ndarray, n: int, idx: np.ndarray,
                 gates: np.ndarray | None, width: int) -> None:
    """t[idx] = sublayer(t[idx]) by gate, in parts of whole items
    (idx[i] is a window's slots, or a row) cut by tensor.row_parts at
    width, the widest row a part writes. MIN_MAPPED_PARTS parts or more
    go on every core (map_on_cores); fewer run in order on the calling
    thread, where a worker would cost memory for little time.

    A row takes the result at gate 1, gate_combine's blend strictly between
    0 and 1, and keeps its bits at 0; gates None is the ungated reference
    path. Rows at index n and above are pad slots, read and never written.
    Items share no row, so neither the parts nor their order change a bit.
    """

    def part(r: slice) -> None:
        i = idx[r]
        h = t[i]
        new = sublayer(h)
        write = i < n
        if gates is not None:
            g = gates[r]
            write &= g > 0.0
            soft = write & (g < 1.0)
            if soft.any():
                new[soft] = gate_combine(g[soft, None], new[soft], h[soft])
        if not write.all():
            i, new = i[write], new[write]
        t[i] = new

    parts = row_parts(len(idx), math.prod(idx.shape[1:]), width)
    if len(parts) >= MIN_MAPPED_PARTS:
        map_on_cores(part, parts)
    else:
        for r in parts:
            part(r)


def _window_slots(rows: int, cols: int, window: int,
                  shift: int) -> np.ndarray:
    """Token index of every window slot, one row per window.

    The grid is zero-padded up to a window multiple and rolled by -shift
    on both axes; windows are in row-major order over that grid, and slots
    in row-major order within a window. A pad slot holds rows * cols.
    """
    R, C = rows + (-rows) % window, cols + (-cols) % window
    r = (np.arange(R)[:, None] + shift) % R
    c = (np.arange(C) + shift) % C
    idx = np.where((r < rows) & (c < cols), r * cols + c, rows * cols)
    return idx.reshape(R // window, window, C // window,
                       window).swapaxes(1, 2).reshape(-1, window * window)


def window_pass(grid: TokenGrid, p: np.ndarray | None, bw: BlockWeights,
                window: int, shifted: bool, counter: FlopCounter = NO_FLOPS,
                bypass: bool = True) -> tuple[TokenGrid, int, int]:
    """One gated window-attention sublayer over the whole grid.

    p holds per-token gate values (None disables gating entirely). The
    grid is zero-padded up to a window multiple, and a shifted pass rolls
    it by half a window first; pad slots read an appended zero row and are
    never written, and neither are gate-0 tokens. Windows whose gate
    values are all zero are bypassed when `bypass` is set. The computed
    windows go through _gated_parts, one stacked attn_residual per part.
    Returns the new grid and the number of windows computed and in total.
    """
    n, d = grid.n_tokens, grid.dim
    slots = _window_slots(grid.rows, grid.cols, window,
                          window // 2 if shifted else 0)
    total = len(slots)
    gates = None if p is None else np.append(p, 0.0)[slots]
    if bypass and gates is not None:
        keep = gates.any(axis=1)
        slots, gates = slots[keep], gates[keep]
    t = np.vstack([grid.tokens, np.zeros((1, d))])
    # a part's widest rows: a projection's (d) or a score's (window^2)
    _gated_parts(lambda h: attn_residual(h, bw, counter), t, n, slots, gates,
                 max(d, window * window))
    return TokenGrid(grid.rows, grid.cols, d, t[:n]), len(slots), total


def gated_block(grid: TokenGrid, p: np.ndarray | None, bw: BlockWeights,
                window: int, shifted: bool, counter: FlopCounter = NO_FLOPS,
                bypass: bool = True) -> tuple[TokenGrid, int, int]:
    """Window attention sublayer followed by the FFN sublayer, both gated;
    the counts are window_pass's.

    The FFN runs on the rows with a nonzero gate (every row without
    gating), through _gated_parts.
    """
    out, computed, total = window_pass(grid, p, bw, window, shifted, counter,
                                       bypass)
    t = out.tokens
    rows = np.arange(len(t)) if p is None else np.flatnonzero(p > 0.0)
    _gated_parts(lambda h: ffn_residual(h, bw, counter), t, len(t), rows,
                 None if p is None else p[rows], bw.w1.shape[1])
    return TokenGrid(out.rows, out.cols, out.dim, t), computed, total


def _child_max(p: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Max over each 2x2 block of a row-major (rows, cols) map."""
    pm = p.reshape(rows, cols)
    return np.maximum.reduce([pm[0::2, 0::2], pm[0::2, 1::2],
                              pm[1::2, 0::2], pm[1::2, 1::2]]).ravel()


def merge_patches(grid: TokenGrid, merge: tuple[np.ndarray, np.ndarray],
                  counter: FlopCounter = NO_FLOPS) -> TokenGrid:
    """2x2 consolidation: the grid halves and the dim doubles.

    Merges carry tokens only; _stage_maps derives every stage's probability
    map. The grid is even: the config makes the stage-1 side a multiple of 8.
    """
    rows, cols, d = grid.rows, grid.cols, grid.dim
    t = grid.tokens.reshape(rows, cols, d)
    children = (t[0::2, 0::2], t[0::2, 1::2], t[1::2, 0::2], t[1::2, 1::2])
    cat = np.concatenate(children, axis=-1).reshape(-1, 4 * d)
    with counter.category("encoder_merge"):
        merged = linear(cat, merge[0], merge[1], counter)
    return TokenGrid(rows // 2, cols // 2, 2 * d, merged)


def _stage_maps(model: EncoderModel, grid: TokenGrid, p0: np.ndarray,
                eps: tuple[float, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(raw, binarized) probability map on entry to each stage.

    A merge takes the max over its four children, so every stage's raw
    map is a function of p0 alone and never of the tokens. This is the
    one place the maps are made, and p0 and eps are checked here: one
    finite probability in [0, 1] per token of `grid`, one threshold per
    stage.
    """
    if p0.shape != (grid.n_tokens,):
        raise ValueError(
            f"probability map shape {p0.shape} does not match "
            f"{grid.n_tokens} tokens")
    if not np.all((p0 >= 0.0) & (p0 <= 1.0)):     # NaN fails both
        raise ValueError("probabilities must be finite and lie in [0, 1]")
    if len(eps) != len(model.blocks):
        raise ValueError(
            f"{len(eps)} thresholds for {len(model.blocks)} stages")
    raw, rows, cols = p0.copy(), grid.rows, grid.cols
    maps = []
    for s in range(len(model.blocks)):
        maps.append((raw, binarize(raw, eps[s])))
        if s < len(model.merges):
            raw = _child_max(raw, rows, cols)
            rows, cols = rows // 2, cols // 2
    return maps


def mask_key(model: EncoderModel, grid: TokenGrid, p0: np.ndarray,
             eps_c: tuple[float, ...]) -> bytes:
    """The per-stage binarized masks of p0 under eps_c, packed.

    An encode depends on its thresholds through these masks alone: two
    encodes of one grid and p0, under one model and one set of gating
    options, return equal results and charge equal FLOPs when their keys
    are equal.
    """
    return b"".join(np.packbits(b > 0.0).tobytes()
                    for _, b in _stage_maps(model, grid, p0, eps_c))


def encode(model: EncoderModel, grid: TokenGrid, p0: np.ndarray,
           eps_c: tuple[float, ...] = (0.0,) * 4, gated: bool = True,
           bypass: bool = True, soft: bool = False,
           counter: FlopCounter = NO_FLOPS) -> EncodeResult:
    """Run all four stages and drop inactive tokens from the final grid.

    With gated=False the probability map is ignored and every token gets
    the full ungated computation; that path multiplies by no gate values
    at all and serves as the reference for the equivalence tests.

    p0 holds one content probability per token of `grid`, each finite and
    in [0, 1]; _stage_maps makes the one check of the content map. eps_c
    holds one content threshold per stage, 0 by default.
    """
    maps = _stage_maps(model, grid, p0, eps_c)
    cur = grid
    trace: list[StageTraceEntry] = []
    for s, blocks in enumerate(model.blocks):
        raw, binp = maps[s]
        gate = (raw if soft else binp) if gated else None
        computed = total = 0
        for j, bw in enumerate(blocks):
            cur, c, n = gated_block(cur, gate, bw, model.window,
                                    shifted=(j % 2 == 1), counter=counter,
                                    bypass=bypass)
            computed, total = computed + c, total + n
        trace.append(StageTraceEntry(
            stage=s + 1, n_tokens=cur.n_tokens, active=int(binp.sum()),
            windows_total=total, windows_computed=computed,
            attn_flops=computed * window_attn_flops(model.window, cur.dim),
            raw_entry=raw, binarized=binp))
        if s < len(model.merges):
            # merge= by keyword: the benchmark's tracer reads that argument
            cur = merge_patches(cur, merge=model.merges[s], counter=counter)

    kept = (np.flatnonzero(maps[-1][1] > 0.0) if gated
            else np.arange(cur.n_tokens))
    return EncodeResult(sequence=cur.tokens[kept], kept_indices=kept,
                        grid=cur, trace=trace)
