"""Hierarchical windowed-attention encoder with content-gated computation.

Four stages of pre-norm transformer blocks over a square token grid.
Attention is restricted to non-overlapping windows; every other block
cyclically shifts the grid by half a window before partitioning so
information crosses window borders. After each of the first three stages
a 2x2 patch merge halves the grid in each dimension and doubles the
channel dim.

Each token carries a content probability. A gated sublayer computes
h' = p * F(h) + (1 - p) * h per token, so binary p selects between full
compute and exact identity. That exactness buys two optimizations that
are bit-identical to the unoptimized path: windows whose gate values are
all zero skip attention entirely, and the FFN runs only on rows with a
nonzero gate.

Probabilities propagate through merges by taking the max over the four
children on the RAW values; each stage re-binarizes the raw map against
its own threshold on entry. Inactive tokens keep their grid positions
until after the final stage so merge geometry matches the unpruned
encoder; only then are they dropped from the output sequence.

Attention is single-head per window. Head count does not interact with
the gating semantics, so it is fixed rather than configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .content_filter import binarize
from .patching import TokenGrid
from .rng import Rng, init_uniform
from .tensor import (FlopCounter, attention, flop_category, gelu, layernorm,
                     linear)


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
    """Four stages; stage s has depth len(blocks[s]), merges[s] follows it."""

    blocks: list[list[BlockWeights]]       # blocks[stage][block]
    merges: list[tuple[np.ndarray, np.ndarray]]  # (weight 4d x 2d, bias 2d)
    window: int

    def __post_init__(self):
        if len(self.blocks) != 4 or len(self.merges) != 3:
            raise ValueError(f"encoder needs exactly 4 stages and 3 merges, "
                             f"got {len(self.blocks)} and {len(self.merges)}")
        if not all(self.blocks):
            raise ValueError("every stage depth must be >= 1")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


@dataclass
class StageTraceEntry:
    stage: int
    n_tokens: int
    active: int
    windows_total: int
    windows_computed: int
    windows_bypassed: int
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
                  counter: FlopCounter | None = None,
                  cats: tuple[str, str] = ("encoder_norm", "encoder_attention")
                  ) -> np.ndarray:
    """x + attention(layernorm(x)): the attention half of a pre-norm block.

    cats names the FLOP categories of the norm and of the attention; the
    instruction filter charges both to its own category.
    """
    with flop_category(counter, cats[0]):
        a = layernorm(x, bw.ln1_g, bw.ln1_b, counter=counter)
    with flop_category(counter, cats[1]):
        q = linear(a, bw.wq, bw.bq, counter)
        k = linear(a, bw.wk, bw.bk, counter)
        v = linear(a, bw.wv, bw.bv, counter)
        out = linear(attention(q, k, v, counter), bw.wo, bw.bo, counter)
    return x + out


def ffn_residual(x: np.ndarray, bw: BlockWeights,
                 counter: FlopCounter | None = None,
                 cats: tuple[str, str] = ("encoder_norm", "encoder_ffn")
                 ) -> np.ndarray:
    """x + FFN(layernorm(x)), GELU hidden layer: the FFN half of a block."""
    with flop_category(counter, cats[0]):
        a = layernorm(x, bw.ln2_g, bw.ln2_b, counter=counter)
    with flop_category(counter, cats[1]):
        f = linear(gelu(linear(a, bw.w1, bw.b1, counter), counter),
                   bw.w2, bw.b2, counter)
    return x + f


def gate_combine(p: np.ndarray, fh: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-token convex combination p*F(h) + (1-p)*h; identity at p=0."""
    return p * fh + (1.0 - p) * h


def window_pass(grid: TokenGrid, p: np.ndarray | None, bw: BlockWeights,
                window: int, shifted: bool, counter: FlopCounter | None = None,
                bypass: bool = True) -> tuple[TokenGrid, int, int]:
    """One gated window-attention sublayer over the whole grid.

    p holds per-token gate values (None disables gating entirely). Windows
    whose gate values are all zero are bypassed when `bypass` is set. The
    grid is zero-padded up to a window multiple with gate-0 pad tokens,
    which are stripped again after the pass. Returns the new grid and the
    number of windows computed and in total.
    """
    if p is not None and p.size != grid.n_tokens:
        raise ValueError(
            f"gate length {p.size} does not match {grid.n_tokens} tokens")
    rows, cols, d = grid.rows, grid.cols, grid.dim
    t = grid.tokens.reshape(rows, cols, d).copy()
    pv = None if p is None else p.reshape(rows, cols).copy()

    pad_r = (-rows) % window
    pad_c = (-cols) % window
    if pad_r or pad_c:
        t = np.pad(t, ((0, pad_r), (0, pad_c), (0, 0)))
        if pv is None:
            pv = np.pad(np.ones((rows, cols)), ((0, pad_r), (0, pad_c)))
        else:
            pv = np.pad(pv, ((0, pad_r), (0, pad_c)))
    padded = pad_r or pad_c
    R, C = t.shape[0], t.shape[1]

    shift = window // 2 if shifted else 0
    if shift:
        t = np.roll(t, (-shift, -shift), axis=(0, 1))
        if pv is not None:
            pv = np.roll(pv, (-shift, -shift), axis=(0, 1))

    wr_n, wc_n = R // window, C // window
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

    if shift:
        t = np.roll(t, (shift, shift), axis=(0, 1))
    if padded:
        t = t[:rows, :cols]
    return (TokenGrid(rows, cols, d, t.reshape(rows * cols, d)), computed,
            wr_n * wc_n)


def gated_block(grid: TokenGrid, p: np.ndarray | None, bw: BlockWeights,
                window: int, shifted: bool, counter: FlopCounter | None = None,
                bypass: bool = True) -> tuple[TokenGrid, int, int]:
    """Window attention sublayer followed by the FFN sublayer, both gated;
    the counts are window_pass's."""
    out, computed, total = window_pass(grid, p, bw, window, shifted, counter,
                                       bypass)
    t = out.tokens
    if p is None:
        t = ffn_residual(t, bw, counter)
    else:
        active = p > 0.0
        if active.any():
            h = t[active]
            t[active] = gate_combine(p[active, None],
                                     ffn_residual(h, bw, counter), h)
    return TokenGrid(out.rows, out.cols, out.dim, t), computed, total


def _child_max(p: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Max over each 2x2 block of a row-major (rows, cols) map."""
    if rows % 2 or cols % 2:
        raise ValueError(f"cannot merge an odd grid: {rows}x{cols}")
    pm = p.reshape(rows, cols)
    return np.maximum.reduce([pm[0::2, 0::2], pm[0::2, 1::2],
                              pm[1::2, 0::2], pm[1::2, 1::2]]).ravel()


def merge_patches(grid: TokenGrid, merge: tuple[np.ndarray, np.ndarray],
                  counter: FlopCounter | None = None) -> TokenGrid:
    """2x2 consolidation: the grid halves and the dim doubles.

    Merges carry tokens only; _stage_maps derives every stage's probability
    map, and with it checks that each merged grid is even.
    """
    rows, cols, d = grid.rows, grid.cols, grid.dim
    t = grid.tokens.reshape(rows, cols, d)
    children = (t[0::2, 0::2], t[0::2, 1::2], t[1::2, 0::2], t[1::2, 1::2])
    cat = np.concatenate(children, axis=-1).reshape(-1, 4 * d)
    with flop_category(counter, "encoder_merge"):
        merged = linear(cat, merge[0], merge[1], counter)
    return TokenGrid(rows // 2, cols // 2, 2 * d, merged)


def _stage_maps(model: EncoderModel, grid: TokenGrid, p0: np.ndarray,
                eps: tuple[float, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(raw, binarized) probability map on entry to each stage.

    A merge takes the max over its four children, so every stage's raw
    map is a function of p0 alone and never of the tokens. This is the
    one place the maps are made.
    """
    raw, rows, cols = p0.copy(), grid.rows, grid.cols
    maps = []
    for s in range(len(model.blocks)):
        maps.append((raw, binarize(raw, eps[s])))
        if s < len(model.merges):
            raw = _child_max(raw, rows, cols)
            rows, cols = rows // 2, cols // 2
    return maps


def encode(model: EncoderModel, grid: TokenGrid, p0: np.ndarray,
           eps_c: tuple[float, ...] = (0.0,) * 4, gated: bool = True,
           bypass: bool = True, soft: bool = False,
           counter: FlopCounter | None = None,
           cache: dict[bytes, tuple[EncodeResult, dict[str, int]]] | None = None
           ) -> EncodeResult:
    """Run all four stages and drop inactive tokens from the final grid.

    With gated=False the probability map is ignored and every token gets
    the full ungated computation; that path multiplies by no gate values
    at all and serves as the reference for the equivalence tests.

    p0 holds one content probability per token of `grid`, each finite and
    in [0, 1]; this is the one check of the content map. eps_c holds one
    content threshold per stage, 0 by default.

    `cache` belongs to one document: an encode whose per-stage binarized
    masks were seen before charges the stored FLOPs to `counter` and
    returns the stored result itself, so callers share it and must not
    write into it.
    """
    if p0.shape != (grid.n_tokens,):
        raise ValueError(
            f"probability map shape {p0.shape} does not match "
            f"{grid.n_tokens} tokens")
    if not np.all((p0 >= 0.0) & (p0 <= 1.0)):     # NaN fails both
        raise ValueError("probabilities must be finite and lie in [0, 1]")
    if len(eps_c) != len(model.blocks):
        raise ValueError(
            f"{len(eps_c)} thresholds for {len(model.blocks)} stages")
    if cache is not None and counter is None:
        raise ValueError("an encode cache needs a FlopCounter to replay")

    maps = _stage_maps(model, grid, p0, eps_c)
    key = None
    if cache is not None:
        # The key holds only the masks: a sweep keeps one cache per
        # document and varies only eps_c/eps_i, so the weights, the grid,
        # p0 and gated/bypass/soft are the same for every setting.
        key = b"".join(np.packbits(b > 0.0).tobytes() for _, b in maps)
        if key in cache:
            result, flops = cache[key]
            for cat, n in flops.items():
                with counter.category(cat):
                    counter.add(n)
            return result

    before = dict(counter.by_category) if cache is not None else {}
    cur = grid
    trace: list[StageTraceEntry] = []
    for s, blocks in enumerate(model.blocks):
        raw, binp = maps[s]
        gate = (raw if soft else binp) if gated else None
        attn0 = counter.get("encoder_attention") if counter is not None else 0
        computed = total = 0
        for j, bw in enumerate(blocks):
            cur, c, n = gated_block(cur, gate, bw, model.window,
                                    shifted=(j % 2 == 1), counter=counter,
                                    bypass=bypass and gated)
            computed, total = computed + c, total + n
        attn_flops = (counter.get("encoder_attention") - attn0
                      if counter is not None else 0)
        trace.append(StageTraceEntry(
            stage=s + 1, n_tokens=cur.n_tokens, active=int(binp.sum()),
            windows_total=total, windows_computed=computed,
            windows_bypassed=total - computed, attn_flops=attn_flops,
            raw_entry=raw, binarized=binp))
        if s < len(model.merges):
            # merge= by keyword: the benchmark's tracer reads that argument
            cur = merge_patches(cur, merge=model.merges[s], counter=counter)

    kept = (np.flatnonzero(maps[-1][1] > 0.0) if gated
            else np.arange(cur.n_tokens))
    result = EncodeResult(sequence=cur.tokens[kept], kept_indices=kept,
                          grid=cur, trace=trace)
    if cache is not None:
        cache[key] = result, {k: v - before.get(k, 0)
                              for k, v in counter.by_category.items()
                              if v != before.get(k, 0)}
    return result
