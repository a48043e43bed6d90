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

from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .content_filter import ThresholdSchedule, binarize
from .patching import ProbabilityMap, TokenGrid
from .rng import Rng, init_uniform
from .tensor import FlopCounter, attention, gelu, layernorm, linear


def _cat(counter: FlopCounter | None, name: str):
    return counter.category(name) if counter is not None else nullcontext()


@dataclass(frozen=True)
class StageConfig:
    depth: int
    window: int
    merge_after: bool
    eps_c: float = 0.0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"stage depth must be >= 1, got {self.depth}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


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
    stages: list[StageConfig]
    blocks: list[list[BlockWeights]]       # blocks[stage][block]
    merges: list[tuple[np.ndarray, np.ndarray]]  # (weight 4d x 2d, bias 2d)
    d0: int

    def __post_init__(self):
        if len(self.stages) != 4:
            raise ValueError(f"encoder needs exactly 4 stages, got {len(self.stages)}")
        n_merges = sum(1 for s in self.stages if s.merge_after)
        if n_merges != 3 or self.stages[-1].merge_after:
            raise ValueError("merge_after must be set for stages 1-3 only")

    @property
    def dims(self) -> list[int]:
        return [self.d0 * 2 ** s for s in range(len(self.stages))]


@dataclass
class WindowStats:
    total: int = 0
    computed: int = 0
    bypassed: int = 0

    def __post_init__(self):
        if self.computed + self.bypassed != self.total:
            raise ValueError(
                f"window stats do not close: {self.computed} + "
                f"{self.bypassed} != {self.total}")

    def __add__(self, other: "WindowStats") -> "WindowStats":
        return WindowStats(self.total + other.total,
                           self.computed + other.computed,
                           self.bypassed + other.bypassed)


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
                 window: int = 8, ffn_ratio: int = 2,
                 sched: ThresholdSchedule | None = None) -> EncoderModel:
    if len(depths) != 4:
        raise ValueError(f"expected 4 stage depths, got {depths}")
    eps = sched.eps_c if sched is not None else (0.0,) * 4
    rng = Rng(seed).derive("encoder")
    stages = [StageConfig(depth=depths[s], window=window,
                          merge_after=(s < 3), eps_c=eps[s])
              for s in range(4)]
    blocks = []
    merges = []
    for s in range(4):
        d = d0 * 2 ** s
        rs = rng.derive(f"stage{s}")
        blocks.append([block_init(rs.derive(f"block{j}"), d, ffn_ratio)
                       for j in range(depths[s])])
        if s < 3:
            rm = rs.derive("merge")
            merges.append((init_uniform(rm, 4 * d, 2 * d, 4 * d),
                           rm.uniforms(2 * d, -1.0 / (4 * d) ** 0.5,
                                       1.0 / (4 * d) ** 0.5)))
    return EncoderModel(stages=stages, blocks=blocks, merges=merges, d0=d0)


def gate_combine(p: np.ndarray, fh: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-token convex combination p*F(h) + (1-p)*h; identity at p=0."""
    return p * fh + (1.0 - p) * h


def window_pass(grid: TokenGrid, p: np.ndarray | None, bw: BlockWeights,
                window: int, shifted: bool, counter: FlopCounter | None = None,
                bypass: bool = True,
                order: list[int] | None = None) -> tuple[TokenGrid, WindowStats]:
    """One gated window-attention sublayer over the whole grid.

    p holds per-token gate values (None disables gating entirely). Windows
    whose gate values are all zero are bypassed when `bypass` is set. The
    grid is zero-padded up to a window multiple with gate-0 pad tokens,
    which are stripped again after the pass. `order` overrides the
    row-major window visit order; outputs must not depend on it since
    windows touch disjoint token slices.
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
    indices = list(range(wr_n * wc_n)) if order is None else list(order)
    computed = bypassed = 0
    for widx in indices:
        wr, wc = divmod(widx, wc_n)
        rs = slice(wr * window, (wr + 1) * window)
        cs = slice(wc * window, (wc + 1) * window)
        pw = None if pv is None else pv[rs, cs].reshape(-1, 1)
        if bypass and pw is not None and not pw.any():
            bypassed += 1
            continue
        computed += 1
        tv = t[rs, cs].reshape(window * window, d)
        with _cat(counter, "encoder_norm"):
            a = layernorm(tv, bw.ln1_g, bw.ln1_b, counter=counter)
        with _cat(counter, "encoder_attention"):
            q = linear(a, bw.wq, bw.bq, counter)
            k = linear(a, bw.wk, bw.bk, counter)
            v = linear(a, bw.wv, bw.bv, counter)
            att = attention(q, k, v, counter)
            out = linear(att, bw.wo, bw.bo, counter)
        new = tv + out if pw is None else gate_combine(pw, tv + out, tv)
        t[rs, cs] = new.reshape(window, window, d)

    if shift:
        t = np.roll(t, (shift, shift), axis=(0, 1))
    if padded:
        t = t[:rows, :cols]
    stats = WindowStats(total=wr_n * wc_n, computed=computed, bypassed=bypassed)
    return TokenGrid(rows, cols, d, t.reshape(rows * cols, d),
                     probs=grid.probs, origin=grid.origin), stats


def gated_block(grid: TokenGrid, p: np.ndarray | None, bw: BlockWeights,
                window: int, shifted: bool, counter: FlopCounter | None = None,
                bypass: bool = True,
                order: list[int] | None = None) -> tuple[TokenGrid, WindowStats]:
    """Window attention sublayer followed by the FFN sublayer, both gated."""
    out, stats = window_pass(grid, p, bw, window, shifted, counter, bypass, order)
    t = out.tokens
    if p is None:
        with _cat(counter, "encoder_norm"):
            a = layernorm(t, bw.ln2_g, bw.ln2_b, counter=counter)
        with _cat(counter, "encoder_ffn"):
            f = linear(gelu(linear(a, bw.w1, bw.b1, counter), counter),
                       bw.w2, bw.b2, counter)
        t = t + f
    else:
        active = p > 0.0
        if active.any():
            h = t[active]
            with _cat(counter, "encoder_norm"):
                a = layernorm(h, bw.ln2_g, bw.ln2_b, counter=counter)
            with _cat(counter, "encoder_ffn"):
                f = linear(gelu(linear(a, bw.w1, bw.b1, counter), counter),
                           bw.w2, bw.b2, counter)
            t[active] = gate_combine(p[active, None], h + f, h)
    return TokenGrid(out.rows, out.cols, out.dim, t,
                     probs=out.probs, origin=out.origin), stats


def _child_max(p: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Max over each 2x2 block of a row-major (rows, cols) map."""
    if rows % 2 or cols % 2:
        raise ValueError(f"cannot merge an odd grid: {rows}x{cols}")
    pm = p.reshape(rows, cols)
    return np.maximum.reduce([pm[0::2, 0::2], pm[0::2, 1::2],
                              pm[1::2, 0::2], pm[1::2, 1::2]]).ravel()


def merge_patches(grid: TokenGrid, p_raw: np.ndarray,
                  merge: tuple[np.ndarray, np.ndarray],
                  counter: FlopCounter | None = None) -> tuple[TokenGrid, np.ndarray]:
    """2x2 consolidation: grid halves, dim doubles, probability = child max.

    The max runs on the RAW probabilities; callers re-binarize at the next
    stage's threshold.
    """
    rows, cols, d = grid.rows, grid.cols, grid.dim
    p_new = _child_max(p_raw, rows, cols)
    t = grid.tokens.reshape(rows, cols, d)
    children = (t[0::2, 0::2], t[0::2, 1::2], t[1::2, 0::2], t[1::2, 1::2])
    cat = np.concatenate(children, axis=-1).reshape(-1, 4 * d)
    with _cat(counter, "encoder_merge"):
        merged = linear(cat, merge[0], merge[1], counter)
    return TokenGrid(rows // 2, cols // 2, 2 * d, merged,
                     origin=grid.origin + 1), p_new


def _stage_maps(model: EncoderModel, grid: TokenGrid, p0: ProbabilityMap,
                eps: tuple[float, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(raw, binarized) probability map on entry to each stage.

    A merge takes the max over its four children, so every stage's raw
    map is a function of p0 alone and never of the tokens.
    """
    raw, rows, cols = p0.values.copy(), grid.rows, grid.cols
    maps = []
    for s, st in enumerate(model.stages):
        maps.append((raw, binarize(ProbabilityMap(raw), eps[s]).values))
        if st.merge_after:
            raw = _child_max(raw, rows, cols)
            rows, cols = rows // 2, cols // 2
    return maps


@dataclass
class EncodeCacheEntry:
    """What a repeated encode needs; it owns its arrays and never lends them."""

    grid: TokenGrid                 # stage-4 grid before the drop
    stages: list[StageTraceEntry]   # trace without raw_entry/binarized
    flops: dict[str, int]           # counter delta per FLOP category


def encode(model: EncoderModel, grid: TokenGrid, p0: ProbabilityMap,
           sched: ThresholdSchedule | None = None, gated: bool = True,
           bypass: bool = True, soft: bool = False,
           counter: FlopCounter | None = None,
           cache: dict[bytes, EncodeCacheEntry] | None = None) -> EncodeResult:
    """Run all four stages and drop inactive tokens from the final grid.

    With gated=False the probability map is ignored and every token gets
    the full ungated computation; that path multiplies by no gate values
    at all and serves as the reference for the equivalence tests.

    `cache` belongs to one document: an encode whose per-stage binarized
    masks were seen before returns the stored stage-4 tokens and charges
    the stored FLOPs to `counter` instead of computing them again.
    """
    if len(p0) != grid.n_tokens:
        raise ValueError(
            f"probability map length {len(p0)} does not match "
            f"{grid.n_tokens} tokens")
    eps = sched.eps_c if sched is not None else tuple(s.eps_c for s in model.stages)
    if len(eps) != len(model.stages):
        raise ValueError(
            f"{len(eps)} thresholds for {len(model.stages)} stages")
    if cache is not None and counter is None:
        raise ValueError("an encode cache needs a FlopCounter to replay")

    maps = _stage_maps(model, grid, p0, eps)
    key = entry = None
    if cache is not None:
        # The key holds only the masks: a sweep keeps one cache per
        # document and varies only eps_c/eps_i, so the weights, the grid,
        # p0 and gated/bypass/soft are the same for every setting.
        key = b"".join(np.packbits(b > 0.0).tobytes() for _, b in maps)
        entry = cache.get(key)
    if entry is not None:
        for cat, n in entry.flops.items():
            with counter.category(cat):
                counter.add(n)
        g = entry.grid
        cur = TokenGrid(g.rows, g.cols, g.dim, g.tokens.copy(), origin=g.origin)
        trace = [replace(e, raw_entry=raw, binarized=binp)
                 for e, (raw, binp) in zip(entry.stages, maps)]
        return _drop_inactive(cur, trace, gated)

    before = dict(counter.by_category) if cache is not None else {}
    cur = grid
    trace: list[StageTraceEntry] = []
    for s, st in enumerate(model.stages):
        raw, binp = maps[s]
        gate = (raw if soft else binp) if gated else None
        attn0 = counter.get("encoder_attention") if counter is not None else 0
        stats = WindowStats()
        for j in range(st.depth):
            cur, ws = gated_block(cur, gate, model.blocks[s][j], st.window,
                                  shifted=(j % 2 == 1), counter=counter,
                                  bypass=bypass and gated)
            stats = stats + ws
        attn_flops = (counter.get("encoder_attention") - attn0
                      if counter is not None else 0)
        trace.append(StageTraceEntry(
            stage=s + 1, n_tokens=cur.n_tokens, active=int(binp.sum()),
            windows_total=stats.total, windows_computed=stats.computed,
            windows_bypassed=stats.bypassed, attn_flops=attn_flops,
            raw_entry=raw, binarized=binp))
        if st.merge_after:
            cur, _ = merge_patches(cur, raw, model.merges[s], counter)

    if cache is not None:
        cache[key] = EncodeCacheEntry(
            grid=TokenGrid(cur.rows, cur.cols, cur.dim, cur.tokens.copy(),
                           origin=cur.origin),
            stages=[replace(e, raw_entry=None, binarized=None) for e in trace],
            flops={k: v - before.get(k, 0)
                   for k, v in counter.by_category.items()
                   if v != before.get(k, 0)})
    return _drop_inactive(cur, trace, gated)


def _drop_inactive(cur: TokenGrid, trace: list[StageTraceEntry],
                   gated: bool) -> EncodeResult:
    kept = (np.flatnonzero(trace[-1].binarized > 0.0) if gated
            else np.arange(cur.n_tokens))
    return EncodeResult(sequence=cur.tokens[kept], kept_indices=kept,
                        grid=cur, trace=trace)
