"""Instruction filtering: fuse visual and instruction tokens, keep relevant ones.

A single full-attention transformer layer runs over the concatenation
[V; I] of visual and instruction tokens, then a 2-layer sigmoid MLP
scores each fused visual token for instruction relevance. Visual tokens
scoring below the threshold are dropped; instruction tokens are never
dropped and pass through to the decoder untouched.

Instructions are sequences of small integer ids over a 256-entry toy
vocabulary; instruction_target spells one out for a region of a page.
Most of the embedding table is seeded random; the ids that mark row and
column spans borrow the grid position ladders so spatial matches show up
as inner products after fusion. Training updates the
classifier MLP only, with the fusion layer frozen at its seeded init, so
every gradient is covered by the finite-difference checks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import weights_io
from .content_filter import fit_mlp2, recall_precision
from .encoder import BlockWeights, attn_residual, block_init, ffn_residual
from .rng import Rng
from .synthdoc import REGION_KINDS, LabeledImage
from .tensor import (NO_FLOPS, FlopCounter, LossCurve, Mlp2, mlp2_forward,
                     mlp2_init)

VOCAB_SIZE = 256
MAX_INSTRUCTION_LEN = 32

# vocabulary layout: ids 1-3 name region kinds; 32+b / 64+b mark the
# quantized row / column bins an instruction's target area covers
ROW_TOKEN_BASE = 32
COL_TOKEN_BASE = 64
N_BINS = 8
RELEVANCE_MARGIN = 8


@dataclass(frozen=True)
class InstructionSpec:
    token_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.token_ids) == 0:
            raise ValueError("instruction must be non-empty")
        if len(self.token_ids) > MAX_INSTRUCTION_LEN:
            raise ValueError(
                f"instruction length {len(self.token_ids)} exceeds "
                f"{MAX_INSTRUCTION_LEN}")
        bad = [t for t in self.token_ids if not 0 <= t < VOCAB_SIZE]
        if bad:
            raise ValueError(f"token ids outside [0, {VOCAB_SIZE}): {bad}")

    def __len__(self) -> int:
        return len(self.token_ids)


def instruction_target(img: LabeledImage, seed: int):
    """Pick one region as the instruction referent.

    Returns the instruction token sequence and a per-pixel relevance mask
    covering the region bbox dilated by RELEVANCE_MARGIN pixels. Patch-level
    relevance at any granularity derives from the mask via patchify_any.

    The token sequence spells out the quantized bbox as spans: one kind
    token, then one token per covered row bin and one per covered column
    bin, with the page split into N_BINS bins per axis. At the default
    geometry those bins coincide with the final-stage grid cells, so a
    cell is relevant exactly when its row token and its column token both
    appear in the instruction.

    A blank page has nothing to refer to: its instruction is the single
    token 0 (no region kind) and nothing on it is relevant.
    """
    if not img.regions:
        return InstructionSpec((0,)), np.zeros((img.size,) * 2, dtype=bool)
    rng = Rng(seed).derive("instruction")
    region = rng.choice(img.regions)
    size = img.size

    m = RELEVANCE_MARGIN
    mask = np.zeros((size, size), dtype=bool)
    x0, y0 = max(0, region.x - m), max(0, region.y - m)
    x1 = min(size, region.x + region.w + m)
    y1 = min(size, region.y + region.h + m)
    mask[y0:y1, x0:x1] = True

    kind_id = 1 + REGION_KINDS.index(region.kind)
    token_ids = [kind_id]
    token_ids += [ROW_TOKEN_BASE + b
                  for b in range(y0 * N_BINS // size, (y1 - 1) * N_BINS // size + 1)]
    token_ids += [COL_TOKEN_BASE + b
                  for b in range(x0 * N_BINS // size, (x1 - 1) * N_BINS // size + 1)]
    return InstructionSpec(tuple(token_ids)), mask


@dataclass
class IfmModel:
    embed: np.ndarray            # VOCAB_SIZE x dim lookup table, frozen
    fusion: BlockWeights         # one SA + FFN layer, frozen
    clf: Mlp2                    # relevance classifier, trainable
    use_positions: bool = True   # sinusoidal encodings over [V; I]

    @property
    def dim(self) -> int:
        return self.embed.shape[1]


def ifm_init(seed: int, dim: int, ffn_ratio: int = 2,
             use_positions: bool = True) -> IfmModel:
    rng = Rng(seed).derive("ifm")
    # unit-range embeddings keep instruction content comparable in
    # magnitude to the position encodings it competes with after fusion
    embed = rng.derive("embed").uniforms(VOCAB_SIZE * dim, -1.0, 1.0)
    embed = embed.reshape(VOCAB_SIZE, dim)
    # span tokens reuse the grid position ladders: a row token's embedding
    # matches the row half of every cell encoding in its bin, so spatial
    # relevance is a similarity relation rather than an arbitrary code the
    # frozen fusion layer would have to decode
    half = dim // 2
    bins = np.arange(N_BINS, dtype=np.float64)
    embed[ROW_TOKEN_BASE:ROW_TOKEN_BASE + N_BINS] = 0.0
    embed[ROW_TOKEN_BASE:ROW_TOKEN_BASE + N_BINS, :half] = _ladder(bins, half)
    embed[COL_TOKEN_BASE:COL_TOKEN_BASE + N_BINS] = 0.0
    embed[COL_TOKEN_BASE:COL_TOKEN_BASE + N_BINS, half:] = _ladder(
        bins, dim - half)
    return IfmModel(
        embed=embed,
        fusion=block_init(rng.derive("fusion"), dim, ffn_ratio),
        clf=mlp2_init(rng.derive("clf"), dim, 4 * dim, 1),
        use_positions=use_positions,
    )


def embed_instruction(model: IfmModel, spec: InstructionSpec) -> np.ndarray:
    return model.embed[list(spec.token_ids)]


def _ladder(pos: np.ndarray, dim: int) -> np.ndarray:
    i = np.arange(0, dim, 2).astype(np.float64)
    angle = pos[:, None] / np.power(10000.0, i / dim)
    pe = np.zeros((pos.size, dim))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : dim // 2])
    return pe


def grid_positions(indices: np.ndarray, side: int, dim: int) -> np.ndarray:
    """2D positional encoding for grid cells: half the dims encode the row,
    half the column, each with the usual sin/cos ladder."""
    half = dim // 2
    r, c = np.divmod(np.asarray(indices), side)
    return np.concatenate([_ladder(r.astype(np.float64), half),
                           _ladder(c.astype(np.float64), dim - half)], axis=1)


def fuse(model: IfmModel, v: np.ndarray, instr: np.ndarray,
         counter: FlopCounter = NO_FLOPS) -> np.ndarray:
    """Self-attention + FFN over every row of [V; I], charged whole;
    returns the fused visual rows V'. InstructionSpec keeps I non-empty."""
    nv = v.shape[0]
    x = np.vstack([v, instr])
    if model.use_positions:
        # order stamp for the instruction rows; visual tokens arrive with
        # spatial encodings already added upstream
        x[nv:] += _ladder(np.arange(nv, len(x), dtype=np.float64), model.dim)
    x = attn_residual(x, model.fusion, counter, ("ifm", "ifm"))
    x = ffn_residual(x, model.fusion, counter, ("ifm", "ifm"))
    return x[:nv]


def filter_tokens(model: IfmModel, v_fused: np.ndarray, eps: float,
                  counter: FlopCounter = NO_FLOPS) -> np.ndarray:
    """Increasing indices of the fused visual tokens scoring at least eps.

    The kept indices select rows of the projected tokens the IFM took in,
    not of the fused features: the decoder consumes the original projected
    tokens.
    """
    with counter.category("ifm"):
        scores = mlp2_forward(v_fused, model.clf, counter, sigmoid_out=True)
    return np.flatnonzero(scores.ravel() >= eps)


def train_ifm(model: IfmModel, samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
              epochs: int, lr: float,
              pos_weight: float | str = 1.0) -> tuple[IfmModel, LossCurve]:
    """Fit the relevance classifier on (V, I, labels) samples.

    The fusion layer stays frozen, so fused features are precomputed once
    per sample and the classifier trains full-batch on the stacked rows.
    """
    feats = []
    labels = []
    for v, instr, y in samples:
        vp = fuse(model, v, instr)
        feats.append(vp)
        labels.append(np.asarray(y, dtype=np.float64).reshape(-1, 1))
        if feats[-1].shape[0] != labels[-1].shape[0]:
            raise ValueError(
                f"sample has {feats[-1].shape[0]} tokens but "
                f"{labels[-1].shape[0]} labels")
    curve = fit_mlp2(model.clf, np.vstack(feats), np.vstack(labels), epochs,
                     lr, pos_weight)
    return model, curve


def evaluate_ifm(model: IfmModel,
                 samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                 eps: float) -> dict[str, float]:
    """Recall/precision of kept tokens against relevance labels."""
    kept = []
    for v, instr, _ in samples:
        vp = fuse(model, v, instr)
        mask = np.zeros(v.shape[0], dtype=bool)
        mask[filter_tokens(model, vp, eps=eps)] = True
        kept.append(mask)
    return recall_precision(
        kept, [np.asarray(y, dtype=bool).ravel() for *_, y in samples])


def save_ifm(path, model: IfmModel) -> None:
    arrays = {
        "meta": np.array([model.dim, 1.0 if model.use_positions else 0.0]),
        "embed": model.embed,
        "clf_w1": model.clf.w1,
        "clf_b1": model.clf.b1,
        "clf_w2": model.clf.w2,
        "clf_b2": model.clf.b2,
    }
    for f in fields(BlockWeights):
        arrays[f"fuse_{f.name}"] = getattr(model.fusion, f.name)
    weights_io.write_weights(path, weights_io.KIND_IFM, arrays)


def load_ifm(path) -> IfmModel:
    fusion_names = [f.name for f in fields(BlockWeights)]
    arrays = weights_io.read_model(
        path, weights_io.KIND_IFM,
        ("meta", "embed", "clf_w1", "clf_b1", "clf_w2", "clf_b2",
         *(f"fuse_{n}" for n in fusion_names)))
    weights_io.check_shapes(path, arrays, {"meta": (2,)})
    (dim,) = weights_io.meta_dims(path, arrays["meta"], 1)
    use_positions = arrays["meta"][1]
    if use_positions not in (0.0, 1.0):
        raise ValueError(f"weight file {path}: array 'meta' holds "
                         f"{arrays['meta'].tolist()}; its use_positions "
                         "flag must be 0.0 or 1.0")
    # hidden widths come from the biases, every other dim from meta
    hidden, ffn = (weights_io.width(path, arrays, n)
                   for n in ("clf_b1", "fuse_b1"))
    shapes = {"embed": (VOCAB_SIZE, dim), "clf_w1": (dim, hidden),
              "clf_w2": (hidden, 1), "clf_b2": (1,), "fuse_b1": (ffn,),
              "fuse_w1": (dim, ffn), "fuse_w2": (ffn, dim)}
    for n in fusion_names:
        shapes.setdefault(f"fuse_{n}", (dim, dim) if n[0] == "w" else (dim,))
    weights_io.check_shapes(path, arrays, shapes)
    fusion = BlockWeights(**{n: arrays[f"fuse_{n}"] for n in fusion_names})
    clf = Mlp2(arrays["clf_w1"], arrays["clf_b1"],
               arrays["clf_w2"], arrays["clf_b2"])
    return IfmModel(embed=arrays["embed"], fusion=fusion, clf=clf,
                    use_positions=bool(use_positions))
