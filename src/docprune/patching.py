"""Patch partition: image to initial visual token grid via linear embedding.

Tokens are row-major over the patch grid; position (r, c) maps to index
r * cols + c and back. The embedding is one linear map per flattened patch,
which keeps the operation exactly linear in pixel values and its FLOP cost
a single matmul.

Geometry is checked once, when the config is built: a page is square at
image_size, which patch_size divides (PipelineConfig.validate), so nothing
here checks it again. A page of another shape fails in numpy's reshape.
A TokenGrid is built only where its token matrix has just been computed
(partition, and the encoder's passes and merges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng, init_uniform
from .tensor import NO_FLOPS, FlopCounter, linear


@dataclass
class TokenGrid:
    rows: int
    cols: int
    dim: int
    tokens: np.ndarray

    @property
    def n_tokens(self) -> int:
        return self.rows * self.cols


@dataclass
class PatchEmbed:
    """Linear patch embedding weights; flattened patch -> token vector."""

    patch_size: int
    weight: np.ndarray
    bias: np.ndarray

    @property
    def dim(self) -> int:
        return self.weight.shape[1]


def patch_embed_init(rng: Rng, patch_size: int, dim: int) -> PatchEmbed:
    fan_in = patch_size * patch_size
    return PatchEmbed(
        patch_size=patch_size,
        weight=init_uniform(rng, fan_in, dim, fan_in),
        bias=rng.uniforms(dim, -1.0 / fan_in ** 0.5, 1.0 / fan_in ** 0.5),
    )


def flatten_patches(img: np.ndarray, patch_size: int) -> np.ndarray:
    """(g*g, patch*patch) matrix of flattened patches in row-major grid order."""
    g = img.shape[0] // patch_size
    patches = img.reshape(g, patch_size, g, patch_size).transpose(0, 2, 1, 3)
    return patches.reshape(g * g, patch_size * patch_size)


def partition(img: np.ndarray, embed: PatchEmbed,
              counter: FlopCounter = NO_FLOPS) -> TokenGrid:
    flat = flatten_patches(img, embed.patch_size)
    tokens = linear(flat, embed.weight, embed.bias, counter)
    g = img.shape[0] // embed.patch_size
    return TokenGrid(rows=g, cols=g, dim=embed.dim, tokens=tokens)
