"""Patch partition must be an exact linear map over a row-major grid with
no hidden padding or reordering."""

import numpy as np
import pytest

from docprune.content_filter import detect, oracle_detector
from docprune.encoder import encode, encoder_init
from docprune.patching import (PatchEmbed, flatten_patches,
                               partition, patch_embed_init)
from docprune.rng import Rng
from docprune.synthdoc import generate, plan_layout
from docprune.tensor import FlopCounter


def _embed(patch_size=4, dim=32, seed=0):
    return patch_embed_init(Rng(seed), patch_size, dim)


def test_token_count_default_geometry():
    img = np.zeros((256, 256))
    grid = partition(img, _embed(4, 32))
    assert (grid.rows, grid.cols, grid.n_tokens) == (64, 64, 4096)
    assert grid.tokens.shape == (4096, 32)


def test_token_count_large_page():
    img = np.zeros((1536, 1536))
    grid = partition(img, _embed(16, 8))
    assert grid.n_tokens == 9216
    assert (grid.rows, grid.cols) == (96, 96)


def test_zero_image_gives_bias():
    embed = _embed()
    grid = partition(np.zeros((64, 64)), embed)
    np.testing.assert_array_equal(
        grid.tokens, np.tile(embed.bias, (grid.n_tokens, 1)))


def test_embedding_is_linear():
    embed = _embed()
    rng = Rng(5)
    a = rng.uniforms(64 * 64).reshape(64, 64)
    b = rng.uniforms(64 * 64).reshape(64, 64)
    base = partition(np.zeros((64, 64)), embed).tokens
    ta = partition(a, embed).tokens - base
    tb = partition(b, embed).tokens - base
    tab = partition(a + 2.0 * b, embed).tokens - base
    np.testing.assert_allclose(tab, ta + 2.0 * tb, atol=1e-12)


def test_flatten_matches_pixel_scan():
    img = np.arange(24 * 24, dtype=np.float64).reshape(24, 24)
    p = 8
    flat = flatten_patches(img, p)
    g = 24 // p
    for r in range(g):
        for c in range(g):
            np.testing.assert_array_equal(
                flat[r * g + c],
                img[r * p:(r + 1) * p, c * p:(c + 1) * p].ravel())


def test_flatten_is_a_bijection():
    img = Rng(3).uniforms(32 * 32).reshape(32, 32)
    p = 4
    flat = flatten_patches(img, p)
    g = 32 // p
    back = flat.reshape(g, g, p, p).transpose(0, 2, 1, 3).reshape(32, 32)
    np.testing.assert_array_equal(back, img)


def test_partition_flop_cost_is_one_linear():
    counter = FlopCounter()
    partition(np.zeros((64, 64)), _embed(4, 32), counter)
    n, fan_in, dim = 16 * 16, 16, 32
    assert counter.total() == 2 * n * fan_in * dim + n * dim


def test_grid_index_round_trip():
    # token r * cols + c embeds patch (r, c), and divmod(i, cols) goes back
    img = Rng(5).uniforms(32 * 32).reshape(32, 32)
    embed = _embed()
    grid = partition(img, embed)
    for i in range(grid.n_tokens):
        r, c = divmod(i, grid.cols)
        patch = img[4 * r:4 * r + 4, 4 * c:4 * c + 4].ravel()
        np.testing.assert_allclose(grid.tokens[r * grid.cols + c],
                                   patch @ embed.weight + embed.bias,
                                   rtol=1e-12, atol=1e-12)


def _probe_encode(p0):
    # the content probability map is checked where it is consumed: encode
    grid = partition(np.zeros((32, 32)), _embed(dim=8))
    model = encoder_init(0, d0=8, depths=(1, 1, 1, 1), window=2)
    return encode(model, grid, p0)


def test_probability_map_validation():
    with pytest.raises(ValueError, match="does not match"):
        _probe_encode(np.zeros((8, 8)))
    with pytest.raises(ValueError, match="does not match"):
        _probe_encode(np.zeros(63))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _probe_encode(np.r_[np.full(63, 0.5), 1.5])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _probe_encode(np.r_[np.full(63, 0.5), -0.1])
    ok = _probe_encode(np.tile([0.0, 1.0], 32))    # a binary 0/1 map
    assert (ok.grid.rows, ok.grid.cols) == (1, 1)
    assert ok.kept_final == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probability_map_rejects_non_finite(bad):
    p0 = np.full(64, 0.5)
    p0[5] = bad
    with pytest.raises(ValueError, match="finite"):
        _probe_encode(p0)


def test_labels_to_probs_matches_patch_labels():
    # ground-truth probabilities come from the oracle detector
    doc = generate(plan_layout(256, 0.5, seed=7))
    probs = detect(oracle_detector(4), doc)
    np.testing.assert_array_equal(
        probs, doc.patch_labels(4).astype(np.float64).ravel())


def test_embed_init_deterministic():
    a, b = _embed(seed=4), _embed(seed=4)
    np.testing.assert_array_equal(a.weight, b.weight)
    np.testing.assert_array_equal(a.bias, b.bias)
    assert a.dim == 32
    assert isinstance(a, PatchEmbed)
