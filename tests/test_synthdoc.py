"""Generated pages must carry exact ground truth: the content mask is true
precisely on region boxes, patch labels follow by any-pooling, and every
document is a pure function of its layout seed."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from docprune import imageio
from docprune.pipeline import ConfigError, PipelineConfig
from docprune.rng import Rng
from docprune.instruction_filter import (COL_TOKEN_BASE, N_BINS,
                                         ROW_TOKEN_BASE, MAX_INSTRUCTION_LEN,
                                         RELEVANCE_MARGIN, VOCAB_SIZE,
                                         instruction_target)
from docprune.synthdoc import (FRACTION_TOLERANCE, REGION_KINDS,
                               ContentRegion, LayoutError, LayoutSpec,
                               check_packable, content_fraction, generate,
                               make_corpus, max_content_fraction,
                               patchify_any, plan_layout, save_corpus)
from helpers import pbm_bits, pgm_pixels


def _full_page_spec(size=64):
    region = ContentRegion("table", 0, 0, size, size, texture_seed=11)
    return LayoutSpec(size, (region,), seed=0)


def test_zero_fraction_has_no_content():
    doc = generate(plan_layout(256, 0.0, seed=3))
    assert not doc.content_mask.any()
    assert not doc.patch_labels(4).any()
    assert doc.regions == ()


def test_full_page_region_labels_all_true():
    doc = generate(_full_page_spec())
    assert doc.content_mask.all()
    assert doc.patch_labels(4).all()
    assert doc.patch_labels(32).all()


def test_generate_is_pure_in_the_spec():
    spec = plan_layout(256, 0.5, seed=12)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.image, b.image)
    np.testing.assert_array_equal(a.content_mask, b.content_mask)
    assert a.regions == b.regions


def test_corpus_determinism():
    a = make_corpus(4, 0.5, 256, seed=9)
    b = make_corpus(4, 0.5, 256, seed=9)
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.image, db.image)
        np.testing.assert_array_equal(da.content_mask, db.content_mask)
    c = make_corpus(4, 0.5, 256, seed=10)
    assert any(not np.array_equal(da.image, dc.image) for da, dc in zip(a, c))


def test_half_fraction_hits_target_band():
    doc = generate(plan_layout(256, 0.5, seed=0))
    frac = doc.patch_labels(4).mean()
    assert 0.45 <= frac <= 0.60


def test_corpus_mean_fraction():
    docs = make_corpus(32, 0.5, 256, seed=21)
    assert 0.45 <= np.mean([content_fraction(d, 4) for d in docs]) <= 0.60
    # pixel fraction is within the planner tolerance of the target
    assert abs(np.mean([content_fraction(d) for d in docs]) - 0.5) <= 0.05


@pytest.mark.parametrize("patch_size", [4, 8, 32])
def test_patch_labels_match_pixel_scan(patch_size):
    doc = generate(plan_layout(256, 0.4, seed=5))
    labels = doc.patch_labels(patch_size)
    g = 256 // patch_size
    for r in range(g):
        for c in range(g):
            block = doc.content_mask[r * patch_size:(r + 1) * patch_size,
                                     c * patch_size:(c + 1) * patch_size]
            assert labels[r, c] == block.any()


def test_mask_true_exactly_on_region_boxes():
    doc = generate(plan_layout(256, 0.3, seed=8))
    rebuilt = np.zeros_like(doc.content_mask)
    for r in doc.regions:
        rebuilt[r.y:r.y + r.h, r.x:r.x + r.w] = True
    np.testing.assert_array_equal(doc.content_mask, rebuilt)


def _overlaps(regions) -> list:
    """Index pairs (i, j), i < j, of regions whose boxes share a pixel."""
    x, y, w, h = (np.array([getattr(r, k) for r in regions])
                  for k in "xywh")
    hit = ((x[:, None] < x + w) & (x < (x + w)[:, None])
           & (y[:, None] < y + h) & (y < (y + h)[:, None]))
    return [(i, j) for i, j in zip(*np.nonzero(np.triu(hit, 1)))]


def test_region_invariants_across_seeds():
    # plan_layout is the only check a layout gets: generate paints it as
    # given, so every property of a page's regions is asserted here
    sizes = [*range(8, 257, 8), 384, 768, 1536]
    for size in sizes:
        limit = max_content_fraction(size)
        for fraction in [k / 20 for k in range(int(limit * 20) + 1)] + [limit]:
            try:
                check_packable(size, fraction)
            except LayoutError:
                assert size < 16    # whole 4-px cells reach the rest
                continue
            for seed in range(5):
                regions = plan_layout(size, fraction, seed).regions
                for r in regions:
                    assert r.kind in REGION_KINDS
                    assert r.w >= 4 and r.h >= 4
                    assert 0 <= r.x and 0 <= r.y
                    assert r.x + r.w <= size and r.y + r.h <= size
                    if r.kind == "text_line":
                        assert r.w >= 2 * r.h
                assert not _overlaps(regions), (size, fraction, seed)
                area = sum(r.w * r.h for r in regions)
                assert abs(area / size ** 2 - fraction) <= FRACTION_TOLERANCE


def test_infeasible_fraction_reports_achieved():
    with pytest.raises(LayoutError) as exc:
        plan_layout(256, 0.99, seed=0)
    assert 0.0 < exc.value.achieved < 0.99
    assert f"{exc.value.achieved:.4f}" in str(exc.value)


def test_plan_layout_checks_its_arguments():
    with pytest.raises(ValueError, match="image size must be a multiple of 4"):
        plan_layout(66, 0.5, seed=0)
    for fraction in (-0.1, 1.5):
        with pytest.raises(ValueError, match="target fraction out of range"):
            plan_layout(64, fraction, seed=0)


@pytest.mark.parametrize("size", [40, 128, 200, 256, 1536])
def test_max_content_fraction_is_the_packing_boundary(size):
    limit = max_content_fraction(size)
    for seed in range(3):
        area = sum(r.w * r.h for r in plan_layout(size, limit, seed).regions)
        assert abs(area / size ** 2 - limit) <= FRACTION_TOLERANCE
        with pytest.raises(LayoutError, match="not packable"):
            plan_layout(size, math.nextafter(limit, 1.0), seed)


@pytest.mark.parametrize("size", range(8, 73, 4))
def test_max_content_fraction_is_a_fraction(size):
    assert 0.0 < max_content_fraction(size) <= 1.0


def test_image_values_in_unit_range():
    doc = generate(plan_layout(256, 0.5, seed=2))
    assert doc.image.min() >= 0.0
    assert doc.image.max() <= 1.0
    # background stays near-white, ink is visibly darker
    assert doc.image[~doc.content_mask].mean() > 0.9
    assert doc.image[doc.content_mask].mean() < 0.9


# --- instruction targets -------------------------------------------------

def test_instruction_mask_is_dilated_bbox():
    region = ContentRegion("table", 64, 96, 64, 32, texture_seed=1)
    spec = LayoutSpec(256, (region,), seed=0)
    doc = generate(spec)
    instr, mask = instruction_target(doc, seed=4)
    m = RELEVANCE_MARGIN
    expect = np.zeros((256, 256), dtype=bool)
    expect[96 - m:96 + 32 + m, 64 - m:64 + 64 + m] = True
    np.testing.assert_array_equal(mask, expect)
    # the kind token names the region
    assert instr.token_ids[0] == 2  # table


def test_instruction_mask_contains_region_and_nothing_far():
    doc = generate(plan_layout(256, 0.4, seed=6))
    dilated = np.zeros_like(doc.content_mask)
    m = RELEVANCE_MARGIN
    for r in doc.regions:
        y0, y1 = max(0, r.y - m), min(256, r.y + r.h + m)
        x0, x1 = max(0, r.x - m), min(256, r.x + r.w + m)
        dilated[y0:y1, x0:x1] = True
    for seed in range(10):
        _, mask = instruction_target(doc, seed=seed)
        assert mask.any()
        # relevance never reaches beyond some region's dilated box
        assert not (mask & ~dilated).any()
        # and fully covers at least one region
        assert any(mask[r.y:r.y + r.h, r.x:r.x + r.w].all()
                   for r in doc.regions)


def test_instruction_seed_sweep_covers_all_regions():
    doc = generate(plan_layout(256, 0.5, seed=1))
    assert len(doc.regions) >= 2
    hit = set()
    for seed in range(100):
        _, mask = instruction_target(doc, seed=seed)
        for i, r in enumerate(doc.regions):
            if mask[r.y:r.y + r.h, r.x:r.x + r.w].all() and \
               mask[max(0, r.y - RELEVANCE_MARGIN), r.x]:
                hit.add(i)
    assert hit == set(range(len(doc.regions)))


def test_instruction_tokens_are_valid_and_deterministic():
    doc = generate(plan_layout(256, 0.5, seed=13))
    for seed in range(10):
        instr, _ = instruction_target(doc, seed=seed)
        again, _ = instruction_target(doc, seed=seed)
        assert instr == again
        assert 1 <= len(instr) <= MAX_INSTRUCTION_LEN
        assert all(0 <= t < VOCAB_SIZE for t in instr.token_ids)


def test_span_tokens_name_exactly_the_relevant_cells():
    # at 256 px the instruction's row/col bins are 32-px cells; a cell is
    # relevant iff its row token and col token both appear
    doc = generate(plan_layout(256, 0.5, seed=17))
    cell = 256 // N_BINS
    for seed in range(10):
        instr, mask = instruction_target(doc, seed=seed)
        cells = patchify_any(mask, cell)
        rows = {t - ROW_TOKEN_BASE for t in instr.token_ids
                if ROW_TOKEN_BASE <= t < ROW_TOKEN_BASE + N_BINS}
        cols = {t - COL_TOKEN_BASE for t in instr.token_ids
                if COL_TOKEN_BASE <= t < COL_TOKEN_BASE + N_BINS}
        expect = np.zeros_like(cells)
        for r in rows:
            for c in cols:
                expect[r, c] = True
        np.testing.assert_array_equal(cells, expect)


def test_blank_page_instruction_is_token_zero():
    # nothing to refer to: the one unused id, and nothing is relevant
    doc = generate(plan_layout(256, 0.0, seed=0))
    assert not doc.regions
    instr, mask = instruction_target(doc, seed=0)
    assert instr.token_ids == (0,)
    assert mask.shape == (256, 256) and not mask.any()


# --- persistence ----------------------------------------------------------

def test_pgm_round_trip(tmp_path):
    img = generate(plan_layout(64, 0.4, seed=2)).image
    path = tmp_path / "page.pgm"
    imageio.write_pgm(path, img)
    back = pgm_pixels(path, (64, 64)) / 255.0
    # 8-bit quantization is the only loss
    assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12
    imageio.write_pgm(path, np.array([[0.0, 0.5, 1.0], [-1.0, 0.2, 2.0]]))
    np.testing.assert_array_equal(pgm_pixels(path, (2, 3)),
                                  [[0, 128, 255], [0, 51, 255]])


def test_pbm_round_trip(tmp_path):
    path = tmp_path / "mask.pbm"
    mask = generate(plan_layout(256, 0.5, seed=4)).content_mask
    imageio.write_pbm(path, mask)
    # True is white, and PBM sets a bit for black
    np.testing.assert_array_equal(pbm_bits(path, (256, 256)), ~mask)
    # rows that do not fill their last byte
    mask = Rng(4).uniforms(39).reshape(3, 13) > 0.5
    imageio.write_pbm(path, mask)
    np.testing.assert_array_equal(pbm_bits(path, (3, 13)), ~mask)


def test_writers_take_only_2d_arrays(tmp_path):
    with pytest.raises(ValueError):
        imageio.write_pgm(tmp_path / "page.pgm", np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        imageio.write_pbm(tmp_path / "mask.pbm", np.zeros((2, 3, 4), bool))
    assert list(tmp_path.iterdir()) == []


def test_corpus_round_trip(tmp_path):
    # save_corpus writes an inspection corpus; decode it here
    docs = make_corpus(3, 0.5, 256, seed=6)
    out = tmp_path / "corpus"
    mean = save_corpus(3, 0.5, 256, 6, out)
    assert mean == pytest.approx(np.mean([content_fraction(d) for d in docs]))
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"doc_{i:04d}{ext}" for i in range(3)
        for ext in (".pgm", ".mask.pbm", ".json"))
    for i, orig in enumerate(docs):
        stem = out / f"doc_{i:04d}"
        # content is white, as kept tokens are in `render`
        np.testing.assert_array_equal(
            pbm_bits(f"{stem}.mask.pbm", (256, 256)), ~orig.content_mask)
        pixels = pgm_pixels(f"{stem}.pgm", (256, 256)) / 255.0
        assert np.abs(pixels - orig.image).max() <= 0.5 / 255.0 + 1e-12
        meta = json.loads(Path(f"{stem}.json").read_text())
        assert meta["seed"] == orig.seed
        assert tuple(ContentRegion(**r) for r in meta["regions"]) == (
            orig.regions)


@pytest.mark.parametrize("size", range(8, 73, 8))
def test_every_valid_small_page_config_packs(size):
    # a config that validates must lay out at every seed; one that cannot
    # be packed is a config error naming content_fraction
    limit = min(1.0, max_content_fraction(size))
    fractions = [k / 100 for k in range(int(limit * 100) + 1)] + [limit]
    rejected = []
    for f in fractions:
        try:
            PipelineConfig(image_size=size, patch_size=size // 8,
                           content_fraction=f)
        except ConfigError as e:
            assert "content_fraction" in str(e)
            with pytest.raises(LayoutError, match="whole number"):
                plan_layout(size, f, 0)
            rejected.append(f)
            continue
        for seed in range(10):
            for doc in make_corpus(2, f, size, seed):
                assert abs(doc.content_mask.mean() - f) <= 0.05
    # whole 4-px cells reach every fraction from 16 px up
    assert not rejected if size >= 16 else 0 < len(rejected) < len(fractions)
