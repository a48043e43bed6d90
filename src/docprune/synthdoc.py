"""Synthetic document pages with exact per-pixel content ground truth.

A page is a light background plus a set of non-overlapping content regions
(text lines, tables, chart blocks) packed into a seeded content block, the
way real documents cluster ink and leave margins and trailing whitespace
blank. Region geometry snaps to a 4-pixel grid so patch-level labels at the
default patch size equal the pixel-level content fraction exactly.

The content mask is true exactly on region bounding boxes, and a patch is
labelled as content iff it contains at least one masked pixel.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import imageio
from .rng import Rng

REGION_KINDS = ("text_line", "table", "chart_block")

LAYOUT_GRID = 4
BLOCK_SNAP = 32
NOISE_AMPLITUDE = 0.02
# the background grey of every planned page
BACKGROUND_VALUE = 0.95
RELEVANCE_MARGIN = 8

# densest packing the row flow can sustain; sizes the content column width
_DENSITY_PACK = 0.85
# how far a page's content fraction may land from its target
FRACTION_TOLERANCE = 0.05


class LayoutError(ValueError):
    """Raised when a layout cannot realise its target content fraction."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved fraction {achieved:.4f})")
        self.achieved = achieved


@dataclass(frozen=True)
class ContentRegion:
    kind: str
    x: int
    y: int
    w: int
    h: int
    texture_seed: int

    def validate(self, image_size: int) -> None:
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.w < 4 or self.h < 4:
            raise ValueError(f"region too small: {self.w}x{self.h} (min 4x4)")
        if self.kind == "text_line" and self.w < 2 * self.h:
            raise ValueError(
                f"text_line must be elongated (w >= 2h), got {self.w}x{self.h}")
        if self.x < 0 or self.y < 0 or self.x + self.w > image_size or self.y + self.h > image_size:
            raise ValueError(
                f"region out of bounds: ({self.x},{self.y},{self.w},{self.h}) "
                f"in {image_size}x{image_size}")


@dataclass(frozen=True)
class LayoutSpec:
    image_size: int
    regions: tuple[ContentRegion, ...]
    background_value: float
    target_content_fraction: float
    seed: int


@dataclass
class LabeledImage:
    image: np.ndarray          # (H, W) float64 in [0, 1]
    content_mask: np.ndarray   # (H, W) bool, true exactly on region pixels
    regions: tuple[ContentRegion, ...]
    seed: int

    def patch_labels(self, patch_size: int) -> np.ndarray:
        """(g, g) bool grid; a patch is content iff any of its pixels are."""
        return patchify_any(self.content_mask, patch_size)

    @property
    def size(self) -> int:
        return self.image.shape[0]


def patchify_any(mask: np.ndarray, patch_size: int) -> np.ndarray:
    side = mask.shape[0]
    if side % patch_size != 0:
        raise ValueError(f"patch size {patch_size} does not divide image side {side}")
    g = side // patch_size
    return mask.reshape(g, patch_size, g, patch_size).any(axis=(1, 3))


def _snap(v: float) -> int:
    return max(LAYOUT_GRID, int(round(v / LAYOUT_GRID)) * LAYOUT_GRID)


def _column_cells(image_size: int, fraction: float) -> int:
    """BLOCK_SNAP cells of column width that hold fraction at _DENSITY_PACK."""
    area = fraction * (image_size * image_size)
    return math.ceil(area / (image_size * BLOCK_SNAP * _DENSITY_PACK))


def max_content_fraction(image_size: int) -> float:
    """Largest target fraction plan_layout can pack on a page of this side.

    The content column is at most as many whole BLOCK_SNAP cells as fit
    across the page (one on a narrower page), filled at _DENSITY_PACK. The
    closed form is moved to the last float whose column still fits, so
    this bound and plan_layout's column width agree at the boundary. On
    pages under 28 px that closed form passes 1; the bound is then 1.0.
    """
    cells = max(1, image_size // BLOCK_SNAP)
    limit = _DENSITY_PACK * cells * BLOCK_SNAP / image_size
    while _column_cells(image_size, limit) > cells:
        limit = math.nextafter(limit, 0.0)
    while _column_cells(image_size, math.nextafter(limit, math.inf)) <= cells:
        limit = math.nextafter(limit, math.inf)
    return min(limit, 1.0)


def check_packable(image_size: int, fraction: float) -> None:
    """LayoutError unless plan_layout can pack fraction on this page.

    The fraction may not exceed max_content_fraction, and it must lie
    within FRACTION_TOLERANCE of a whole number of LAYOUT_GRID cells, the
    area the solid column fill lands on. From 16 px up every fraction is
    that close to one; on an 8 px page a cell is a quarter of the page, so
    most fractions are out of reach there.
    """
    limit = max_content_fraction(image_size)
    if fraction > limit:
        raise LayoutError(
            f"target fraction {fraction} not packable at density "
            f"{_DENSITY_PACK}", limit)
    cell = LAYOUT_GRID * LAYOUT_GRID
    page_area = image_size * image_size
    packed = round(fraction * page_area / cell) * cell / page_area
    if abs(packed - fraction) > FRACTION_TOLERANCE:
        raise LayoutError(
            f"target fraction {fraction} is more than {FRACTION_TOLERANCE} "
            f"from any whole number of {LAYOUT_GRID}-px cells", packed)


def plan_layout(image_size: int, target_fraction: float,
                seed: int) -> LayoutSpec:
    """Pack regions into a content column until the target area is met.

    The column is anchored at the top-left corner and its width is snapped
    to a coarse BLOCK_SNAP grid, the narrowest that can hold the target
    area at a packable density. That keeps all the blank page area
    contiguous instead of scattering it between regions. Rows flow top to
    bottom; region kinds and heights are chosen against the density still
    needed to land on the target, and the final region is trimmed so the
    realised pixel fraction hits it. Where the row flow runs out of page
    (pages of 72 px or less), the column is filled solid instead, which
    lands on the whole number of LAYOUT_GRID cells nearest the target:
    within FRACTION_TOLERANCE of it, as check_packable requires.
    """
    if image_size % LAYOUT_GRID != 0:
        raise ValueError(f"image size must be a multiple of {LAYOUT_GRID}")
    if not 0.0 <= target_fraction <= 1.0:
        raise ValueError(f"target fraction out of range: {target_fraction}")

    rng = Rng(seed).derive("layout")
    if target_fraction == 0.0:
        return LayoutSpec(image_size, (), BACKGROUND_VALUE, 0.0, seed)

    check_packable(image_size, target_fraction)
    page_area = image_size * image_size
    target_area = target_fraction * page_area
    block_w = min(max(1, _column_cells(image_size, target_fraction))
                  * BLOCK_SNAP, image_size)

    regions, placed = [], 0
    if image_size >= BLOCK_SNAP:    # the row flow needs a whole cell across
        regions, placed = _flow_rows(rng, image_size, block_w, target_area)
    if abs(placed / page_area - target_fraction) > FRACTION_TOLERANCE:
        regions = _fill_column(rng, image_size, block_w, target_area)
    return LayoutSpec(image_size, tuple(regions), BACKGROUND_VALUE,
                      target_fraction, seed)


def _flow_rows(rng: Rng, image_size: int, block_w: int, target_area: float):
    """Rows of seeded regions down the column; returns (regions, area)."""
    regions: list[ContentRegion] = []
    placed = 0
    y = 0
    while placed < target_area and y <= image_size - LAYOUT_GRID:
        remaining = target_area - placed
        # density still needed over the rest of the column drives how
        # tall and tightly packed the next row must be
        needed = remaining / (block_w * (image_size - y))
        if needed > 0.85:
            kind = rng.choice(["table", "table", "chart_block"])
            h = rng.choice([32, 40])
        elif needed > 0.70:
            kind = rng.choice(["text_line", "text_line", "table", "chart_block"])
            h = {"text_line": 16, "table": rng.choice([32, 40]),
                 "chart_block": 32}[kind]
        elif needed > 0.50:
            kind = rng.choice(["text_line"] * 4 + ["table", "chart_block"])
            h = {"text_line": rng.choice([12, 16]),
                 "table": rng.choice([24, 32]),
                 "chart_block": 24}[kind]
        else:
            kind = rng.choice(["text_line"] * 6 + ["table", "chart_block"])
            h = {"text_line": rng.choice([8, 12]), "table": 24,
                 "chart_block": 24}[kind]
        w = block_w if kind == "table" else block_w - rng.choice([0, 0, 4, 8])
        h = min(h, (image_size - y) // LAYOUT_GRID * LAYOUT_GRID)
        if w * h > remaining:
            # trim the closing region to land on the target fraction
            h = min(h, 16)
            w = min(max(_snap(remaining / h), LAYOUT_GRID), block_w)
        if kind == "text_line" and w < 2 * h:
            kind = "chart_block"
        region = ContentRegion(kind, 0, y, w, h, rng.next_u64())
        region.validate(image_size)
        regions.append(region)
        placed += w * h
        needed = (target_area - placed) / max(
            block_w * (image_size - y - h), 1)
        if needed > 0.60:
            gap = LAYOUT_GRID
        elif needed > 0.35:
            gap = rng.choice([4, 8])
        else:
            gap = rng.choice([8, 16])
        y += h + gap

    return regions, placed


def _fill_column(rng: Rng, image_size: int, block_w: int,
                 target_area: float) -> list[ContentRegion]:
    """The column filled solid from the top in whole LAYOUT_GRID cells.

    A table covers the full rows and a chart block the partial one, so
    the area is the whole number of cells nearest to target_area.
    """
    cell = LAYOUT_GRID * LAYOUT_GRID
    cells = round(target_area / cell)
    full, part = divmod(cells, block_w // LAYOUT_GRID)
    regions = []
    if full:
        regions.append(ContentRegion("table", 0, 0, block_w,
                                     full * LAYOUT_GRID, rng.next_u64()))
    if part:
        regions.append(ContentRegion("chart_block", 0, full * LAYOUT_GRID,
                                     part * LAYOUT_GRID, LAYOUT_GRID,
                                     rng.next_u64()))
    for region in regions:
        region.validate(image_size)
    return regions


def generate(spec: LayoutSpec) -> LabeledImage:
    """Render a layout; pure function of the spec."""
    size = spec.image_size
    for region in spec.regions:
        region.validate(size)
    _check_no_overlap(spec.regions)

    noise_rng = Rng(spec.seed).derive("noise")
    noise = noise_rng.uniforms(size * size, -NOISE_AMPLITUDE, NOISE_AMPLITUDE)
    image = np.clip(spec.background_value + noise.reshape(size, size), 0.0, 1.0)
    mask = np.zeros((size, size), dtype=bool)

    for region in spec.regions:
        _render_region(image, region)
        mask[region.y:region.y + region.h, region.x:region.x + region.w] = True

    achieved = float(mask.mean())
    if abs(achieved - spec.target_content_fraction) > FRACTION_TOLERANCE:
        raise LayoutError(
            f"layout misses target fraction {spec.target_content_fraction}",
            achieved)
    return LabeledImage(image, mask, spec.regions, spec.seed)


def _check_no_overlap(regions) -> None:
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            if (a.x < b.x + b.w and b.x < a.x + a.w
                    and a.y < b.y + b.h and b.y < a.y + a.h):
                raise ValueError(
                    f"overlapping regions at ({a.x},{a.y}) and ({b.x},{b.y})")


def _render_region(image: np.ndarray, region: ContentRegion) -> None:
    rng = Rng(region.texture_seed)
    fill = rng.uniform(0.80, 0.88)
    ink = rng.uniform(0.05, 0.25)
    patch = np.full((region.h, region.w), fill)

    if region.kind == "text_line":
        stroke = rng.choice([1, 2])
        phase = rng.randint(2 * stroke)
        cols = (np.arange(region.w) + phase) // stroke % 2 == 0
        patch[1:-1, cols] = ink
    elif region.kind == "table":
        cell = rng.choice([8, 12, 16])
        patch[::cell, :] = ink
        patch[-1, :] = ink
        patch[:, ::cell] = ink
        patch[:, -1] = ink
    else:  # chart_block: filled bars from the baseline
        bar_w = rng.choice([4, 6, 8])
        x = 0
        while x < region.w:
            bar_h = max(2, int(region.h * rng.uniform(0.3, 1.0)))
            w = min(bar_w, region.w - x)
            patch[region.h - bar_h:, x:x + w] = ink
            x += bar_w + 2

    image[region.y:region.y + region.h, region.x:region.x + region.w] = patch


def corpus_doc(i: int, fraction: float, size: int, seed: int) -> LabeledImage:
    """Document i of every corpus of this (fraction, size, seed)."""
    return generate(plan_layout(size, fraction, Rng(seed).derive(i).state))


def make_corpus(n: int, fraction: float, size: int, seed: int) -> list[LabeledImage]:
    """n independent documents, each deterministic in (seed, index)."""
    if n < 1:
        raise ValueError(f"corpus size must be >= 1, got {n}")
    return [corpus_doc(i, fraction, size, seed) for i in range(n)]


def content_fraction(doc: LabeledImage, patch_size: int | None = None):
    """Share of the page's pixels, or of its patches, that are content."""
    if patch_size is None:
        return doc.content_mask.mean()
    return doc.patch_labels(patch_size).mean()


def mean_content_fraction(docs, patch_size: int | None = None) -> float:
    return float(np.mean([content_fraction(d, patch_size) for d in docs]))


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
    from .instruction_filter import (COL_TOKEN_BASE, N_BINS, ROW_TOKEN_BASE,
                                     InstructionSpec)

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


def save_corpus(docs, out_dir) -> Path:
    """Pages, content masks and layouts for inspection; nothing reads them."""
    out = imageio.ensure_dir(out_dir)
    for i, doc in enumerate(docs):
        stem = f"doc_{i:04d}"
        imageio.write_pgm(out / f"{stem}.pgm", doc.image)
        imageio.write_pbm(out / f"{stem}.mask.pbm", doc.content_mask)
        meta = {"seed": doc.seed,
                "regions": [asdict(r) for r in doc.regions]}
        with open(out / f"{stem}.json", "w") as f:
            json.dump(meta, f, indent=2, sort_keys=True)
    return out
