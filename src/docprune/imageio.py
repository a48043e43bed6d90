"""Minimal PGM (P5) and PBM (P4) writers for inspection output.

Images are float arrays in [0, 1] and masks are boolean arrays. In PBM a
set bit is black; callers that want "white = kept" must invert before
writing, and `write_pbm` takes the boolean mask with True meaning black.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_pgm(path, img: np.ndarray) -> None:
    if img.ndim != 2:
        raise ValueError(f"PGM expects a 2-D image, got shape {img.shape}")
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def write_pbm(path, mask: np.ndarray) -> None:
    if mask.ndim != 2:
        raise ValueError(f"PBM expects a 2-D mask, got shape {mask.shape}")
    h, w = mask.shape
    packed = np.packbits(mask.astype(np.uint8), axis=1)
    with open(path, "wb") as f:
        f.write(f"P4\n{w} {h}\n".encode("ascii"))
        f.write(packed.tobytes())


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
