"""Minimal PGM (P5) and PBM (P4) writers for inspection output.

Images are float arrays in [0, 1] and masks are boolean arrays. A mask
is written True = white (content, kept), so `gen` and `render` draw the
same polarity; PBM sets a bit for black, so `write_pbm` inverts.
Both take 2-D arrays; any other fails unpacking its shape, before the file
is opened.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_pgm(path, img: np.ndarray) -> None:
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def write_pbm(path, mask: np.ndarray) -> None:
    h, w = mask.shape
    packed = np.packbits(np.logical_not(mask), axis=1)
    with open(path, "wb") as f:
        f.write(f"P4\n{w} {h}\n".encode("ascii"))
        f.write(packed.tobytes())


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
