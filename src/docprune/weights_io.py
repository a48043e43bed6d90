"""Flat binary weight files shared by the detector and the instruction filter.

Layout, all little-endian:

    magic   4 bytes  b"HRVD"
    version u32      currently 1
    kind    u32      model kind tag (see KIND_*)
    count   u32      number of named arrays
    arrays  repeated: name_len u16, name utf-8, ndim u8, dims u32 each,
                      float64 data in C order

Array order is preserved on round-trip; readers should index by name.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"HRVD"
VERSION = 1

KIND_DETECTOR = 1
KIND_IFM = 2
_KIND_NAMES = {KIND_DETECTOR: "a detector", KIND_IFM: "an IFM"}


def write_weights(path, kind: int, arrays: dict[str, np.ndarray]) -> None:
    """Write a weight file, making any missing directory above it."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, kind))
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            data = np.ascontiguousarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.tobytes())


def read_weights(path) -> tuple[int, dict[str, np.ndarray]]:
    """Parse a weight file; any damage raises ValueError naming the file."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise ValueError(f"bad magic in weight file {path}: {raw[:4]!r}")
    view = memoryview(raw)
    offset = 4

    def take(n: int, what: str) -> memoryview:
        # every length is checked against the file before it is used, so a
        # cut file or a huge declared dim never reaches struct or numpy
        nonlocal offset
        if n > len(raw) - offset:
            raise ValueError(
                f"weight file {path} is truncated: {what} needs {n} bytes at "
                f"offset {offset}, file has {len(raw)}")
        chunk = view[offset:offset + n]
        offset += n
        return chunk

    version, kind, count = struct.unpack("<III", take(12, "the header"))
    if version != VERSION:
        raise ValueError(
            f"unsupported weight file version {version} in {path}")
    arrays: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"array {i} name length"))
        try:
            name = bytes(take(name_len, f"array {i} name")).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"weight file {path}: array {i} name is not "
                             f"utf-8") from e
        if name in arrays:
            raise ValueError(f"weight file {path} repeats array {name!r}")
        (ndim,) = struct.unpack("<B", take(1, f"array {name!r} rank"))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, f"array {name!r} dims"))
        data = take(8 * math.prod(dims), f"array {name!r} data")
        try:    # a rank above numpy's most dimensions (32 or 64)
            arr = np.frombuffer(data, dtype="<f8").reshape(dims).copy()
        except ValueError as e:
            raise ValueError(f"weight file {path}: array {name!r} of rank "
                             f"{ndim}: {e}") from e
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"weight file {path}: array {name!r} holds NaN "
                             "or inf")
        arrays[name] = arr
    if offset != len(raw):
        raise ValueError(f"weight file {path} has {len(raw) - offset} "
                         f"trailing bytes after {count} arrays")
    return kind, arrays


def read_model(path, kind: int, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """read_weights, then require the model kind and every named array."""
    found, arrays = read_weights(path)
    if found != kind:
        raise ValueError(
            f"weight file {path} is not {_KIND_NAMES[kind]} (kind {found})")
    missing = [n for n in names if n not in arrays]
    if missing:
        raise ValueError(f"weight file {path} lacks arrays {missing}")
    return arrays


def check_shapes(path, arrays: dict[str, np.ndarray],
                 shapes: dict[str, tuple[int, ...]]) -> None:
    """Require each named array to have its shape, checked in dict order."""
    for name, want in shapes.items():
        if arrays[name].shape != want:
            raise ValueError(
                f"weight file {path}: array {name!r} has shape "
                f"{arrays[name].shape}, expected {want}")


def width(path, arrays: dict[str, np.ndarray], name: str) -> int:
    """The length of a named 1-D array: a hidden bias fixes its width,
    which is at least 1."""
    if arrays[name].ndim != 1 or len(arrays[name]) < 1:
        raise ValueError(f"weight file {path}: array {name!r} has shape "
                         f"{arrays[name].shape}, expected 1-D of length >= 1")
    return len(arrays[name])


def meta_dims(path, meta: np.ndarray, n: int) -> list[int]:
    """The first n entries of a (checked) meta array as positive ints."""
    dims = meta[:n]
    if not np.all((dims >= 1) & (dims == np.floor(dims))):
        raise ValueError(f"weight file {path}: array 'meta' holds "
                         f"{meta.tolist()}; its first {n} entries must be "
                         "positive integers")
    return [int(d) for d in dims]
