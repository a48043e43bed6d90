"""What the tests share and the program does not use: the default and
all-zero per-stage content thresholds, an all-zero two-layer MLP and one
training pass of an MLP, an untrained detector's weight file, a faked
core count, a recorder of the threads a function runs on, a block run at
a set OpenBLAS thread count, and decoders of the PGM and PBM files the
program writes."""

import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from docprune import tensor
from docprune.content_filter import mlp_detector, save_detector
from docprune.tensor import Mlp2, mlp2_backward, mlp2_forward

DEFAULT_EPS_C = (0.25, 0.25, 0.5, 0.5)
ZERO_EPS_C = (0.0, 0.0, 0.0, 0.0)


def mlp2_zeros(in_dim: int, hidden: int, out_dim: int) -> Mlp2:
    return Mlp2(np.zeros((in_dim, hidden)), np.zeros(hidden),
                np.zeros((hidden, out_dim)), np.zeros(out_dim))


def mlp2_pass(x: np.ndarray, p: Mlp2, y: np.ndarray, pos_weight=1.0):
    """One training pass of a sigmoid-headed p, as fit_mlp2 runs an
    epoch: (prediction, gradients)."""
    hidden = (np.empty((len(x), p.w1.shape[1])),
              np.empty((len(x), p.w1.shape[1])))
    pred = mlp2_forward(x, p, sigmoid_out=True, hidden=hidden)
    return pred, mlp2_backward(x, p, hidden, pred, y, pos_weight)


def detector_file(path, seed: int = 2, patch_size: int = 4) -> str:
    """Save the untrained mlp detector of this seed at path and return the
    path, as a config's detector_weights names it."""
    save_detector(path, mlp_detector(seed, patch_size))
    return str(path)


def fake_cores(monkeypatch, n: int) -> None:
    """tensor.map_on_cores sees n available cores for the rest of the test."""
    monkeypatch.setattr(tensor.os, "sched_getaffinity",
                        lambda pid: set(range(n)))


class SecondThread:
    """fn, recording in `threads` each thread it runs on. With wait, its
    first call waits (up to 5 s) until a call runs on a second thread, so
    a test of two threads does not rest on how they are scheduled."""

    def __init__(self, fn, wait: bool = True):
        self.fn, self.waits = fn, wait
        self.threads: set[threading.Thread] = set()
        self._lock, self._both = threading.Lock(), threading.Event()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.threads.add(threading.current_thread())
            if len(self.threads) > 1:
                self._both.set()
            waits, self.waits = self.waits, False
        if waits:
            self._both.wait(timeout=5)
        return self.fn(*args, **kwargs)


@contextmanager
def blas_threads(n: int):
    """Run the block with numpy's OpenBLAS at n threads and restore the
    count it had; yields the count's getter. Skips the test where no
    OpenBLAS thread setter is found."""
    found = tensor._openblas()
    if found is None:
        pytest.skip("no OpenBLAS thread setter in this process")
    get_threads, set_threads = found
    old = get_threads()
    set_threads(n)
    try:
        yield get_threads
    finally:
        set_threads(old)


def _payload(path, header: str) -> np.ndarray:
    """The bytes after a file's header, which must be exactly `header`."""
    raw = Path(path).read_bytes()
    assert raw[:len(header)] == header.encode("ascii"), raw[:len(header)]
    return np.frombuffer(raw[len(header):], dtype=np.uint8)


def pgm_pixels(path, shape: tuple[int, int]) -> np.ndarray:
    """The 8-bit pixels of a binary PGM of this (h, w) shape."""
    h, w = shape
    return _payload(path, f"P5\n{w} {h}\n255\n").reshape(h, w)


def pbm_bits(path, shape: tuple[int, int]) -> np.ndarray:
    """The bits of a binary PBM of this (h, w) shape, True = black; each
    row is padded to whole bytes."""
    h, w = shape
    rows = _payload(path, f"P4\n{w} {h}\n").reshape(h, -(-w // 8))
    return np.unpackbits(rows, axis=1)[:, :w].astype(bool)
