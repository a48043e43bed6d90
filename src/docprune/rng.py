"""Deterministic pseudo-random numbers with a platform-independent sequence.

The generator is a counter-based splitmix64: the state advances by a fixed
odd constant (the golden-ratio gamma) and every output is a mix of the new
state. Because the k-th output depends only on ``seed + k * GAMMA``, bulk
draws can be vectorised with numpy uint64 arithmetic and are bit-identical
to the scalar path. All constants below are the standard splitmix64 ones.

Uniform doubles take the top 53 bits of an output, so every draw is an
exact IEEE-754 double in [0, 1) regardless of platform.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U53_INV = 2.0 ** -53


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    # uint64 ops wrap modulo 2**64, which is exactly what splitmix64 needs
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _hash_tag(tag: int | str) -> int:
    """Stable 64-bit hash for stream derivation tags (FNV-1a for strings)."""
    if isinstance(tag, int):
        return tag & _MASK
    h = 0xCBF29CE484222325
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return h


class Rng:
    """splitmix64 stream; identical seed gives identical draws everywhere."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & _MASK
        return _mix(self.state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * _U53_INV
        return lo + (hi - lo) * u

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n uniform doubles, bit-identical to n successive uniform() calls."""
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA)
        states = np.uint64(self.state) + steps
        self.state = (self.state + n * GAMMA) & _MASK
        u = (_mix_array(states) >> np.uint64(11)).astype(np.float64) * _U53_INV
        return lo + (hi - lo) * u

    def randint(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is irrelevant at these ranges."""
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def derive(self, tag: int | str) -> "Rng":
        """Independent child stream; does not advance this generator."""
        child = _mix((self.state ^ _mix(_hash_tag(tag))) & _MASK)
        return Rng((child + GAMMA) & _MASK)


def init_linear(rng: Rng, n_in: int,
                n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """A linear layer's (n_in x n_out weight, n_out bias), drawn in that
    order from rng, each uniform in [-1/sqrt(n_in), +1/sqrt(n_in)]."""
    bound = 1.0 / float(n_in) ** 0.5
    weight = rng.uniforms(n_in * n_out, -bound, bound).reshape(n_in, n_out)
    return weight, rng.uniforms(n_out, -bound, bound)
