"""Weight files must round-trip exactly and reject foreign or damaged input."""

import math
import re
import struct

import numpy as np
import pytest

from docprune.content_filter import load_detector, mlp_detector, save_detector
from docprune.instruction_filter import ifm_init, load_ifm, save_ifm
from docprune.rng import Rng
from docprune.weights_io import (KIND_DETECTOR, KIND_IFM, MAGIC, VERSION,
                                 read_weights, write_weights)


def test_round_trip_exact(tmp_path):
    arrays = {
        "w": Rng(1).uniforms(12).reshape(3, 4),
        "b": Rng(2).uniforms(4),
        "deep": Rng(3).uniforms(8).reshape(2, 2, 2),
    }
    path = tmp_path / "model.hrvd"
    write_weights(path, KIND_DETECTOR, arrays)
    kind, back = read_weights(path)
    assert kind == KIND_DETECTOR
    assert list(back) == ["w", "b", "deep"]
    for name, arr in arrays.items():
        np.testing.assert_array_equal(back[name], arr)
        assert back[name].shape == arr.shape


def test_zero_dim_arrays_normalised_to_length_one(tmp_path):
    # the writer stores at-least-1-D buffers; scalars come back as (1,)
    path = tmp_path / "s.hrvd"
    write_weights(path, KIND_IFM, {"s": np.array(3.5)})
    _, back = read_weights(path)
    assert back["s"].shape == (1,)
    assert back["s"][0] == 3.5


def test_kinds_distinct():
    assert KIND_DETECTOR != KIND_IFM


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_weights(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "future.hrvd"
    path.write_bytes(MAGIC + struct.pack("<III", VERSION + 1, KIND_IFM, 0))
    with pytest.raises(ValueError, match="version"):
        read_weights(path)


def test_non_float_input_is_converted(tmp_path):
    path = tmp_path / "ints.hrvd"
    write_weights(path, KIND_IFM, {"m": np.arange(6).reshape(2, 3)})
    _, back = read_weights(path)
    assert back["m"].dtype == np.float64
    np.testing.assert_array_equal(back["m"], np.arange(6).reshape(2, 3))


def _seeded_arrays(rng: Rng) -> dict[str, np.ndarray]:
    arrays = {}
    for i in range(1 + rng.randint(3)):
        dims = tuple(1 + rng.randint(4) for _ in range(1 + rng.randint(3)))
        arrays[f"a{i}_{rng.randint(1000)}"] = rng.uniforms(
            math.prod(dims)).reshape(dims)
    return arrays


def _damage(raw: bytes, how: str, seed: int, rng: Rng) -> bytes:
    if how == "cut":
        # seeds 0 and 1 cut inside the headers (file header, then the
        # first array's name length); later seeds cut at a seeded offset
        return raw[:(10, 18)[seed] if seed < 2 else rng.randint(len(raw))]
    if how == "trailing":
        return raw + bytes(1 + rng.randint(8))
    (name_len,) = struct.unpack_from("<H", raw, 16)
    if how == "bad_name":
        # 0xff starts no utf-8 sequence; put it in the first array's name
        at = 18 + rng.randint(name_len)
        return raw[:at] + b"\xff" + raw[at + 1:]
    # the first array's record ends after its rank, dims and data
    (ndim,) = struct.unpack_from("<B", raw, 18 + name_len)
    dims = struct.unpack_from(f"<{ndim}I", raw, 19 + name_len)
    end = 19 + name_len + 4 * ndim + 8 * math.prod(dims)
    if how == "repeat":
        # the first array's record once more, counted in the header
        (count,) = struct.unpack_from("<I", raw, 12)
        return raw[:12] + struct.pack("<I", count + 1) + raw[16:] + raw[16:end]
    if how == "huge_rank":
        # the first array holds one value of a rank above numpy's 64, every
        # dim 1, so its record is whole and only the rank is wrong
        rank = 65 + rng.randint(191)
        return (raw[:18 + name_len] + struct.pack(f"<B{rank}I", rank,
                                                  *[1] * rank)
                + bytes(8) + raw[end:])
    # huge_dim: the first array's first dim sits after the 16-byte file
    # header, its u16 name length, the name and its u8 rank
    at = 16 + 2 + name_len + 1
    return raw[:at] + struct.pack("<I", 0xFFFFFFFF - rng.randint(4)) + raw[at + 4:]


@pytest.mark.parametrize("how", ["cut", "trailing", "huge_dim", "bad_name",
                                 "repeat", "huge_rank"])
@pytest.mark.parametrize("seed", range(5))
def test_damaged_file_is_value_error_naming_it(tmp_path, how, seed):
    rng = Rng(seed).derive(how)
    path = tmp_path / "damaged.hrvd"
    write_weights(path, KIND_DETECTOR, _seeded_arrays(rng))
    path.write_bytes(_damage(path.read_bytes(), how, seed, rng))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_weights(path)


def _saved_model(tmp_path, kind: str, seed: int):
    """(path, loader) of a freshly initialised detector or IFM file."""
    path = tmp_path / f"{kind}.hrvd"
    if kind == "detector":
        save_detector(path, mlp_detector(seed, patch_size=4))
        return path, load_detector
    save_ifm(path, ifm_init(seed, dim=8))
    return path, load_ifm


def _rewrite(path, **arrays):
    file_kind, old = read_weights(path)
    write_weights(path, file_kind, {**old, **arrays})


@pytest.mark.parametrize("kind", ["detector", "ifm"])
@pytest.mark.parametrize("seed", range(3))
def test_missing_array_is_value_error_naming_it(tmp_path, kind, seed):
    path, load = _saved_model(tmp_path, kind, seed)
    file_kind, arrays = read_weights(path)
    gone = Rng(seed).choice(sorted(arrays))
    del arrays[gone]
    write_weights(path, file_kind, arrays)
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        load(path)
    assert repr(gone) in str(err.value)


def _misshape(a: np.ndarray, rng: Rng) -> np.ndarray:
    """a with one seeded axis a row shorter, or doubled where it is 1."""
    axis = rng.randint(a.ndim)
    if a.shape[axis] == 1:
        return np.concatenate([a, a], axis=axis)
    return np.delete(a, -1, axis=axis)


@pytest.mark.parametrize("kind", ["detector", "ifm"])
@pytest.mark.parametrize("seed", range(5))
def test_wrong_shape_is_value_error_naming_it(tmp_path, kind, seed):
    path, load = _saved_model(tmp_path, kind, seed)
    _, arrays = read_weights(path)
    rng = Rng(seed).derive("shape")
    # the first hidden biases fix their layer's width, so a wrong one is
    # reported as a mismatch with its weight matrix instead
    name = rng.choice(sorted(n for n in arrays
                             if n != "meta" and not n.endswith("b1")))
    _rewrite(path, **{name: _misshape(arrays[name], rng)})
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        load(path)
    assert f"array {name!r}" in str(err.value)


@pytest.mark.parametrize("kind,name,damage", [
    ("detector", "w1", lambda a: a[:, :5]),   # once loaded, then broke detect
    ("ifm", "clf_w2", lambda a: a[:3]),       # once loaded, then broke run
    ("detector", "meta", lambda a: a[:1]),
    ("ifm", "meta", lambda a: a[:1]),
    ("detector", "meta", lambda a: np.array([4.0, np.nan])),
    ("detector", "meta", lambda a: np.array([0.0, 32.0])),
    ("detector", "meta", lambda a: np.array([4.5, 32.0])),
    ("ifm", "meta", lambda a: np.array([np.inf, 1.0])),
    # the meta of IFM files that also stored eps_i: [dim, eps_i, positions]
    ("ifm", "meta", lambda a: np.array([a[0], 0.5, a[1]])),
    # the use_positions flag is 0.0 or 1.0, never read by rounding
    ("ifm", "meta", lambda a: np.array([a[0], 0.7])),
    ("ifm", "meta", lambda a: np.array([a[0], -3.0])),
], ids=["w1-cut", "clf_w2-cut", "det-meta-short", "ifm-meta-short",
        "meta-nan", "meta-zero", "meta-fraction", "meta-inf", "ifm-meta-old",
        "positions-0.7", "positions-neg3"])
def test_damaged_array_is_value_error_naming_it(tmp_path, kind, name, damage):
    path, load = _saved_model(tmp_path, kind, 0)
    _, arrays = read_weights(path)
    _rewrite(path, **{name: damage(arrays[name])})
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        load(path)
    assert f"array {name!r}" in str(err.value)


def _write_rank0(path, name: str) -> None:
    """Rewrite a weight file with array name stored as a rank-0 scalar,
    which write_weights cannot write."""
    kind, arrays = read_weights(path)
    raw = MAGIC + struct.pack("<III", VERSION, kind, len(arrays))
    for n, a in arrays.items():
        a = np.array(a.flat[0]) if n == name else a
        raw += (struct.pack("<H", len(n)) + n.encode() +
                struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape) +
                a.astype("<f8").tobytes())
    path.write_bytes(raw)


@pytest.mark.parametrize("kind,name", [
    ("detector", "b1"), ("ifm", "clf_b1"), ("ifm", "fuse_b1")])
def test_rank0_hidden_bias_is_value_error_naming_it(tmp_path, kind, name):
    # a hidden bias fixes its layer's width, so it must be 1-D
    path, load = _saved_model(tmp_path, kind, 0)
    _write_rank0(path, name)
    assert read_weights(path)[1][name].shape == ()
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        load(path)
    assert f"array {name!r}" in str(err.value)


@pytest.mark.parametrize("kind,bias,w_in,w_out", [
    ("detector", "b1", "w1", "w2"),
    ("ifm", "clf_b1", "clf_w1", "clf_w2"),
    ("ifm", "fuse_b1", "fuse_w1", "fuse_w2")])
def test_zero_width_hidden_layer_is_value_error_naming_it(tmp_path, kind,
                                                          bias, w_in, w_out):
    # a hidden layer of no units, its weights shaped to match: the model
    # would load and then compute a constant
    path, load = _saved_model(tmp_path, kind, 0)
    _, arrays = read_weights(path)
    _rewrite(path, **{bias: arrays[bias][:0], w_in: arrays[w_in][:, :0],
                      w_out: arrays[w_out][:0]})
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        load(path)
    assert f"array {bias!r} has shape (0,)" in str(err.value)


@pytest.mark.parametrize("kind,name,bad", [
    ("detector", "w1", np.nan),
    ("detector", "embed_b", -np.inf),
    ("ifm", "clf_w2", np.nan),
    ("ifm", "fuse_wq", np.inf),
])
def test_non_finite_array_is_value_error_naming_it(tmp_path, kind, name, bad):
    path, load = _saved_model(tmp_path, kind, 0)
    _, arrays = read_weights(path)
    damaged = arrays[name].copy()
    damaged.flat[damaged.size // 2] = bad
    _rewrite(path, **{name: damaged})
    for read in (read_weights, load):
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            read(path)
        assert f"array {name!r} holds NaN or inf" in str(err.value)
