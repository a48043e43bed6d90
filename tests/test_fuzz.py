"""Seeded fuzz of the two outside inputs a user hands the program: weight
files and reports. Each case list is fixed by its seed, so a failure
repeats; every case runs in this process.

A damaged weight file must load or raise a ValueError that names the
file. A report with one field of the wrong type must render or raise a
ValueError, or an IndexError for a document outside it; nothing else.
"""

import json
import struct

import pytest

from docprune.content_filter import load_detector, mlp_detector, save_detector
from docprune.instruction_filter import ifm_init, load_ifm, save_ifm
from docprune.pipeline import PipelineConfig, render_masks, run
from docprune.rng import Rng

WEIGHT_CASES = 300
REPORT_CASES = 400
# u32 words worth writing over a header: zero, one, numpy's most
# dimensions and one past it, and the largest signed and unsigned values
WORDS = (0, 1, 2, 64, 65, 2**31 - 1, 2**31, 2**32 - 1)


def _mutate(raw: bytes, rng: Rng) -> bytes:
    how = rng.choice(("flip", "cut", "tail", "word"))
    if how == "flip":
        at = rng.randint(len(raw))
        return raw[:at] + bytes([raw[at] ^ 1 << rng.randint(8)]) + raw[at + 1:]
    if how == "cut":
        return raw[:rng.randint(len(raw))]
    if how == "tail":
        return raw + bytes(rng.randint(256) for _ in range(1 + rng.randint(16)))
    # a word of the file header or of the first array's name, rank or dims
    at = rng.randint(48)
    word = rng.choice(WORDS + (rng.randint(2**32),))
    return raw[:at] + struct.pack("<I", word) + raw[at + 4:]


@pytest.mark.parametrize("kind", ["detector", "ifm"])
def test_damaged_weight_file_loads_or_names_itself(tmp_path, kind):
    path = tmp_path / f"{kind}.hrvd"
    if kind == "detector":
        save_detector(path, mlp_detector(3, patch_size=4))
        load = load_detector
    else:
        save_ifm(path, ifm_init(3, dim=8))
        load = load_ifm
    raw, rng, wrong = path.read_bytes(), Rng(11).derive(kind), []
    for case in range(WEIGHT_CASES):
        path.write_bytes(_mutate(raw, rng.derive(case)))
        try:
            load(path)
        except ValueError as e:
            if str(path) not in str(e):
                wrong.append((case, repr(e)))
        except Exception as e:  # any other type is the failure looked for
            wrong.append((case, repr(e)))
    assert wrong == []


def _paths(obj, path=()):
    """The path of every value inside a parsed JSON value, its own first."""
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


# one value of each JSON type
VALUES = (None, True, 0, -1, 1.5, "", "zz", [], [0], {}, {"index": 0})


def _replaced(rep, path, value):
    """A copy of rep with the value at path replaced."""
    if not path:
        return value
    out = json.loads(json.dumps(rep))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def test_report_with_a_mistyped_field_renders_or_is_rejected(tmp_path):
    rep = json.loads(run(PipelineConfig(image_size=64, corpus_n=2,
                                        seed=7)).to_json())
    paths, rng, wrong = list(_paths(rep)), Rng(13), []
    for case in range(REPORT_CASES):
        pick = rng.derive(case)
        path = pick.choice(paths)
        old = rep
        for key in path:
            old = old[key]
        value = pick.choice([v for v in VALUES if type(v) is not type(old)])
        doc_index = pick.choice((None, 0, 1))
        try:
            render_masks(_replaced(rep, path, value), tmp_path / str(case),
                         doc_index)
        except ValueError:
            pass
        except IndexError as e:  # allowed only for a document outside it
            if doc_index is None or not str(e).startswith("doc_index"):
                wrong.append((case, path, value, repr(e)))
        except Exception as e:  # any other type is the failure looked for
            wrong.append((case, path, value, repr(e)))
    assert wrong == []
