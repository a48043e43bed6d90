"""Command line behavior: exit codes, config layering, seed resolution,
and artifacts landing where the flags say."""

import dataclasses
import json
import shlex
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from docprune import cli, synthdoc
from docprune.cli import build_parser, main
from docprune.instruction_filter import save_ifm
from docprune.pipeline import (ConfigError, PipelineConfig, build_models,
                               mask_from_hex, render_masks)
from docprune.weights_io import KIND_IFM, read_weights, write_weights
from helpers import detector_file, pbm_bits

SMALL_CONFIG = {
    "image_size": 128,
    "patch_size": 4,
    "d0": 16,
    "depths": [1, 1, 2, 1],
    "window": 8,
    "llm_dim": 32,
    "proj_hidden": 64,
    "corpus_n": 2,
}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def test_gen_writes_corpus(tmp_path, config_file, capsys):
    out = tmp_path / "corpus"
    assert main(["gen", "--config", config_file, "--seed", "3",
                 "--out", str(out)]) == 0
    assert (out / "doc_0000.pgm").exists()
    assert (out / "doc_0001.mask.pbm").exists()
    assert "wrote 2 documents" in capsys.readouterr().out


def test_gen_holds_one_page_at_a_time(tmp_path, config_file, monkeypatch,
                                      capsys):
    pages, alive = [], []
    real = synthdoc.generate

    def tracking(spec):
        doc = real(spec)
        pages.append(weakref.ref(doc))
        alive.append(sum(p() is not None for p in pages))
        return doc

    monkeypatch.setattr(synthdoc, "generate", tracking)
    assert main(["gen", "--config", config_file, "--n", "4",
                 "--out", str(tmp_path / "corpus")]) == 0
    assert alive == [1, 1, 1, 1]
    assert "wrote 4 documents" in capsys.readouterr().out


def test_gen_deterministic_in_seed(tmp_path, config_file):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "--config", config_file, "--n", "1", "--seed", "5",
          "--out", str(a)])
    main(["gen", "--config", config_file, "--n", "1", "--seed", "5",
          "--out", str(b)])
    assert (a / "doc_0000.pgm").read_bytes() == (b / "doc_0000.pgm").read_bytes()


def test_seed_env_var(tmp_path, monkeypatch, config_file):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("HRVDA_SEED", "5")
    main(["gen", "--config", config_file, "--n", "1", "--out", str(a)])
    monkeypatch.delenv("HRVDA_SEED")
    main(["gen", "--config", config_file, "--n", "1", "--seed", "5",
          "--out", str(b)])
    assert (a / "doc_0000.pgm").read_bytes() == (b / "doc_0000.pgm").read_bytes()


def test_seed_flag_beats_config_and_env(tmp_path, monkeypatch, config_file):
    monkeypatch.setenv("HRVDA_SEED", "9")
    out = tmp_path / "out"
    assert main(["run", "--config", config_file, "--seed", "4",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 4


def test_config_seed_beats_env(tmp_path, monkeypatch):
    cfg = dict(SMALL_CONFIG, seed=6)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setenv("HRVDA_SEED", "9")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 6


def test_bad_env_seed_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HRVDA_SEED", "not-a-number")
    assert main(["gen", "--n", "1", "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_writes_report(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", config_file, "--seed", "7",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["tokens"]["initial"] == 2 * 32 * 32
    assert "report at" in capsys.readouterr().out


def test_run_csv_format(tmp_path, config_file):
    out = tmp_path / "out"
    assert main(["run", "--config", config_file, "--format", "csv",
                 "--out", str(out)]) == 0
    assert (out / "summary.csv").read_text().startswith("eps_c,")


def test_run_csv_row_matches_sweep(tmp_path, config_file):
    # the default eps_c (0.25, 0.25, 0.5, 0.5) is sweep_schedule(0.25, .)
    assert main(["run", "--config", config_file, "--format", "csv",
                 "--seed", "7", "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", "--config", config_file, "--grid", "0.25:0.5",
                 "--seed", "7", "--out", str(tmp_path / "sweep")]) == 0
    row = (tmp_path / "run" / "summary.csv").read_text()
    assert row == (tmp_path / "sweep" / "summary.csv").read_text()
    assert row.splitlines()[1].startswith("0.25,0.5,")


def test_blank_page_runs(tmp_path, capsys):
    path = tmp_path / "blank.json"
    path.write_text(json.dumps({**SMALL_CONFIG, "content_fraction": 0.0}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tokens"]["post_encoder"] == 0
    assert report["tokens"]["post_ifm"] == 0
    assert "-> 0 -> 0" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["2", "3"])
def test_small_page_runs_at_every_seed(tmp_path, seed):
    # the row flow runs out of a 32-px page at 0.8; the column fills solid
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"image_size": 32, "patch_size": 4,
                                "content_fraction": 0.8, "corpus_n": 4}))
    assert main(["run", "--config", str(path), "--seed", seed,
                 "--out", str(tmp_path / "out")]) == 0


def test_unpackable_tiny_page_is_exit_2(tmp_path, capsys):
    # a 4-px cell is a quarter of an 8-px page: 0.1 is out of reach
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"image_size": 8, "patch_size": 1,
                                "content_fraction": 0.1}))
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "content_fraction" in capsys.readouterr().err


def test_run_missing_config_is_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_invalid_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    assert "valid JSON" in capsys.readouterr().err


def test_config_file_of_a_json_array_is_exit_2(tmp_path, capsys):
    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_text(json.dumps([SMALL_CONFIG]))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "config file must hold a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_run_unknown_key_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"image_sz": 128}))
    assert main(["run", "--config", str(path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def _weights_config(tmp_path, field: str, weights) -> Path:
    """A config file of SMALL_CONFIG whose field names the weight file."""
    cfg = dict(SMALL_CONFIG, **{field: str(weights)})
    if field == "detector_weights":
        cfg["detector"] = "mlp"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("field", ["detector_weights", "ifm_weights"])
@pytest.mark.parametrize("case,message", [
    ("missing", "No such file or directory"),
    ("damaged", "is truncated")], ids=["missing", "damaged"])
def test_unreadable_weight_file_is_exit_2(tmp_path, capsys, field, case,
                                          message):
    weights, out = tmp_path / "w.hrvd", tmp_path / "out"
    if case == "damaged":
        if field == "detector_weights":
            detector_file(weights)
        else:
            save_ifm(weights,
                     build_models(PipelineConfig.from_dict(SMALL_CONFIG)).ifm)
        weights.write_bytes(weights.read_bytes()[:-8])
    path = _weights_config(tmp_path, field, weights)
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config field {field!r}" in err and str(weights) in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["detector_weights", "ifm_weights"])
def test_empty_weight_path_is_exit_2(tmp_path, capsys, field):
    # "" is no file: it must not run the seeded IFM, nor ask for the
    # detector weights it names
    path, out = _weights_config(tmp_path, field, ""), tmp_path / "out"
    with pytest.raises(ConfigError,
                       match=f"config field '{field}' is an empty path"):
        PipelineConfig.from_dict(json.loads(path.read_text()))
    for command in ("gen", "train-detector", "train-ifm", "run"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert f"config field '{field}' is an empty path" in (
            capsys.readouterr().err)
        assert not out.exists()


def test_non_finite_ifm_weights_are_exit_2(tmp_path, capsys):
    # a NaN classifier scores no token relevant: the run must not report that
    weights, out = tmp_path / "ifm.hrvd", tmp_path / "out"
    save_ifm(weights, build_models(PipelineConfig.from_dict(SMALL_CONFIG)).ifm)
    _, arrays = read_weights(weights)
    arrays["clf_w2"][0, 0] = np.nan
    write_weights(weights, KIND_IFM, arrays)
    path = _weights_config(tmp_path, "ifm_weights", weights)
    assert main(["run", "--config", str(path), "--seed", "3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(weights) in err and "'clf_w2' holds NaN or inf" in err
    assert not out.exists()


def test_zero_width_detector_is_exit_2(tmp_path, capsys):
    # a detector of no hidden units loaded and ran on a constant content map
    weights, out = tmp_path / "det.hrvd", tmp_path / "out"
    detector_file(weights)
    kind, arrays = read_weights(weights)
    write_weights(weights, kind, dict(arrays, b1=arrays["b1"][:0],
                                      w1=arrays["w1"][:, :0],
                                      w2=arrays["w2"][:0]))
    path = _weights_config(tmp_path, "detector_weights", weights)
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config field 'detector_weights'" in err
    assert "array 'b1' has shape (0,)" in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("gated", "false"),
    ("patch_size", 4.0),
    ("decoder_flops_per_token_sq", -1),
    ("eps_c", [0.25, 0.25, 0.5]),
    ("depths", [1, 1, 0, 1]),
    ("content_fraction", 1.5),
    ("content_fraction", 0.95),
    ("ifm_weights", 3),
    ("seed", 4.7),
    ("seed", "abc"),
    ("eps_i", 1.5),
    ("eps_i", -0.1),
    ("eps_i", float("nan")),
    ("eps_c", [0.5, 0.25, 0.5, 0.5]),
    ("eps_c", [-0.1, 0.25, 0.5, 0.5]),
    ("eps_c", [0.25, 0.25, 0.5, 1.5]),
    ("detector_weights", "det.hrvd"),
    ("image_size", 4),
    ("patch_size", 3),
    ("content_fraction", float("nan")),
    ("window", 33),
])
def test_bad_field_value_is_exit_2(tmp_path, capsys, key, value):
    # every command that reads a config rejects it before it writes a file
    with pytest.raises(ConfigError, match=key):
        PipelineConfig.from_dict({**SMALL_CONFIG, key: value})
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({**SMALL_CONFIG, key: value}))
    for command in ("gen", "train-detector", "train-ifm", "run"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_ifm_weights_of_other_use_positions_are_exit_2(tmp_path, capsys):
    # weights saved with positions must not run, and report, without them
    weights, out = tmp_path / "ifm.hrvd", tmp_path / "out"
    save_ifm(weights, build_models(PipelineConfig.from_dict(SMALL_CONFIG)).ifm)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(SMALL_CONFIG, ifm_weights=str(weights),
                                    use_positions=False)))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "use_positions" in capsys.readouterr().err
    assert not out.exists()


def test_ifm_weights_of_another_dim_are_exit_2(tmp_path, capsys):
    weights, out = tmp_path / "ifm.hrvd", tmp_path / "out"
    save_ifm(weights, build_models(PipelineConfig.from_dict(SMALL_CONFIG)).ifm)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(SMALL_CONFIG, ifm_weights=str(weights),
                                    llm_dim=16)))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "IFM dim 32 does not match llm_dim 16" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_summary(tmp_path, config_file, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config_file, "--seed", "7",
                 "--grid", "0:0,0.5:0.5", "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "swept 2 settings" in capsys.readouterr().out


def test_sweep_bad_grid_is_exit_2(config_file, capsys):
    assert main(["sweep", "--config", config_file, "--grid", "0.25"]) == 2
    assert "bad grid entry" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["2:0.5", "nan:0.5", "-0.1:0.5"])
def test_bad_sweep_setting_is_exit_2_before_any_file(tmp_path, config_file,
                                                      capsys, bad):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config_file, f"--grid=0.25:0.5,{bad}",
                 "--out", str(out)]) == 2
    assert f"sweep setting {bad}: threshold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", ["2", "5", "-1"])
def test_render_doc_outside_report_is_exit_2(tmp_path, config_file, capsys,
                                             doc):
    out, masks = tmp_path / "out", tmp_path / "masks"
    main(["run", "--config", config_file, "--seed", "7", "--out", str(out)])
    assert main(["render", "--report", str(out / "report.json"),
                 "--out", str(masks), f"--doc={doc}"]) == 2
    assert f"--doc {doc} is not a document of the report, which has 2" in (
        capsys.readouterr().err)
    assert not masks.exists()


def test_render_from_report(tmp_path, config_file):
    out = tmp_path / "out"
    main(["run", "--config", config_file, "--seed", "7", "--out", str(out)])
    masks = tmp_path / "masks"
    assert main(["render", "--report", str(out / "report.json"),
                 "--out", str(masks), "--doc", "0"]) == 0
    assert len(list(masks.iterdir())) == 3
    kept = json.loads((out / "report.json").read_text())["per_doc"][0]["masks"]
    for name, side in (("stage2", 16), ("stage4", 4), ("ifm", 4)):
        # white = kept: a set (black) bit is a pruned token
        bits = pbm_bits(masks / f"doc_0000_{name}.pbm", (side, side))
        assert (bits == ~mask_from_hex(kept[name], side)).all()


def test_gen_and_render_draw_content_in_one_colour(tmp_path, config_file):
    # gen, run and render of one config's 128-px pages at seed 7: a stage-2
    # cell is kept exactly when its 8x8 pixels hold content, so a cell is
    # white in the render exactly when the page mask has a white pixel in it
    corpus, out, masks = tmp_path / "corpus", tmp_path / "out", tmp_path / "m"
    assert main(["gen", "--config", config_file, "--seed", "7",
                 "--out", str(corpus)]) == 0
    assert main(["run", "--config", config_file, "--seed", "7",
                 "--out", str(out)]) == 0
    assert main(["render", "--report", str(out / "report.json"),
                 "--out", str(masks), "--doc", "0"]) == 0
    page_white = ~pbm_bits(corpus / "doc_0000.mask.pbm", (128, 128))
    cell_white = ~pbm_bits(masks / "doc_0000_stage2.pbm", (16, 16))
    assert 0 < cell_white.sum() < cell_white.size
    np.testing.assert_array_equal(
        page_white.reshape(16, 8, 16, 8).any(axis=(1, 3)), cell_white)


def test_render_missing_report_is_exit_2(tmp_path, capsys):
    assert main(["render", "--report", str(tmp_path / "no.json"),
                 "--out", str(tmp_path / "m")]) == 2
    assert "not found" in capsys.readouterr().err


def test_render_of_a_non_json_report_is_exit_2(tmp_path, capsys):
    path, masks = tmp_path / "r.json", tmp_path / "masks"
    path.write_text("{per_doc: []}")
    assert main(["render", "--report", str(path), "--out", str(masks)]) == 2
    assert "report is not valid JSON" in capsys.readouterr().err
    assert not masks.exists()


@pytest.mark.parametrize("flag", ["run --config", "render --report"])
@pytest.mark.parametrize("content", [
    b'{"image_size": ' + b"1" * 4401 + b"}",
    b'{"profile": "\xff"}',
    None,
    b"[" * 100_000 + b"]" * 100_000,
], ids=["int-past-4300-digits", "not-utf8", "directory", "nested-too-deep"])
def test_unreadable_json_file_is_exit_2(tmp_path, capsys, flag, content):
    path, out = tmp_path / "in.json", tmp_path / "out"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main([*flag.split(), str(path), "--out", str(out)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


def test_train_detector_then_use(tmp_path, capsys):
    # one config's patch size for the detector and the run that uses it
    weights, out = tmp_path / "det.npz", tmp_path / "out"
    cfg = dict(SMALL_CONFIG, patch_size=8)
    train, use = tmp_path / "train.json", tmp_path / "use.json"
    train.write_text(json.dumps(cfg))
    use.write_text(json.dumps(dict(cfg, detector="mlp",
                                   detector_weights=str(weights))))
    assert main(["train-detector", "--config", str(train), "--n", "2",
                 "--epochs", "3", "--lr", "0.05", "--seed", "1",
                 "--out", str(weights)]) == 0
    assert "trained detector on 2 docs" in capsys.readouterr().out
    assert main(["run", "--config", str(use), "--seed", "7",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["patch_size"] == 8


def test_train_ifm_then_use(tmp_path, config_file, capsys):
    weights = tmp_path / "ifm.npz"
    assert main(["train-ifm", "--config", config_file, "--n", "2",
                 "--epochs", "2", "--seed", "3", "--out", str(weights)]) == 0
    assert weights.exists()
    assert "trained IFM" in capsys.readouterr().out
    cfg = dict(SMALL_CONFIG, ifm_weights=str(weights))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--seed", "3",
                 "--out", str(tmp_path / "out")]) == 0


def test_train_ifm_with_no_surviving_token_is_exit_2(tmp_path, capsys):
    # blank pages: the encoder prunes every token, so no sample has a row
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(SMALL_CONFIG, content_fraction=0.0)))
    out = tmp_path / "w" / "ifm.hrvd"
    assert main(["train-ifm", "--config", str(path), "--n", "2",
                 "--epochs", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no visual token survives" in err
    assert "'content_fraction'" in err and "'eps_c'" in err
    assert not out.parent.exists()


def test_unknown_profile_is_exit_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profile": "huge"}))
    assert main(["run", "--config", str(path)]) == 2
    assert "unknown profile" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("train-detector", "--epochs", "0"), ("train-ifm", "--epochs", "0"),
    ("train-detector", "--n", "0"), ("train-ifm", "--n", "-1"),
    ("gen", "--n", "0")])
def test_count_below_one_is_exit_2_before_any_file(tmp_path, capsys,
                                                   command, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1, got {value}" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_non_integer_count_is_exit_2_before_any_file(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "abc", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --n: invalid int value: 'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("side", [32 * 10**153, 32 * 10**400],
                         ids=["area-past-float", "side-past-float"])
def test_image_size_past_the_float_range_is_exit_2(tmp_path, capsys, side):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({**SMALL_CONFIG, "image_size": side}))
    assert main(["gen", "--config", str(path), "--out", str(out)]) == 2
    assert "config field 'image_size' is too large" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "gen"])
def test_page_past_physical_memory_is_exit_2(tmp_path, capsys, command):
    # valid to PipelineConfig; making one page would take 32 TB
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({"image_size": 1000000}))
    t0 = time.perf_counter()
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "config field 'image_size' 1000000 needs" in (
        capsys.readouterr().err)
    assert not out.exists()


def _nbytes(obj) -> int:
    """Summed nbytes of the arrays in a model's dataclasses, each float64."""
    if isinstance(obj, np.ndarray):
        assert obj.dtype == np.float64
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(_nbytes(getattr(obj, f.name))
                   for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return sum(map(_nbytes, obj))
    return 0


@pytest.mark.parametrize("config", [
    PipelineConfig(), PipelineConfig.paper_scale(),
    PipelineConfig(**SMALL_CONFIG),
    PipelineConfig(image_size=64, patch_size=8, d0=8, depths=(1, 3, 1, 2),
                   ffn_ratio=3, proj_hidden=40, llm_dim=24,
                   use_positions=False)],
    ids=["desk", "paper-scale", "small", "odd-widths"])
def test_weight_bytes_are_the_bytes_build_models_makes(config):
    sizes = {name: getattr(config, name) for name in cli._WEIGHT_FIELDS}
    assert cli._weight_bytes(**sizes) == _nbytes(build_models(config))


@pytest.mark.parametrize("field,value", [
    ("d0", 4096), ("proj_hidden", 10**8), ("llm_dim", 5 * 10**7),
    ("ffn_ratio", 10**7), ("depths", [1, 1, 10**8, 1])])
def test_model_past_physical_memory_is_exit_2(tmp_path, capsys, field,
                                              value):
    # valid to PipelineConfig; its weights alone would take 100 GB or more
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({field: value}))
    t0 = time.perf_counter()
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert f"config field {field!r} " in err and "of model weights" in err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value,message", [
    ("train-detector", "--lr", "nan", "must be finite, got nan"),
    ("train-detector", "--lr", "0", "must be > 0, got 0"),
    ("train-ifm", "--lr", "-0.3", "must be > 0, got -0.3"),
    ("train-ifm", "--lr", "inf", "must be finite, got inf"),
    ("train-ifm", "--pos-weight", "0", "must be > 0, got 0"),
    ("train-ifm", "--pos-weight", "x", "invalid float value: 'x'")])
def test_bad_numeric_flag_is_exit_2_before_any_file(tmp_path, capsys, command,
                                                    flag, value, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "1", f"{flag}={value}", "--epochs", "1",
              "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid,first,second,name", [
    ("0.25:0.5,0.25:0.5,0.5:0.25", "0.25:0.5", "0.25:0.5", "run_c0.25_i0.5"),
    ("0.1234561:0.5,0.1234562:0.5", "0.1234561:0.5", "0.1234562:0.5",
     "run_c0.123456_i0.5")])
def test_sweep_settings_sharing_a_directory_are_exit_2(tmp_path, config_file,
                                                       capsys, grid, first,
                                                       second, name):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config_file, "--grid", grid,
                 "--out", str(out)]) == 2
    assert (f"sweep settings {first} and {second} both write their report "
            f"to {name}") in capsys.readouterr().err
    assert not out.exists()


def _report_64px(stage2="00" * 8, image_size=64):
    """A one-document report of a 64-px page: grid 16, stage-2 side 8."""
    return {"per_doc": [{"index": 0, "masks": {
                "stage2": stage2, "stage4": "00", "ifm": "00"}}],
            "config": {"image_size": image_size, "patch_size": 4}}


@pytest.mark.parametrize("content,message", [
    ({}, "the top level has no key 'per_doc'"),
    ([1], "the top level is not a JSON object"),
    ({"per_doc": [{"index": 0}], "config": {"image_size": 8, "patch_size": 4}},
     "per_doc[0] has no key 'masks'"),
    (_report_64px(stage2="00"), "per_doc[0].masks.stage2: 1 bytes of mask "
     "for a 8x8 grid, which takes 8"),
    (_report_64px(stage2="zz" * 8), "per_doc[0].masks.stage2: non-hexadecimal"),
    (_report_64px(image_size="64"),
     "config.image_size must be an integer >= 1, got '64'"),
    (_report_64px(stage2="00" * 24), "per_doc[0].masks.stage2: 24 bytes of "
     "mask for a 8x8 grid, which takes 8"),
    (_report_64px(stage2=0), "per_doc[0].masks.stage2: fromhex() argument "
     "must be str"),
    ({**_report_64px(), "per_doc": [{"index": "0", "masks": {}}]},
     "per_doc[0].index must be an integer >= 0, got '0'"),
    ({**_report_64px(), "per_doc": {}}, "per_doc is not a list"),
    ({**_report_64px(), "per_doc": _report_64px()["per_doc"] * 2},
     "per_doc[0] and per_doc[1] both have index 0")])
def test_render_of_a_non_report_is_exit_2(tmp_path, capsys, content, message):
    path, masks = tmp_path / "r.json", tmp_path / "masks"
    path.write_text(json.dumps(content))
    assert main(["render", "--report", str(path), "--out", str(masks)]) == 2
    assert f"report {path}: {message}" in capsys.readouterr().err
    assert not masks.exists()
    # render_masks is the one reader: library callers get the same check
    with pytest.raises(ValueError) as err:
        render_masks(content, masks)
    assert message in str(err.value)
    assert not masks.exists()


def test_render_doc_of_an_empty_report_is_exit_2(tmp_path, capsys):
    path, masks = tmp_path / "r.json", tmp_path / "masks"
    path.write_text(json.dumps({**_report_64px(), "per_doc": []}))
    assert main(["render", "--report", str(path), "--out", str(masks),
                 "--doc", "0"]) == 2
    assert ("--doc 0 is not a document of the report, which has no "
            "documents") in capsys.readouterr().err
    with pytest.raises(IndexError, match="doc_index 0 is not a document"):
        render_masks(json.loads(path.read_text()), masks, doc_index=0)
    assert not masks.exists()


def test_readme_cli_lines_parse():
    # every command line of README's CLI block is one the parser takes
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("docprune ")]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


@pytest.mark.parametrize("command,taken_by,message", [
    ("gen", "file", "{out} is a file, not a directory"),
    ("run", "file", "{out} is a file, not a directory"),
    ("sweep", "file", "{out} is a file, not a directory"),
    ("render", "file", "{out} is a file, not a directory"),
    ("train-detector", "dir", "{out} is a directory, not a file"),
    ("train-ifm", "dir", "{out} is a directory, not a file"),
    ("train-ifm", "file above", "{out} is under {taken}, which is a file")])
def test_out_that_cannot_be_written_is_exit_2_before_any_work(
        tmp_path, capsys, command, taken_by, message):
    taken = tmp_path / "taken"
    if taken_by == "dir":
        taken.mkdir()
    else:
        taken.write_text("")
    out = taken / "w.hrvd" if taken_by == "file above" else taken
    argv = [command, "--out", str(out)]
    if command == "render":
        argv += ["--report", str(tmp_path / "report.json")]
    # the parser exits: no command function, so no work, has started
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --out: " + message.format(out=out, taken=taken) in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", ["train-detector", "train-ifm"])
def test_weight_file_out_makes_its_missing_directories(tmp_path, config_file,
                                                       command):
    weights = tmp_path / "new" / "dir" / "w.hrvd"
    assert main([command, "--config", config_file, "--n", "1", "--epochs",
                 "1", "--out", str(weights)]) == 0
    assert weights.is_file()
