"""End-to-end runs: reports must close arithmetically, serialize
byte-identically for a fixed (config, seed), and show pruning actually
cutting compute on half-blank pages."""

import json
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

from docprune import encoder, instruction_filter, pipeline, synthdoc, tensor
from docprune.pipeline import (ConfigError, PipelineConfig, build_models,
                               mask_from_hex, prepare_ifm_samples,
                               render_masks, run, summary_row, sweep,
                               sweep_schedule, write_report)
from docprune.synthdoc import make_corpus, patchify_any
from helpers import SecondThread, detector_file, fake_cores, pbm_bits


def _small_config(**overrides):
    base = dict(image_size=128, patch_size=4, d0=16, depths=(1, 1, 2, 1),
                window=8, llm_dim=32, proj_hidden=64, corpus_n=3, seed=7)
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def report():
    return run(_small_config())


# --- arithmetic closure -----------------------------------------------------

def test_initial_token_count(report):
    assert report.tokens["initial"] == 3 * (128 // 4) ** 2


def test_stage_token_counts_quarter_each_merge(report):
    per_doc = [s["n_tokens_per_doc"] for s in report.stages]
    assert per_doc[0] == (128 // 4) ** 2
    for a, b in zip(per_doc, per_doc[1:]):
        assert a == 4 * b


def test_token_totals_close_over_documents(report):
    assert report.tokens["post_encoder"] == sum(
        d["kept_final"] for d in report.per_doc)
    assert report.tokens["post_ifm"] == sum(
        d["kept_after_ifm"] for d in report.per_doc)
    assert report.tokens["instruction"] == sum(
        d["instruction_len"] for d in report.per_doc)
    assert report.tokens["final_sequence"] == (
        report.tokens["post_ifm"] + report.tokens["instruction"])


def test_kept_counts_bounded(report):
    stage4 = (128 // 4 // 8) ** 2
    for d in report.per_doc:
        assert 0 <= d["kept_after_ifm"] <= d["kept_final"] <= stage4
        assert d["sequence_len"] == d["kept_after_ifm"] + d["instruction_len"]


def test_flops_total_equals_category_sum(report):
    assert report.flops["total"] == sum(report.flops["by_category"].values())
    assert all(v >= 0 for v in report.flops["by_category"].values())
    assert report.flops["by_category"]["encoder_attention"] > 0


def test_decoder_stub_quadratic_in_sequence(report):
    expected = sum(d["sequence_len"] ** 2 for d in report.per_doc)
    c = report.config["decoder_flops_per_token_sq"]
    assert report.flops["by_category"]["decoder_stub"] == c * expected


def test_window_counts_close(report):
    for s in report.stages:
        assert s["windows_computed"] + s["windows_bypassed"] == s["windows_total"]


def test_context_fit_recomputable(report):
    max_seq = max(d["sequence_len"] for d in report.per_doc)
    assert report.context["max_sequence"] == max_seq
    assert report.context["fit"] == (max_seq <= report.context["budget"])


def test_tiny_budget_fails_fit():
    rep = run(_small_config(context_budget=1))
    assert rep.context["fit"] is False


# --- determinism -------------------------------------------------------------

def test_reports_byte_identical():
    a = run(_small_config()).to_json()
    b = run(_small_config()).to_json()
    assert a == b


def test_written_report_byte_identical(tmp_path):
    p1 = write_report(run(_small_config()), tmp_path / "a")
    p2 = write_report(run(_small_config()), tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    # timings are a sidecar, not part of the canonical report
    assert "timings_ms" not in json.loads(p1.read_text())
    timings = json.loads((tmp_path / "a" / "timings.json").read_text())
    assert set(timings) == {"generate", "patch_embed", "detect", "encode",
                            "project", "ifm"}


def test_seed_changes_report():
    a = run(_small_config(seed=7)).to_json()
    b = run(_small_config(seed=8)).to_json()
    assert a != b


@pytest.mark.parametrize("overrides", [
    {}, {"gated": False}, {"soft_gating": True}, {"bypass": False},
    {"detector": "mlp"}], ids=["default", "ungated", "soft", "no_bypass",
                               "mlp_weights"])
def test_report_config_reproduces_its_run(tmp_path, overrides):
    # the config is the whole run: rebuilt from the report it gives the
    # same bytes, a detector named by its weight file included
    if overrides.get("detector") == "mlp":
        overrides = dict(overrides,
                         detector_weights=detector_file(tmp_path / "det.hrvd"))
    text = run(_small_config(**overrides)).to_json()
    config = PipelineConfig.from_dict(json.loads(text)["config"])
    assert run(config).to_json() == text


def test_a_run_computes_no_gelu_prime(monkeypatch, tmp_path):
    # the detector, the projector and the IFM classifier are inference
    # forwards: gelu'(z1) is read by training alone
    cfg = _small_config(corpus_n=1, detector="mlp",
                        detector_weights=detector_file(tmp_path / "det.hrvd"))
    calls, prime = [], tensor._gelu_prime

    def counted(*args):
        calls.append(len(args[0]))
        return prime(*args)

    monkeypatch.setattr(tensor, "_gelu_prime", counted)
    rep = json.loads(run(cfg).to_json())
    assert rep["config"]["detector"] == "mlp"
    assert calls == []


# --- masks --------------------------------------------------------------------

def test_mask_hex_round_trip(report):
    side2 = 128 // 4 // 2
    side4 = 128 // 4 // 8
    for d in report.per_doc:
        m2 = mask_from_hex(d["masks"]["stage2"], side2)
        m4 = mask_from_hex(d["masks"]["stage4"], side4)
        assert m2.shape == (side2, side2)
        assert m4.shape == (side4, side4)
        assert int(m4.sum()) == d["kept_final"]


def test_mask_containment_chain(report):
    corpus = make_corpus(3, 0.5, 128, seed=7)
    side2, side4 = 16, 4
    for d, doc in zip(report.per_doc, corpus):
        m2 = mask_from_hex(d["masks"]["stage2"], side2)
        m4 = mask_from_hex(d["masks"]["stage4"], side4)
        mi = mask_from_hex(d["masks"]["ifm"], side4)
        # the instruction filter only removes tokens the encoder kept
        assert not (mi & ~m4).any()
        # with a binary oracle map, stage-4 keeps are the 4x4 any-pool of stage 2
        np.testing.assert_array_equal(patchify_any(m2, 4), m4)
        # and stage-2 matches the ground-truth labels at its granularity
        np.testing.assert_array_equal(m2, doc.patch_labels(8))


def test_render_masks_writes_readable_pbms(tmp_path, report):
    written = render_masks(json.loads(report.to_json()), tmp_path,
                           doc_index=0)
    masks = report.per_doc[0]["masks"]
    sides = {"stage2": 16, "stage4": 4, "ifm": 4}
    assert [p.name for p in written] == [f"doc_0000_{n}.pbm" for n in sides]
    for path, (name, side) in zip(written, sides.items()):
        # white = kept: a set (black) bit is a pruned token
        np.testing.assert_array_equal(pbm_bits(path, (side, side)),
                                      ~mask_from_hex(masks[name], side))


# --- pruning economics ----------------------------------------------------

def test_half_blank_corpus_prunes_compute():
    cfg = PipelineConfig(corpus_n=4, seed=7)
    _, rows = sweep(cfg, [(0.0, 0.0), (0.5, 0.5)])
    assert rows[1]["total_flops"] <= 0.55 * rows[0]["total_flops"]


def test_sweep_single_point_matches_run():
    cfg = _small_config()
    reports, rows = sweep(cfg, [(0.25, 0.5)])
    direct = run(replace(cfg, eps_c=sweep_schedule(0.25), eps_i=0.5))
    assert reports[0].to_json() == direct.to_json()
    assert rows[0]["total_flops"] == direct.flops["total"]


def _sweep_counting_encodes(monkeypatch, cfg, settings):
    """Sweep reports plus one [eps_c, window_pass calls] pair per encode
    call, in the order of the calls."""
    calls = []
    real_encode, real_pass = pipeline.encode, encoder.window_pass

    def counting_encode(model, grid, p0, eps_c, **kw):
        calls.append([eps_c, 0])
        return real_encode(model, grid, p0, eps_c, **kw)

    def counting_pass(*args, **kw):
        calls[-1][1] += 1
        return real_pass(*args, **kw)

    monkeypatch.setattr(pipeline, "encode", counting_encode)
    monkeypatch.setattr(encoder, "window_pass", counting_pass)
    reports, _ = sweep(cfg, settings)
    monkeypatch.undo()
    return reports, calls


DEFAULT_GRID = [(0.25, 0.25), (0.25, 0.5), (0.5, 0.25), (0.5, 0.5)]
GRADED_GRID = [(0.25, 0.5), (0.5, 0.5), (0.75, 0.25), (0.75, 0.5)]


@pytest.mark.parametrize("overrides,settings,computes", [
    # the oracle binarizes alike at every threshold: one encode per document
    ({}, DEFAULT_GRID, [True, False, False, False]),
    ({"soft_gating": True}, DEFAULT_GRID, [True, False, False, False]),
    ({"gated": False}, DEFAULT_GRID, [True, False, False, False]),
    # graded probabilities: only the eps_i-only step repeats its masks
    ({"detector": "mlp"}, GRADED_GRID, [True, True, True, False]),
])
def test_sweep_reuse_is_exact(monkeypatch, tmp_path, overrides, settings,
                              computes):
    if overrides.get("detector") == "mlp":
        overrides = dict(overrides,
                         detector_weights=detector_file(tmp_path / "det.hrvd"))
    cfg = _small_config(**overrides)
    reports, calls = _sweep_counting_encodes(monkeypatch, cfg, settings)
    # each document encodes once per mask group, with the thresholds of
    # the group's first setting, and every encode computes
    assert [eps for eps, _ in calls] == [
        sweep_schedule(c) for (c, _), first in zip(settings, computes)
        if first] * cfg.corpus_n
    assert all(passes > 0 for _, passes in calls)
    for (c, i), rep in zip(settings, reports):
        direct = run(replace(cfg, eps_c=sweep_schedule(c), eps_i=i))
        assert rep.to_json() == direct.to_json()


def _counting(counts, name, fn):
    def wrapped(*args, **kw):
        counts[name] += 1
        return fn(*args, **kw)
    return wrapped


def test_sweep_runs_threshold_free_work_once_per_document(monkeypatch):
    # the oracle binarizes alike at every threshold, so on the default
    # grid all four settings share one mask set per document
    cfg = _small_config()
    counts = Counter()
    for name in ("partition", "detect", "encode", "mlp2_forward", "fuse",
                 "filter_tokens"):
        monkeypatch.setattr(pipeline, name,
                            _counting(counts, name, getattr(pipeline, name)))
    reports, _ = sweep(cfg, DEFAULT_GRID)
    n = cfg.corpus_n
    assert counts == {"partition": n, "detect": n, "encode": n,
                      "mlp2_forward": n, "fuse": n, "filter_tokens": 2 * n}
    monkeypatch.undo()
    for (c, i), rep in zip(DEFAULT_GRID, reports):
        direct = run(replace(cfg, eps_c=sweep_schedule(c), eps_i=i))
        assert rep.to_json() == direct.to_json()


def test_a_shared_step_charges_each_setting_in_full(monkeypatch):
    clock = iter([2.0, 2.25, 3.0, 3.5])
    monkeypatch.setattr(pipeline, "time",
                        SimpleNamespace(perf_counter=lambda: next(clock)))
    settings = [pipeline._Setting(_small_config(), tensor.FlopCounter())
                for _ in range(3)]
    with settings[0].counter.category("decoder_stub"):
        with pipeline._step(settings, "project") as c, \
                c.category("projector"):
            tensor.matmul(np.ones((2, 3)), np.ones((3, 4)), c)   # 48 FLOPs
    # each setting is charged all of the work, under the step's category,
    # and all its time; the step's counter reads their sum, which the
    # benchmark's traced spans reconcile with the reports
    assert c.by_category == {"projector": 3 * 48}
    for s in settings:
        assert s.counter.by_category == {"projector": 48}
        assert s.timings["project"] == 250.0
        assert sum(s.timings.values()) == 250.0
    # a step of one setting charges that setting's own counter
    with pipeline._step(settings[:1], "ifm") as c:
        assert c is settings[0].counter
    assert settings[0].timings["ifm"] == 500.0


def test_run_holds_one_generated_page_at_a_time(monkeypatch):
    pages, alive = [], []
    real = synthdoc.generate

    def tracking(spec):
        doc = real(spec)
        pages.append(weakref.ref(doc))
        alive.append(sum(p() is not None for p in pages))
        return doc

    monkeypatch.setattr(synthdoc, "generate", tracking)
    run(_small_config(corpus_n=4))
    assert alive == [1, 1, 1, 1]


def test_sweep_writes_summary_and_reports(tmp_path):
    cfg = _small_config()
    _, rows = sweep(cfg, [(0.0, 0.0), (0.5, 0.5)], out_dir=tmp_path)
    csv_text = (tmp_path / "summary.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header == ("eps_c,eps_i,total_flops,encoder_attention_flops,"
                      "decoder_flops,kept_final,post_ifm")
    assert len(csv_text.splitlines()) == 3
    assert (tmp_path / "run_c0_i0" / "report.json").exists()
    assert (tmp_path / "run_c0.5_i0.5" / "report.json").exists()


def test_sweep_that_gains_compute_fails_after_writing(tmp_path, monkeypatch):
    # a sweep whose compute rose along a threshold axis fails, and leaves
    # the reports it checked behind as evidence
    def inverted(report):
        row = summary_row(report)
        return {**row, "total_flops": -row["total_flops"]}

    monkeypatch.setattr(pipeline, "summary_row", inverted)
    with pytest.raises(RuntimeError, match="compute increased"):
        sweep(_small_config(corpus_n=1), [(0.0, 0.0), (0.5, 0.5)],
              out_dir=tmp_path)
    assert (tmp_path / "run_c0_i0" / "report.json").exists()
    assert (tmp_path / "run_c0.5_i0.5" / "report.json").exists()
    assert (tmp_path / "summary.csv").exists()


def test_sweep_schedule_two_tier():
    assert sweep_schedule(0.25) == (0.25, 0.25, 0.5, 0.5)
    assert sweep_schedule(0.7) == (0.7, 0.7, 1.0, 1.0)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ConfigError, match="at least one"):
        sweep(_small_config(), [])


def test_binary_probs_insensitive_to_threshold_position():
    # the oracle emits {0,1}; any threshold inside (0, 1] binarizes alike
    a = run(_small_config(eps_c=(0.25, 0.25, 0.5, 0.5)))
    b = run(_small_config(eps_c=(0.9, 0.9, 1.0, 1.0)))
    assert a.tokens["post_encoder"] == b.tokens["post_encoder"]
    assert (a.flops["by_category"]["encoder_attention"]
            == b.flops["by_category"]["encoder_attention"])


# --- configuration ---------------------------------------------------------

def test_config_is_immutable():
    # a config is checked once, when it is built: no field can change after
    cfg = _small_config()
    with pytest.raises(FrozenInstanceError):
        cfg.eps_i = 1.5
    assert replace(cfg, eps_i=0.25).eps_i == 0.25
    with pytest.raises(ConfigError, match="eps_i"):
        replace(cfg, eps_i=1.5)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        PipelineConfig.from_dict({"image_sz": 256})


def test_profile_and_detector_validated():
    with pytest.raises(ConfigError, match="profile"):
        PipelineConfig(profile="wall")
    with pytest.raises(ConfigError, match="detector"):
        PipelineConfig(detector="resnet")


def test_geometry_validated():
    with pytest.raises(ConfigError, match="does not divide"):
        PipelineConfig(image_size=130, patch_size=4)
    with pytest.raises(ConfigError, match="divisible by 8"):
        PipelineConfig(image_size=144, patch_size=4)  # grid 36
    with pytest.raises(ConfigError, match="4 stage depths"):
        PipelineConfig(depths=(2, 2, 6))


def test_float_fields_spelled_as_integers_write_the_same_report():
    # JSON gives 0 for 0.0; the report must not show which was written
    ints = _small_config(eps_c=[0, 0, 1, 1], eps_i=1, content_fraction=0)
    floats = _small_config(eps_c=(0.0, 0.0, 1.0, 1.0), eps_i=1.0,
                           content_fraction=0.0)
    assert run(ints).to_json() == run(floats).to_json()


@pytest.mark.parametrize("name,value", [
    ("eps_i", 10**400), ("content_fraction", -10**400),
    ("eps_c", [0, 0, 0, 10**400])])
def test_float_fields_past_the_float_range_are_config_errors(name, value):
    with pytest.raises(ConfigError, match=f"config field {name!r}"):
        _small_config(**{name: value})


def test_schedule_errors_become_config_errors():
    with pytest.raises(ConfigError, match="non-decreasing"):
        PipelineConfig(eps_c=(0.5, 0.25, 0.5, 0.5))


def test_mlp_detector_requires_weights():
    with pytest.raises(ConfigError, match="weights"):
        build_models(_small_config(detector="mlp"))


def test_detector_patch_size_checked(tmp_path):
    weights = detector_file(tmp_path / "det8.hrvd", patch_size=8)
    with pytest.raises(ConfigError, match="patch size"):
        build_models(_small_config(detector="mlp", detector_weights=weights))


def test_passed_detector_is_used(tmp_path):
    weights = detector_file(tmp_path / "det.hrvd", seed=1)
    rep = run(_small_config(corpus_n=1, detector="mlp",
                            detector_weights=weights))
    # an untrained detector disagrees with the oracle run
    oracle = run(_small_config(corpus_n=1))
    assert rep.tokens["post_encoder"] != oracle.tokens["post_encoder"] or \
        rep.flops["total"] != oracle.flops["total"]


def test_paper_scale_profile_geometry():
    cfg = PipelineConfig.paper_scale()
    assert cfg.image_size == 1536
    assert cfg.grid_side == 384
    assert cfg.stage4_side == 48


def test_blank_pages_run():
    rep = run(_small_config(content_fraction=0.0, corpus_n=2))
    assert rep.tokens["post_encoder"] == rep.tokens["post_ifm"] == 0
    # each blank page still sends its one-token instruction to the decoder
    assert rep.tokens["final_sequence"] == 2
    assert all(d["instruction_len"] == 1 for d in rep.per_doc)
    assert all(s["windows_computed"] == 0 for s in rep.stages)


def test_paper_scale_blank_page_geometry():
    # a blank page bypasses every window, so the full-size grid runs fast
    rep = run(replace(PipelineConfig.paper_scale(), corpus_n=1,
                      content_fraction=0.0))
    assert rep.tokens["initial"] == 384 * 384 == 147456
    assert [s["n_tokens_per_doc"] for s in rep.stages] == [
        147456, 36864, 9216, 2304]
    # windows of 10 tokens pad each grid side up: 39, 20, 10 and 5
    # windows per side, times the stage depths (2, 2, 18, 2)
    assert [s["windows_total"] for s in rep.stages] == [3042, 800, 1800, 50]
    assert [s["windows_computed"] for s in rep.stages] == [0, 0, 0, 0]


# --- training data preparation ----------------------------------------------

def test_prepare_ifm_samples_shapes():
    cfg = _small_config(corpus_n=2)
    # the corpus the config generates
    corpus = make_corpus(2, 0.5, 128, seed=7)
    samples = prepare_ifm_samples(cfg, corpus, build_models(cfg))
    rep = run(cfg)
    assert len(samples) == 2
    for (v, instr, labels), d in zip(samples, rep.per_doc):
        assert v.shape == (d["kept_final"], cfg.llm_dim)
        assert instr.shape == (d["instruction_len"], cfg.llm_dim)
        assert labels.shape == (d["kept_final"],)
        assert set(np.unique(labels)) <= {0.0, 1.0}


def test_prepare_ifm_samples_equal_a_serial_loop(monkeypatch):
    # the reference: the documents one after another on this thread, with
    # BLAS at its own thread count
    cfg = _small_config(corpus_n=4)
    corpus = make_corpus(4, 0.5, 128, seed=7)
    models = build_models(cfg)
    instr_rng = pipeline.Rng(cfg.seed).derive("instructions")
    want = []
    for i, doc in enumerate(corpus):
        ((_, encoded, v_in),) = pipeline._encoded_groups(
            models, doc, [pipeline._Setting(cfg, tensor.NO_FLOPS)])
        spec, relevance = instruction_filter.instruction_target(
            doc, instr_rng.derive(i).state)
        cells = patchify_any(relevance, cfg.patch_size * 8).ravel()
        want.append((v_in, pipeline.embed_instruction(models.ifm, spec),
                     cells[encoded.kept_indices].astype(np.float64)))
    # two cores, so the documents run on two threads wherever numpy's
    # OpenBLAS is found; the first waits for a second thread
    fake_cores(monkeypatch, 2)
    recorded = SecondThread(pipeline._encoded_groups,
                            tensor._openblas() is not None)
    threads = recorded.threads
    monkeypatch.setattr(pipeline, "_encoded_groups", recorded)
    got = prepare_ifm_samples(cfg, corpus, models)
    if tensor._openblas() is not None:
        assert len(threads) == 2
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("side", [128, 512])
def test_prepare_ifm_samples_reject_pages_of_another_size(monkeypatch, side):
    # default config: 256-px pages; the odd page is the second
    cfg = PipelineConfig(corpus_n=2)
    corpus = (make_corpus(1, 0.5, 256, seed=0)
              + make_corpus(1, 0.5, side, seed=0))
    encoded = []
    monkeypatch.setattr(pipeline, "_encoded_groups",
                        lambda *args: encoded.append(args))
    with pytest.raises(ValueError,
                       match=f"document 1 is a {side}x{side} page, but "
                             "config 'image_size' is 256"):
        prepare_ifm_samples(cfg, corpus, build_models(cfg))
    assert encoded == []


def test_prepare_ifm_samples_blank_page():
    cfg = _small_config(corpus_n=1, content_fraction=0.0)
    corpus = make_corpus(1, 0.0, 128, seed=7)
    ((v, instr, labels),) = prepare_ifm_samples(cfg, corpus,
                                                build_models(cfg))
    assert v.shape == (0, cfg.llm_dim) and labels.shape == (0,)
    assert instr.shape == (1, cfg.llm_dim)
