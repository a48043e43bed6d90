"""End-to-end benchmark pipeline: detect, encode, project, filter, report.

A run takes a synthetic corpus through the full chain: content detection,
the gated hierarchical encoder, an MLP projector into the decoder
embedding space, instruction filtering, and a decoder-budget stub that
charges quadratic cost in the final sequence length. The config is the
whole run, weight files included: a RunReport's JSON serialization is a
pure function of (config, seed). Integers stay exact, floats are fixed to
9 decimals, keys are sorted, and wall-clock timings live in a separate
sidecar so the canonical report stays byte-reproducible.

The decoder stub charges DECODER_FLOPS_PER_TOKEN_SQ * L**2 for a final
sequence of L tokens, sized like a prefill pass of a small decoder
(2 FLOPs/MAC * 4096 hidden * 32 layers). It exists so threshold sweeps
move total compute the way an attached decoder would; only relative
comparisons between runs are meaningful.
"""

from __future__ import annotations

import csv
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import imageio
from .content_filter import (DetectorModel, detect, load_detector,
                             oracle_detector)
from .encoder import (EncodeResult, EncoderModel, encode, encoder_init,
                      mask_key)
from .instruction_filter import (IfmModel, InstructionSpec, embed_instruction,
                                 fuse, filter_tokens, grid_positions,
                                 ifm_init, instruction_target, load_ifm)
from .patching import PatchEmbed, partition, patch_embed_init
from .rng import Rng
from .synthdoc import (LabeledImage, LayoutError, check_packable,
                       content_fraction, corpus_doc, patchify_any)
# not called here, but bench/tracer.py wraps the name pipeline.make_corpus
from .synthdoc import make_corpus  # noqa: F401
from .tensor import (NO_FLOPS, FlopCounter, Mlp2, SharedFlops, map_on_cores,
                     mlp2_forward, mlp2_init, one_blas_thread)

SCHEMA_VERSION = 1
DECODER_FLOPS_PER_TOKEN_SQ = 2 * 4096 * 32

FLOP_CATEGORIES = ("patch_embed", "detector", "encoder_norm",
                   "encoder_attention", "encoder_ffn", "encoder_merge",
                   "projector", "ifm", "decoder_stub")

PROFILES = ("desk", "paper-scale")


def sweep_schedule(c: float) -> tuple[float, ...]:
    """The per-stage eps_c of the default two-tier schedule scaled by c."""
    return (c, c, min(2 * c, 1.0), min(2 * c, 1.0))


class ConfigError(ValueError):
    """Invalid or inconsistent pipeline configuration."""


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run, checked once when it is built; change one
    with dataclasses.replace, which builds and checks a new config."""

    profile: str = "desk"
    image_size: int = 256
    patch_size: int = 4
    d0: int = 32
    depths: tuple[int, ...] = (2, 2, 6, 2)
    window: int = 8
    ffn_ratio: int = 2
    proj_hidden: int = 128
    llm_dim: int = 64
    eps_c: tuple[float, ...] = sweep_schedule(0.25)
    eps_i: float = 0.5
    detector: str = "oracle"
    detector_weights: str | None = None
    ifm_weights: str | None = None
    gated: bool = True
    bypass: bool = True
    soft_gating: bool = False
    use_positions: bool = True
    context_budget: int = 4096
    corpus_n: int = 32
    content_fraction: float = 0.5
    seed: int = 0
    decoder_flops_per_token_sq: int = DECODER_FLOPS_PER_TOKEN_SQ

    def __post_init__(self):
        for name in ("depths", "eps_c"):     # JSON gives lists
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value, hint = getattr(self, f.name), _FIELD_TYPES[f.name]
            if not _has_type(value, hint):
                raise ConfigError(
                    f"config field {f.name!r} must be {_type_name(hint)}, "
                    f"got {value!r}")
            values = value if isinstance(value, tuple) else (value,)
            if hint in (float, tuple[float, ...]):
                try:    # stored as floats, 0 writes the report of 0.0
                    values = tuple(map(float, values))
                except OverflowError as e:
                    raise ConfigError(f"config field {f.name!r} is past the "
                                      f"float range, got {value!r}") from e
                object.__setattr__(self, f.name,
                                   values[0] if hint is float else values)
            low = _INT_MIN.get(f.name, 1)
            if hint in (int, tuple[int, ...]) and low is not None and any(
                    v < low for v in values):
                raise ConfigError(
                    f"config field {f.name!r} must be >= {low}, got {value!r}")
        if not 0.0 <= self.content_fraction <= 1.0:
            raise ConfigError(
                "config field 'content_fraction' must lie in [0, 1], got "
                f"{self.content_fraction!r}")
        if len(self.depths) != 4:
            raise ConfigError(
                f"config field 'depths' needs 4 stage depths, got {self.depths}")
        if len(self.eps_c) != 4:
            raise ConfigError(
                f"config field 'eps_c' needs 4 stage thresholds, got {self.eps_c}")
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}")
        if self.detector not in ("oracle", "mlp"):
            raise ConfigError(f"unknown detector variant {self.detector!r}")
        for name in ("detector_weights", "ifm_weights"):
            if getattr(self, name) == "":
                raise ConfigError(f"config field {name!r} is an empty path: "
                                  "name a weight file, or give null")
        if self.detector == "oracle" and self.detector_weights is not None:
            raise ConfigError(
                "config field 'detector_weights' is set, but detector "
                "'oracle' reads no weights; set detector to 'mlp'")
        if self.image_size % self.patch_size:
            raise ConfigError(
                f"config field 'patch_size' {self.patch_size} does not "
                f"divide 'image_size' {self.image_size}")
        grid = self.image_size // self.patch_size
        if grid % 8:
            raise ConfigError(
                f"config fields 'image_size' {self.image_size} and "
                f"'patch_size' {self.patch_size} give a stage-1 grid of "
                f"{grid}, which must be divisible by 8 for three 2x2 merges")
        if self.window > grid:
            raise ConfigError(f"config field 'window' {self.window} is wider "
                              f"than the stage-1 grid of {grid} tokens a side")
        try:
            check_packable(self.image_size, self.content_fraction)
        except LayoutError as e:
            raise ConfigError(f"config field 'content_fraction' on a "
                              f"{self.image_size}-px page: {e}") from e
        except OverflowError as e:
            raise ConfigError("config field 'image_size' is too large: the "
                              "page area passes the float range") from e
        for name, values in (("eps_c", self.eps_c), ("eps_i", (self.eps_i,))):
            for e in values:
                if not 0.0 <= e <= 1.0:
                    raise ConfigError(f"threshold {e} outside [0, 1] in "
                                      f"config field {name!r}")
        if any(a > b for a, b in zip(self.eps_c, self.eps_c[1:])):
            raise ConfigError("config field 'eps_c' must be non-decreasing, "
                              f"got {self.eps_c}")

    @property
    def grid_side(self) -> int:
        return self.image_size // self.patch_size

    @property
    def stage4_side(self) -> int:
        return self.grid_side // 8

    @property
    def stage4_dim(self) -> int:
        return self.d0 * 8

    @staticmethod
    def paper_scale() -> "PipelineConfig":
        return PipelineConfig(profile="paper-scale", image_size=1536,
                              patch_size=4, depths=(2, 2, 18, 2), window=10,
                              corpus_n=4)

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        unknown = set(d) - {f.name for f in fields(PipelineConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return PipelineConfig(**d)


_FIELD_TYPES = get_type_hints(PipelineConfig)
# integer fields and depths must be >= 1 except these; None means any int
_INT_MIN = {"seed": None, "decoder_flops_per_token_sq": 0}


def _has_type(value, hint) -> bool:
    """isinstance against a field annotation; bool is not a number here."""
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(
            _has_type(v, get_args(hint)[0]) for v in value)
    if get_origin(hint) is UnionType:
        return any(_has_type(value, h) for h in get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _type_name(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint)


@dataclass
class Models:
    embed: PatchEmbed
    detector: DetectorModel
    encoder: EncoderModel
    projector: Mlp2
    ifm: IfmModel


def _load_weights(name: str, path: str, load):
    """load(path), or a ConfigError naming config field name and path."""
    try:
        return load(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"config field {name!r}: cannot load weights from "
                          f"{path}: {e}") from e


def build_models(config: PipelineConfig) -> Models:
    """Every model of the run, seeded from config or read from the weight
    files it names. The checks that need weights live here, not in
    validate: train-detector reads configs that name no weights yet."""
    rng = Rng(config.seed)
    if config.detector == "oracle":
        detector = oracle_detector(config.patch_size)
    elif config.detector_weights is not None:
        detector = _load_weights("detector_weights", config.detector_weights,
                                 load_detector)
    else:
        raise ConfigError("detector variant 'mlp' needs trained weights: "
                          "set detector_weights")
    if detector.patch_size != config.patch_size:
        raise ConfigError(
            f"detector patch size {detector.patch_size} does not match "
            f"config {config.patch_size}")
    if config.ifm_weights is not None:
        ifm = _load_weights("ifm_weights", config.ifm_weights, load_ifm)
    else:
        ifm = ifm_init(config.seed, config.llm_dim, config.ffn_ratio,
                       config.use_positions)
    if ifm.dim != config.llm_dim:
        raise ConfigError(
            f"IFM dim {ifm.dim} does not match llm_dim {config.llm_dim}")
    if ifm.use_positions != config.use_positions:
        raise ConfigError(
            f"IFM use_positions {ifm.use_positions} does not match config "
            f"use_positions {config.use_positions}")
    return Models(
        embed=patch_embed_init(rng.derive("patch_embed"),
                               config.patch_size, config.d0),
        detector=detector,
        encoder=encoder_init(config.seed, config.d0, config.depths,
                             config.window, config.ffn_ratio),
        projector=mlp2_init(rng.derive("projector"), config.stage4_dim,
                            config.proj_hidden, config.llm_dim),
        ifm=ifm,
    )


def _mask_hex(bits: np.ndarray) -> str:
    return np.packbits(bits.astype(np.uint8)).tobytes().hex()


def mask_from_hex(s: str, side: int) -> np.ndarray:
    """A side x side mask from the hex of exactly ceil(side**2 / 8) bytes."""
    data, want = bytes.fromhex(s), -(-side * side // 8)
    if len(data) != want:
        raise ValueError(f"{len(data)} bytes of mask for a {side}x{side} "
                         f"grid, which takes {want}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return bits[: side * side].reshape(side, side).astype(bool)


@dataclass
class RunReport:
    schema_version: int
    config: dict
    corpus: dict
    stages: list[dict]
    tokens: dict
    flops: dict
    context: dict
    per_doc: list[dict]
    timings_ms: dict = field(default_factory=dict)   # sidecar only

    def to_canonical(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if k != "timings_ms"}
        return _round_floats(d)

    def to_json(self) -> str:
        return json.dumps(self.to_canonical(), sort_keys=True, indent=2) + "\n"


def _round_floats(obj):
    if isinstance(obj, float):
        return round(obj, 9)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


class _Setting:
    """One threshold setting's share of a walk: its FLOPs, wall time and
    per-document rows."""

    def __init__(self, config: PipelineConfig, counter: FlopCounter):
        self.config = config
        self.counter = counter
        self.timings = dict.fromkeys(("generate", "patch_embed", "detect",
                                      "encode", "project", "ifm"), 0.0)
        self.stages: list[dict] | None = None
        self.per_doc: list[dict] = []

    def add_doc(self, index: int, seed: int, encoded: EncodeResult,
                instruction: InstructionSpec, kept: np.ndarray) -> None:
        n_kept = int(kept.size)
        seq_len = n_kept + len(instruction)
        with self.counter.category("decoder_stub"):
            self.counter.add(
                self.config.decoder_flops_per_token_sq * seq_len * seq_len)

        if self.stages is None:
            self.stages = [{"stage": e.stage, "n_tokens_per_doc": e.n_tokens,
                            "active_total": 0, "windows_total": 0,
                            "windows_computed": 0, "windows_bypassed": 0,
                            "attn_flops": 0} for e in encoded.trace]
        for agg, e in zip(self.stages, encoded.trace):
            agg["active_total"] += e.active
            agg["windows_total"] += e.windows_total
            agg["windows_computed"] += e.windows_computed
            agg["windows_bypassed"] += e.windows_total - e.windows_computed
            agg["attn_flops"] += e.attn_flops

        ifm_mask = np.zeros(encoded.grid.n_tokens)
        ifm_mask[encoded.kept_indices[kept]] = 1.0
        self.per_doc.append({
            "index": index,
            "seed": seed,
            "kept_final": encoded.kept_final,
            "kept_after_ifm": n_kept,
            "instruction_len": len(instruction),
            "sequence_len": seq_len,
            "masks": {
                "stage2": _mask_hex(encoded.trace[1].binarized),
                "stage4": _mask_hex(encoded.trace[3].binarized),
                "ifm": _mask_hex(ifm_mask),
            },
        })

    def report(self, pixel_fraction: float,
               patch_fraction: float) -> RunReport:
        config, counter, per_doc = self.config, self.counter, self.per_doc
        post_encoder = sum(d["kept_final"] for d in per_doc)
        post_ifm = sum(d["kept_after_ifm"] for d in per_doc)
        instr_total = sum(d["instruction_len"] for d in per_doc)
        max_sequence = max(d["sequence_len"] for d in per_doc)
        return RunReport(
            schema_version=SCHEMA_VERSION,
            config=asdict(config),
            corpus={
                "n_docs": len(per_doc),
                "image_size": config.image_size,
                "patch_size": config.patch_size,
                "mean_content_fraction": pixel_fraction,
                "mean_patch_fraction": patch_fraction,
            },
            stages=self.stages,
            tokens={
                "initial": len(per_doc) * config.grid_side ** 2,
                "post_encoder": post_encoder,
                "post_ifm": post_ifm,
                "instruction": instr_total,
                "final_sequence": post_ifm + instr_total,
            },
            flops={
                "by_category": {k: counter.get(k) for k in FLOP_CATEGORIES},
                "total": counter.total(),
            },
            context={
                "budget": config.context_budget,
                "max_sequence": max_sequence,
                "fit": bool(max_sequence <= config.context_budget),
            },
            per_doc=per_doc,
            timings_ms={k: round(v, 3) for k, v in self.timings.items()},
        )


@contextmanager
def _step(settings: list[_Setting], key: str):
    """One run of a step that the given settings share; yields its counter:
    a lone setting's own, or a SharedFlops over several, which charges each
    setting what a lone `run` charges. On exit each setting gets the
    block's wall ms added to timings[key]."""
    counters = [s.counter for s in settings]
    t0 = time.perf_counter()
    yield counters[0] if len(counters) == 1 else SharedFlops(counters)
    ms = (time.perf_counter() - t0) * 1e3
    for s in settings:
        s.timings[key] += ms


def _encoded_groups(models: Models, doc: LabeledImage,
                    settings: list[_Setting]):
    """The per-document chain up to the instruction filter's inputs.

    partition and detect run once for all settings. The settings are then
    grouped by the per-stage masks their thresholds binarize the document
    into (`encoder.mask_key`), and encode, the projector and the grid
    positions run once per group: yields (members, encoded, v_in) for
    each, v_in being the projected tokens (plus grid positions when the
    IFM uses them) that the IFM takes in. The walk and
    `prepare_ifm_samples` both go through here. Every step is called
    through this module's globals, so a wrapper installed on a name (as
    `bench/tracer.py` does) sees each call, and each runs in a `_step`
    over the settings that share it, which charges each of them what a
    lone `run` charges.
    """
    with _step(settings, "patch_embed") as c, c.category("patch_embed"):
        grid = partition(doc.image, models.embed, c)
    with _step(settings, "detect") as c, c.category("detector"):
        probs = detect(models.detector, doc, c)
    groups: dict[bytes, list[_Setting]] = {}
    for s in settings:
        key = mask_key(models.encoder, grid, probs, s.config.eps_c)
        groups.setdefault(key, []).append(s)
    for members in groups.values():
        cfg = members[0].config
        with _step(members, "encode") as c:
            encoded = encode(models.encoder, grid, probs, cfg.eps_c,
                             gated=cfg.gated, bypass=cfg.bypass,
                             soft=cfg.soft_gating, counter=c)
        with _step(members, "project") as c, c.category("projector"):
            projected = mlp2_forward(encoded.sequence, models.projector, c)
        with _step(members, "ifm"):
            v_in = projected
            if models.ifm.use_positions and projected.shape[0]:
                v_in = projected + grid_positions(
                    encoded.kept_indices, cfg.stage4_side, cfg.llm_dim)
        yield members, encoded, v_in


def _instruction(config: PipelineConfig, models: Models, doc: LabeledImage,
                 i: int):
    """Document i's instruction, pixel relevance mask and embedding; the
    walk and prepare_ifm_samples both take a page's instruction here."""
    seed = Rng(config.seed).derive("instructions").derive(i).state
    spec, relevance = instruction_target(doc, seed)
    return spec, relevance, embed_instruction(models.ifm, spec)


def _walk_doc(i: int, config: PipelineConfig, models: Models,
              settings: list[_Setting]):
    """Document i under every setting; returns its pixel and patch
    content fractions. The page lives only as long as this call."""
    with _step(settings, "generate"):
        doc = corpus_doc(i, config.content_fraction, config.image_size,
                         config.seed)
    spec, _, instr = _instruction(config, models, doc, i)
    for members, encoded, v_in in _encoded_groups(models, doc, settings):
        with _step(members, "ifm") as c:
            fused_v = fuse(models.ifm, v_in, instr, c)
        by_eps: dict[float, list[_Setting]] = {}
        for s in members:
            by_eps.setdefault(s.config.eps_i, []).append(s)
        for eps, group in by_eps.items():
            with _step(group, "ifm") as c:
                kept = filter_tokens(models.ifm, fused_v, eps, counter=c)
            for s in group:
                s.add_doc(i, doc.seed, encoded, spec, kept)
    return content_fraction(doc), content_fraction(doc, config.patch_size)


def _walk(configs: list[PipelineConfig]) -> list[RunReport]:
    """Every setting's report from one pass over the config's corpus.

    The configs differ only in eps_c/eps_i, so the models are built once
    and each page is generated when its turn comes and goes through every
    setting before the next one is made.

    The documents are walked serially, on the calling thread. They are
    independent and may charge one counter at once, so `map_on_cores`
    could take them one per core; the one reason left not to is that
    bench/tracer.py keeps one span stack per process: spans of two
    documents in flight would nest and charge one's FLOPs to the other's.
    The cores are used below the spans instead: an encoder sublayer of
    `tensor.MIN_MAPPED_PARTS` parts or more (a high-resolution page's)
    maps its parts onto them, and a smaller one runs them in order. The
    walk holds OpenBLAS at one thread throughout
    (`tensor.one_blas_thread`); switched back to its own threads between
    sublayers, OpenBLAS's spinning second thread would take the core that
    a part's worker needs.
    """
    config = configs[0]
    models = build_models(config)
    settings = [_Setting(cfg, FlopCounter()) for cfg in configs]
    with one_blas_thread():
        fractions = [_walk_doc(i, config, models, settings)
                     for i in range(config.corpus_n)]
    pixel, patch = (float(np.mean(f)) for f in zip(*fractions))
    return [s.report(pixel, patch) for s in settings]


def run(config: PipelineConfig) -> RunReport:
    """Execute the pipeline over the config's corpus and assemble the report.

    The corpus is the seeded synthetic corpus the config describes,
    generated one page at a time.
    """
    return _walk([config])[0]


def write_report(report: RunReport, out_dir) -> Path:
    """Canonical report.json plus the timings sidecar; returns report path."""
    out = imageio.ensure_dir(out_dir)
    path = out / "report.json"
    path.write_text(report.to_json())
    (out / "timings.json").write_text(
        json.dumps(report.timings_ms, sort_keys=True, indent=2) + "\n")
    return path


def sweep(config: PipelineConfig, settings: list[tuple[float, float]],
          out_dir=None) -> tuple[list[RunReport], list[dict]]:
    """One report per (content, instruction) threshold setting, one corpus.

    Every setting's config is checked before the first document. The walk
    then takes each document through all settings: partition and detect
    run once per document, the settings are grouped by the per-stage
    masks they binarize it into, each group runs one encode, projection
    and IFM fusion, and the IFM classifier runs once per distinct eps_i
    in a group. Each setting is still charged the full FLOPs of every
    step, so every report equals that of a separate `run`.

    With out_dir, each setting's report goes to its own directory; two
    settings that name one directory are a ConfigError.

    Raises RuntimeError if total compute ever increases along a single
    threshold axis; the per-setting reports are written before the check
    so a violation leaves evidence behind.
    """
    if not settings:
        raise ConfigError("sweep needs at least one (eps_c, eps_i) setting")
    configs = [_setting_config(config, c, i) for c, i in settings]
    dirs = None if out_dir is None else _report_dirs(settings)
    reports = _walk(configs)
    rows = [summary_row(rep) for rep in reports]
    if out_dir is not None:
        for name, rep in zip(dirs, reports):
            write_report(rep, Path(out_dir) / name)
        write_summary_csv(rows, Path(out_dir) / "summary.csv")
    _check_monotone(rows)
    return reports, rows


def _setting_config(config: PipelineConfig, c: float,
                    i: float) -> PipelineConfig:
    """config at the sweep setting c:i, or a ConfigError naming it."""
    try:
        return replace(config, eps_c=sweep_schedule(c), eps_i=i)
    except ValueError as e:
        raise ConfigError(f"sweep setting {c:g}:{i:g}: {e}") from e


def _report_dirs(settings: list[tuple[float, float]]) -> list[str]:
    """The report directory name of each setting, all distinct."""
    seen = {}
    for c, i in settings:
        name = f"run_c{c:g}_i{i:g}"
        if name in seen:
            raise ConfigError(f"sweep settings {seen[name]} and {c!r}:{i!r} "
                              f"both write their report to {name}")
        seen[name] = f"{c!r}:{i!r}"
    return list(seen)


def _check_monotone(rows: list[dict]) -> None:
    for a in rows:
        for b in rows:
            if a["eps_c"] <= b["eps_c"] and a["eps_i"] <= b["eps_i"]:
                if a["total_flops"] < b["total_flops"]:
                    raise RuntimeError(
                        "compute increased along a threshold axis: "
                        f"({a['eps_c']},{a['eps_i']})={a['total_flops']} < "
                        f"({b['eps_c']},{b['eps_i']})={b['total_flops']}")


SUMMARY_FIELDS = ("eps_c", "eps_i", "total_flops", "encoder_attention_flops",
                  "decoder_flops", "kept_final", "post_ifm")


def summary_row(report: RunReport) -> dict:
    """A report's summary.csv row; eps_c is the stage-1 threshold, which
    is the base c of a `sweep_schedule`."""
    return dict(zip(SUMMARY_FIELDS, (
        report.config["eps_c"][0], report.config["eps_i"],
        report.flops["total"],
        report.flops["by_category"]["encoder_attention"],
        report.flops["by_category"]["decoder_stub"],
        report.tokens["post_encoder"], report.tokens["post_ifm"])))


def write_summary_csv(rows: list[dict], path) -> Path:
    path = Path(path)
    imageio.ensure_dir(path.parent)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=SUMMARY_FIELDS)
        w.writeheader()
        w.writerows(rows)
    return path


def prepare_ifm_samples(config: PipelineConfig, corpus: list[LabeledImage],
                        models: Models
                        ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Instruction-filter training samples: (visual tokens, instruction
    embedding, relevance labels), one triple per document.

    Visual tokens are the projected post-encoder tokens (with grid position
    encodings when enabled), exactly what the filter sees during a run.
    A token counts as relevant when its stage-4 cell overlaps the
    instruction target's dilated bbox.

    Every page must be config.image_size pixels square (a ValueError
    names the first that is not). The documents are prepared one per
    thread on every core (`tensor.map_on_cores`), each under its own
    `_Setting`; the samples equal those of a serial loop byte for byte.
    """
    want = (config.image_size, config.image_size)
    for i, doc in enumerate(corpus):
        if doc.image.shape != want:
            raise ValueError(
                f"document {i} is a {doc.image.shape[0]}x"
                f"{doc.image.shape[1]} page, but config 'image_size' is "
                f"{config.image_size}")

    def sample(i: int):
        doc = corpus[i]
        ((_, encoded, v_in),) = _encoded_groups(
            models, doc, [_Setting(config, NO_FLOPS)])
        _, relevance, instr = _instruction(config, models, doc, i)
        cells = patchify_any(relevance, config.patch_size * 8).ravel()
        return v_in, instr, cells[encoded.kept_indices].astype(np.float64)

    return map_on_cores(sample, range(len(corpus)))


def _report_field(obj, key: str, where: str):
    """obj[key] of a report, or a ValueError naming where and key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    if key not in obj:
        raise ValueError(f"{where} has no key {key!r}")
    return obj[key]


def _report_int(obj, key: str, where: str, low: int) -> int:
    """A report's integer field of at least low."""
    value = _report_field(obj, key, where)
    if type(value) is not int or value < low:
        raise ValueError(f"{where}.{key} must be an integer >= {low}, got "
                         f"{value!r}")
    return value


def render_masks(rep: dict, out_dir,
                 doc_index: int | None = None) -> list[Path]:
    """PBM mask per pruning stage (white = kept) at native grid resolution.

    The one reader of a report's masks; rep is a report's parsed JSON.
    Every field it reads is checked in every document, and each mask it
    writes is decoded, before out_dir is made: a bad field is a ValueError
    naming it, two documents of one index are a ValueError naming both,
    and a doc_index outside the report is an IndexError.
    """
    docs = _report_field(rep, "per_doc", "the top level")
    if not isinstance(docs, list):
        raise ValueError("per_doc is not a list")
    config = _report_field(rep, "config", "the top level")
    grid = (_report_int(config, "image_size", "config", 1)
            // _report_int(config, "patch_size", "config", 1))
    if doc_index is not None and not 0 <= doc_index < len(docs):
        has = (f"{len(docs)} (0 to {len(docs) - 1})" if docs
               else "no documents")
        raise IndexError(f"doc_index {doc_index} is not a document of the "
                         f"report, which has {has}")
    sides = {"stage2": grid // 2, "stage4": grid // 8, "ifm": grid // 8}
    kept, seen = {}, {}
    for j, doc in enumerate(docs):
        where = f"per_doc[{j}]"
        index = _report_int(doc, "index", where, 0)
        if index in seen:
            raise ValueError(f"{seen[index]} and {where} both have index "
                             f"{index}")
        seen[index] = where
        masks = _report_field(doc, "masks", where)
        for name, side in sides.items():
            hexed = _report_field(masks, name, f"{where}.masks")
            if doc_index not in (None, j):
                continue
            try:
                mask = mask_from_hex(hexed, side)
            except (TypeError, ValueError) as e:
                raise ValueError(f"{where}.masks.{name}: {e}") from e
            kept[f"doc_{index:04d}_{name}.pbm"] = mask
    out = imageio.ensure_dir(out_dir)
    for name, mask in kept.items():
        imageio.write_pbm(out / name, mask)
    return [out / name for name in kept]
