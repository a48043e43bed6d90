"""The benchmark's workloads: inputs, one operation, and its output check.

Each workload builds its inputs from the benchmark seed when constructed
(its set-up) and then runs one user-visible operation per ``op`` call
through the public
``docprune`` API. Calls go through module attributes (``pipeline.run``,
``instruction_filter.train_ifm``) so the traced pass sees them.

``op`` is the timed part and returns what the operation produced.
``inspect`` runs untimed and turns that into an :class:`OpOutput`: the
reports (for FLOP reconciliation), a digest of every output that must
repeat byte for byte across operations, and the problems found by checks
that hold on any seed. The harness compares each digest with the first
operation's and with the golden values below.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from docprune import content_filter, instruction_filter, pipeline
from docprune.cli import DEFAULT_GRID, _parse_grid
from docprune.pipeline import PipelineConfig, RunReport
from docprune.synthdoc import make_corpus

# report.json sha256 of `docprune run --seed 7` on the desk profile,
# measured on the unmodified program; a change of report bytes shows here
GOLDEN = {("run-desk", 7, 32): {
    "report_sha256":
        "dc41961b88a479a663740c51cb4e3f062fb6ee76f86d49204c0e2c9b33ed6ac9"}}

# train-recipes: the CLI recipes (lr, pos_weight) with only epochs cut so
# that one operation takes a few seconds
IFM_LR, IFM_POS_WEIGHT = 0.3, 5.0
DET_LR, DET_POS_WEIGHT = 0.08, "auto"


@dataclass(frozen=True)
class Size:
    """Input sizes; the defaults are the benchmark's, smaller ones are toys."""

    docs: int = 32          # run-desk / sweep-desk corpus (desk default)
    ifm_docs: int = 48      # `docprune train-ifm` default corpus
    det_docs: int = 16      # `docprune train-detector` default corpus
    ifm_epochs: int = 60
    det_epochs: int = 15


@dataclass
class OpOutput:
    reports: list[RunReport] = field(default_factory=list)
    digest: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def report_problems(rep: RunReport, label: str = "") -> list[str]:
    """Invariants every report satisfies, whatever the seed or size."""
    out = []
    by_cat, total = rep.flops["by_category"], rep.flops["total"]
    if sum(by_cat.values()) != total:
        out.append(f"{label}flops.total {total} != category sum "
                   f"{sum(by_cat.values())}")
    docs = rep.per_doc
    if len(docs) != rep.corpus["n_docs"]:
        out.append(f"{label}{len(docs)} per_doc entries for "
                   f"{rep.corpus['n_docs']} docs")
    tok = rep.tokens
    if sum(d["kept_final"] for d in docs) != tok["post_encoder"]:
        out.append(f"{label}per_doc kept_final does not sum to post_encoder")
    if sum(d["kept_after_ifm"] for d in docs) != tok["post_ifm"]:
        out.append(f"{label}per_doc kept_after_ifm does not sum to post_ifm")
    if tok["final_sequence"] != tok["post_ifm"] + tok["instruction"]:
        out.append(f"{label}final_sequence != post_ifm + instruction")
    stub = rep.config["decoder_flops_per_token_sq"] * sum(
        d["sequence_len"] ** 2 for d in docs)
    if by_cat["decoder_stub"] != stub:
        out.append(f"{label}decoder_stub {by_cat['decoder_stub']} != {stub}")
    for st in rep.stages:
        if st["windows_computed"] + st["windows_bypassed"] != st["windows_total"]:
            out.append(f"{label}stage {st['stage']} window counts do not close")
    return out


class RunDesk:
    """`docprune run` on the desk profile, less process start and disk write."""

    name = "run-desk"

    def __init__(self, seed: int, size: Size = Size()):
        self.config = PipelineConfig(seed=seed, corpus_n=size.docs)

    def op(self):
        report = pipeline.run(self.config)
        return report, report.to_json()

    def inspect(self, result) -> OpOutput:
        report, text = result
        return OpOutput(reports=[report],
                        digest={"report_sha256": sha256(text)},
                        problems=report_problems(report))


class SweepDesk:
    """`docprune sweep` over the CLI's default grid, without writing files."""

    name = "sweep-desk"

    def __init__(self, seed: int, size: Size = Size()):
        self.config = PipelineConfig(seed=seed, corpus_n=size.docs)
        self.settings = _parse_grid(DEFAULT_GRID)

    def op(self):
        # raises RuntimeError when its own monotonicity check fails, which
        # the harness counts as a failed operation
        reports, _ = pipeline.sweep(self.config, self.settings)
        return reports

    def inspect(self, reports) -> OpOutput:
        out = OpOutput()
        if len(reports) != len(self.settings):
            out.problems.append(f"{len(reports)} reports for "
                                f"{len(self.settings)} settings")
        for (c, i), rep in zip(self.settings, reports):
            label = f"c{c:g}_i{i:g}"
            out.reports.append(rep)
            out.digest[f"{label}.report_sha256"] = sha256(rep.to_json())
            out.problems += report_problems(rep, f"{label}: ")
        return out


class TrainRecipes:
    """Both training recipes, epoch-scaled, from fresh seeded weights."""

    name = "train-recipes"

    def __init__(self, seed: int, size: Size = Size()):
        cfg = PipelineConfig(seed=seed, corpus_n=size.ifm_docs)
        corpus = make_corpus(cfg.corpus_n, cfg.content_fraction,
                             cfg.image_size, seed)
        models = pipeline.build_models(cfg)
        self.samples = pipeline.prepare_ifm_samples(cfg, corpus, models)
        self.ifm0 = models.ifm
        self.det_corpus = make_corpus(size.det_docs, cfg.content_fraction,
                                      cfg.image_size, seed)
        self.det0 = content_filter.mlp_detector(seed, cfg.patch_size)
        self.size = size

    def op(self):
        ifm = replace(self.ifm0, clf=self.ifm0.clf.copy())
        ifm, ifm_curve = instruction_filter.train_ifm(
            ifm, self.samples, self.size.ifm_epochs, IFM_LR,
            pos_weight=IFM_POS_WEIGHT)
        det = replace(self.det0, mlp=self.det0.mlp.copy())
        det, det_curve = content_filter.train_detector(
            det, self.det_corpus, self.size.det_epochs, DET_LR,
            pos_weight=DET_POS_WEIGHT)
        return ifm, ifm_curve, det, det_curve

    def inspect(self, result) -> OpOutput:
        ifm, ifm_curve, det, det_curve = result
        out = OpOutput(digest={
            "ifm.weights_sha256": _weights_sha256(ifm.clf),
            "ifm.final_loss": repr(ifm_curve[-1]),
            "detector.weights_sha256": _weights_sha256(det.mlp),
            "detector.final_loss": repr(det_curve[-1]),
        })
        for label, curve, epochs in (
                ("ifm", ifm_curve, self.size.ifm_epochs),
                ("detector", det_curve, self.size.det_epochs)):
            if len(curve) != epochs:
                out.problems.append(f"{label}: {len(curve)} losses recorded")
            if not all(math.isfinite(x) for x in curve.losses):
                out.problems.append(f"{label}: non-finite loss")
        return out


def _weights_sha256(mlp) -> str:
    h = hashlib.sha256()
    for a in (mlp.w1, mlp.b1, mlp.w2, mlp.b2):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (RunDesk, SweepDesk, TrainRecipes)}


def golden(name: str, seed: int, size: Size) -> dict[str, str]:
    return GOLDEN.get((name, seed, size.docs), {})
