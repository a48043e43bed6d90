"""Command line entry points: gen, train-detector, train-ifm, run, sweep, render.

Configuration comes from a JSON file (keys mirror PipelineConfig), with
profile defaults underneath and command line flags on top. The seed
resolves in order: --seed flag, config file, HRVDA_SEED environment
variable, then 0.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .content_filter import (evaluate_detector, mlp_detector, save_detector,
                             train_detector)
from .instruction_filter import evaluate_ifm, save_ifm, train_ifm
from .pipeline import (ConfigError, PipelineConfig, build_models,
                       prepare_ifm_samples, render_masks, run, summary_row,
                       sweep, write_report, write_summary_csv)
from .synthdoc import make_corpus, mean_content_fraction, save_corpus

DEFAULT_GRID = "0.25:0.25,0.25:0.5,0.5:0.25,0.5:0.5"


def _resolve_seed(flag_seed: int | None, file_cfg: dict) -> int:
    if flag_seed is not None:
        return flag_seed
    if "seed" in file_cfg:
        return file_cfg["seed"]     # PipelineConfig checks its type
    env = os.environ.get("HRVDA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"HRVDA_SEED is not an integer: {env!r}")
    return 0


def _count(text: str) -> int:
    """argparse type of --n and --epochs: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _load_config(args) -> PipelineConfig:
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    profile = getattr(args, "profile", None) or file_cfg.get("profile", "desk")
    # from_dict rejects an unknown profile
    base = asdict(PipelineConfig.paper_scale() if profile == "paper-scale"
                  else PipelineConfig())
    base.update(file_cfg)
    base["profile"] = profile
    base["seed"] = _resolve_seed(getattr(args, "seed", None), file_cfg)
    try:
        return PipelineConfig.from_dict(base)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e))


def _cmd_gen(args) -> int:
    docs = make_corpus(args.n, args.fraction, args.size,
                       _resolve_seed(args.seed, {}))
    out = save_corpus(docs, args.out)
    print(f"wrote {len(docs)} documents to {out} "
          f"(mean content fraction {mean_content_fraction(docs):.3f})")
    return 0


def _cmd_train_detector(args) -> int:
    seed = _resolve_seed(args.seed, {})
    corpus = make_corpus(args.n, args.fraction, args.size, seed)
    model = mlp_detector(seed, args.patch)
    model, curve = train_detector(model, corpus, args.epochs, args.lr)
    save_detector(args.out, model)
    stats = evaluate_detector(model, corpus, threshold=0.25)
    print(f"trained detector on {args.n} docs for {args.epochs} epochs: "
          f"loss {curve[0]:.4f} -> {curve[-1]:.4f}, "
          f"train recall@0.25 {stats['recall']:.4f}; weights at {args.out}")
    return 0


def _cmd_train_ifm(args) -> int:
    config = _load_config(args)
    if args.n is not None:
        config = replace(config, corpus_n=args.n)
    corpus = make_corpus(config.corpus_n, config.content_fraction,
                         config.image_size, config.seed)
    models = build_models(config)
    samples = prepare_ifm_samples(config, corpus, models)
    _, curve = train_ifm(models.ifm, samples, args.epochs, args.lr,
                         pos_weight=args.pos_weight)
    save_ifm(args.out, models.ifm)
    stats = evaluate_ifm(models.ifm, samples, eps=0.5)
    print(f"trained IFM on {len(samples)} docs for {args.epochs} epochs: "
          f"loss {curve[0]:.4f} -> {curve[-1]:.4f}, "
          f"train recall@0.5 {stats['recall']:.4f}; weights at {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    report = run(config)
    path = write_report(report, args.out)
    if args.format == "csv":
        write_summary_csv([summary_row(report)],
                          Path(args.out) / "summary.csv")
    print(f"report at {path}: tokens {report.tokens['initial']} -> "
          f"{report.tokens['post_encoder']} -> {report.tokens['post_ifm']}, "
          f"total FLOPs {report.flops['total']}, "
          f"context_fit {report.context['fit']}")
    return 0


def _parse_grid(text: str) -> list[tuple[float, float]]:
    settings = []
    for part in text.split(","):
        try:
            c, i = part.split(":")
            settings.append((float(c), float(i)))
        except ValueError:
            raise ConfigError(
                f"bad grid entry {part!r}; expected eps_c:eps_i pairs "
                "like 0.25:0.5")
    return settings


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    settings = _parse_grid(args.grid)
    reports, rows = sweep(config, settings, out_dir=args.out)
    print(f"swept {len(rows)} settings; summary at "
          f"{Path(args.out) / 'summary.csv'}")
    for r in rows:
        print(f"  eps_c={r['eps_c']:g} eps_i={r['eps_i']:g} "
              f"total_flops={r['total_flops']} post_ifm={r['post_ifm']}")
    return 0


def _cmd_render(args) -> int:
    try:
        rep = json.loads(Path(args.report).read_text())
    except FileNotFoundError:
        raise ConfigError(f"report not found: {args.report}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"report is not valid JSON: {e}")
    n_docs = len(rep["per_doc"])
    if args.doc is not None and not 0 <= args.doc < n_docs:
        raise ConfigError(f"--doc {args.doc} is not a document of the "
                          f"report, which has {n_docs} (0 to {n_docs - 1})")
    written = render_masks(rep, args.out, doc_index=args.doc)
    print(f"wrote {len(written)} masks to {args.out}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (keys mirror PipelineConfig)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--profile", choices=["desk", "paper-scale"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docprune",
        description="Content- and instruction-driven visual token pruning "
                    "benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic document corpus")
    p.add_argument("--n", type=_count, default=32)
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="corpus")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train-detector", help="train the MLP content detector")
    p.add_argument("--n", type=_count, default=16)
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--patch", type=int, default=4)
    p.add_argument("--epochs", type=_count, default=250)
    p.add_argument("--lr", type=float, default=0.08)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="detector.hrvd")
    p.set_defaults(func=_cmd_train_detector)

    p = sub.add_parser("train-ifm", help="train the instruction filter classifier")
    _add_config_flags(p)
    p.add_argument("--n", type=_count, default=48, help="override corpus size")
    p.add_argument("--epochs", type=_count, default=3000)
    p.add_argument("--lr", type=float, default=0.3)
    p.add_argument("--pos-weight", type=float, default=5.0,
                   help="loss weight on relevant tokens; biases toward recall")
    p.add_argument("--out", default="ifm.hrvd")
    p.set_defaults(func=_cmd_train_ifm)

    p = sub.add_parser("run", help="run the pipeline and write a report")
    _add_config_flags(p)
    p.add_argument("--out", default="out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a threshold sweep with a CSV summary")
    _add_config_flags(p)
    p.add_argument("--grid", default=DEFAULT_GRID,
                   help="comma-separated eps_c:eps_i pairs")
    p.add_argument("--out", default="sweep")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("render", help="render kept-token masks from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default="masks")
    p.add_argument("--doc", type=int, default=None,
                   help="render a single document (default: all)")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything past config checks is a runtime failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
