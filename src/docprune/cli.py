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
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .content_filter import (evaluate_detector, mlp_detector, save_detector,
                             train_detector)
from .instruction_filter import VOCAB_SIZE, evaluate_ifm, save_ifm, train_ifm
from .pipeline import (PROFILES, ConfigError, PipelineConfig, build_models,
                       prepare_ifm_samples, render_masks, run, summary_row,
                       sweep, write_report, write_summary_csv)
from .synthdoc import make_corpus, save_corpus

DEFAULT_GRID = "0.25:0.25,0.25:0.5,0.5:0.25,0.5:0.5"
# peak bytes a pixel of making one page (synthdoc.corpus_doc, tracemalloc)
_PAGE_BYTES_PER_PIXEL = 32
# the config fields that size the weights build_models makes
_WEIGHT_FIELDS = ("patch_size", "d0", "depths", "ffn_ratio", "proj_hidden",
                  "llm_dim")


def _weight_bytes(patch_size: int, d0: int, depths: tuple[int, ...],
                  ffn_ratio: int, proj_hidden: int, llm_dim: int) -> int:
    """Bytes of the float64 weights build_models makes for these config
    fields: the patch embed, the encoder's blocks and merges, the projector
    and the IFM. The detector's are not sized by the config: the oracle
    has none, and an mlp detector's come from its file."""
    def block(d):       # encoder.block_init
        return (4 + 2 * ffn_ratio) * d * d + (9 + ffn_ratio) * d

    def mlp(n_in, hidden, n_out):     # tensor.mlp2_init
        return (n_in + 1) * hidden + (hidden + 1) * n_out

    widths = [d0 << s for s in range(len(depths))]
    n = (patch_size ** 2 + 1) * d0
    n += sum(depth * block(d) for depth, d in zip(depths, widths))
    n += sum(8 * d * d + 2 * d for d in widths[:-1])    # 4d -> 2d merges
    n += mlp(widths[-1], proj_hidden, llm_dim)
    n += VOCAB_SIZE * llm_dim + block(llm_dim) + mlp(llm_dim, 4 * llm_dim, 1)
    return 8 * n


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


def _positive(text: str) -> float:
    """argparse type of --lr and --pos-weight: a finite float above 0."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    if x <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return x


def _out(text: str, is_dir: bool) -> str:
    """text, when a directory (is_dir) or a file can be made there: it does
    not name an existing entry of the other kind, and its nearest existing
    ancestor is a directory. Missing directories above it are made when
    the output is written."""
    path = Path(text)
    if path.exists() and path.is_dir() != is_dir:
        raise argparse.ArgumentTypeError(
            f"{text} is a directory, not a file" if path.is_dir()
            else f"{text} is a file, not a directory")
    above = next(a for a in path.absolute().parents if a.exists())
    if not above.is_dir():
        raise argparse.ArgumentTypeError(
            f"{text} is under {above}, which is a file")
    return text


def _out_dir(text: str) -> str:
    """argparse type of --out when the command writes a directory."""
    return _out(text, is_dir=True)


def _out_file(text: str) -> str:
    """argparse type of --out when the command writes one file."""
    return _out(text, is_dir=False)


def _read_json(path: str, what: str):
    """The JSON value in the file at path, or a ConfigError that names
    what the file is and its path."""
    try:
        return json.loads(Path(path).read_bytes())
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {path}: {e}")
    # a directory, bytes that are not UTF-8, an integer past Python's
    # digit limit for int(), arrays nested past the recursion limit
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(f"{what} cannot be read: {path}: {e}")


def _load_config(args) -> PipelineConfig:
    file_cfg = _read_json(args.config, "config file") if args.config else {}
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    profile = args.profile or file_cfg.get("profile", "desk")
    # from_dict rejects an unknown profile
    base = asdict(PipelineConfig.paper_scale() if profile == "paper-scale"
                  else PipelineConfig())
    base.update(file_cfg)
    base["profile"] = profile
    base["seed"] = _resolve_seed(args.seed, file_cfg)
    config = PipelineConfig.from_dict(base)
    # this machine's bounds: kept out of PipelineConfig, so out of reports
    need = _PAGE_BYTES_PER_PIXEL * config.image_size ** 2
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ConfigError(f"config field 'image_size' {config.image_size} "
                          f"needs {need / 2**30:,.1f} GiB to make a page; "
                          f"memory is {memory / 2**30:,.1f} GiB")
    sizes = {name: getattr(config, name) for name in _WEIGHT_FIELDS}
    need = _weight_bytes(**sizes)
    if need > memory:
        # the field that adds the most bytes over its desk default
        desk = PipelineConfig()
        name = min(_WEIGHT_FIELDS, key=lambda f: _weight_bytes(
            **{**sizes, f: getattr(desk, f)}))
        raise ConfigError(f"config field {name!r} {sizes[name]} makes "
                          f"{need / 2**30:,.1f} GiB of model weights; "
                          f"memory is {memory / 2**30:,.1f} GiB")
    return config


def _corpus_config(args) -> PipelineConfig:
    """The config the flags describe, --n overriding its corpus_n."""
    config = _load_config(args)
    return config if args.n is None else replace(config, corpus_n=args.n)


def _config_and_corpus(args) -> tuple[PipelineConfig, list]:
    """_corpus_config and the corpus it describes."""
    config = _corpus_config(args)
    return config, make_corpus(config.corpus_n, config.content_fraction,
                               config.image_size, config.seed)


def _cmd_gen(args) -> int:
    config = _corpus_config(args)
    mean = save_corpus(config.corpus_n, config.content_fraction,
                       config.image_size, config.seed, args.out)
    print(f"wrote {config.corpus_n} documents to {Path(args.out)} "
          f"(mean content fraction {mean:.3f})")
    return 0


def _cmd_train_detector(args) -> int:
    config, corpus = _config_and_corpus(args)
    model = mlp_detector(config.seed, config.patch_size)
    model, curve = train_detector(model, corpus, args.epochs, args.lr)
    save_detector(args.out, model)
    eps = config.eps_c[0]
    stats = evaluate_detector(model, corpus, threshold=eps)
    print(f"trained detector on {len(corpus)} docs for {args.epochs} epochs: "
          f"loss {curve[0]:.4f} -> {curve[-1]:.4f}, "
          f"train recall@{eps:g} {stats['recall']:.4f}; weights at {args.out}")
    return 0


def _cmd_train_ifm(args) -> int:
    config, corpus = _config_and_corpus(args)
    models = build_models(config)
    samples = prepare_ifm_samples(config, corpus, models)
    _, curve = train_ifm(models.ifm, samples, args.epochs, args.lr,
                         pos_weight=args.pos_weight)
    save_ifm(args.out, models.ifm)
    eps = config.eps_i
    stats = evaluate_ifm(models.ifm, samples, eps=eps)
    print(f"trained IFM on {len(samples)} docs for {args.epochs} epochs: "
          f"loss {curve[0]:.4f} -> {curve[-1]:.4f}, "
          f"train recall@{eps:g} {stats['recall']:.4f}; weights at {args.out}")
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
    rep = _read_json(args.report, "report")
    try:
        written = render_masks(rep, args.out, doc_index=args.doc)
    except IndexError as e:     # it names the argument doc_index; name the flag
        raise ConfigError(str(e).replace("doc_index", "--doc", 1)) from e
    except ValueError as e:
        raise ConfigError(f"report {args.report}: {e}") from e
    print(f"wrote {len(written)} masks to {args.out}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (keys mirror PipelineConfig)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--profile", choices=PROFILES, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docprune",
        description="Content- and instruction-driven visual token pruning "
                    "benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic document corpus")
    _add_config_flags(p)
    p.add_argument("--n", type=_count, default=None,
                   help="override corpus size")
    p.add_argument("--out", type=_out_dir, default="corpus")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train-detector", help="train the MLP content detector")
    _add_config_flags(p)
    p.add_argument("--n", type=_count, default=16, help="override corpus size")
    p.add_argument("--epochs", type=_count, default=250)
    p.add_argument("--lr", type=_positive, default=0.08)
    p.add_argument("--out", type=_out_file, default="detector.hrvd")
    p.set_defaults(func=_cmd_train_detector)

    p = sub.add_parser("train-ifm", help="train the instruction filter classifier")
    _add_config_flags(p)
    p.add_argument("--n", type=_count, default=48, help="override corpus size")
    p.add_argument("--epochs", type=_count, default=3000)
    p.add_argument("--lr", type=_positive, default=0.3)
    p.add_argument("--pos-weight", type=_positive, default=5.0,
                   help="loss weight on relevant tokens; biases toward recall")
    p.add_argument("--out", type=_out_file, default="ifm.hrvd")
    p.set_defaults(func=_cmd_train_ifm)

    p = sub.add_parser("run", help="run the pipeline and write a report")
    _add_config_flags(p)
    p.add_argument("--out", type=_out_dir, default="out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a threshold sweep with a CSV summary")
    _add_config_flags(p)
    p.add_argument("--grid", default=DEFAULT_GRID,
                   help="comma-separated eps_c:eps_i pairs")
    p.add_argument("--out", type=_out_dir, default="sweep")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("render", help="render kept-token masks from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--out", type=_out_dir, default="masks")
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
