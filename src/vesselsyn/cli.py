"""Command-line interface: compress, eval, compare and tune.

Exit codes: 0 on success, 2 for usage or configuration problems (bad flags,
missing or unreadable files, malformed config, an input header naming other
columns, unknown vessel type), 1 for runtime failures.  All numeric output
is written with fixed 6-decimal formatting so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .evaluation import Metrics, compute_metrics, evaluate_config
from .ga import GaHyperParams, cross_validate
from .ingest import HeaderError, VesselTrack, load_records, partition_tracks
from .noise import filter_dataset
from .presets import FITNESS_PRESETS
from .synopses import SynopsisConfig, compress_track, write_synopsis_csv


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _round6(value: float) -> float:
    return round(float(value), 6)


def _rounded(obj: SynopsisConfig | Metrics) -> dict:
    """``obj.to_dict()`` with its floats rounded to 6 decimals; ints stay ints."""
    return {
        key: _round6(value) if isinstance(value, float) else value
        for key, value in obj.to_dict().items()
    }


def _write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as strict JSON: a NaN or infinity raises before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _load_config(path: str | None) -> SynopsisConfig:
    if path is None:
        return SynopsisConfig()
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    try:
        return SynopsisConfig.from_dict(data)
    except ValueError as exc:
        raise CliError(f"config file {path}: {exc}")


def _check_out(path: str) -> None:
    """Exit 2, before any work is done, when ``--out`` or its nearest existing parent is not a directory."""
    existing = path
    while not os.path.exists(existing):
        existing = os.path.dirname(existing) or "."
    if not os.path.isdir(existing):
        raise CliError(f"--out {path}: {existing} is not a directory")


def _load_dataset(args: argparse.Namespace) -> tuple[list[VesselTrack], int, int]:
    """The clean tracks, the count of malformed rows and the count of reports the filter dropped."""
    if not os.path.exists(args.input):
        raise CliError(f"input file not found: {args.input}")
    if not os.path.isfile(args.input):
        raise CliError(f"input is not a regular file: {args.input}")
    try:
        records, issues = load_records(args.input)
    except HeaderError as exc:
        raise CliError(f"input {args.input}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read input file {args.input}: {exc}")
    if issues:
        print(f"note: rejected {len(issues)} malformed input rows", file=sys.stderr)
    tracks = partition_tracks(records)
    repeated = len(records) - sum(len(t.points) for t in tracks)
    if repeated:
        print(f"note: dropped {repeated} reports with a repeated timestamp", file=sys.stderr)
    clean, dropped = (tracks, 0) if args.no_noise_filter else filter_dataset(tracks)
    if dropped:
        print(f"note: noise filter dropped {dropped} reports", file=sys.stderr)
    if not clean:
        raise CliError("no usable reports in input", code=1)
    return clean, len(issues), dropped


def cmd_compress(args: argparse.Namespace) -> int:
    _check_out(args.out)
    cfg = _load_config(args.config)
    clean, rejected, dropped = _load_dataset(args)
    synopses = {t.mmsi: compress_track(t, cfg) for t in clean}
    metrics = compute_metrics(clean, synopses)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "synopsis.csv"), "w", encoding="utf-8") as fh:
        write_synopsis_csv((cp for mmsi in sorted(synopses) for cp in synopses[mmsi]), fh)
    _write_json(
        os.path.join(args.out, "metrics.json"),
        {
            "input": args.input,
            "config": _rounded(cfg),
            **_rounded(metrics),
            "rows_rejected_parse": rejected,
            "reports_rejected_filter": dropped,
        },
    )
    print(
        f"compressed {metrics.noiseless_count} reports to {metrics.critical_count} critical points "
        f"(ratio {metrics.ratio:.6f}, rmse {metrics.rmse_m:.6f} m)"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    clean, _, _ = _load_dataset(args)
    metrics = evaluate_config(clean, cfg)
    print(json.dumps({"config": _rounded(cfg), **_rounded(metrics)}, indent=2, sort_keys=True))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _check_out(args.out)
    cfg_a = _load_config(args.config_a)
    cfg_b = _load_config(args.config_b)
    clean, _, _ = _load_dataset(args)
    metrics_a = evaluate_config(clean, cfg_a)
    metrics_b = evaluate_config(clean, cfg_b)
    os.makedirs(args.out, exist_ok=True)
    _write_json(
        os.path.join(args.out, "comparison.json"),
        {
            "input": args.input,
            "a": {"config": _rounded(cfg_a), **_rounded(metrics_a)},
            "b": {"config": _rounded(cfg_b), **_rounded(metrics_b)},
        },
    )
    with open(os.path.join(args.out, "plot.csv"), "w", encoding="utf-8") as fh:
        fh.write("config,metric,value\n")
        for label, metrics in (("a", metrics_a), ("b", metrics_b)):
            fh.write(f"{label},rmse_m,{metrics.rmse_m:.6f}\n")
            fh.write(f"{label},ratio,{metrics.ratio:.6f}\n")
    print(
        f"a: rmse {metrics_a.rmse_m:.6f} m ratio {metrics_a.ratio:.6f} | "
        f"b: rmse {metrics_b.rmse_m:.6f} m ratio {metrics_b.ratio:.6f}"
    )
    return 0


def _resolve_scoring(args: argparse.Namespace) -> tuple[str | None, float, float]:
    """``(None, r, n)`` from ``--r``/``--n`` when given, else the ``--type`` preset's."""
    if args.r is not None or args.n is not None:
        if args.r is None or args.n is None:
            raise CliError("--r and --n must be given together")
        return None, args.r, args.n
    preset = FITNESS_PRESETS.get(args.type)
    if preset is None:
        known = ", ".join(sorted(FITNESS_PRESETS))
        raise CliError(
            f"no scoring preset for vessel type {args.type!r} (known: {known}); "
            "give --r and --n explicitly"
        )
    return args.type, preset.r, preset.n


#: The ``tune`` flag that sets each range-checked :class:`GaHyperParams` field.
_TUNE_FLAGS = {
    "r": "--r",
    "n": "--n",
    "population_size": "--population",
    "max_generations": "--generations",
    "stagnation_limit": "--stagnation",
    "rng_seed": "--seed",
}


def cmd_tune(args: argparse.Namespace) -> int:
    _check_out(args.out)
    preset_name, r, n = _resolve_scoring(args)
    try:
        hp = GaHyperParams(
            r=r,
            n=n,
            population_size=args.population,
            max_generations=args.generations,
            stagnation_limit=args.stagnation,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        field = str(exc).split()[0]
        raise CliError(f"{_TUNE_FLAGS[field]}: {exc}")
    if args.k < 2:
        raise CliError(f"--k: need at least 2 folds, got {args.k}")
    clean, _, _ = _load_dataset(args)
    selected = [t for t in clean if t.vessel_type == args.type]
    if not selected:
        available = ", ".join(sorted({t.vessel_type for t in clean})) or "none"
        raise CliError(f"no tracks of vessel type {args.type!r} in input (available: {available})")
    try:
        result = cross_validate(selected, args.k, hp)
    except ValueError as exc:
        raise CliError(str(exc))

    os.makedirs(args.out, exist_ok=True)
    _write_json(
        os.path.join(args.out, "manifest.json"),
        {
            "command": "tune",
            "input": args.input,
            "vessel_type": args.type,
            "preset": preset_name,
            "r": _round6(r),
            "n": _round6(n),
            "k": args.k,
            "seed": args.seed,
            "population_size": args.population,
            "max_generations": args.generations,
            "stagnation_limit": args.stagnation,
            "noise_filter": not args.no_noise_filter,
            "out": args.out,
        },
    )
    fold_scores = []
    for fold in result.folds:
        scores = {
            "fold": fold.index,
            "test_score": _round6(fold.test_score),
            "test_rmse_m": _round6(fold.test_metrics.rmse_m),
            "test_ratio": _round6(fold.test_metrics.ratio),
        }
        fold_scores.append(scores)
        fold_dir = os.path.join(args.out, f"fold_{fold.index}")
        os.makedirs(fold_dir, exist_ok=True)
        _write_json(os.path.join(fold_dir, "best_config.json"), _rounded(fold.config))
        _write_json(
            os.path.join(fold_dir, "report.json"),
            {
                **scores,
                "train_mmsis": sorted(fold.train_mmsis),
                "test_mmsis": sorted(fold.test_mmsis),
                "train_fitness": _round6(fold.train_fitness),
            },
        )
        with open(os.path.join(fold_dir, "history.csv"), "w", encoding="utf-8") as fh:
            fh.write("generation,best_fitness,mean_fitness,best_rmse,best_ratio\n")
            for row in fold.history:
                fh.write(
                    f"{row.generation},{row.best_fitness:.6f},{row.mean_fitness:.6f},"
                    f"{row.best_rmse:.6f},{row.best_ratio:.6f}\n"
                )
    _write_json(
        os.path.join(args.out, "summary.json"),
        {
            "chosen_fold": result.chosen_index,
            "config": _rounded(result.chosen.config),
            "folds": fold_scores,
        },
    )
    chosen = result.chosen
    print(
        f"tuned {args.type} over {args.k} folds: fold {chosen.index} wins "
        f"(test score {chosen.test_score:.6f}, rmse {chosen.test_metrics.rmse_m:.6f} m, "
        f"ratio {chosen.test_metrics.ratio:.6f})"
    )
    return 0


def _add_common_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="delimited AIS input file")
    parser.add_argument(
        "--no-noise-filter", action="store_true", help="skip implausible-report rejection"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vesselsyn",
        description="Compress vessel position streams into annotated critical points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="write the synopsis and its quality metrics")
    _add_common_io(p)
    p.add_argument("--config", help="JSON detection config (defaults when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("eval", help="print quality metrics for a config")
    _add_common_io(p)
    p.add_argument("--config", help="JSON detection config (defaults when omitted)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="evaluate two configs on the same data")
    _add_common_io(p)
    p.add_argument("--config-a", required=True, help="first JSON detection config")
    p.add_argument("--config-b", required=True, help="second JSON detection config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("tune", help="evolve a config for one vessel type with k-fold validation")
    _add_common_io(p)
    p.add_argument("--type", type=str.lower, required=True, help="vessel type to tune for (any case)")
    p.add_argument("--r", type=float, help="scoring offset in metres")
    p.add_argument("--n", type=float, help="scoring exponent")
    p.add_argument("--k", type=int, default=6, help="number of folds (default 6)")
    defaults = GaHyperParams()
    p.add_argument("--seed", type=int, default=defaults.rng_seed, help="random seed (default %(default)s)")
    p.add_argument("--population", type=int, default=defaults.population_size, help="GA population size")
    p.add_argument("--generations", type=int, default=defaults.max_generations, help="GA generation count")
    p.add_argument("--stagnation", type=int, default=defaults.stagnation_limit, help="early-stop patience")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
