"""The README must match the code: its imports resolve, its figures and CLI flags are current."""

import argparse
import ast
import importlib
import re
import types
from pathlib import Path

import vesselsyn
from vesselsyn import ga, noise
from vesselsyn.cli import build_parser
from vesselsyn.evaluation import evaluate_config
from vesselsyn.synopses import SynopsisConfig
from vesselsyn.synthetic import make_fleet

README = Path(__file__).resolve().parent.parent / "README.md"

#: The quick-start and streaming names; everything else lives in a submodule.
ROOT_NAMES = {
    "SynopsisConfig",
    "load_records",
    "partition_tracks",
    "filter_dataset",
    "compress_track",
    "compute_metrics",
    "evaluate_config",
    "ingest_point",
    "finalize_track",
    "VesselState",
}


def readme_imports():
    """(module, name) for every ``from vesselsyn... import`` in the README's python blocks."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [
        (node.module, alias.name)
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "vesselsyn"
        for alias in node.names
    ]


def test_readme_imports_resolve():
    imports = readme_imports()
    assert imports, "no vesselsyn imports found in the README"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"README imports {name} from {module}"


def test_package_root_exports_exactly_the_documented_names():
    public = {
        name
        for name, value in vars(vesselsyn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == ROOT_NAMES


def test_readme_states_the_fixed_filter_and_operator_settings():
    text = " ".join(README.read_text(encoding="utf-8").split())

    def figure(pattern):
        match = re.search(pattern, text)
        assert match, f"README no longer states {pattern!r}"
        return float(match.group(1))

    assert figure(r"implies more than ([\d.]+) knots") == noise.MAX_SPEED_KNOTS
    assert figure(r"tournament selection \((\d+) contestants\)") == ga.TOURNAMENT_SIZE
    assert figure(r"crossover \(probability ([\d.]+) per parent pair\)") == ga.CROSSOVER_PROB
    assert figure(r"mutation \(probability ([\d.]+) per child") == ga.MUTATION_PROB
    assert figure(r"each gene then changes with probability ([\d.]+)") == ga.PER_GENE_PROB
    assert figure(r"σ = (\d+)% of its range") / 100 == ga.SIGMA_FRACTION


def test_readme_states_the_default_compression_of_the_synthetic_fleet():
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = re.search(
        r"`make_fleet\(([\d_]+), (\d+), seed=(\d+)\)` keeps ([\d.]+)% of its reports "
        r"\(([\d,]+) of ([\d,]+)\) at a reconstruction RMSE of ([\d.]+) m",
        text,
    )
    assert match, "README no longer states the default compression of the synthetic fleet"
    reports, vessels, seed, percent, kept, total, rmse = match.groups()
    tracks, _ = noise.filter_dataset(make_fleet(int(reports), int(vessels), seed=int(seed)))
    metrics = evaluate_config(tracks, SynopsisConfig())
    assert metrics.critical_count == int(kept.replace(",", ""))
    assert metrics.noiseless_count == int(total.replace(",", ""))
    assert f"{100 * metrics.ratio:.1f}" == percent
    assert f"{metrics.rmse_m:.1f}" == rmse


def test_readme_cli_section_names_exactly_the_accepted_flags():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command-line interface\n(.*?)^## ", text, re.S | re.M).group(1)
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    subcommands = next(
        action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    )
    accepted = {
        option
        for parser in subcommands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == accepted
