"""Benchmark of vesselsyn: batch compression, k-fold tuning and an online feed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compress_batch --seed 1 --seconds 35 --trace 0

Workloads (the metric contract lives in ``BENCHMARK.json``):

* ``compress_batch``: ``vesselsyn compress`` on a CSV written from
  ``make_fleet(40_000, 8, seed)``.  Parsing and the detector share the
  time; the job scores exactly one configuration.
* ``tune_kfold``: ``vesselsyn tune --type fishing --k 3`` with a population
  of 16 for 8 generations on ``make_fleet(3_000, 36, seed)`` (6 fishing
  vessels, 500 reports): about 430 individuals scored, hundreds of detector
  passes over the same tracks.  The detector dominates.
* ``stream_interleaved``: ``make_fleet(40_000, 80, seed)``, noise-filtered
  at set-up and merged into one time-ordered feed.  One ``VesselState`` per
  MMSI, every report fed through ``ingest_point`` by a single closed-loop
  caller, then ``finalize_track``.  No parsing and no metrics.

Each job runs in a fresh interpreter (``child.py``), one at a time, on the
one CPU the runner is pinned to.  The first job of a run warms up and is only
checked; then jobs run until ``--seconds`` have passed.  Jobs are short (well
under two seconds) so that a run holds many of them.  Every job's output is
checked against a reference computed here from the same fleet, and on the
default seed also against the SHA-256 digests pinned in
``reference_sha256.json``.  A job that fails a check counts in ``failed``.

Timings are CPU times scaled to a reference speed.  A shared host's CPU speed
drifts by up to 2x within seconds, so right before and right after each job
the runner times a fixed kernel (``calibrate.py``) and multiplies the job's
CPU times by ``calibrate.REFERENCE_S`` over the kernel's mean time.  The
figures are thus seconds on a host that runs the kernel in
``REFERENCE_S``; raw wall and CPU times are in the detail line.

End-to-end metrics (``--trace 0``), each the median over the run's jobs:

* ``job_s``: one job, from the program's entry point to its last output.
* ``reports_per_s``: input reports over ``job_s``.
* ``evals_per_s``: configurations scored over ``job_s``: GA individuals
  (memo hits included) plus one test score per fold on ``tune_kfold``; the
  single configuration run on the other two.
* ``report_latency_p50_us``: on ``stream_interleaved``, the nearest-rank
  median of one job's ``ingest_point`` calls, each timed with the routing to
  its vessel state.  A batch job emits every result when it ends, so there
  each report's latency is ``job_s``.  The p99 of the stream is in the
  detail line but not gated: it moves with the seed's fleet by about a third.
* ``peak_rss_mb``: the job process's peak resident set.
* ``setup_s``: importing ``vesselsyn.cli`` in a fresh interpreter, the
  start-up the program pays before it reads its first report; at least
  seven processes.

``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of the fastest traced one (see ``tracer.py``), in raw wall seconds;
``trace.overhead_s`` is its wall time minus the fastest untraced job's.
``ga.cache_hit_ratio`` is memo hits over GA individuals scored in training,
where a hit is an individual scored without a call to ``evaluate_config``.
The ``geo`` counts are per report fed to the detector.  The spans of the last
traced job are written to ``.perfbench_out/``.

``--workload all`` runs every workload in turn and ends with one line holding
all their metrics under ``<workload>.<metric>``.  ``--smoke`` runs each job
once on tiny inputs, for the benchmark's own test.
The last line of standard output is the JSON result; the line before it
holds the environment, input sizes and per-job figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 60
MIN_SETUP_SAMPLES = 7

# (total reports, vessels) per workload; tune adds (k, population, generations).
SIZES = {
    "full": {
        "compress_batch": (40_000, 8),
        "tune_kfold": (3_000, 36, 3, 16, 8),
        "stream_interleaved": (40_000, 80),
    },
    "smoke": {
        "compress_batch": (2_000, 4),
        "tune_kfold": (1_800, 18, 3, 4, 2),
        "stream_interleaved": (2_000, 20),
    },
}

if not (SRC / "vesselsyn" / "__init__.py").is_file():
    print(f"perfbench: no vesselsyn sources under {SRC}; run from the root of a checkout", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402

from vesselsyn.evaluation import compute_metrics, evaluate_config  # noqa: E402
from vesselsyn.ga import fitness  # noqa: E402
from vesselsyn.ingest import split_k_folds, write_records  # noqa: E402
from vesselsyn.noise import filter_dataset  # noqa: E402
from vesselsyn.presets import FITNESS_PRESETS  # noqa: E402
from vesselsyn.synopses import SynopsisConfig, compress_track, write_synopsis_csv  # noqa: E402
from vesselsyn.synthetic import make_fleet  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reference_synopses(tracks) -> tuple[dict, str]:
    """Synopses of ``tracks`` under the default config, and the SHA-256 of
    the synopsis CSV that ``vesselsyn compress`` writes from them."""
    cfg = SynopsisConfig()
    synopses = {track.mmsi: compress_track(track, cfg) for track in tracks}
    buf = io.StringIO()
    write_synopsis_csv([cp for mmsi in sorted(synopses) for cp in synopses[mmsi]], buf)
    return synopses, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _write_fleet_csv(fleet, path: Path) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        write_records((rec for track in fleet for rec in track.points), fh)
    return sum(len(track.points) for track in fleet)


@dataclass
class Workload:
    """Inputs written to ``workdir`` plus what a correct job produces there."""

    name: str
    argv: list[str] | None
    reports: int
    input_size: dict
    check: Callable[[Path], list[str]]
    # GA individuals scored in training (memo hits included), and the
    # configurations scored in all: those plus one test score per fold.
    individuals_per_job: Callable[[Path], int] = lambda _out: 0
    tests_per_job: int = 1
    outputs: list[str] = field(default_factory=list)


def _compress_batch(workdir: Path, seed: int, sizes: tuple) -> Workload:
    total, vessels = sizes
    fleet = make_fleet(total, vessels, seed=seed)
    reports = _write_fleet_csv(fleet, workdir / "fleet.csv")
    clean, dropped = filter_dataset(fleet)
    synopses, expected_synopsis = _reference_synopses(clean)
    expected_metrics = compute_metrics(clean, synopses)

    def check(out: Path) -> list[str]:
        errors = []
        if _sha256(out / "synopsis.csv") != expected_synopsis:
            errors.append("synopsis.csv differs from the in-process reference")
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        wanted = {
            "rmse_m": round(expected_metrics.rmse_m, 6),
            "ratio": round(expected_metrics.ratio, 6),
            "noiseless_count": expected_metrics.noiseless_count,
            "critical_count": expected_metrics.critical_count,
            "reports_rejected_filter": dropped,
            "rows_rejected_parse": 0,
        }
        for key, value in wanted.items():
            if metrics.get(key) != value:
                errors.append(f"metrics.json {key}={metrics.get(key)!r}, reference {value!r}")
        return errors

    return Workload(
        "compress_batch",
        ["compress", "--input", "../fleet.csv", "--out", "out"],
        reports,
        {"reports": reports, "vessels": vessels, "csv_bytes": (workdir / "fleet.csv").stat().st_size},
        check,
        outputs=["synopsis.csv", "metrics.json"],
    )


def _tune_kfold(workdir: Path, seed: int, sizes: tuple) -> Workload:
    total, vessels, k, population, generations = sizes
    fleet = make_fleet(total, vessels, seed=seed)
    reports = _write_fleet_csv(fleet, workdir / "fleet.csv")
    clean, _ = filter_dataset(fleet)
    fishing = [t for t in clean if t.vessel_type == "fishing"]
    folds = split_k_folds(fishing, k)
    preset = FITNESS_PRESETS["fishing"]

    def check(out: Path) -> list[str]:
        errors = []
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        for key, value in {"k": k, "population_size": population, "max_generations": generations}.items():
            if manifest.get(key) != value:
                errors.append(f"manifest.json {key}={manifest.get(key)!r}, expected {value!r}")
        scores = []
        for i, test in enumerate(folds):
            fold_dir = out / f"fold_{i}"
            report = json.loads((fold_dir / "report.json").read_text(encoding="utf-8"))
            if report["test_mmsis"] != sorted(t.mmsi for t in test):
                errors.append(f"fold {i}: test vessels differ from split_k_folds")
            best = json.loads((fold_dir / "best_config.json").read_text(encoding="utf-8"))
            metrics = evaluate_config(test, SynopsisConfig.from_dict(best))
            score = fitness(metrics, preset.r, preset.n)
            got = (report["test_rmse_m"], report["test_ratio"], report["test_score"])
            want = (round(metrics.rmse_m, 6), round(metrics.ratio, 6), round(score, 6))
            if got != want:
                errors.append(f"fold {i}: test (rmse, ratio, score) {got}, re-evaluated {want}")
            rows = (fold_dir / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
            if not 1 <= len(rows) <= generations + 1:
                errors.append(f"fold {i}: {len(rows)} history rows")
            scores.append(report["test_score"])
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if summary["chosen_fold"] != scores.index(min(scores)):
            errors.append(f"summary.json chose fold {summary['chosen_fold']}, lowest test score is fold {scores.index(min(scores))}")
        return errors

    def individuals_per_job(out: Path) -> int:
        """Population times the history rows (generation 0 included) of every fold."""
        rows = sum(
            len((out / f"fold_{i}" / "history.csv").read_text(encoding="utf-8").splitlines()) - 1
            for i in range(k)
        )
        return population * rows

    outputs = ["manifest.json", "summary.json"] + [
        f"fold_{i}/{name}" for i in range(k) for name in ("best_config.json", "report.json", "history.csv")
    ]
    argv = [
        "tune", "--input", "../fleet.csv", "--type", "fishing", "--k", str(k),
        "--population", str(population), "--generations", str(generations),
        "--seed", "0", "--out", "out",
    ]
    input_size = {
        "reports": reports,
        "vessels": vessels,
        "fishing_vessels": len(fishing),
        "fishing_reports": sum(len(t.points) for t in fishing),
        "k": k,
        "population": population,
        "generations": generations,
    }
    return Workload("tune_kfold", argv, reports, input_size, check, individuals_per_job, k, outputs)


def _stream_interleaved(workdir: Path, seed: int, sizes: tuple) -> Workload:
    total, vessels = sizes
    clean, _ = filter_dataset(make_fleet(total, vessels, seed=seed))
    feed = sorted((rec for track in clean for rec in track.points), key=lambda r: (r.timestamp, r.mmsi))
    with open(workdir / "feed.pickle", "wb") as fh:
        pickle.dump([(r.mmsi, r.timestamp, r.lon, r.lat, r.vessel_type) for r in feed], fh)
    _, expected = _reference_synopses(clean)

    def check(out: Path) -> list[str]:
        if _sha256(out / "synopsis.csv") != expected:
            return ["merged emissions differ from compress_track on the same tracks"]
        return []

    return Workload(
        "stream_interleaved",
        None,
        len(feed),
        {"reports": len(feed), "vessels": len(clean)},
        check,
        outputs=["synopsis.csv"],
    )


WORKLOADS = {
    "compress_batch": _compress_batch,
    "tune_kfold": _tune_kfold,
    "stream_interleaved": _stream_interleaved,
}


def _run_child(workdir: Path, workload: str | None, argv, trace: bool) -> tuple[dict | None, str]:
    """Run one job in a fresh interpreter; returns its result or an error."""
    job_dir = workdir / "job"
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir()
    spec = {
        "src": str(SRC),
        "workdir": str(job_dir),
        "workload": workload,
        "argv": argv,
        "trace": trace,
    }
    (job_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_dir / "spec.json")],
            cwd=str(ROOT),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
            text=True,
        )
    except subprocess.TimeoutExpired:
        return None, f"job timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"job exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads((job_dir / "result.json").read_text(encoding="utf-8"))
    result["dir"] = job_dir
    return result, ""


def _run_calibrated(workdir: Path, workload: str | None, argv, trace: bool) -> tuple[dict | None, str]:
    """``_run_child`` between two passes of the yardstick; the result's
    ``scale`` turns its CPU times into seconds at the reference speed."""
    before = calibrate.kernel()
    result, error = _run_child(workdir, workload, argv, trace)
    after = calibrate.kernel()
    if result is not None:
        result["scale"] = calibrate.REFERENCE_S / ((before + after) / 2)
    return result, error


def _pin_to_current_cpu() -> None:
    """Keep the runner, the yardstick and every job on one CPU, so that the
    yardstick sees the speed the job sees."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


NPROC = len(os.sched_getaffinity(0))


def _environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": NPROC,
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the detail record."""
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _measure(workdir, name, seed, seconds, trace, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workdir: Path, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    pinned = None
    if not smoke and seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "reference_sha256.json").read_text(encoding="utf-8"))[name]
    wl = WORKLOADS[name](workdir, seed, SIZES["smoke" if smoke else "full"][name])
    # Hand the set-up's memory back before the jobs need it.
    gc.collect()

    jobs: list[dict] = []
    errors: list[str] = []
    setups: list[float] = []
    digests: dict[str, str] | None = None
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        # Outside smoke mode the first job warms up (page cache, fresh memory
        # pages) and is only checked; measured jobs alternate when tracing.
        index = attempted - (0 if smoke else 1)
        traced = trace and index % 2 == 1
        attempted += 1
        started = time.perf_counter()
        result, error = _run_calibrated(workdir, name, wl.argv, traced)
        if result is None:
            errors.append(error)
            failed += 1
        else:
            out = result.pop("dir") / "out"
            job_errors = wl.check(out)
            got = {path: _sha256(out / path) for path in wl.outputs}
            digests = digests or got
            if got != digests:
                job_errors.append("outputs differ from the run's first job")
            if pinned is not None and got != pinned:
                job_errors.append(f"outputs differ from the pinned digests: {got}")
            individuals = wl.individuals_per_job(out)
            result["evals"] = individuals + wl.tests_per_job
            if traced:
                layers = result["layers"]
                # Base: individuals scored in training; a memo hit is one
                # scored without a call to evaluate_config.
                hits = individuals - layers.pop("ga.training_evals")
                layers["ga.individuals_scored"] = individuals
                layers["ga.cache_hit_ratio"] = hits / individuals if individuals else 0.0
            result["traced"] = traced
            result["warmup"] = index < 0
            result["duration_s"] = time.perf_counter() - started
            if job_errors:
                errors.extend(job_errors)
                failed += 1
            jobs.append(result)
            setups.append(result["setup_cpu_s"] * result["scale"])
            if traced:
                shutil.copyfile(out.parent / "spans.json", OUT / f"spans-{name}-{seed}.json")
        if smoke and attempted == (2 if trace else 1):
            break
        elapsed = time.perf_counter() - began
        expected_next = statistics.median(j["duration_s"] for j in jobs) if jobs else 0.0
        enough = len({j["traced"] for j in jobs if not j["warmup"]}) == (2 if trace else 1)
        # Keep going past --seconds only until one measured job (and, when
        # tracing, one traced job) has completed; failing jobs stop the run.
        if (enough or failed) and elapsed + expected_next > seconds:
            break
    while not smoke and not trace and jobs and len(setups) < MIN_SETUP_SAMPLES:
        result, error = _run_calibrated(workdir, None, None, False)
        if result is None:
            errors.append(error)
            break
        setups.append(result["setup_cpu_s"] * result["scale"])

    plain = [j for j in jobs if not j["traced"] and not j["warmup"]]
    detail = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "env": _environment(seed),
        "input": wl.input_size,
        "jobs": len(jobs),
        "job_wall_s": [round(j["wall_s"], 6) for j in jobs],
        "job_cpu_s": [round(j["cpu_s"], 6) for j in jobs],
        "job_scale": [round(j["scale"], 4) for j in jobs],
        "setup_samples": len(setups),
        "errors": errors[:20],
        "output_sha256": digests,
    }
    traced_layers = [j["layers"] for j in jobs if j["traced"]]
    if not plain or trace and not traced_layers:
        return {}, detail
    if trace:
        # The fastest traced job, so that its layer times add up to its wall.
        values = min(traced_layers, key=lambda t: t["trace.wall_s"])
        values["trace.overhead_s"] = values["trace.wall_s"] - min(j["wall_s"] for j in plain)
    else:
        values = _end_to_end(wl, plain, setups, detail)
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, detail


def _end_to_end(wl: Workload, jobs: list[dict], setups: list[float], detail: dict) -> dict:
    """Medians over the run's measured jobs, each job's times scaled to the
    reference speed by the yardstick passes around it."""
    job_s = [j["cpu_s"] * j["scale"] for j in jobs]
    if wl.name == "stream_interleaved":
        p50 = statistics.median(j["latency_us"]["50"] * j["scale"] for j in jobs)
        # Recorded, not gated: the tail moves with the seed's fleet.
        detail["latency_p99_us"] = statistics.median(j["latency_us"]["99"] * j["scale"] for j in jobs)
        detail["latency_us_per_job"] = [j["latency_us"] for j in jobs]
        detail["latency_samples_per_job"] = jobs[0]["latency_samples"]
    else:
        # A batch job emits every result when it ends: each report's
        # latency is the job's time.
        p50 = statistics.median(job_s) * 1e6
        detail["latency_samples_per_job"] = wl.reports
    return {
        "job_s": statistics.median(job_s),
        "reports_per_s": statistics.median(wl.reports / s for s in job_s),
        "evals_per_s": statistics.median(j["evals"] / s for j, s in zip(jobs, job_s)),
        "report_latency_p50_us": p50,
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        "setup_s": statistics.median(setups),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0, help="how long to keep starting jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one job each")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    _pin_to_current_cpu()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, detail = measure(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        record = {"detail": detail, "result": result}
        suffix = f"{name}-{args.seed}-trace{args.trace}"
        (OUT / f"result-{suffix}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(json.dumps(detail, sort_keys=True))
        if not result:
            print(f"perfbench: {name}: no job completed: {detail['errors']}", file=sys.stderr)
            return 1
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    # One line per workload, then all of them under workload-prefixed names.
    for name, result in results.items():
        print(json.dumps({"workload": name, **result}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
