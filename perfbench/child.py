"""Run one benchmark job in a fresh interpreter and write its measurements.

Usage: ``python3 child.py SPEC_JSON`` where the spec names the workload, the
package source directory, the job's working directory (holding its inputs)
and whether to trace.  The job runs with that directory as the current
directory, so paths recorded in the program's output files stay relative and
byte-stable.  Results go to ``result.json`` in the same directory.

Every job gets its own process so that no job inherits the objects, heap
layout or warmed caches of an earlier one.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import time


def _percentile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])


def _timed(tracer, fn, *args):
    """``fn(*args)`` and its wall and CPU times, inside the root span when tracing."""
    start, cpu = time.perf_counter(), time.process_time()
    result = tracer.run_span("bench.job", fn, *args) if tracer else fn(*args)
    return result, time.perf_counter() - start, time.process_time() - cpu


def _stream(tracer, feed_path: str, out_path: str) -> dict:
    """Feed interleaved reports one at a time, one VesselState per MMSI.

    The caller is closed-loop: it hands over the next report only after the
    detector returned, as a feed consumer calling the detector inline does.
    """
    import vesselsyn.synopses as synopses
    from vesselsyn.ingest import AisRecord

    with open(feed_path, "rb") as fh:
        feed = [AisRecord(*row) for row in pickle.load(fh)]
    cfg = synopses.SynopsisConfig()
    # Looked up after tracing is installed, so traced runs see the wrappers.
    ingest_point = synopses.ingest_point
    finalize_track = synopses.finalize_track
    new_state = synopses.VesselState
    states: dict[int, synopses.VesselState] = {}
    emitted: dict[int, list] = {}
    latencies_ns = [0] * len(feed)
    clock = time.perf_counter_ns

    def loop() -> None:
        for i, rec in enumerate(feed):
            t0 = clock()
            state = states.get(rec.mmsi)
            if state is None:
                state = states[rec.mmsi] = new_state()
                emitted[rec.mmsi] = []
            out = ingest_point(state, rec, cfg)
            latencies_ns[i] = clock() - t0
            if out:
                emitted[rec.mmsi].extend(out)
        for mmsi, state in states.items():
            emitted[mmsi].extend(finalize_track(state))

    _, wall_s, cpu_s = _timed(tracer, loop)

    synopsis = []
    for mmsi in sorted(emitted):
        merged: dict[int, synopses.CriticalPoint] = {}
        for cp in emitted[mmsi]:
            if cp.timestamp in merged:
                merged[cp.timestamp].annotations |= cp.annotations
            else:
                merged[cp.timestamp] = cp
        synopsis.extend(merged[ts] for ts in sorted(merged))
    with open(out_path, "w", encoding="utf-8") as fh:
        synopses.write_synopsis_csv(synopsis, fh)
    latencies_ns.sort()
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "latency_us": {q: _percentile(latencies_ns, q) / 1000.0 for q in (50, 99)},
        "latency_samples": len(latencies_ns),
        "critical_points": len(synopsis),
    }


def _run_cli(tracer, argv: list[str]) -> dict:
    import vesselsyn.cli

    main = vesselsyn.cli.main
    if tracer:
        main = functools.partial(tracer.run_span, "cli.main", main)
    code, wall_s, cpu_s = _timed(tracer, main, argv)
    if code != 0:
        raise SystemExit(f"vesselsyn {argv[0]} exited with {code}")
    return {"wall_s": wall_s, "cpu_s": cpu_s}


def _layer_metrics(tracer, job: dict) -> dict:
    """Per-layer metrics of one traced job (see BENCHMARK.json per_layer).

    ``ga.training_evals`` counts the evaluate_config calls made inside
    run_ga; the caller turns it into ``ga.cache_hit_ratio``.
    """
    seconds: dict[str, float] = {}
    items: dict[str, int] = {}
    calls: dict[str, int] = {}
    names = {s[0]: s[1] for s in tracer.spans}
    training_evals = 0
    for _span_id, name, start, end, parent, n in tracer.spans:
        seconds[name] = seconds.get(name, 0.0) + end - start
        items[name] = items.get(name, 0) + n
        calls[name] = calls.get(name, 0) + 1
        if name == "ga.evaluate_config" and names.get(parent) == "ga.run_ga":
            training_evals += 1

    def total(name: str) -> float:
        return seconds.get(name, 0.0)

    def rate(name: str) -> float:
        return items.get(name, 0) / total(name) if total(name) > 0 else 0.0

    ingest_calls, ingest_s, ingest_emitted = tracer.timed_calls["synopses.ingest_point"]
    _, final_s, final_emitted = tracer.timed_calls["synopses.finalize_track"]
    critical = job.get("critical_points", tracer.counts["synopses.critical_points"])
    metrics = {
        "ingest.load_records.s": total("ingest.load_records"),
        "ingest.load_records.rows": items.get("ingest.load_records", 0),
        "ingest.load_records.pts_per_s": rate("ingest.load_records"),
        "ingest.partition_tracks.s": total("ingest.partition_tracks"),
        "noise.filter_dataset.s": total("noise.filter_dataset"),
        "noise.filter_dataset.pts_per_s": rate("noise.filter_dataset"),
        "noise.rejected": tracer.counts["noise.rejected"],
        "synopses.compress_track.s": total("synopses.compress_track"),
        "synopses.compress_track.calls": calls.get("synopses.compress_track", 0),
        "synopses.compress_track.pts_per_s": rate("synopses.compress_track"),
        "synopses.critical_points": critical,
        "synopses.reemitted": ingest_emitted + final_emitted - critical,
        "synopses.ingest_point.s": ingest_s,
        "synopses.ingest_point.calls": ingest_calls,
        "synopses.finalize_track.s": final_s,
        "geo.segment_velocity.per_report": tracer.counts["geo.segment_velocity"] / max(ingest_calls, 1),
        "geo.haversine_m.per_report": tracer.counts["geo.haversine_m"] / max(ingest_calls, 1),
        "evaluation.compute_metrics.s": total("evaluation.compute_metrics"),
        "evaluation.compute_metrics.calls": calls.get("evaluation.compute_metrics", 0),
        "ga.evaluate_config.s": total("ga.evaluate_config"),
        "ga.evaluate_config.calls": calls.get("ga.evaluate_config", 0),
        "ga.training_evals": training_evals,
        "cli.write_synopsis_csv.s": total("cli.write_synopsis_csv"),
        "trace.wall_s": total("bench.job"),
    }
    for layer, layer_s in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = layer_s
    return metrics


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    start = time.process_time()
    import vesselsyn.cli  # noqa: F401  (the program's start-up cost)

    result = {"setup_cpu_s": time.process_time() - start}
    os.chdir(spec["workdir"])
    if spec["workload"] is None:
        _write_json("result.json", result)
        return

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    if spec["workload"] == "stream_interleaved":
        os.makedirs("out")
        job = _stream(tracer, "../feed.pickle", "out/synopsis.csv")
    else:
        job = _run_cli(tracer, spec["argv"])
    result["peak_rss_mb"] = _peak_rss_mb()
    result.update(job)
    if tracer:
        tracer.restore()
        result["layers"] = _layer_metrics(tracer, job)
        _write_json("spans.json", tracer.dump())
    _write_json("result.json", result)


def _peak_rss_mb() -> float:
    """This process's peak resident set.

    ``getrusage`` would also count the parent's resident set, which Linux
    carries across fork and exec; ``VmHWM`` belongs to this image alone.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main()
