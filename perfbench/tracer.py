"""In-memory tracing of vesselsyn's layers, installed from outside the package.

Each traced function is replaced, at the module attribute its caller looks
up, by a wrapper; :meth:`Tracer.restore` puts the originals back.  Three
kinds of wrapper keep the overhead proportional to what is measured:

* ``span``: one span ``(id, name, start, end, parent_id, items)`` per call,
  for calls made a few times per job (stage functions, one per track or per
  GA evaluation).
* ``timed``: calls, seconds and emitted items summed, no span, for the
  per-report detector entry points.
* ``count``: calls only, for per-report geometry helpers.

A layer's self time is the time its spans and timed calls cover minus the
time covered by their direct children, so the self times of all layers add
up to the root span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

# Layers with spans or timed calls; a name's first component is its layer.
# The geo helpers are only counted, so their time stays with their callers.
LAYERS = ("bench", "cli", "ingest", "noise", "synopses", "evaluation", "ga")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.timed_calls: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self._child_s: dict[int, float] = defaultdict(float)
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run_span(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` inside a span called ``name``."""
        return self._call(name, fn, args, {}, None)

    def _call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict, items: Callable[..., int] | None) -> Any:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._child_s[parent] += end - start
            n = items(args, result) if items is not None and result is not None else 0
            self.spans.append((span_id, name, start, end, parent, n))

    def span(self, owner: Any, attr: str, name: str, items: Callable[..., int] | None = None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``items(args, result)`` gives the work done by the call (points,
        rows), stored with the span.
        """

        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return self._call(name, original, args, kwargs, items)

            return wrapper

        self._patch(owner, attr, make)

    def timed(self, owner: Any, attr: str, name: str) -> None:
        """Sum calls, seconds and ``len(result)`` of ``owner.attr``."""
        agg = self.timed_calls[name]
        child_s = self._child_s
        stack = self._stack
        clock = time.perf_counter

        def make(original: Any) -> Any:
            def wrapper(*args: Any) -> Any:
                start = clock()
                out = original(*args)
                elapsed = clock() - start
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += len(out)
                child_s[stack[-1]] += elapsed
                return out

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr``."""
        counts = self.counts

        def make(original: Any) -> Any:
            def wrapper(*args: Any) -> Any:
                counts[name] += 1
                return original(*args)

            return wrapper

        self._patch(owner, attr, make)

    def self_times(self) -> dict[str, float]:
        """Seconds each layer spent outside its traced children."""
        totals = {layer: 0.0 for layer in LAYERS}
        for span_id, name, start, end, _parent, _items in self.spans:
            totals[name.split(".")[0]] += (end - start) - self._child_s[span_id]
        for name, (_calls, seconds, _emitted) in self.timed_calls.items():
            totals[name.split(".")[0]] += seconds
        return totals

    def dump(self) -> dict[str, Any]:
        """The trace as plain JSON-ready data."""
        return {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "items": s[5]}
                for s in self.spans
            ],
            "timed": {name: {"calls": c, "s": s, "emitted": e} for name, (c, s, e) in self.timed_calls.items()},
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Wrap every traced vesselsyn function at the name its caller looks up."""
    import vesselsyn.cli as cli
    import vesselsyn.evaluation as evaluation
    import vesselsyn.ga as ga
    import vesselsyn.geo as geo
    import vesselsyn.synopses as synopses

    def rows_out(_args: tuple, result: Any) -> int:
        return len(result[0])

    def reports_in(args: tuple, _result: Any) -> int:
        return sum(len(t.points) for t in args[0])

    def filtered(args: tuple, result: Any) -> int:
        tracer.counts["noise.rejected"] += result[1]
        return reports_in(args, result)

    def compressed(args: tuple, result: Any) -> int:
        tracer.counts["synopses.critical_points"] += len(result)
        return len(args[0].points)

    tracer.span(cli, "load_records", "ingest.load_records", rows_out)
    tracer.span(cli, "partition_tracks", "ingest.partition_tracks")
    tracer.span(cli, "filter_dataset", "noise.filter_dataset", filtered)
    tracer.span(cli, "compress_track", "synopses.compress_track", compressed)
    tracer.span(evaluation, "compress_track", "synopses.compress_track", compressed)
    tracer.span(cli, "compute_metrics", "evaluation.compute_metrics", reports_in)
    tracer.span(evaluation, "compute_metrics", "evaluation.compute_metrics", reports_in)
    tracer.span(cli, "cross_validate", "ga.cross_validate")
    tracer.span(ga, "run_ga", "ga.run_ga")
    tracer.span(ga, "evaluate_config", "ga.evaluate_config")
    tracer.span(cli, "write_synopsis_csv", "cli.write_synopsis_csv")
    tracer.timed(synopses, "ingest_point", "synopses.ingest_point")
    tracer.timed(synopses, "finalize_track", "synopses.finalize_track")
    # segment_velocity reaches haversine_m through the geo module's own
    # global; the stop rule calls the name imported into synopses.
    tracer.count(synopses, "segment_velocity", "geo.segment_velocity")
    tracer.count(synopses, "haversine_m", "geo.haversine_m")
    tracer.count(geo, "haversine_m", "geo.haversine_m")
