"""Reading AIS position reports from delimited text and grouping them into tracks.

The expected wire format is one position report per line: mmsi, timestamp
(seconds since the Unix epoch), longitude, latitude and an optional vessel
type label.  Column positions are configurable through :class:`ColumnMap`,
either by index or, when a header row is present, by column name.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence, TextIO


@dataclass(frozen=True, slots=True)
class AisRecord:
    """One received position report.

    Attributes:
        mmsi: vessel identifier.
        timestamp: reception time, integer seconds since the Unix epoch.
        lon: longitude in decimal degrees, [-180, 180].
        lat: latitude in decimal degrees, [-90, 90].
        vessel_type: lowercase category label; "unknown" when absent.
    """

    mmsi: int
    timestamp: int
    lon: float
    lat: float
    vessel_type: str = "unknown"


@dataclass(slots=True)
class VesselTrack:
    """All reports of one vessel, strictly increasing in time."""

    mmsi: int
    vessel_type: str
    points: list[AisRecord]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ColumnMap:
    """Where to find each field in a delimited row.

    Each entry is either a 0-based column index or, when parsing input with a
    header row, a column name.  ``vessel_type`` may be ``None`` for inputs
    that carry no type column; rows shorter than its index simply leave the
    type as "unknown".
    """

    mmsi: int | str = 0
    timestamp: int | str = 1
    lon: int | str = 2
    lat: int | str = 3
    vessel_type: int | str | None = 4


@dataclass(frozen=True, slots=True)
class ParseIssue:
    line_no: int
    reason: str


@dataclass
class ParseReport:
    """Tally of what a parse run accepted and rejected."""

    rows_seen: int = 0
    records_parsed: int = 0
    issues: list[ParseIssue] = field(default_factory=list)

    @property
    def rejected_count(self) -> int:
        return len(self.issues)


def _resolve_mapping(mapping: ColumnMap, header: Sequence[str]) -> ColumnMap:
    """Translate name-based entries into indices using the header row."""
    resolved = {}
    for name in ("mmsi", "timestamp", "lon", "lat", "vessel_type"):
        spec = getattr(mapping, name)
        if isinstance(spec, str):
            try:
                resolved[name] = header.index(spec)
            except ValueError:
                if name == "vessel_type":
                    resolved[name] = None
                else:
                    raise ValueError(f"column {spec!r} not found in header {list(header)}")
    return replace(mapping, **resolved) if resolved else mapping


def _parse_row(fields: Sequence[str], mapping: ColumnMap) -> AisRecord:
    def pick(index: int, what: str) -> str:
        if index >= len(fields):
            raise ValueError(f"row has {len(fields)} columns, {what} expects column {index}")
        return fields[index].strip()

    mmsi = int(pick(mapping.mmsi, "mmsi"))
    timestamp = int(pick(mapping.timestamp, "timestamp"))
    # Downstream code holds timestamps as floats and int64 arrays.
    if not 0 <= timestamp < 2**63:
        raise ValueError(f"timestamp {timestamp} outside [0, 2**63)")
    lon = float(pick(mapping.lon, "lon"))
    lat = float(pick(mapping.lat, "lat"))
    # Written so that NaN fails the containment test and is rejected.
    if not (-180.0 <= lon <= 180.0):
        raise ValueError(f"longitude {lon} out of range")
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude {lat} out of range")
    vessel_type = "unknown"
    if mapping.vessel_type is not None and mapping.vessel_type < len(fields):
        label = fields[mapping.vessel_type].strip().lower()
        if label:
            vessel_type = label
    return AisRecord(mmsi, timestamp, lon, lat, vessel_type)


def parse_records(
    lines: Iterable[str] | TextIO,
    mapping: ColumnMap | None = None,
    *,
    delimiter: str = ",",
    has_header: bool = False,
) -> tuple[list[AisRecord], ParseReport]:
    """Parse delimited text into position records, tallying bad rows.

    Malformed rows (wrong field count, unparseable numbers, out-of-range
    coordinates) are skipped and recorded in the report with their 1-based
    line number; they never abort the run.  A missing mandatory column in the
    header, by contrast, is a configuration error and raises.

    Args:
        lines: an open text file or any iterable of lines.
        mapping: column layout; defaults to ``mmsi,timestamp,lon,lat[,type]``.
        delimiter: field separator.
        has_header: skip the first row, resolving any name-based mapping
            entries against it.

    Returns:
        The accepted records in input order and a :class:`ParseReport`.

    Raises:
        ValueError: name-based mapping without a header, or a mandatory
            named column missing from the header.
    """
    mapping = mapping or ColumnMap()
    names_used = any(
        isinstance(getattr(mapping, f), str)
        for f in ("mmsi", "timestamp", "lon", "lat", "vessel_type")
    )
    if names_used and not has_header:
        raise ValueError("name-based column mapping requires has_header=True")

    records: list[AisRecord] = []
    report = ParseReport()
    iterator: Iterator[str] = iter(lines)
    line_no = 0
    if has_header:
        try:
            header_line = next(iterator)
        except StopIteration:
            raise ValueError("input is empty, expected a header row")
        line_no = 1
        header = [h.strip() for h in header_line.rstrip("\r\n").split(delimiter)]
        mapping = _resolve_mapping(mapping, header)

    for raw in iterator:
        line_no += 1
        line = raw.strip()
        if not line:
            continue
        report.rows_seen += 1
        try:
            records.append(_parse_row(line.split(delimiter), mapping))
            report.records_parsed += 1
        except ValueError as exc:
            report.issues.append(ParseIssue(line_no, str(exc)))
    return records, report


def load_records(
    path: str,
    mapping: ColumnMap | None = None,
    *,
    delimiter: str = ",",
    has_header: bool = False,
) -> tuple[list[AisRecord], ParseReport]:
    """Open ``path`` and parse it with :func:`parse_records`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh, mapping, delimiter=delimiter, has_header=has_header)


def write_records(records: Iterable[AisRecord], out: TextIO | io.StringIO, *, delimiter: str = ",") -> None:
    """Serialize records back to the default column layout."""
    for r in records:
        out.write(delimiter.join((str(r.mmsi), str(r.timestamp), repr(r.lon), repr(r.lat), r.vessel_type)))
        out.write("\n")


def partition_tracks(records: Iterable[AisRecord]) -> list[VesselTrack]:
    """Group records by vessel into time-sorted, deduplicated tracks.

    Within a vessel, records are ordered by timestamp (stably, so ties keep
    input order) and exact duplicate timestamps are dropped keeping the first
    occurrence.  The track's type label is the first non-"unknown" label seen
    in time order.  Tracks are returned sorted by mmsi.
    """
    by_vessel: dict[int, list[AisRecord]] = {}
    for rec in records:
        by_vessel.setdefault(rec.mmsi, []).append(rec)

    tracks: list[VesselTrack] = []
    for mmsi in sorted(by_vessel):
        ordered = sorted(by_vessel[mmsi], key=lambda r: r.timestamp)
        deduped: list[AisRecord] = []
        for rec in ordered:
            if deduped and rec.timestamp == deduped[-1].timestamp:
                continue
            deduped.append(rec)
        vessel_type = "unknown"
        for rec in deduped:
            if rec.vessel_type != "unknown":
                vessel_type = rec.vessel_type
                break
        tracks.append(VesselTrack(mmsi, vessel_type, deduped))
    return tracks


def split_k_folds(tracks: Sequence[VesselTrack], k: int) -> list[list[VesselTrack]]:
    """Split whole tracks into k folds of roughly equal point counts.

    Tracks are never divided: each goes, in decreasing order of length, to
    the fold currently holding the fewest points (lowest fold index on ties).
    This keeps every fold within one maximum track length of the others while
    guaranteeing a vessel's points all land in the same fold.

    Raises:
        ValueError: if ``k < 2`` or there are fewer tracks than folds.
    """
    if k < 2:
        raise ValueError(f"need at least 2 folds, got k={k}")
    if len(tracks) < k:
        raise ValueError(f"cannot split {len(tracks)} tracks into {k} folds")
    folds: list[list[VesselTrack]] = [[] for _ in range(k)]
    sizes = [0] * k
    order = sorted(range(len(tracks)), key=lambda i: (-len(tracks[i]), tracks[i].mmsi))
    for i in order:
        target = sizes.index(min(sizes))
        folds[target].append(tracks[i])
        sizes[target] += len(tracks[i])
    return folds
