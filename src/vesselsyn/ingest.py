"""Reading AIS position reports from CSV text and grouping them into tracks.

The input has one layout, one report per line: ``mmsi,timestamp,lon,lat``
and an optional vessel type, with the timestamp in integer seconds since the
Unix epoch and the coordinates in decimal degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from operator import attrgetter
from typing import Iterable, Sequence, TextIO


@dataclass(slots=True)
class AisRecord:
    """One received position report.

    The pipeline treats instances as read-only values.  The class is not
    ``frozen`` because a frozen constructor sets each field through
    ``object.__setattr__``, which made building one cost about 3x, and one
    is built per input row.

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


#: The time-order key of reports and critical points alike.
_timestamp = attrgetter("timestamp")


@dataclass(slots=True)
class VesselTrack:
    """All reports of one vessel, strictly increasing in time."""

    mmsi: int
    vessel_type: str
    points: list[AisRecord]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, slots=True)
class ParseIssue:
    """A malformed input row: its 1-based line number and why it was skipped."""

    line_no: int
    reason: str


def _parse_row(fields: Sequence[str], mmsis: dict[str, int], labels: dict[str, str]) -> AisRecord:
    """One record from a row's fields, sharing MMSI and type values through the two dicts."""
    if len(fields) < 4:
        raise ValueError(f"row has {len(fields)} fields, expected at least 4")
    raw_mmsi = fields[0]
    mmsi = mmsis.get(raw_mmsi)
    if mmsi is None:
        mmsi = mmsis[raw_mmsi] = int(raw_mmsi.strip())
    timestamp = int(fields[1].strip())
    # Speeds divide by time differences, which must convert to float; the
    # signed 64-bit range is a safe bound that Unix-second clocks never reach.
    if not 0 <= timestamp < 2**63:
        raise ValueError(f"timestamp {timestamp} outside [0, 2**63)")
    lon = float(fields[2].strip())
    lat = float(fields[3].strip())
    # Written so that NaN fails the containment test and is rejected.
    if not (-180.0 <= lon <= 180.0):
        raise ValueError(f"longitude {lon} out of range")
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude {lat} out of range")
    if len(fields) < 5:
        return AisRecord(mmsi, timestamp, lon, lat)
    raw_label = fields[4]
    label = labels.get(raw_label)
    if label is None:
        # A parsed label parses to itself, so it also keys the dict: fields
        # that differ only in case or surrounding spaces share one string.
        label = raw_label.strip().lower() or "unknown"
        label = labels[raw_label] = labels.setdefault(label, label)
    return AisRecord(mmsi, timestamp, lon, lat, label)


#: The columns a header names first, in any case.
_HEADER = "mmsi,timestamp,lon,lat"


class HeaderError(ValueError):
    """Line 1 is a header row that does not name ``mmsi,timestamp,lon,lat`` first."""


def parse_records(lines: Iterable[str] | TextIO) -> tuple[list[AisRecord], list[ParseIssue]]:
    """Parse ``mmsi,timestamp,lon,lat[,vessel_type]`` lines, tallying bad rows.

    Line 1 is a header when its first field, stripped of spaces and double
    quotes, is an identifier, which no MMSI is.  A header naming
    ``mmsi,timestamp,lon,lat`` first, in any case, is skipped; any other
    raises :class:`HeaderError`.

    Malformed rows (fewer than four fields, unparseable numbers,
    out-of-range coordinates) are skipped and recorded as a
    :class:`ParseIssue` with their 1-based line number; they never abort
    the run.  Fields past the fifth are ignored.

    A vessel's reports repeat its MMSI and type fields, so one call parses
    each distinct raw MMSI field and each distinct raw type field once: the
    records that spell them alike share one ``int`` and one label ``str``,
    and type fields that differ only in case or surrounding spaces share one
    label too.  The sharing lasts for the call only.

    Returns:
        The accepted records and the rejected rows' issues, each in input
        order.

    Raises:
        HeaderError: line 1 is a header naming other columns.
    """
    records: list[AisRecord] = []
    issues: list[ParseIssue] = []
    mmsis: dict[str, int] = {}
    labels: dict[str, str] = {}
    lines = iter(lines)
    line = next(lines, "").strip()
    names = [field.strip().strip('"').strip() for field in line.split(",")]
    if names[0].isidentifier():
        if ",".join(names[:4]).lower() != _HEADER:
            found = ",".join(names)
            raise HeaderError(f"line 1 is a header, so it must name the columns {_HEADER} first; found {found!r}")
    elif line:
        try:
            records.append(_parse_row(line.split(","), mmsis, labels))
        except ValueError as exc:
            issues.append(ParseIssue(1, str(exc)))
    for line_no, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line:
            continue
        try:
            records.append(_parse_row(line.split(","), mmsis, labels))
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc)))
    return records, issues


def load_records(path: str) -> tuple[list[AisRecord], list[ParseIssue]]:
    """Open ``path`` and parse it with :func:`parse_records`; a UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_records(fh)


def write_records(records: Iterable[AisRecord], out: TextIO) -> None:
    """Serialize records in the layout :func:`parse_records` reads."""
    for r in records:
        out.write(",".join((str(r.mmsi), str(r.timestamp), repr(r.lon), repr(r.lat), r.vessel_type)))
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
        ordered = sorted(by_vessel[mmsi], key=_timestamp)
        deduped = ordered[:1] + [b for a, b in pairwise(ordered) if b.timestamp != a.timestamp]
        vessel_type = next((r.vessel_type for r in deduped if r.vessel_type != "unknown"), "unknown")
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
