"""Spatial point records and stream ingestion.

Two wire formats are supported:

* CSV lines ``id,datetime,longitude,latitude`` (trajectory-log layout),
  datetime as ``YYYY-MM-DD HH:MM:SS`` with optional ``.mmm`` fraction,
  interpreted as UTC.
* Newline-delimited GeoJSON Feature objects with a Point geometry, the
  object id under ``properties.oID`` and the event time under
  ``properties.timestamp`` (ISO-8601 string or epoch milliseconds).

Event times are integer epoch milliseconds throughout. Sources replay a
file at a multiple of recorded speed, read stdin, or accept newline
framed connections on a TCP port.
"""

from __future__ import annotations

import calendar
import json
import socket
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from math import isfinite
from typing import IO, Iterable, Iterator


class StreamFormatError(ValueError):
    """Malformed input line."""


@dataclass(frozen=True, slots=True)
class SpatialPoint:
    """One observation of a moving object.

    ``cell`` is filled in by the partitioner once the point is mapped
    onto a grid; it travels with the point so downstream operators never
    recompute it.
    """

    object_id: str
    x: float
    y: float
    event_time: int
    cell: int | None = None

    def with_cell(self, cell: int) -> "SpatialPoint":
        return SpatialPoint(self.object_id, self.x, self.y, self.event_time, cell)


def parse_timestamp(text: str) -> int:
    """ISO-ish datetime or integer string to epoch milliseconds (UTC)."""
    text = text.strip()
    if not text:
        raise StreamFormatError("empty timestamp")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise StreamFormatError(f"bad timestamp {text!r}") from exc
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    millis = calendar.timegm(dt.timetuple()) * 1000 + dt.microsecond // 1000
    return millis


def format_timestamp(millis: int) -> str:
    """Inverse of parse_timestamp for whole-second times; keeps .mmm otherwise."""
    sec, ms = divmod(millis, 1000)
    base = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(sec))
    if ms:
        return f"{base}.{ms:03d}"
    return base


def parse_csv_line(line: str) -> SpatialPoint:
    """``id,datetime,longitude,latitude`` to a point (x=longitude)."""
    parts = line.rstrip("\r\n").split(",")
    if len(parts) != 4:
        raise StreamFormatError(f"expected 4 CSV fields, got {len(parts)}: {line!r}")
    oid, stamp, lon, lat = parts
    try:
        x, y = float(lon), float(lat)
    except ValueError as exc:
        raise StreamFormatError(f"bad coordinate in {line!r}") from exc
    if not (isfinite(x) and isfinite(y)):
        raise StreamFormatError(f"non-finite coordinate in {line!r}")
    return SpatialPoint(oid, x, y, parse_timestamp(stamp))


def format_csv_line(p: SpatialPoint) -> str:
    return f"{p.object_id},{format_timestamp(p.event_time)},{p.x!r},{p.y!r}"


def parse_geojson_line(line: str) -> SpatialPoint:
    """One GeoJSON Feature with Point geometry per line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"bad JSON: {line!r}") from exc
    if not isinstance(obj, dict) or obj.get("type") != "Feature":
        raise StreamFormatError(f"expected a GeoJSON Feature, got {line!r}")
    geom = obj.get("geometry") or {}
    if geom.get("type") != "Point":
        raise StreamFormatError(f"expected Point geometry in {line!r}")
    coords = geom.get("coordinates")
    if not isinstance(coords, (list, tuple)) or len(coords) < 2:
        raise StreamFormatError(f"bad coordinates in {line!r}")
    props = obj.get("properties") or {}
    if "oID" not in props or "timestamp" not in props:
        raise StreamFormatError(f"missing oID/timestamp properties in {line!r}")
    stamp = props["timestamp"]
    if isinstance(stamp, bool):
        raise StreamFormatError(f"bad timestamp in {line!r}")
    millis = stamp if isinstance(stamp, int) else parse_timestamp(str(stamp))
    try:
        x, y = float(coords[0]), float(coords[1])
    except (TypeError, ValueError) as exc:
        raise StreamFormatError(f"bad coordinate in {line!r}") from exc
    if not (isfinite(x) and isfinite(y)):
        raise StreamFormatError(f"non-finite coordinate in {line!r}")
    return SpatialPoint(str(props["oID"]), x, y, millis)


def format_geojson_line(p: SpatialPoint) -> str:
    return json.dumps({
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [p.x, p.y]},
        "properties": {"oID": p.object_id, "timestamp": p.event_time},
    }, separators=(",", ":"))


_PARSERS = {"csv": parse_csv_line, "geojson": parse_geojson_line}


@dataclass
class ParseStats:
    """Counts of records a source skipped instead of emitting."""

    malformed: int = 0


def parse_line(line: str, fmt: str) -> SpatialPoint:
    try:
        parser = _PARSERS[fmt]
    except KeyError:
        raise StreamFormatError(f"unknown format {fmt!r}") from None
    return parser(line)


def parse_lines(lines: Iterable[str], fmt: str,
                stats: ParseStats | None = None) -> Iterator[SpatialPoint]:
    """Parse a line stream, skipping blank lines.

    With a stats object, malformed lines are counted and skipped so a bad
    record cannot take down a long-running pipeline; without one they
    raise.
    """
    parser = _PARSERS[fmt]
    for line in lines:
        if not line.strip():
            continue
        if stats is None:
            yield parser(line)
            continue
        try:
            p = parser(line)
        except StreamFormatError:
            stats.malformed += 1
            continue
        yield p


def replay_file(path: str, fmt: str, speed: float = 0.0, loop_count: int = 1,
                stats: ParseStats | None = None) -> Iterator[SpatialPoint]:
    """Replay a recorded file as a stream.

    speed > 0 sleeps so event-time gaps are reproduced at that multiple
    of real time; speed == 0 replays as fast as possible. Extra loops
    shift event times past the previous pass so time stays monotone.
    """
    if loop_count < 1:
        raise ValueError(f"loop_count must be >= 1, got {loop_count}")
    offset = 0
    for _ in range(loop_count):
        first_time: int | None = None
        last_time: int | None = None
        wall_start = time.monotonic()
        with open(path, "r", encoding="utf-8") as fh:
            for p in parse_lines(fh, fmt, stats):
                if first_time is None:
                    first_time = p.event_time
                if speed > 0:
                    due = (p.event_time - first_time) / (1000.0 * speed)
                    delay = due - (time.monotonic() - wall_start)
                    if delay > 0:
                        time.sleep(delay)
                shifted = p.event_time + offset
                last_time = shifted
                if offset:
                    p = SpatialPoint(p.object_id, p.x, p.y, shifted)
                yield p
        if last_time is None or first_time is None:
            break
        offset = last_time + 1 - first_time


def read_stream(fh: IO[str], fmt: str,
                stats: ParseStats | None = None) -> Iterator[SpatialPoint]:
    """Points from an already-open text stream (e.g. stdin); stops at EOF."""
    yield from parse_lines(fh, fmt, stats)


def tcp_source(host: str, port: int, fmt: str,
               stats: ParseStats | None = None) -> Iterator[SpatialPoint]:
    """Accept one connection and stream its newline-framed records."""
    with socket.create_server((host, port)) as srv:
        conn, _addr = srv.accept()
        with conn, conn.makefile("r", encoding="utf-8") as fh:
            yield from parse_lines(fh, fmt, stats)
