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

import json
import socket
import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from math import isfinite
from typing import Iterable, Iterator


class StreamFormatError(ValueError):
    """Malformed input line."""


@dataclass(frozen=True, slots=True)
class SpatialPoint:
    """One observation of a moving object."""

    object_id: str
    x: float
    y: float
    event_time: int


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MILLISECOND = timedelta(milliseconds=1)


@lru_cache(maxsize=256)
def parse_timestamp(text: str) -> int:
    """ISO-ish datetime or integer string to epoch milliseconds (UTC).

    Cached on the raw text: trajectory logs are second-granular, so most
    records repeat a recent stamp. The cache holds enough stamps for the
    disorder an allowed lateness admits, never keeps a raised error, and
    is safe to call from several threads. A miss, as on every record
    that closes a window, runs code the hits leave cold, so it is kept
    short: an ISO date skips int(), which would raise on it.
    """
    text = text.strip()
    if not text:
        raise StreamFormatError("empty timestamp")
    # An ISO date has "-" at index 4; an integer never has.
    if text[4:5] != "-":
        try:
            return int(text)
        except ValueError:
            pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise StreamFormatError(f"bad timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _EPOCH) // _MILLISECOND


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


def parse_lines(lines: Iterable[str], fmt: str,
                stats: ParseStats | None = None) -> Iterator[SpatialPoint]:
    """Parse a line stream, skipping blank lines.

    With a stats object, malformed lines are counted and skipped so a bad
    record cannot take down a long-running pipeline; without one they
    raise. An unknown format raises StreamFormatError.
    """
    parser = _PARSERS.get(fmt)
    if parser is None:
        raise StreamFormatError(f"unknown format {fmt!r}")
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
    of real time; speed == 0 replays as fast as possible. Each extra
    pass is shifted so that its smallest event time lands 1 ms after the
    previous pass's largest, so no record of a later pass falls behind
    an earlier pass, even when the file is out of order.

    A negative or NaN speed or a loop_count below 1 raises ValueError,
    and a file that cannot be opened raises its OSError, here rather
    than at the first record.
    """
    if not speed >= 0:
        raise ValueError(f"speed must be >= 0, got {speed}")
    if loop_count < 1:
        raise ValueError(f"loop_count must be >= 1, got {loop_count}")
    open(path, "rb").close()
    return _replay_passes(path, fmt, speed, loop_count, stats)


def _replay_passes(path: str, fmt: str, speed: float, loop_count: int,
                   stats: ParseStats | None) -> Iterator[SpatialPoint]:
    offset = 0
    for _ in range(loop_count):
        first_time: int | None = None
        lo = hi = 0
        wall_start = time.monotonic()
        with open(path, "r", encoding="utf-8") as fh:
            for p in parse_lines(fh, fmt, stats):
                t = p.event_time
                if first_time is None:
                    first_time = lo = hi = t
                elif t < lo:
                    lo = t
                elif t > hi:
                    hi = t
                if speed > 0:
                    due = (t - first_time) / (1000.0 * speed)
                    delay = due - (time.monotonic() - wall_start)
                    if delay > 0:
                        time.sleep(delay)
                if offset:
                    p = SpatialPoint(p.object_id, p.x, p.y, t + offset)
                yield p
        if first_time is None:
            break
        offset += hi + 1 - lo


def tcp_source(host: str, port: int, fmt: str,
               stats: ParseStats | None = None) -> Iterator[SpatialPoint]:
    """Accept one connection and stream its newline-framed records.

    The server socket is bound and listening when this returns, so a busy
    port raises its OSError here rather than at the first record; the
    first record waits for the connection.
    """
    return _serve_one(socket.create_server((host, port)), fmt, stats)


def _serve_one(srv: socket.socket, fmt: str,
               stats: ParseStats | None) -> Iterator[SpatialPoint]:
    with srv:
        conn, _addr = srv.accept()
        with conn, conn.makefile("r", encoding="utf-8") as fh:
            yield from parse_lines(fh, fmt, stats)
