"""Record parsing, serialization round-trips, and stream sources."""

import math
import random
import socket
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest

from gridstream.grid import build_grid
from gridstream.streams import (ParseStats, SpatialPoint, StreamFormatError,
                                format_csv_line, format_geojson_line,
                                parse_csv_line, parse_geojson_line,
                                parse_lines, parse_timestamp,
                                replay_file, tcp_source)


def _epoch_ms(*args):
    return int(datetime(*args, tzinfo=timezone.utc).timestamp() * 1000)


def test_parse_csv_taxi_line():
    p = parse_csv_line("1,2008-02-02 15:36:08,116.51172,39.92123")
    assert p.object_id == "1"
    assert p.x == 116.51172
    assert p.y == 39.92123
    assert p.event_time == _epoch_ms(2008, 2, 2, 15, 36, 8)


def test_parse_timestamp_forms():
    want = _epoch_ms(2008, 2, 2, 15, 36, 8)
    assert parse_timestamp("2008-02-02 15:36:08") == want
    assert parse_timestamp("2008-02-02T15:36:08") == want
    assert parse_timestamp("2008-02-02T15:36:08+00:00") == want
    assert parse_timestamp("2008-02-02 15:36:08.250") == want + 250
    assert parse_timestamp(str(want)) == want
    with pytest.raises(StreamFormatError):
        parse_timestamp("yesterday")


def test_cached_parse_timestamp_interleaved_stamps():
    a, b = "2008-02-02 15:36:08", "2008-02-02 15:36:09"
    want_a = _epoch_ms(2008, 2, 2, 15, 36, 8)
    got = [parse_timestamp(s) for s in (a, b, a, b, a)]
    assert got == [want_a, want_a + 1000, want_a, want_a + 1000, want_a]


def test_cached_parse_timestamp_keeps_the_offset():
    clock = "2008-02-02 15:36:08"
    utc = _epoch_ms(2008, 2, 2, 15, 36, 8)
    for _ in range(2):
        assert parse_timestamp(clock + "+08:00") == utc - 8 * 3600 * 1000
        assert parse_timestamp(clock + "+00:00") == utc


def test_cached_parse_timestamp_fractions_and_integers():
    base = _epoch_ms(2008, 2, 2, 15, 36, 8)
    for _ in range(2):
        assert parse_timestamp("2008-02-02 15:36:08.250") == base + 250
        assert parse_timestamp("2008-02-02 15:36:08.123456") == base + 123
        assert parse_timestamp("2008-02-02 15:36:08") == base
        assert parse_timestamp(str(base)) == base
        assert parse_timestamp(str(base + 999)) == base + 999
        assert parse_timestamp("0") == 0
        assert parse_timestamp("-1500") == -1500
        # Also an ISO basic date, but an integer string comes first.
        assert parse_timestamp("20080202") == 20080202


@pytest.mark.parametrize("bad", ["2008-02-02 15:36:6x", "yesterday", "", " "])
def test_bad_stamp_raises_every_time(bad):
    good = "2008-02-02 15:36:08"
    want = _epoch_ms(2008, 2, 2, 15, 36, 8)
    for _ in range(3):
        assert parse_timestamp(good) == want
        with pytest.raises(StreamFormatError):
            parse_timestamp(bad)
    assert parse_timestamp(good) == want


def test_replay_of_repeated_stamps_matches_datetime(tmp_path):
    # Runs of whole-second stamps, a tenth of them a second or two
    # behind, as in a taxi log.
    rng = random.Random(61)
    base = datetime(2008, 2, 2, 15, 36, 0, tzinfo=timezone.utc)
    lines, want = [], []
    sec = 0
    for i in range(800):
        if rng.random() < 0.1:
            sec += 1
        back = rng.choice((1, 2)) if rng.random() < 0.1 else 0
        when = base + timedelta(seconds=max(sec - back, 0))
        x, y = rng.uniform(116, 117), rng.uniform(39, 40)
        lines.append(f"{i},{when:%Y-%m-%d %H:%M:%S},{x!r},{y!r}\n")
        want.append(SpatialPoint(str(i), x, y,
                                 int(when.timestamp()) * 1000))
    assert len({p.event_time for p in want}) < len(want) // 5
    assert any(a.event_time > b.event_time for a, b in zip(want, want[1:]))
    path = tmp_path / "runs.csv"
    path.write_text("".join(lines))
    assert list(replay_file(str(path), "csv")) == want


def test_parse_geojson_origin_feature():
    line = ('{"type":"Feature",'
            '"geometry":{"type":"Point","coordinates":[0,0]},'
            '"properties":{"oID":"a","timestamp":0}}')
    p = parse_geojson_line(line)
    assert p == SpatialPoint("a", 0.0, 0.0, 0)


def test_parse_geojson_iso_timestamp():
    line = ('{"type":"Feature",'
            '"geometry":{"type":"Point","coordinates":[116.5,39.9]},'
            '"properties":{"oID":7,"timestamp":"2008-02-02 15:36:08"}}')
    p = parse_geojson_line(line)
    assert p.object_id == "7"
    assert p.event_time == _epoch_ms(2008, 2, 2, 15, 36, 8)


def test_csv_round_trip():
    rng = random.Random(21)
    for _ in range(50):
        p = SpatialPoint(str(rng.randrange(1000)),
                         rng.uniform(-180, 180), rng.uniform(-90, 90),
                         rng.randrange(0, 4_102_444_800) * 1000
                         + rng.randrange(1000))
        back = parse_csv_line(format_csv_line(p))
        assert back == p


def test_geojson_round_trip():
    p = SpatialPoint("42", 116.51172, 39.92123, 1201966568000)
    assert parse_geojson_line(format_geojson_line(p)) == p


def test_parse_lines_dispatch():
    [p] = parse_lines(["1,2008-02-02 15:36:08,1.0,2.0"], "csv")
    assert p.x == 1.0
    with pytest.raises(StreamFormatError):
        list(parse_lines(["anything"], "xml"))
    with pytest.raises(StreamFormatError):
        list(parse_lines(["anything"], "xml", ParseStats()))


def _mangle(line, rng):
    ops = (
        lambda s: s.replace(",", ";", 1),
        lambda s: ",".join(s.split(",")[:3]),
        lambda s: s + ",extra",
        lambda s: "not,a,point",
        lambda s: s.replace("116", "x16", 1),
        lambda s: s.replace("2008", "20x8", 1),
        lambda s: "",
    )
    return rng.choice(ops)(line)


def test_malformed_lines_skipped_and_counted():
    rng = random.Random(3)
    good = "77,2008-02-02 15:36:08,116.51172,39.92123"
    lines, bad = [], 0
    for i in range(300):
        if rng.random() < 0.4:
            mangled = _mangle(good, rng)
            lines.append(mangled)
            if mangled.strip():
                bad += 1  # blank lines are skipped silently, not errors
        else:
            lines.append(good)
    stats = ParseStats()
    parsed = list(parse_lines(lines, "csv", stats))
    assert stats.malformed == bad
    assert len(parsed) == sum(1 for l in lines if l.strip()) - bad
    assert bad >= 100


def test_geojson_boolean_timestamp_is_malformed():
    line = ('{"type":"Feature",'
            '"geometry":{"type":"Point","coordinates":[116.5,39.9]},'
            '"properties":{"oID":"a","timestamp":true}}')
    with pytest.raises(StreamFormatError):
        parse_geojson_line(line)
    stats = ParseStats()
    assert list(parse_lines([line], "geojson", stats)) == []
    assert stats.malformed == 1


@pytest.mark.parametrize("fmt,line", [
    ("csv", "1,2008-02-02 15:36:08,nan,39.9"),
    ("csv", "1,2008-02-02 15:36:08,116.5,inf"),
    ("csv", "1,2008-02-02 15:36:08,-Infinity,39.9"),
    ("geojson", '{"type":"Feature","geometry":{"type":"Point",'
                '"coordinates":[NaN,39.9]},"properties":{"oID":"a",'
                '"timestamp":0}}'),
    ("geojson", '{"type":"Feature","geometry":{"type":"Point",'
                '"coordinates":[116.5,"inf"]},"properties":{"oID":"a",'
                '"timestamp":0}}'),
    ("geojson", '{"type":"Feature","geometry":{"type":"Point",'
                '"coordinates":[116.5,{}]},"properties":{"oID":"a",'
                '"timestamp":0}}'),
])
def test_non_finite_or_non_numeric_coordinate_is_malformed(fmt, line):
    with pytest.raises(StreamFormatError):
        list(parse_lines([line], fmt))
    stats = ParseStats()
    assert list(parse_lines([line], fmt, stats)) == []
    assert stats.malformed == 1


def test_malformed_line_raises_without_stats():
    with pytest.raises(StreamFormatError):
        list(parse_lines(["not,a,point"], "csv"))


def test_keys_consistent_with_grid():
    grid = build_grid(115.5, 39.6, 117.6, 41.1, 150, 8)
    p = parse_csv_line("1,2008-02-02 15:36:08,116.51172,39.92123")
    assert grid.decode_key(grid.key_of(p.x, p.y)) == grid.cell_of(p.x, p.y)


def test_replay_file_order_and_count(tmp_path):
    path = tmp_path / "pts.csv"
    pts = [SpatialPoint(str(i), float(i), 0.5, 1000 * i) for i in range(10)]
    path.write_text("".join(format_csv_line(p) + "\n" for p in pts))
    out = list(replay_file(str(path), "csv"))
    assert [p.object_id for p in out] == [str(i) for i in range(10)]
    assert out == pts


def test_replay_file_loops_shift_time(tmp_path):
    path = tmp_path / "pts.csv"
    pts = [SpatialPoint(str(i), float(i), 0.5, 5000 + 1000 * i)
           for i in range(10)]
    path.write_text("".join(format_csv_line(p) + "\n" for p in pts))
    out = list(replay_file(str(path), "csv", loop_count=3))
    assert len(out) == 30
    times = [p.event_time for p in out]
    assert times == sorted(times)
    assert len(set(times)) == 30  # strictly increasing across passes
    assert [p.object_id for p in out] == [str(i) for i in range(10)] * 3


@pytest.mark.parametrize("times,want", [
    # Each pass must start after the previous pass's largest time
    # (5000), not after its last record's (2000), or the second pass
    # would fall behind the first.
    ((0, 5000, 2000), [0, 5000, 2000, 5001, 10001, 7001,
                       10002, 15002, 12002]),
    # Nor after its first record's: the file's smallest time (0) comes
    # second and must land past 5000 too.
    ((2000, 5000, 0), [2000, 5000, 0, 7001, 10001, 5001,
                       12002, 15002, 10002]),
])
def test_replay_file_loops_start_after_the_largest_time(tmp_path, times,
                                                        want):
    path = tmp_path / "pts.csv"
    path.write_text("".join(format_csv_line(SpatialPoint("a", 1.0, 1.0, t))
                            + "\n" for t in times))
    out = list(replay_file(str(path), "csv", loop_count=3))
    assert [p.event_time for p in out] == want


def test_replay_file_checks_its_arguments_at_call_time(tmp_path):
    with pytest.raises(FileNotFoundError):
        replay_file(str(tmp_path / "nonexistent.csv"), "csv")
    path = tmp_path / "pts.csv"
    path.write_text("a,0,1.0,1.0\n")
    with pytest.raises(ValueError):
        replay_file(str(path), "csv", loop_count=0)
    for speed in (-5.0, math.nan):
        with pytest.raises(ValueError):
            replay_file(str(path), "csv", speed=speed)


def test_tcp_source_binds_at_call_time():
    with socket.create_server(("127.0.0.1", 0)) as busy:
        with pytest.raises(OSError):
            tcp_source("127.0.0.1", busy.getsockname()[1], "csv")


def test_replay_speed_paces_emission(tmp_path):
    path = tmp_path / "pts.csv"
    # 400 ms of event time replayed at 2x should take around 200 ms
    pts = [SpatialPoint("a", 1.0, 1.0, t) for t in (0, 200, 400)]
    path.write_text("".join(format_csv_line(p) + "\n" for p in pts))
    t0 = time.monotonic()
    out = list(replay_file(str(path), "csv", speed=2.0))
    elapsed = time.monotonic() - t0
    assert len(out) == 3
    assert 0.15 <= elapsed < 1.0


def test_tcp_source_loopback():
    got = []
    stats = ParseStats()
    port_box = {}

    def serve():
        # bind to an ephemeral port, then hand it to the client side
        with socket.create_server(("127.0.0.1", 0)) as srv:
            port_box["port"] = srv.getsockname()[1]
            conn, _addr = srv.accept()
            with conn, conn.makefile("r", encoding="utf-8") as fh:
                got.extend(parse_lines(fh, "csv", stats))

    th = threading.Thread(target=serve, daemon=True)
    th.start()
    for _ in range(100):
        if "port" in port_box:
            break
        time.sleep(0.01)
    with socket.create_connection(("127.0.0.1", port_box["port"])) as c:
        for i in range(5):
            line = f"{i},2008-02-02 15:36:{i:02d},116.5,39.9\n"
            c.sendall(line.encode())
    th.join(timeout=5)
    assert not th.is_alive()
    assert [p.object_id for p in got] == ["0", "1", "2", "3", "4"]
    assert stats.malformed == 0


def test_tcp_source_generator_streams_five_lines():
    # exercise the packaged source end to end on a fixed loopback port
    port = 39731
    out = []

    def consume():
        out.extend(tcp_source("127.0.0.1", port, "csv"))

    th = threading.Thread(target=consume, daemon=True)
    th.start()
    conn = None
    for _ in range(200):
        try:
            conn = socket.create_connection(("127.0.0.1", port))
            break
        except OSError:
            time.sleep(0.01)
    assert conn is not None, "could not reach tcp source"
    with conn:
        for i in range(5):
            conn.sendall(f"{i},0,1.0,2.0\n".encode())
    th.join(timeout=5)
    assert not th.is_alive()
    assert len(out) == 5
