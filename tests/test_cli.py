"""Command line entry point, exercised through main() on temp files."""

import csv
import io
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import gridstream
from gridstream.bench import BENCH_HEADER
from gridstream.cli import main
from gridstream.oracle import oracle_join, oracle_knn, oracle_range
from gridstream.streams import (ParseStats, format_geojson_line,
                                format_timestamp, parse_lines,
                                parse_timestamp)
from gridstream.windows import earliest_start, latest_start

BOX = "0,0,90,90"


def synth(tmp_path, name, n, seed, rate=100):
    path = tmp_path / name
    rc = main(["synth", "--out", str(path), "--n", str(n), "--bbox", BOX,
               "--rate", str(rate), "--seed", str(seed)])
    assert rc == 0
    return path


def load_points(path):
    with open(path, encoding="utf-8") as fh:
        stats = ParseStats()
        pts = list(parse_lines(fh, "csv", stats))
    assert stats.malformed == 0
    return pts


def windows_of(pts, length=10000, slide=5000):
    times = [p.event_time for p in pts]
    first = earliest_start(min(times), length, slide)
    last = latest_start(max(times), slide)
    for s in range(first, last + 1, slide):
        yield s, [p for p in pts if s <= p.event_time < s + length]


def query_args(path, out, r="8", extra=()):
    return ["--input", str(path), "--bbox", BOX, "--grid", "30",
            "--r", r, "--out", str(out), *extra]


def test_synth_is_seed_deterministic(tmp_path):
    a = synth(tmp_path, "a.csv", 500, seed=7)
    b = synth(tmp_path, "b.csv", 500, seed=7)
    c = synth(tmp_path, "c.csv", 500, seed=8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_synth_output_parses_and_stays_in_bbox(tmp_path):
    path = synth(tmp_path, "s.csv", 400, seed=3)
    pts = load_points(path)
    assert len(pts) == 400
    assert all(0 <= p.x <= 90 and 0 <= p.y <= 90 for p in pts)
    times = [p.event_time for p in pts]
    assert times == sorted(times)


def test_range_cli_matches_oracle(tmp_path, capsys):
    path = synth(tmp_path, "s.csv", 400, seed=5)
    out = tmp_path / "res.jsonl"
    rc = main(["range", *query_args(path, out), "--q", "40,50"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert {"throughput_tps", "distance_computations", "pruned_tuples",
            "windows_fired", "malformed", "dropped_outside",
            "late_dropped"} <= set(summary)
    pts = load_points(path)
    lines = out.read_text(encoding="utf-8").splitlines()
    expected = list(windows_of(pts))
    assert len(lines) == len(expected) == summary["windows_fired"]
    for line, (start, members) in zip(lines, expected):
        rec = json.loads(line)
        assert rec["type"] == "range"
        assert rec["window_start"] == start
        assert rec["window_end"] == start + 10000
        want = {(p.object_id, p.x, p.y, p.event_time)
                for p in oracle_range(members, 40.0, 50.0, 8.0)}
        got = {(e["id"], e["x"], e["y"], e["t"]) for e in rec["payload"]}
        assert got == want


def test_naive_flag_reproduces_grid_output(tmp_path):
    path = synth(tmp_path, "s.csv", 400, seed=6)
    g, n = tmp_path / "g.jsonl", tmp_path / "n.jsonl"
    assert main(["range", *query_args(path, g), "--q", "40,50"]) == 0
    assert main(["range", *query_args(path, n), "--q", "40,50",
                 "--naive"]) == 0
    assert g.read_text() == n.read_text()


def test_knn_cli_payload_shape(tmp_path):
    path = synth(tmp_path, "s.csv", 500, seed=9)
    out = tmp_path / "res.jsonl"
    rc = main(["knn", *query_args(path, out, r="15"), "--q", "40,50",
               "--k", "5"])
    assert rc == 0
    pts = load_points(path)
    for line, (start, members) in zip(out.read_text().splitlines(),
                                      windows_of(pts)):
        rec = json.loads(line)
        assert rec["type"] == "knn"
        want = oracle_knn(members, 40.0, 50.0, 15.0, 5)
        assert [e["id"] for e in rec["payload"]] == \
            [p.object_id for p, _ in want]
        dists = [e["distance"] for e in rec["payload"]]
        assert dists == sorted(dists)
        assert len(dists) <= 5


def test_join_cli_matches_oracle(tmp_path):
    s1 = synth(tmp_path, "s1.csv", 400, seed=10)
    s2 = synth(tmp_path, "s2.csv", 40, seed=11, rate=10)
    out = tmp_path / "res.jsonl"
    rc = main(["join", *query_args(s1, out, r="4"),
               "--query-input", str(s2)])
    assert rc == 0
    p1, p2 = load_points(s1), load_points(s2)
    both = p1 + p2
    for line, (start, _) in zip(out.read_text().splitlines(),
                                windows_of(both)):
        rec = json.loads(line)
        assert rec["type"] == "join"
        w1 = [p for p in p1 if start <= p.event_time < start + 10000]
        w2 = [p for p in p2 if start <= p.event_time < start + 10000]
        want = oracle_join(w1, w2, 4.0)
        assert {tuple(pair) for pair in rec["payload"]} == want


def test_metrics_csv_has_per_instance_rows(tmp_path):
    path = synth(tmp_path, "s.csv", 300, seed=12)
    out = tmp_path / "res.jsonl"
    mpath = tmp_path / "metrics.csv"
    rc = main(["range", *query_args(path, out), "--q", "40,50",
               "--parallelism", "3", "--metrics-out", str(mpath)])
    assert rc == 0
    with open(mpath, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "counter", "value"]
    by_counter = {}
    for name, counter, value in rows[1:]:
        by_counter.setdefault(counter, {})[name] = float(value)
    assert by_counter["consumed"]["router"] == 300
    tuples = by_counter["tuples"]
    assert {n for n in tuples if n.startswith("filter-")} == \
        {"filter-0", "filter-1", "filter-2"}
    assert sum(v for n, v in tuples.items() if n.startswith("filter-")) == \
        by_counter["routed"]["router"]
    assert "windows_fired" in by_counter
    stage_one = {"filter-0", "filter-1", "filter-2"}
    assert {name for name, _c, _v in rows[1:]} == \
        {"router", "pipeline"} | stage_one
    assert by_counter["windows_fired"].keys() == {"pipeline"}


def test_join_without_query_input_fails(tmp_path):
    path = synth(tmp_path, "s.csv", 50, seed=13)
    out = tmp_path / "res.jsonl"
    assert main(["join", *query_args(path, out, r="4")]) == 2


def test_stdin_source_matches_file_input(tmp_path, monkeypatch):
    pts = load_points(synth(tmp_path, "s.csv", 400, seed=9))
    path = tmp_path / "s.geojson"
    text = "".join(format_geojson_line(p) + "\n" for p in pts)
    path.write_text(text, encoding="utf-8")
    from_file, from_stdin = tmp_path / "f.jsonl", tmp_path / "s.jsonl"
    assert main(["range", *query_args(path, from_file), "--q", "40,50",
                 "--format", "geojson"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    args = query_args(path, from_stdin)[2:]  # drop --input PATH
    assert main(["range", *args, "--q", "40,50", "--format", "geojson",
                 "--source", "stdin"]) == 0
    assert from_file.read_bytes()
    assert from_stdin.read_bytes() == from_file.read_bytes()


def test_tcp_source_matches_file_input(tmp_path):
    path = synth(tmp_path, "s.csv", 400, seed=9)
    from_file, from_tcp = tmp_path / "f.jsonl", tmp_path / "t.jsonl"
    assert main(["range", *query_args(path, from_file), "--q", "40,50"]) == 0
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    sent = []

    def client():
        # Retry until the source listens; give up after about 10 s.
        for _ in range(1000):
            try:
                conn = socket.create_connection(("127.0.0.1", port))
                break
            except ConnectionRefusedError:
                time.sleep(0.01)
        else:
            return
        with conn:
            conn.sendall(path.read_bytes())
        sent.append(True)

    th = threading.Thread(target=client)
    th.start()
    try:
        args = query_args(path, from_tcp)[2:]  # drop --input PATH
        rc = main(["range", *args, "--q", "40,50", "--source", f"tcp:{port}"])
    finally:
        th.join(timeout=15)
    assert not th.is_alive()
    assert rc == 0 and sent
    assert from_file.read_bytes()
    assert from_tcp.read_bytes() == from_file.read_bytes()
    # The source closed its server socket: the port is free again.
    socket.create_server(("127.0.0.1", port)).close()


def test_zero_radius_fails(tmp_path):
    path = synth(tmp_path, "s.csv", 50, seed=14)
    out = tmp_path / "res.jsonl"
    assert main(["range", *query_args(path, out, r="0"),
                 "--q", "40,50"]) == 2


def test_missing_input_file_fails(tmp_path):
    out = tmp_path / "res.jsonl"
    rc = main(["range", "--bbox", BOX, "--grid", "30",
               "--r", "5", "--q", "40,50", "--out", str(out)])
    assert rc == 2


def test_join_rejects_loop_above_one(tmp_path, capsys):
    # Looped 3 times, each file would shift by its own span: the ordinary
    # stream would replay at 0/10000/10001/20001/20002/30002 ms against
    # query points at 0/4000/4001/8001/8002/12002 ms.
    s1 = tmp_path / "s1.csv"
    s1.write_text("a,0,10,10\nb,10000,20,20\n", encoding="utf-8")
    s2 = tmp_path / "s2.csv"
    s2.write_text("q1,0,10,10\nq2,4000,20,20\n", encoding="utf-8")
    out = tmp_path / "res.jsonl"
    rc = main(["join", *query_args(s1, out, r="4"),
               "--query-input", str(s2), "--loop", "3"])
    assert rc == 2
    assert "--loop" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,extra", [
    ("range", ["--q", "40,50", "--input", "{missing}"]),
    ("join", ["--query-input", "{missing}"]),
    ("range", ["--q", "40,50", "--loop", "0"]),
    ("range", ["--q", "40,50", "--replay-speed", "-5"]),
    ("range", ["--q", "40,50", "--replay-speed", "nan"]),
    ("join", ["--query-input", "{path}", "--replay-speed", "-5"]),
    ("range", ["--q", "40,50", "--source", "tcp:99999"]),
    ("range", ["--q", "40,50", "--source", "tcp:0"]),
    ("range", ["--q", "40,50", "--source", "tcp:{busy}"]),
])
def test_bad_input_exits_2_and_leaves_out_alone(tmp_path, kind, extra):
    path = synth(tmp_path, "s.csv", 50, seed=15)
    missing = str(tmp_path / "missing.csv")
    out = tmp_path / "res.jsonl"
    out.write_bytes(b"earlier results\n")
    # A listening socket makes its port busy for a tcp: source.
    with socket.create_server(("127.0.0.1", 0)) as busy:
        subs = {"missing": missing, "path": str(path),
                "busy": busy.getsockname()[1]}
        # A later --input overrides the one query_args gives.
        rc = main([kind, *query_args(path, out, r="4"),
                   *[a.format(**subs) for a in extra]])
    assert rc == 2
    assert out.read_bytes() == b"earlier results\n"


def test_cli_parses_each_distinct_stamp_once(tmp_path):
    # Whole-second stamps, as in a taxi log (synth writes milliseconds):
    # n lines share d stamps, so all but d parses are cache hits.
    rng = random.Random(19)
    d, per = 12, 40
    lines = [f"{s}-{j},{format_timestamp(1201966568000 + 1000 * s)},"
             f"{rng.uniform(0, 90)!r},{rng.uniform(0, 90)!r}\n"
             for s in range(d) for j in range(per)]
    path = tmp_path / "seconds.csv"
    path.write_text("".join(lines), encoding="utf-8")
    hits = parse_timestamp.cache_info().hits
    rc = main(["range", *query_args(path, tmp_path / "res.jsonl"),
               "--q", "40,50"])
    assert rc == 0
    assert parse_timestamp.cache_info().hits - hits >= d * per - d


def test_bad_bbox_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["range", "--bbox", "1,2,3", "--r", "5", "--q", "40,50"])


def test_bench_sweep_writes_schema_csv(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--n", "1500", "--reps", "1", "--parallelism", "2",
               "--sweep", "grid:10,20", "--out", str(out)])
    assert rc == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BENCH_HEADER
    assert len(rows) == 1 + 2 * 2
    assert {r[0] for r in rows[1:]} == {"grid"}
    assert {r[2] for r in rows[1:]} == {"grid", "naive"}
    for row in rows[1:]:
        assert float(row[3]) > 0


def test_bench_rejects_unknown_axis(tmp_path):
    rc = main(["bench", "--n", "500", "--sweep", "speed:1,2",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_bench_without_sweep_reports_every_query_kind(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--n", "1500", "--reps", "2", "--parallelism", "2",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["value"], r["variant"]) for r in rows] == \
        [(kind, variant) for kind in ("range", "knn", "join")
         for variant in ("grid", "naive")]
    assert {r["param"] for r in rows} == {"query"}
    for grid_row, naive_row in zip(rows[::2], rows[1::2]):
        assert grid_row["result_hash"] == naive_row["result_hash"]


def test_cli_import_skips_bench_modules_and_exports_resolve():
    # A query launch pays for every module the CLI imports at start-up;
    # the bench harness and its stdlib dependencies load only for
    # bench and synth.
    src = str(Path(gridstream.__file__).resolve().parents[1])
    code = ("import sys, gridstream.cli\n"
            "print(' '.join(m for m in ('gridstream.bench', 'statistics',"
            " 'hashlib', 'csv') if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
    assert [n for n in gridstream.__all__ if not hasattr(gridstream, n)] == []
