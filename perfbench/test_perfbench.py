"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from gridstream.oracle import oracle_join  # noqa: E402
from openloop import attribute, closing_index, percentile  # noqa: E402
from reference import (bucket_join, check_lines, expected_lines,  # noqa: E402
                       fired_starts, window_starts)
from workloads import (BBOX, WORKLOADS, Record, generate,  # noqa: E402
                       render)


@pytest.mark.parametrize("t,length,slide,starts", [
    (12_000, 10_000, 5_000, [5_000, 10_000]),
    (10_000, 10_000, 5_000, [5_000, 10_000]),
    (9_999, 10_000, 5_000, [0, 5_000]),
    (0, 10_000, 5_000, [0]),
    # Earlier than one window length: the windows that would start
    # before 0 do not exist.
    (3_000, 10_000, 5_000, [0]),
    (2_500, 20_000, 1_000, [0, 1_000, 2_000]),
    (19_999, 20_000, 1_000, list(range(0, 20_000, 1_000))),
    (7_000, 5_000, 5_000, [5_000]),
    (-1, 10_000, 5_000, []),
])
def test_window_starts_hand_worked(t, length, slide, starts):
    assert list(window_starts(t, length, slide)) == starts


def test_fired_starts_cover_every_window_between_first_and_last():
    assert list(fired_starts([3_000, 26_000], 10_000, 5_000)) == [
        0, 5_000, 10_000, 15_000, 20_000, 25_000]
    assert list(fired_starts([40_000], 10_000, 5_000)) == [35_000, 40_000]


def test_closing_record_is_first_at_or_past_window_end():
    times = [0, 0, 1_000, 1_000, 2_000]
    assert closing_index(times, 1_000) == 2
    assert closing_index(times, 999) == 2
    assert closing_index(times, 2_000) == 4
    assert closing_index(times, 2_001) is None


def test_latency_counts_from_the_closing_record_due_time():
    times = [0, 0, 1_000, 1_000, 2_000]
    # At 10 records/s record 2 is due at 0.2 s and record 4 at 0.4 s.
    lat = attribute([(0.25, 1_000), (0.45, 2_000), (0.9, 3_000)], times, 10)
    assert lat == pytest.approx([0.05, 0.05])


def test_percentile_reports_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 50) == (50.0, 50)
    assert percentile(values, 90) == (90.0, 10)
    assert percentile(values[:99], 90) == (91.0, 9)
    assert percentile([7.0], 90) == (7.0, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_bucket_join_matches_oracle():
    rng = random.Random(3)
    s1 = [Record(f"a{i % 17}", 0, rng.uniform(0, 1), rng.uniform(0, 1))
          for i in range(300)]
    s2 = [Record(f"b{i}", 0, rng.uniform(0, 1), rng.uniform(0, 1))
          for i in range(40)]
    for r in (0.01, 0.05, 0.2):
        assert bucket_join(s1, s2, r) == oracle_join(s1, s2, r)


def test_check_lines_counts_each_kind_of_fault():
    w = WORKLOADS["range-sparse"]
    pts = [Record("a", 0, *w.q), Record("b", 12_000, *w.q)]
    expected = expected_lines(w, pts, [])
    assert [e["window_start"] for e in expected] == [0, 5_000, 10_000]
    good = [json.dumps(e).encode() for e in expected]
    assert check_lines(good, expected).failed == 0
    missing = check_lines(good[:2], expected)
    assert (missing.failed, missing.wrong) == (1, 0)
    changed = json.loads(good[1])
    changed["payload"] = []
    different = check_lines([good[0], json.dumps(changed).encode(), good[2]],
                            expected)
    assert (different.failed, different.wrong) == (1, 1)
    reordered = check_lines([good[1], good[0], good[2]], expected)
    assert reordered.failed == 1
    assert check_lines(good + [b"not json"], expected).wrong == 1


def test_generator_is_seeded_ordered_and_inside_the_box():
    for w in WORKLOADS.values():
        a1, a2 = generate(w, 5)
        b1, b2 = generate(w, 5)
        assert render(w, a1) == render(w, b1) and a2 == b2
        assert render(w, a1) != render(w, generate(w, 6)[0])
        for stream in (a1, a2):
            times = [p.event_time for p in stream]
            assert times == sorted(times)
            assert all(BBOX[0] <= p.x <= BBOX[2] and BBOX[1] <= p.y <= BBOX[3]
                       for p in stream)
        assert bool(a2) == (w.kind == "join")
