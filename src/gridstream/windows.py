"""Sliding event-time windows with watermark-driven firing.

Window starts are the multiples of the slide: a record at time t joins
every window [s, s + length) with s % slide == 0, s <= t < s + length and
s >= 0. A watermark at time w certifies no later record will carry
t < w, so any window with end <= w can fire. The caller owns the
watermark and drops every record behind it, so a record a windower is
given never belongs to a window it has already fired. The caller also
owns the range of window starts: it passes the first and last starts it
has seen to every firing.

Each open window keeps its members bucketed by an opaque key (cell key
in practice) so a consumer can visit only the buckets it cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator


class WindowError(ValueError):
    """Invalid window configuration."""


@dataclass(frozen=True)
class WindowSpec:
    """Sliding window parameters, all in milliseconds."""

    length: int
    slide: int
    lateness: int = 0

    def __post_init__(self) -> None:
        if self.slide <= 0:
            raise WindowError(f"slide must be positive, got {self.slide}")
        if self.length < self.slide:
            raise WindowError(f"length {self.length} must be >= slide {self.slide}")
        if self.lateness < 0:
            raise WindowError(f"lateness must be >= 0, got {self.lateness}")


def earliest_start(t: int, length: int, slide: int) -> int:
    """Smallest valid start whose window covers t (starts never negative)."""
    s = ((t - length) // slide + 1) * slide
    return max(s, 0)


def latest_start(t: int, slide: int) -> int:
    return (t // slide) * slide


@dataclass
class WindowInstance:
    """One fired window: members grouped by key, in arrival order per bucket."""

    start: int
    end: int
    buckets: dict[Hashable, list[Any]]

    @property
    def member_count(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())

    @property
    def members(self) -> Iterator[Any]:
        for bucket in self.buckets.values():
            yield from bucket


@dataclass
class SlidingWindower:
    """Assigns records to sliding windows and fires them in start order.

    One windower instance sees only its partition of the stream, so local
    silence does not imply global silence: empty windows that fall between
    data-bearing ones elsewhere must still fire (with no members) to keep
    all partitions emitting the same window sequence. fire_ready takes the
    globally observed first and last window starts as hints and fires
    every start in between, data or not, so the windower itself keeps
    only its pending windows and the next start to fire.
    """

    length: int
    slide: int
    # Window start -> that window's buckets, {key: [items]}.
    _pending: dict[int, dict[Hashable, list[Any]]] = field(
        default_factory=dict)
    # None until the first window fires; fire_ready then resumes here.
    _next_fire: int | None = None

    def __post_init__(self) -> None:
        if self.slide <= 0:
            raise WindowError(f"window slide must be positive, got {self.slide}")
        if self.length < self.slide:
            raise WindowError(f"window length {self.length} must be >= slide "
                              f"{self.slide}")

    def add(self, t: int, item: Any, key: Hashable = None) -> None:
        """Insert one record into every window covering t. The caller
        guarantees none of those windows has fired."""
        first = earliest_start(t, self.length, self.slide)
        last = latest_start(t, self.slide)
        for s in range(first, last + 1, self.slide):
            buckets = self._pending.get(s)
            if buckets is None:
                self._pending[s] = {key: [item]}
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [item]
            else:
                bucket.append(item)

    def fire_ready(self, watermark: float, first_start: int,
                   max_start: int) -> list[WindowInstance]:
        """Fire every closed window from first_start to max_start up to
        the watermark, in start order.

        first_start/max_start are the globally observed first and last
        window starts, so a partition that saw no data for some window
        still emits it empty. Once anything has fired the first_start
        hint is inert: every start it could name was already emitted
        exactly once.
        """
        fired: list[WindowInstance] = []
        s = first_start if self._next_fire is None else self._next_fire
        while s <= max_start and s + self.length <= watermark:
            fired.append(WindowInstance(s, s + self.length,
                                        self._pending.pop(s, {})))
            s += self.slide
        if fired:
            self._next_fire = s
        return fired

    def pending_count(self) -> int:
        return len(self._pending)
