"""Sliding event-time windows with watermark-driven firing.

Window starts are the multiples of the slide: a record at time t joins
every window [s, s + length) with s % slide == 0, s <= t < s + length and
s >= 0. A watermark at time w certifies no later record will carry
t < w, so any window with end <= w can fire. The caller owns the
watermark and drops every record behind it, so a record a windower is
given never belongs to a window it has already fired.

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
    member_count: int

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
    every start in between, data or not.
    """

    length: int
    slide: int
    _pending: dict[int, list] = field(default_factory=dict)
    _next_fire: int | None = None
    _last_known: int | None = None
    _fired: bool = False

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
        if self._next_fire is None or first < self._next_fire:
            self._next_fire = first
        if self._last_known is None or last > self._last_known:
            self._last_known = last
        for s in range(first, last + 1, self.slide):
            entry = self._pending.get(s)
            if entry is None:
                entry = [0, {}]
                self._pending[s] = entry
            entry[0] += 1
            bucket = entry[1].get(key)
            if bucket is None:
                entry[1][key] = [item]
            else:
                bucket.append(item)

    def fire_ready(self, watermark: int, first_start: int | None = None,
                   max_start: int | None = None) -> list[WindowInstance]:
        """Fire every closed window up to the watermark, in start order.

        first_start/max_start widen the locally known range of window
        starts so partitions that saw no data for some window still emit
        it empty. Once anything has fired the first_start hint is inert:
        every start it could name was already emitted exactly once.
        """
        if first_start is not None and not self._fired and (
                self._next_fire is None or first_start < self._next_fire):
            self._next_fire = first_start
        if max_start is not None and (self._last_known is None
                                      or max_start > self._last_known):
            self._last_known = max_start
        fired: list[WindowInstance] = []
        if self._next_fire is None:
            return fired
        s = self._next_fire
        while s + self.length <= watermark:
            if self._last_known is not None and s > self._last_known:
                break
            entry = self._pending.pop(s, None)
            if entry is None:
                fired.append(WindowInstance(s, s + self.length, {}, 0))
            else:
                fired.append(WindowInstance(s, s + self.length, entry[1], entry[0]))
            s += self.slide
        self._next_fire = s
        if fired:
            self._fired = True
        return fired

    def pending_count(self) -> int:
        return len(self._pending)
