"""The benchmark's workloads and its own seeded input generator.

Inputs never come from ``gridstream synth`` or ``gridstream.bench``: a
change to the program must not be able to change the data it is judged
on. Every record is drawn from ``random.Random(seed)`` with the stdlib
only, so one seed always gives byte-identical files.

The stream imitates a taxi fleet reporting about 250 records per
event-second over the default Beijing box. Each input stream is
non-decreasing in event time, and every point lies inside the box, so
with lateness 0 no record is dropped and every window the program fires
can be predicted from the records alone.
"""

from __future__ import annotations

import calendar
import json
import random
import time
from dataclasses import dataclass

BBOX = (115.5, 39.6, 117.6, 41.1)
CENTRE = ((BBOX[0] + BBOX[2]) / 2, (BBOX[1] + BBOX[3]) / 2)
RATE = 250              # ordinary records per event-second
QUERY_RATE = 8          # join query records per event-second
FLEET = 2000            # taxi ids in the ordinary stream
QUERY_FLEET = 200       # ids in the join query stream
CLUSTERS = 8
CLUSTER_STD = 0.05
START_MS = calendar.timegm((2008, 2, 2, 13, 30, 0)) * 1000
PARALLELISM = 2
# Open-loop input rate, records per wall second: under a third of the
# grid's capacity on every workload even in the machine's slow periods.
OPEN_RATE = 10_000


@dataclass(frozen=True)
class Workload:
    """One query over one generated input.

    ``n`` ordinary records are replayed from a file for throughput;
    ``open_n`` of them (a prefix) are written to ``--source stdin`` at
    ``OPEN_RATE`` records per wall second for latency; ``setup_n`` (one
    window of event time) are replayed for the set-up time.
    """

    name: str
    kind: str               # range | knn | join
    fmt: str                # csv | geojson
    n: int
    r: float
    length: int
    slide: int
    open_n: int
    k: int = 0
    q: tuple[float, float] = CENTRE

    @property
    def setup_n(self) -> int:
        return self.length * RATE // 1000

    def query_args(self) -> list[str]:
        """The CLI arguments common to every run of this workload."""
        args = [self.kind, "--format", self.fmt, "--r", repr(self.r),
                "--window-size-ms", str(self.length),
                "--window-slide-ms", str(self.slide),
                "--lateness-ms", "0", "--parallelism", str(PARALLELISM)]
        if self.kind != "join":
            args += ["--q", f"{self.q[0]!r},{self.q[1]!r}"]
        if self.kind == "knn":
            args += ["--k", str(self.k)]
        return args


WORKLOADS = {
    w.name: w for w in (
        # Headline case: the layers hold 9 of 16,200 cells, so parsing and
        # routing do nearly all the work.
        Workload("range-sparse", "range", "csv", n=150_000, r=0.004,
                 length=10_000, slide=5_000, open_n=70_250),
        # The layers hold 5,329 cells and each record is in 20 windows, so
        # windows, refine and merge do about half the work.
        Workload("knn-dense", "knn", "csv", n=100_000, r=0.5, k=10,
                 length=20_000, slide=1_000, open_n=20_000),
        # GeoJSON with integer timestamps, clustered points, a query
        # stream replicated by the router and many pairs to serialise.
        Workload("join-clustered", "join", "geojson", n=50_000, r=0.01,
                 length=10_000, slide=5_000, open_n=50_000),
    )
}


@dataclass(frozen=True)
class Record:
    """One generated record, with the exact values the program parses.

    The field names match ``gridstream.streams.SpatialPoint`` so the
    brute-force oracle accepts records as they are.
    """

    object_id: str
    event_time: int
    x: float
    y: float


def _stamp(millis: int) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(millis // 1000))


def csv_line(rec: Record) -> str:
    return f"{rec.object_id},{_stamp(rec.event_time)},{rec.x!r},{rec.y!r}\n"


def geojson_line(rec: Record) -> str:
    return json.dumps({
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [rec.x, rec.y]},
        "properties": {"oID": rec.object_id, "timestamp": rec.event_time},
    }, separators=(",", ":")) + "\n"


def _uniform(rng: random.Random) -> tuple[float, float]:
    return (round(rng.uniform(BBOX[0], BBOX[2]), 6),
            round(rng.uniform(BBOX[1], BBOX[3]), 6))


def _clustered(rng: random.Random, centres) -> tuple[float, float]:
    cx, cy = centres[rng.randrange(len(centres))]
    x = min(max(rng.gauss(cx, CLUSTER_STD), BBOX[0]), BBOX[2])
    y = min(max(rng.gauss(cy, CLUSTER_STD), BBOX[1]), BBOX[3])
    return round(x, 6), round(y, 6)


def generate(w: Workload, seed: int) -> tuple[list[Record], list[Record]]:
    """The ordinary stream and (join only) the query stream for a seed.

    CSV workloads carry second-granular timestamps, as taxi logs do, so
    250 consecutive records share one event time. The join streams carry
    epoch milliseconds: the ordinary stream one record every 4 ms, the
    query stream one every 125 ms over the same span.
    """
    rng = random.Random(f"{w.name}:{seed}")
    if w.kind == "join":
        centres = [(rng.uniform(BBOX[0] + 0.2, BBOX[2] - 0.2),
                    rng.uniform(BBOX[1] + 0.2, BBOX[3] - 0.2))
                   for _ in range(CLUSTERS)]
        s1 = [Record(f"t{rng.randrange(FLEET)}", START_MS + i * 1000 // RATE,
                     *_clustered(rng, centres)) for i in range(w.n)]
        n2 = w.n * QUERY_RATE // RATE
        s2 = [Record(f"q{rng.randrange(QUERY_FLEET)}",
                     START_MS + j * 1000 // QUERY_RATE,
                     *_clustered(rng, centres)) for j in range(n2)]
        return s1, s2
    s1 = [Record(f"t{rng.randrange(FLEET)}",
                 START_MS + (i // RATE) * 1000, *_uniform(rng))
          for i in range(w.n)]
    return s1, []


def render(w: Workload, records: list[Record]) -> bytes:
    line = geojson_line if w.fmt == "geojson" else csv_line
    return "".join(line(r) for r in records).encode("utf-8")
