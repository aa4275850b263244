"""Process-local metric primitives: counters and exact-merge histograms.

Everything here is deliberately boring: plain Python objects with
``__slots__``, no locks (the library is single-threaded per process;
cross-process aggregation goes through :meth:`MetricsRegistry.dump` /
:meth:`MetricsRegistry.merge`), and no I/O.  The cost model is the whole
point — when instrumentation is disabled no object in this module is
even touched (call sites guard on :data:`repro.obs.OBS` ``.enabled``),
and when it is enabled a counter increment is one attribute add.

Every value stream — span seconds, request latencies, batch sizes,
observed utilizations — goes into a :class:`Histogram`: fixed global
edges ``2**(k/8)`` from about 6e-8 to 1024, so a reported percentile is
at most 9.05 % above the exact nearest-rank value, and merges across
processes, shards or time windows are exact integer additions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = ["Counter", "Histogram", "MetricsRegistry", "HIST_EDGES"]

#: Log-spaced bucket-edge schema of every :class:`Histogram`:
#: ``2**(k / PER_OCTAVE)`` for ``k`` in ``[MIN_EXP*PER_OCTAVE,
#: MAX_EXP*PER_OCTAVE]``.  Edges are *fixed and global*, which is the
#: whole design: two histograms — from different processes, different
#: runs, or different time-window buckets — merge by adding their bucket
#: counts, exactly and associatively.  Powers of two are edges, so
#: integer observations such as batch sizes 1, 2, 4, ... report exactly.
_HIST_MIN_EXP = -24  #: ~60 ns resolution floor (seconds-denominated)
_HIST_MAX_EXP = 10  #: 1024 s ceiling before the overflow bucket
_HIST_PER_OCTAVE = 8  #: 2**(1/8) ~ 1.0905x bucket width

HIST_EDGES: tuple[float, ...] = tuple(
    2.0 ** (k / _HIST_PER_OCTAVE)
    for k in range(
        _HIST_MIN_EXP * _HIST_PER_OCTAVE, _HIST_MAX_EXP * _HIST_PER_OCTAVE + 1
    )
)

#: Bucket index of observations past the last edge.
_OVERFLOW = len(HIST_EDGES)

#: Schema tag stored with every transferable histogram state; merging
#: states with a different tag raises instead of silently mixing edges.
HIST_SCHEMA = f"log2[{_HIST_MIN_EXP}:{_HIST_MAX_EXP}:{_HIST_PER_OCTAVE}]"


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = int(value)

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Value-stream histogram over the fixed log-spaced :data:`HIST_EDGES`.

    Percentiles are quantized to bucket resolution (``2**(1/8)``), and
    **merges are exact and associative**: any grouping of the same
    observations into processes, shards, or time windows produces
    identical bucket counts (pinned by a hypothesis property in the
    engine test suite).

    ``counts`` is sparse, ``{bucket_index: n}`` for non-empty buckets
    only.  Bucket ``i`` tallies observations ``v`` with
    ``HIST_EDGES[i-1] < v <= HIST_EDGES[i]``; bucket ``0`` is the
    underflow bucket (``v <= HIST_EDGES[0]``, including zeros and
    negatives) and bucket ``len(HIST_EDGES)`` the overflow bucket
    (``v > HIST_EDGES[-1]``).  ``count``/``min``/``max`` are exact and
    merge exactly; ``total`` is an exact per-process sum whose merge is
    float addition (associative only to rounding), so it is excluded
    from :meth:`digest`.
    """

    __slots__ = ("name", "counts", "count", "total", "min", "max")

    def __init__(self, name: str = ""):
        self.name = name
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        i = bisect_left(HIST_EDGES, value)
        self.counts[i] = self.counts.get(i, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """``q``-th percentile (``0 <= q <= 100``); ``nan`` if empty.

        Reported as the upper edge of the bucket holding the
        nearest-rank observation, clamped to the exact observed
        ``[min, max]`` — deterministic, identical however the underlying
        observations were merged, and for values within the edge range
        never below the exact nearest-rank value nor more than
        ``2**(1/8)`` times it.
        """
        if not self.count:
            return float("nan")
        rank = max(1, -(-self.count * min(max(q, 0.0), 100.0) // 100))
        running = 0
        for i, n in sorted(self.counts.items()):
            running += n
            if running >= rank:
                if i == _OVERFLOW:  # no upper edge
                    return self.max
                return min(max(HIST_EDGES[i], self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def as_dict(self) -> dict:
        """Bounded reporting form: count/total/min/max/p50/p95/p99/overflow.

        ``overflow`` is the count of observations past the last bucket
        edge — manifest rendering surfaces it so a saturated histogram
        is visible at a glance.
        """
        if self.count == 0:
            return {
                "count": 0,
                "total": 0.0,
                "min": None,
                "max": None,
                "p50": None,
                "p95": None,
                "p99": None,
                "overflow": 0,
            }
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "overflow": self.counts.get(_OVERFLOW, 0),
        }

    def digest(self) -> dict:
        """The exactly-merge-invariant identity of this histogram.

        Contains only fields whose merge is exact integer/min/max
        arithmetic — ``jobs=1`` and ``jobs=N`` runs over the same
        observations produce equal digests.  ``total`` (float addition)
        is deliberately excluded.
        """
        return {
            "schema": HIST_SCHEMA,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "counts": dict(sorted(self.counts.items())),
        }

    def state(self) -> dict:
        """Full transferable state (sparse counts; cross-process merging)."""
        return {
            "schema": HIST_SCHEMA,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "counts": {str(i): n for i, n in sorted(self.counts.items())},
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` in (exact bucket adds)."""
        schema = state.get("schema")
        if schema != HIST_SCHEMA:
            raise ValueError(
                f"histogram schema mismatch: {schema!r} != {HIST_SCHEMA!r}"
            )
        if not state["count"]:
            return
        self.count += int(state["count"])
        self.total += float(state["total"])
        self.min = min(self.min, float(state["min"]))
        self.max = max(self.max, float(state["max"]))
        for index, n in state["counts"].items():
            i = int(index)
            self.counts[i] = self.counts.get(i, 0) + int(n)

    def merge(self, other: "Histogram") -> None:
        """Fold another in-process :class:`Histogram` in (exact)."""
        if other.count:
            self.count += other.count
            self.total += other.total
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            for i, n in other.counts.items():
                self.counts[i] = self.counts.get(i, 0) + n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram {self.name} n={self.count}>"


@dataclass
class MetricsRegistry:
    """A named bag of counters and histograms.

    ``counter(name)`` / ``histogram(name)`` create on first use, so call
    sites never need registration boilerplate.  :meth:`snapshot` is the
    human/JSON reporting form; :meth:`dump` + :meth:`merge` is the exact
    transfer form the engine uses to pull worker-process metrics back
    into the parent registry.
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def snapshot(self) -> dict:
        """Reporting form: ``{"counters", "histograms"}``.

        Counters map to ints, histograms to their
        ``count/total/min/max/p50/p95/p99/overflow`` digests; keys are
        sorted so the output is stable for diffing and tests.
        """
        return {
            "counters": {
                name: self.counters[name].value for name in sorted(self.counters)
            },
            "histograms": {
                name: self.histograms[name].as_dict()
                for name in sorted(self.histograms)
            },
        }

    def dump(self) -> dict:
        """Transfer form: exact counter values + histogram states."""
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "histograms": {
                name: h.state() for name, h in self.histograms.items()
            },
        }

    def merge(self, dump: dict) -> None:
        """Fold a :meth:`dump` (e.g. from a worker process) into this registry.

        Counters and histograms are *independent namespaces*: a name that
        arrives as a counter in one dump and as a histogram in another
        coexists as both (``snapshot()["counters"][name]`` and
        ``snapshot()["histograms"][name]``) — merging never converts one
        kind into the other and never raises on a kind collision.
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, state in dump.get("histograms", {}).items():
            self.histogram(name).merge_state(state)

    def clear(self) -> None:
        self.counters.clear()
        self.histograms.clear()
