"""Dependency-free metrics registry: counters, gauges, histograms, labels.

The registry is the single aggregation point of the observability
subsystem (docs/observability.md).  It deliberately mirrors the
Prometheus data model — metric *families* identified by a name, a type,
and a fixed tuple of label names; *children* identified by a concrete
label-value tuple — while staying pure Python with zero dependencies, so
it can be imported from the hot path without dragging anything in.

Concurrency model: the registry assumes a **single writer** (the
simulated machine executes sequentially, like the ledger it mirrors).
Readers — the Prometheus exposition thread in
:mod:`repro.obs.exporters` — only ever read plain floats/ints under the
GIL, which can at worst observe a metric mid-batch, never corrupt it.

Typical usage::

    reg = MetricsRegistry()
    batches = reg.counter("repro_batches_total", "Batches applied", ("kind",))
    batches.labels(kind="insert").inc()
    work = reg.histogram("repro_batch_work", "Ledger work per batch",
                         buckets=(10, 100, 1000))
    work.observe(412.0)
    text = reg.expose()          # Prometheus text exposition
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for ledger work/depth-style magnitudes
#: (powers of four: wide dynamic range, few buckets).
DEFAULT_WORK_BUCKETS: Tuple[float, ...] = tuple(4.0 ** k for k in range(11))

#: Default histogram buckets for wall-clock seconds (Prometheus-style).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """Invalid metric registration or use (bad name, label mismatch, ...)."""


def _check_value(v: float) -> float:
    v = float(v)
    if math.isnan(v) or math.isinf(v):
        raise MetricError(f"metric values must be finite, got {v!r}")
    return v


# --------------------------------------------------------------------- #
# Children (one concrete time series each)
# --------------------------------------------------------------------- #
class Counter:
    """A monotonically non-decreasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        amount = _check_value(amount)
        if amount < 0:
            raise MetricError("counters can only increase")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = _check_value(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += _check_value(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= _check_value(amount)


class Histogram:
    """Fixed-boundary histogram: per-bucket counts plus sum and count.

    ``bounds`` are the *upper* bucket boundaries, strictly increasing; an
    implicit ``+Inf`` bucket catches the rest.  ``counts[i]`` is the
    number of observations ``<= bounds[i]`` but greater than the previous
    boundary (non-cumulative internally; exposition emits the cumulative
    ``le`` form Prometheus expects).
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = _check_value(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``[(le, cumulative_count)]`` including the ``+Inf`` bucket."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.bounds, self.counts):
            running += c
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


# --------------------------------------------------------------------- #
# Families
# --------------------------------------------------------------------- #
class MetricFamily:
    """A named metric with a fixed label schema and per-label-set children.

    A family with no label names acts as its own single child: calling
    ``inc`` / ``set`` / ``observe`` directly proxies to ``labels()``.
    """

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for ln in labelnames:
            if not _LABEL_RE.match(ln) or ln.startswith("__"):
                raise MetricError(f"invalid label name {ln!r}")
        if len(set(labelnames)) != len(labelnames):
            raise MetricError(f"duplicate label names in {labelnames!r}")
        if kind not in _KINDS:
            raise MetricError(f"unknown metric kind {kind!r}")
        if kind == "histogram":
            bounds = tuple(buckets if buckets is not None else DEFAULT_WORK_BUCKETS)
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                raise MetricError("histogram buckets must be strictly increasing")
            if not bounds:
                raise MetricError("histogram needs at least one bucket boundary")
            if any(math.isnan(b) or math.isinf(b) for b in bounds):
                raise MetricError("histogram bucket boundaries must be finite")
        else:
            if buckets is not None:
                raise MetricError("buckets only apply to histograms")
            bounds = None
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.buckets = bounds
        self._children: Dict[Tuple[str, ...], object] = {}

    # -- children ------------------------------------------------------ #
    def labels(self, **labelvalues: str):
        """The child for one concrete label-value assignment (created on
        first use).  Label sets are isolated: distinct values never share
        state."""
        try:
            key = tuple([str(labelvalues[ln]) for ln in self.labelnames])
        except KeyError:
            key = None
        if key is None or len(labelvalues) != len(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        child = self._children.get(key)
        if child is None:
            child = (
                Histogram(self.buckets) if self.kind == "histogram"
                else _KINDS[self.kind]()
            )
            self._children[key] = child
        return child

    def _default_child(self):
        if self.labelnames:
            raise MetricError(
                f"{self.name} has labels {self.labelnames}; use .labels(...)"
            )
        return self.labels()

    # unlabeled-family conveniences
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    # -- reading ------------------------------------------------------- #
    def samples(self) -> List[Tuple[Dict[str, str], object]]:
        """``[(labels_dict, child)]`` over all materialized children."""
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in sorted(self._children.items())
        ]

    def value(self, **labelvalues: str) -> float:
        """Current value of a counter/gauge child (0.0 if never touched)."""
        if self.kind == "histogram":
            raise MetricError("histograms have no single value; use samples()")
        key = tuple(str(labelvalues.get(ln, "")) for ln in self.labelnames)
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        child = self._children.get(key)
        return child.value if child is not None else 0.0


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class MetricsRegistry:
    """Holds metric families; registration is idempotent per schema.

    Re-registering an existing name with the *same* kind, label names,
    and buckets returns the existing family (so independent subsystems
    can each declare the metrics they touch); any schema mismatch raises
    :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        fam = self._families.get(name)
        if fam is not None:
            same = (
                fam.kind == kind
                and fam.labelnames == tuple(labelnames)
                and fam.buckets == (tuple(buckets) if buckets is not None
                                    else fam.buckets if kind == "histogram"
                                    else None)
            )
            if not same:
                raise MetricError(
                    f"metric {name!r} already registered with a different schema"
                )
            return fam
        fam = MetricFamily(name, help, kind, labelnames, buckets)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help, "counter", labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self._register(name, help, "histogram", labelnames, buckets)

    # -- reading ------------------------------------------------------- #
    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> Iterable[MetricFamily]:
        return [self._families[k] for k in sorted(self._families)]

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Flat ``{name: {label_repr: value}}`` snapshot of scalar metrics
        (handy for tests and offline analysis; histograms are skipped)."""
        out: Dict[str, Dict[str, float]] = {}
        for fam in self.families():
            if fam.kind == "histogram":
                continue
            out[fam.name] = {
                ",".join(f"{k}={v}" for k, v in sorted(labels.items())): child.value
                for labels, child in fam.samples()
            }
        return out

    def expose(self) -> str:
        """Prometheus text exposition (see :mod:`repro.obs.exporters`)."""
        from repro.obs.exporters import render_prometheus

        return render_prometheus(self)
