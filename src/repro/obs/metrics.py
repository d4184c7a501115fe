"""Thread-safe metrics primitives: counters, gauges, histograms.

The registry is deliberately small and stdlib-only.  Three design points
matter more than the data structures:

* **Zero overhead when off.**  The default observation's registry is
  :data:`NULL_REGISTRY`, whose children are shared singletons with no-op
  methods; instrumented code always calls
  ``obs.current().registry.counter(...)`` unconditionally and pays only
  attribute lookups and an empty call when metrics are off.
* **Exact cross-process aggregation.**  :meth:`MetricsRegistry.snapshot`
  and :meth:`MetricsRegistry.merge` carry a pool worker's counts home (see
  :mod:`repro.obs.observation`) -- counters and histogram buckets add,
  gauges take the last write.  Totals are exact, not sampled.
* **Prometheus text exposition.**  :func:`render_prometheus` emits the
  standard ``text/plain; version=0.0.4`` format (``# HELP``/``# TYPE``
  lines, ``_bucket{le=...}``/``_sum``/``_count`` for histograms) so
  ``GET /metrics`` on :mod:`repro.server.app` is scrapeable as-is.
"""

import threading

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "render_prometheus",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets, tuned for job/phase durations in seconds.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """Monotonically increasing value for one label set."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount=1.0):
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value for one label set."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = float(value)

    def inc(self, amount=1.0):
        self.value += amount

    def dec(self, amount=1.0):
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram for one label set."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets=DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last slot is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value):
        value = float(value)
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class _Family:
    """All children of one metric name, keyed by sorted label tuples."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name, kind, help_text, buckets=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = tuple(buckets) if buckets else DEFAULT_BUCKETS
        self.children = {}


def _label_key(labels):
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Thread-safe registry of labelled counters, gauges and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families = {}

    # -- instrument accessors -------------------------------------------
    def counter(self, name, help="", **labels):
        return self._child(name, "counter", help, labels, Counter)

    def gauge(self, name, help="", **labels):
        return self._child(name, "gauge", help, labels, Gauge)

    def histogram(self, name, help="", buckets=None, **labels):
        return self._child(name, "histogram", help, labels, Histogram, buckets)

    def _child(self, name, kind, help_text, labels, factory, buckets=None):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    "metric %r already registered as %s, not %s"
                    % (name, family.kind, kind)
                )
            child = family.children.get(key)
            if child is None:
                if factory is Histogram:
                    child = Histogram(family.buckets)
                else:
                    child = factory()
                family.children[key] = child
            return child

    # -- snapshot / merge -----------------------------------------------
    def snapshot(self):
        """Picklable dump of every family, suitable for :meth:`merge`."""
        out = {}
        with self._lock:
            for name, family in self._families.items():
                children = {}
                for key, child in family.children.items():
                    if family.kind == "histogram":
                        children[key] = {
                            "counts": list(child.counts),
                            "sum": child.total,
                            "count": child.count,
                        }
                    else:
                        children[key] = child.value
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "buckets": list(family.buckets),
                    "children": children,
                }
        return out

    def merge(self, snapshot):
        """Fold a :meth:`snapshot` from another process into this registry.

        Counters and histograms add; gauges take the incoming value
        (last write wins, which is the only sane cross-process semantic
        for an instantaneous reading).
        """
        for name, family in snapshot.items():
            kind = family["kind"]
            for key, payload in family["children"].items():
                labels = dict(key)
                if kind == "counter":
                    self.counter(name, family["help"], **labels).inc(payload)
                elif kind == "gauge":
                    self.gauge(name, family["help"], **labels).set(payload)
                else:
                    child = self.histogram(
                        name, family["help"],
                        buckets=family["buckets"], **labels
                    )
                    for index, count in enumerate(payload["counts"]):
                        child.counts[index] += count
                    child.total += payload["sum"]
                    child.count += payload["count"]

    # -- summaries ------------------------------------------------------
    def summary(self):
        """Flat JSON-friendly summary for bench records and REPORT.md."""
        out = {}
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                for key in sorted(family.children):
                    child = family.children[key]
                    label = name
                    if key:
                        label += "{%s}" % ",".join(
                            "%s=%s" % pair for pair in key
                        )
                    if family.kind == "histogram":
                        out[label] = {
                            "count": child.count,
                            "sum": round(child.total, 6),
                        }
                    else:
                        value = child.value
                        out[label] = round(value, 6)
        return out

    def families(self):
        """Sorted (name, family) pairs -- used by the Prometheus renderer."""
        with self._lock:
            return sorted(self._families.items())


class _NullChild:
    """Shared no-op child: accepts every instrument method, does nothing."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount=1.0):
        pass

    def dec(self, amount=1.0):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


_NULL_CHILD = _NullChild()


class NullRegistry:
    """Metrics off: every accessor returns the shared no-op child."""

    def counter(self, name, help="", **labels):
        return _NULL_CHILD

    def gauge(self, name, help="", **labels):
        return _NULL_CHILD

    def histogram(self, name, help="", buckets=None, **labels):
        return _NULL_CHILD

    def snapshot(self):
        return {}

    def merge(self, snapshot):
        pass

    def summary(self):
        return {}

    def families(self):
        return []


#: The registry of an observation that records no metrics.
NULL_REGISTRY = NullRegistry()


def _escape_label(value):
    # Label values escape backslash, double quote and newline (0.0.4 text
    # format); unescaped occurrences would corrupt the sample line.
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text):
    # HELP text escapes backslash and newline only (quotes stay literal
    # per the 0.0.4 text format).
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key, extra=None):
    pairs = ['%s="%s"' % (k, _escape_label(v)) for k, v in key]
    if extra:
        pairs.extend('%s="%s"' % (k, _escape_label(v)) for k, v in extra)
    if not pairs:
        return ""
    return "{%s}" % ",".join(pairs)


def _format_value(value):
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return "%d" % int(value)
    return repr(float(value))


def render_prometheus(registry):
    """Render *registry* in Prometheus text exposition format 0.0.4."""
    lines = []
    for name, family in registry.families():
        if family.help:
            lines.append("# HELP %s %s" % (name, _escape_help(family.help)))
        lines.append("# TYPE %s %s" % (name, family.kind))
        for key in sorted(family.children):
            child = family.children[key]
            if family.kind == "histogram":
                cumulative = 0
                for index, bound in enumerate(family.buckets):
                    cumulative += child.counts[index]
                    lines.append(
                        "%s_bucket%s %d"
                        % (name, _format_labels(key, [("le", _format_value(bound))]), cumulative)
                    )
                cumulative += child.counts[-1]
                lines.append(
                    "%s_bucket%s %d"
                    % (name, _format_labels(key, [("le", "+Inf")]), cumulative)
                )
                lines.append(
                    "%s_sum%s %s" % (name, _format_labels(key), _format_value(child.total))
                )
                lines.append(
                    "%s_count%s %d" % (name, _format_labels(key), child.count)
                )
            else:
                lines.append(
                    "%s%s %s" % (name, _format_labels(key), _format_value(child.value))
                )
    return "\n".join(lines) + "\n"
