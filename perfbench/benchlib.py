"""Statistics and trace analysis for perfbench (stdlib only).

- quartiles / spread: the run-to-run summary the benchmark reports;
- self_times / layer_totals: span self time (duration minus the union of
  its children's intervals) and per-layer totals from a span CSV;
- round_durations: round cadence from the gradient spans of one run;
- verdict / compare_sets: the two-result-set comparison rule.
"""

import csv
import math
import statistics
from collections import defaultdict


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty list")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median (0 when the median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def percentile(values, p):
    """Linear-interpolation percentile, p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty list")
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


# --- spans ------------------------------------------------------------------

class Span:
    __slots__ = ("id", "parent", "run", "thread", "name", "start", "end", "count")

    def __init__(self, id, parent, run, thread, name, start, end, count=1):
        self.id, self.parent, self.run, self.thread = id, parent, run, thread
        self.name, self.start, self.end, self.count = name, start, end, count

    @property
    def duration(self):
        return self.end - self.start


def read_spans(path):
    spans = []
    with open(path, newline="") as f:
        rows = csv.reader(f)
        next(rows)
        for i, p, r, t, name, s, e, c in rows:
            spans.append(Span(int(i), int(p), int(r), int(t), name, int(s), int(e), int(c)))
    return spans


def covered(interval, children):
    """Length of `interval` covered by the union of `children` intervals."""
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in children if e > lo and s < hi)
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """{span id: self time} — duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered((s.start, s.end), children.get(s.id, ()))
            for s in spans}


def layer_totals(spans):
    """{name: (calls, total time, self time)} summed over every span."""
    own = self_times(spans)
    totals = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        t = totals[s.name]
        t[0] += s.count
        t[1] += s.duration
        t[2] += own[s.id]
    return {k: tuple(v) for k, v in totals.items()}


def round_durations(grad_spans, honest):
    """Round lengths of one run from its gradient spans: a round starts with
    every `honest`-th gradient call (fixed roster), so the cadence of those
    starts is the round period on the critical path."""
    starts = sorted(s.start for s in grad_spans)[::honest]
    return [b - a for a, b in zip(starts, starts[1:])]


# --- comparison -------------------------------------------------------------

def pair_wins(parent, change, better):
    """Share of index-paired runs the change wins; ties count for neither."""
    pairs = list(zip(parent, change))
    if not pairs:
        return 0.0
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    return wins / len(pairs)


def verdict(parent, change, bound, better):
    """improved / unchanged / worse / unresolved for one (workload, metric).

    Improved: the change wins at least 9 in 10 pairs and the medians differ
    by more than the parent's interquartile range.  Otherwise, when the
    parent's own spread is wider than the bound the result is unresolved
    (unless every change run beats every parent run); else worse when the
    change's median is worse than the parent's by more than `bound` of it,
    and unchanged when not."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * (cm - pm)
    if pair_wins(parent, change, better) >= 0.9 and gain > (p3 - p1):
        return "improved"
    dominates = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if spread(parent) > bound:
        return "improved" if dominates else "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "unchanged"


def compare_sets(parent_results, change_results, bounds):
    """Rows per (workload, metric) present in both result lists.

    Each result is a dict with "workload" and "metrics"
    ({name: {"value", "unit"}}); `bounds` maps a metric to
    (bound, better)."""
    def collect(results):
        out = defaultdict(list)
        for r in results:
            for name, m in r["metrics"].items():
                out[(r["workload"], name)].append(m["value"])
        return out

    a, b = collect(parent_results), collect(change_results)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        bound, better = bounds.get(metric, (0.1, "lower"))
        pa, pb = a[key], b[key]
        rows.append({
            "workload": workload, "metric": metric,
            "parent": quartiles(pa), "change": quartiles(pb),
            "runs": (len(pa), len(pb)),
            "wins": pair_wins(pa, pb, better),
            "verdict": verdict(pa, pb, bound, better),
        })
    return rows
