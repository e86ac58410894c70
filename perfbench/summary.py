"""The benchmark's arithmetic: percentiles, the tail rule, quality gaps, and
per-layer numbers from recorded spans."""

from __future__ import annotations

import math

from spans import has_ancestor, self_times

# percentiles the tail rule chooses from
TAIL_LADDER = (50, 60, 70, 75, 80, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


def _rank(n, p):
    # rounded first so that, say, 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100, 9)))


def nearest_rank(values, p):
    """The p-th percentile of `values` by the nearest-rank method."""
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n):
    """The highest ladder percentile with at least ten of n samples beyond
    it, or None when n is too small for any."""
    ok = [p for p in TAIL_LADDER if beyond(n, p) >= TAIL_BEYOND]
    return max(ok) if ok else None


def solver_gap(achieved, optimum):
    """Upper over lower bound for a solver: achieved / reference optimum."""
    return achieved / optimum


def bound_gap(bound, optimum):
    """Upper over lower bound for a lower bound: reference optimum / bound."""
    return optimum / bound


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(samples, percentile):
    """End-to-end metrics of one measured loop from its (instance, solve_s,
    ok, gap) samples.

    instances_per_s is checked answers per second of solve time;
    solve_p50_s and solve_tail_s are nearest-rank percentiles of the solve
    times, the tail at the given percentile. quality_gap is the geometric
    mean of every answer's gap.
    """
    times = [t for _, t, _, _ in samples]
    ok = sum(1 for _, _, good, _ in samples if good)
    gaps = [g for _, _, _, g in samples if g is not None]
    return {
        "instances_per_s": ok / sum(times),
        "solve_p50_s": nearest_rank(times, 50),
        "solve_tail_s": nearest_rank(times, percentile),
        "checked_frac": ok / len(samples),
        "quality_gap": geomean(gaps) if gaps else 0.0,
    }


def layer_metrics(spans, n_solves, overhead_ratio, spec):
    """Per-layer metrics named in `spec` (layers.json's per_layer list).
    Counts and times are per timed solve; ratios are not."""
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def pick(entry, name=None):
        name = name or entry["span"]
        idx = by_name.get(name, [])
        if entry.get("outer"):
            idx = [i for i in idx if not has_ancestor(spans, i, name)]
        if entry.get("within"):
            idx = [i for i in idx if has_ancestor(spans, i, entry["within"])]
        return idx

    def total(idx):
        return sum(spans[i].end - spans[i].start for i in idx)

    out = {}
    for entry in spec:
        stat = entry["stat"]
        idx = pick(entry) if "span" in entry else []
        if stat == "calls":
            v = len(idx) / n_solves
        elif stat == "self_s":
            v = sum(selfs[i] for i in idx) / n_solves
        elif stat == "total_s":
            v = total(idx) / n_solves
        elif stat == "value":
            v = sum(spans[i].value for i in idx) / n_solves
        elif stat == "hit_ratio":
            v = sum(spans[i].value for i in idx) / len(idx) if idx else 0.0
        elif stat == "share":
            whole = total(by_name.get(entry["within"], []))
            v = total(idx) / whole if whole else 0.0
        elif stat == "overhead":
            v = overhead_ratio
        else:
            raise ValueError("unknown stat %r" % stat)
        out[entry["name"]] = v
    return out
