"""Lower-bound certifiers.

Three independent routes: the metric distance bound (anchor pairs), a Sperner
coloring certificate on square grids, and a cycle linear program decided by a
cutting-plane loop with an exact-rational separation oracle. Everything runs
in exact arithmetic; certificates are explicit (a trichromatic triangle, or a
list of short directed cycles whose equalities are inconsistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .core import (SolverError, ValidationError, _normalize_edge,
                   distance_lower_bound, gen_grid)


# ---------------------------------------------------------------------------
# distance bound


def distance_stretch_lower_bound(instance):
    """ceil of max d_H(a,b)/d_G(a,b) over anchor pairs; stretch is an integer
    at least that ratio, so rounding up is sound."""
    return max(1, ceil(distance_lower_bound(instance)))


# ---------------------------------------------------------------------------
# Sperner certificate on grids


def segment_coloring(k):
    """Split cycle indices 0..k-1 into three contiguous color segments of
    sizes floor(k/3), floor(k/3), and the remainder."""
    third = k // 3
    return tuple([0] * third + [1] * third + [2] * (k - 2 * third))


def retraction_coloring(instance, retraction):
    """Color every vertex by the segment its image's anchor index falls in."""
    seg = segment_coloring(instance.k)
    return tuple(seg[instance.anchor_index(retraction.image(v))]
                 for v in range(instance.n))


def sperner_certificate(m, coloring):
    """A trichromatic triangle of the NW-SE triangulated m-by-m grid.

    Precondition: along the boundary cycle (grid anchor order) the colors form
    exactly three contiguous runs, one per color, each of length at least
    floor(4(m-1)/3). Sperner's lemma then guarantees a triangle whose corners
    wear all three colors; the scan over all 2(m-1)^2 triangles must find one.
    """
    grid = gen_grid(m)
    k = grid.k
    b = [coloring[a] for a in grid.anchors]
    if any(c not in (0, 1, 2) for c in b):
        raise ValidationError("boundary colors must be 0, 1, or 2")
    # rotate so a run starts at position 0, then measure the runs
    start = next((i for i in range(k) if b[i] != b[i - 1]), None)
    if start is None:
        raise ValidationError("boundary must be three contiguous color runs")
    rot = b[start:] + b[:start]
    runs = []
    for c in rot:
        if runs and runs[-1][0] == c:
            runs[-1][1] += 1
        else:
            runs.append([c, 1])
    if len(runs) != 3 or {r[0] for r in runs} != {0, 1, 2}:
        raise ValidationError("boundary must be three contiguous color runs")
    if min(r[1] for r in runs) < k // 3:
        raise ValidationError("every boundary run must have length >= %d"
                              % (k // 3))
    vid = lambda r, c: r * m + c
    for r in range(m - 1):
        for c in range(m - 1):
            for tri in ((vid(r, c), vid(r, c + 1), vid(r + 1, c + 1)),
                        (vid(r, c), vid(r + 1, c), vid(r + 1, c + 1))):
                if {coloring[v] for v in tri} == {0, 1, 2}:
                    return tri
    raise SolverError("no trichromatic triangle; Sperner invariant violated")


# ---------------------------------------------------------------------------
# the cycle LP


class EdgeAssignment:
    """Exact rational values on directed edges: host edges are fixed at +1 in
    anchor order, every other edge carries a variable value, and reversal
    negates."""

    __slots__ = ("instance", "values", "_host_dir")

    def __init__(self, instance, values=None):
        self.instance = instance
        host = instance.host_edges()
        k = instance.k
        self._host_dir = {}
        for i in range(k):
            a, b = instance.anchors[i], instance.anchors[(i + 1) % k]
            self._host_dir[(a, b)] = Fraction(1)
            self._host_dir[(b, a)] = Fraction(-1)
        self.values = {}
        for e in instance.edges:
            if e in host:
                continue
            self.values[e] = Fraction(0)
        if values:
            for e, val in values.items():
                e = _normalize_edge(*e)
                if e not in self.values:
                    raise ValidationError("(%d,%d) is not a free edge" % e)
                self.values[e] = Fraction(val)

    def directed(self, u, v):
        got = self._host_dir.get((u, v))
        if got is not None:
            return got
        e = _normalize_edge(u, v)
        val = self.values[e]
        return val if (u, v) == e else -val


@dataclass(frozen=True)
class ViolatedCycle:
    """A directed simple cycle with fewer than l edges and nonzero x-sum."""
    vertices: tuple
    total: Fraction


def _cycle_sum(x, vertices):
    m = len(vertices)
    return sum(x.directed(vertices[i], vertices[(i + 1) % m])
               for i in range(m))


def _simple_cycles_of_walk(walk, x):
    """Decompose a closed walk (first vertex repeated implicitly) into simple
    cycles; their sums add up to the walk's sum."""
    cycles = []
    stack = []
    pos = {}
    for v in list(walk) + [walk[0]]:
        if v in pos:
            cyc = tuple(stack[pos[v]:])
            for w in cyc[1:]:
                del pos[w]
            del stack[pos[v] + 1:]
            if len(cyc) >= 2:
                cycles.append(ViolatedCycle(cyc, _cycle_sum(x, cyc)))
        else:
            pos[v] = len(stack)
            stack.append(v)
    return cycles


def separation_oracle(instance, x, l):
    """A simple directed cycle with < l edges and nonzero sum, or None.

    Hop-bounded DP: for each vertex, min and max signed walk weights over
    1..l-2 edges; a directed edge (u,v) closes a violated walk when the
    extremal v->u walk weight plus x(u,v) is nonzero. The walk splits into
    simple cycles whose sums add to the walk sum, so one of them violates.
    """
    if l < 2:
        raise ValidationError("l must be >= 2")
    n = instance.n
    max_h = l - 2
    # DP from each vertex s: extremal weights of s->w walks with h edges
    for s in range(n):
        lo_par = [{} for _ in range(max_h + 1)]
        hi_par = [{} for _ in range(max_h + 1)]
        reach_lo = [dict() for _ in range(max_h + 1)]
        reach_hi = [dict() for _ in range(max_h + 1)]
        reach_lo[0][s] = Fraction(0)
        reach_hi[0][s] = Fraction(0)
        for h in range(1, max_h + 1):
            for w, val in reach_lo[h - 1].items():
                for nb in instance.neighbors(w):
                    cand = val + x.directed(w, nb)
                    cur = reach_lo[h].get(nb)
                    if cur is None or cand < cur:
                        reach_lo[h][nb] = cand
                        lo_par[h][nb] = w
            for w, val in reach_hi[h - 1].items():
                for nb in instance.neighbors(w):
                    cand = val + x.directed(w, nb)
                    cur = reach_hi[h].get(nb)
                    if cur is None or cand > cur:
                        reach_hi[h][nb] = cand
                        hi_par[h][nb] = w
        # close a cycle with any edge (u, s): walk s -> u plus edge u -> s
        for u in instance.neighbors(s):
            back = x.directed(u, s)
            for h in range(1, max_h + 1):
                for reach, par, bad in ((reach_lo, lo_par,
                                         lambda t: t < 0),
                                        (reach_hi, hi_par,
                                         lambda t: t > 0)):
                    val = reach[h].get(u)
                    if val is None or not bad(val + back):
                        continue
                    walk = [u]
                    w, hh = u, h
                    while hh > 0:
                        w = par[hh][w]
                        hh -= 1
                        walk.append(w)
                    walk.reverse()           # s ... u, then close u->s
                    for cyc in _simple_cycles_of_walk(walk, x):
                        if cyc.total != 0 and len(cyc.vertices) < l:
                            return cyc
                    raise SolverError("violated walk decomposed into "
                                      "zero-sum cycles")
    return None


def lp_feasible(instance, l):
    """Decide the cycle LP: does an edge assignment exist with host edges +1
    and zero sum on every directed cycle shorter than l?

    Cutting planes: solve the accumulated equality system exactly (rational
    RREF), ask the separation oracle, add the violated cycle's equality, and
    repeat. Returns (True, EdgeAssignment) or (False, [ViolatedCycle, ...])
    where the certificate cycles combine to an inconsistent equation.
    """
    host = instance.host_edges()
    free = [e for e in instance.edges if e not in host]
    col = {e: i for i, e in enumerate(free)}
    nvar = len(free)
    # rows in RREF: (coeffs list, rhs, pivot col, contributing cycles)
    rows = []

    def solve():
        vals = {}
        for coeffs, rhs, piv, _ in rows:
            vals[free[piv]] = rhs     # free variables are 0 in RREF
        return EdgeAssignment(instance, vals)

    while True:
        x = solve()
        cyc = separation_oracle(instance, x, l)
        if cyc is None:
            return True, x
        coeffs = [Fraction(0)] * nvar
        rhs = Fraction(0)
        m = len(cyc.vertices)
        for i in range(m):
            u, v = cyc.vertices[i], cyc.vertices[(i + 1) % m]
            e = _normalize_edge(u, v)
            if e in host:
                rhs -= x.directed(u, v)   # host values are constants
            else:
                coeffs[col[e]] += 1 if (u, v) == e else -1
        support = [cyc]
        for rc, rr, rp, rcyc in rows:
            if coeffs[rp] != 0:
                f = coeffs[rp]
                coeffs = [a - f * b for a, b in zip(coeffs, rc)]
                rhs -= f * rr
                support = support + rcyc
        piv = next((i for i, a in enumerate(coeffs) if a != 0), None)
        if piv is None:
            if rhs != 0:
                return False, support
            raise SolverError("separating cycle reduced to a satisfied row")
        inv = 1 / coeffs[piv]
        coeffs = [a * inv for a in coeffs]
        rhs *= inv
        # keep full RREF: eliminate the new pivot from the old rows
        new_rows = []
        for rc, rr, rp, rcyc in rows:
            if rc[piv] != 0:
                f = rc[piv]
                rc = [a - f * b for a, b in zip(rc, coeffs)]
                rr -= f * rhs
                rcyc = rcyc + support
            new_rows.append((rc, rr, rp, rcyc))
        new_rows.append((coeffs, rhs, piv, support))
        rows = new_rows


def lp_certificate(instance):
    """The cycle-LP stretch lower bound with its proof: (bound, l0, cycles).

    A stretch-s retraction makes the LP at ceil(k/s) feasible: give each
    edge the signed cycle step between its endpoints' images, so host edges
    get +1, every step is at most s, and a cycle with fewer than ceil(k/s)
    edges sums to a multiple of k smaller than k in absolute value, so to 0.
    Feasibility is monotone non-increasing in l (constraint sets only grow),
    so binary search finds the smallest infeasible l0 in [2, k], and cycles
    are lp_feasible's certificate at l0. Every s with ceil(k/s) >= l0 is then
    impossible; the bound is one more than the largest such s. When the LP
    is feasible at l = k the result is (1, None, None).
    """
    k = instance.k
    feasible, cycles = lp_feasible(instance, k)
    if feasible:
        return 1, None, None
    lo, hi = 2, k
    while lo < hi:
        mid = (lo + hi) // 2
        feasible, cert = lp_feasible(instance, mid)
        if feasible:
            lo = mid + 1
        else:
            hi, cycles = mid, cert
    s = 1
    while -(-k // (s + 1)) >= lo:
        s += 1
    return s + 1, lo, cycles


def lp_stretch_lower_bound(instance):
    """A stretch lower bound from the cycle LP; see lp_certificate."""
    return lp_certificate(instance)[0]
