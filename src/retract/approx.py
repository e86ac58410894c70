"""Approximation for arbitrary guests: embed into a square with the anchors
isometric on the boundary, find a large empty axis-aligned hole near the
center, and project every vertex radially from the hole center back onto the
anchor cycle.

All geometry is exact, with no floats anywhere, and runs on one integer grid.
With l = p/q the distance lower bound and m the number of non-anchor
vertices, every coordinate the embedding builds is a multiple of 1/(4q 2^m):
anchors sit at multiples of 1/4, every ball radius l*d is a multiple of 1/q,
and each placed vertex is the midpoint of bounds taken from earlier ones, so
each placement adds at most one factor of 2. `grid_embed` places on integers
over that scale, then shrinks it to the least one on which the coordinates
and the hole search's center window are integers, doubled so that half of
any difference is one too. The hole search and the projection run on those
same integers; only the returned `Hole` and the `side` and `placement` views
are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .core import Retraction, SolverError, distance_lower_bound, stretch


@dataclass(frozen=True)
class GridEmbedding:
    scale: int       # coordinates are integers over this denominator
    width: int       # M = [0,width] x [0,width] on the scale, side k/4
    coords: tuple    # vertex id -> (int x, int y) on the scale

    @property
    def side(self):
        return Fraction(self.width, self.scale)

    @property
    def placement(self):
        """vertex id -> (Fraction x, Fraction y)"""
        s = self.scale
        return tuple((Fraction(x, s), Fraction(y, s)) for x, y in self.coords)


@dataclass(frozen=True)
class Hole:
    center: tuple       # (Fraction, Fraction)
    half_side: Fraction


def _boundary_point(side, s):
    """Point at arc length s along M's boundary, counterclockwise from (0,0).

    The boundary path runs (0,0) -> (side,0) -> (side,side) -> (0,side) -> (0,0),
    total length 4*side = k.
    """
    s = s % (4 * side)
    if s <= side:
        return (s, 0)
    if s <= 2 * side:
        return (side, s - side)
    if s <= 3 * side:
        return (3 * side - s, side)
    return (0, 4 * side - s)


def grid_embed(instance):
    """Incremental embedding into the square of side k/4.

    Anchors go on the boundary at unit arc spacing (isometric to the cycle
    metric); every other vertex is placed, in BFS order from the anchor set,
    at the center of the intersection of the L-inf balls B(g(u), l*d_G(u,v))
    over all already placed u. The intersection of axis-aligned squares is a
    rectangle and is nonempty here (squares have Helly number 2, and the
    balls intersect pairwise by the triangle inequality), so placement never
    fails on a valid instance.

    Placement runs on integers over S = 4q 2^m (module docstring): the
    bounds of the j-th placed vertex are multiples of 2^(m-j+1) on it, so
    their sum halves exactly.
    """
    k = instance.k
    ell = distance_lower_bound(instance)
    # BFS order over the remaining vertices, from the anchor set
    order = []
    seen = set(instance.anchors)
    frontier = list(instance.anchors)
    while frontier:
        nxt = []
        for u in frontier:
            for w in instance.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    nxt.append(w)
        frontier = nxt

    S = 4 * ell.denominator << len(order)
    W = k * S // 4
    R = ell.numerator * (S // ell.denominator)    # l on the scale
    coords = [None] * instance.n
    for i, a in enumerate(instance.anchors):
        coords[a] = _boundary_point(W, i * S)
    placed = list(instance.anchors)
    px = [coords[a][0] for a in placed]
    py = [coords[a][1] for a in placed]
    for v in order:
        dv = instance.distances_from(v)
        rs = [R * dv[u] for u in placed]
        lo_x = max(0, max(map(sub, px, rs)))
        hi_x = min(W, min(map(add, px, rs)))
        lo_y = max(0, max(map(sub, py, rs)))
        hi_y = min(W, min(map(add, py, rs)))
        if lo_x > hi_x or lo_y > hi_y:
            raise SolverError("empty placement rectangle for vertex %d "
                              "(violates the Helly argument)" % v)
        x, y = (lo_x + hi_x) >> 1, (lo_y + hi_y) >> 1
        coords[v] = (x, y)
        placed.append(v)
        px.append(x)
        py.append(y)

    # the least scale of the coordinates, then of the center window k/16
    # and 3k/16 too, doubled
    g = gcd(S, *px, *py)
    least = S // g
    scale = 2 * lcm(least, 16 // gcd(k, 16))
    f = scale // least
    return GridEmbedding(scale, k * scale // 4,
                         tuple((x // g * f, y // g * f) for x, y in coords))


def _hole_feasible(points, cx_range, cy_range, t):
    """Is there a center c with c in the ranges and d_inf(c, p) >= t for all p?

    Sweep candidate x values (range endpoints and p.x +- t); for each, the
    forbidden y intervals are (p.y - t, p.y + t) over points with
    |p.x - cx| < t; feasible iff some y in the range avoids them all.
    Returns a witness center or None.
    """
    xlo, xhi = cx_range
    ylo, yhi = cy_range
    if xlo > xhi or ylo > yhi:
        return None
    cand_x = {xlo, xhi}
    for px, _ in points:
        for cx in (px - t, px + t):
            if xlo <= cx <= xhi:
                cand_x.add(cx)
    for cx in sorted(cand_x):
        bad = sorted((py - t, py + t) for px, py in points if abs(px - cx) < t)
        y = ylo
        ok = True
        for lo, hi in bad:
            if lo < y < hi:
                y = hi
                if y > yhi:
                    ok = False
                    break
        if ok and y <= yhi:
            return (cx, y)
    return None


def find_largest_hole(embedding, k):
    """Largest empty axis-aligned square with center within k/16 of M's center.

    Exact maximization: the optimal half-side t* is attained where constraints
    tie, so it lies in the finite critical set {(xi-xj)/2, (yi-yj)/2,
    |xi - bound|, |yi - bound|, center-range half-extents}; binary search over
    that set with an exact feasibility sweep.

    The search runs on the embedding's integers: its scale makes the center
    window k/16 .. 3k/16 integral and every coordinate even, so each critical
    value is an integer, and the witness center is one too. A positive scale
    keeps every comparison and sort order, so only the returned Hole is
    converted back to Fraction.
    """
    scale = embedding.scale
    pts = embedding.coords
    cx_range = cy_range = (k * scale // 16, 3 * k * scale // 16)
    # every allowed center is at least half - off = k/16 from M's sides
    t_cap = cx_range[0]

    crit = {t_cap}
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    bounds = cx_range + cy_range
    for i in range(len(pts)):
        for b in bounds:
            crit.add(abs(xs[i] - b))
            crit.add(abs(ys[i] - b))
        for j in range(i + 1, len(pts)):
            crit.add(abs(xs[i] - xs[j]) // 2)
            crit.add(abs(ys[i] - ys[j]) // 2)
    crit = sorted(c for c in crit if 0 < c <= t_cap)

    def feasible(t):
        return _hole_feasible(pts, cx_range, cy_range, t)

    lo, hi = 0, len(crit) - 1
    best_t, best_c = None, None
    while lo <= hi:
        mid = (lo + hi) // 2
        w = feasible(crit[mid])
        if w is not None:
            best_t, best_c = crit[mid], w
            lo = mid + 1
        else:
            hi = mid - 1
    if best_t is None:
        raise SolverError("no empty hole found (contradicts the averaging bound)")
    return Hole((Fraction(best_c[0], scale), Fraction(best_c[1], scale)),
                Fraction(best_t, scale))


def project_to_cycle(embedding, hole, instance):
    """Radial projection from the hole center, snapping clockwise to an anchor.

    The ray from the center c through g(v) leaves M where it first meets a
    side: at c + s*(g(v) - c), s the least exit parameter over the sides it
    heads for, and s >= 1 as g(v) lies in M. Boundary arc parameter
    increases counterclockwise from (0,0) and anchors sit at integer
    parameters, so the nearest anchor in the clockwise direction from a
    boundary point at parameter t is floor(t). Points already at an anchor
    snap to it (floor of an integer is itself).

    All of it runs on the embedding's integers (times f, when the hole's
    center is finer than their scale, which `find_largest_hole` never
    returns): s = num/den with den > 0 is compared by cross-multiplying, and
    floor(t) is one integer division.
    """
    cx, cy = hole.center
    scale = lcm(embedding.scale, cx.denominator, cy.denominator)
    f = scale // embedding.scale
    W = embedding.width * f
    cx, cy = int(cx * scale), int(cy * scale)
    k = instance.k
    assignment = [None] * instance.n
    for v in range(instance.n):
        if instance.is_anchor(v):
            assignment[v] = v
            continue
        x, y = embedding.coords[v]
        dx, dy = x * f - cx, y * f - cy
        if dx == 0 and dy == 0:
            raise SolverError("ray through the hole center is undefined")
        # exit parameters (wall - c)/d over the sides the ray heads for
        sx = (W - cx, dx) if dx > 0 else (cx, -dx) if dx < 0 else None
        sy = (W - cy, dy) if dy > 0 else (cy, -dy) if dy < 0 else None
        if sy is None or sx is not None and sx[0] * sy[1] <= sy[0] * sx[1]:
            num, den = sx
            if num < den:
                raise SolverError("ray does not meet the boundary")
            # hit (wall, cy + num*dy/den); arc W + y on x = W, 4W - y on x = 0
            hy = cy * den + num * dy
            t = W * den + hy if dx > 0 else 4 * W * den - hy
        else:
            num, den = sy
            if num < den:
                raise SolverError("ray does not meet the boundary")
            # hit (cx + num*dx/den, wall); arc x on y = 0, 3W - x on y = W
            hx = cx * den + num * dx
            t = 3 * W * den - hx if dy > 0 else hx
        assignment[v] = instance.anchors[t // (den * scale) % k]
    return Retraction(tuple(assignment))


def approx_retract(instance):
    """Full pipeline; stretch <= floor(k/2) unconditionally."""
    emb = grid_embed(instance)
    hole = find_largest_hole(emb, instance.k)
    ret = project_to_cycle(emb, hole, instance)
    return ret, stretch(instance, ret)
