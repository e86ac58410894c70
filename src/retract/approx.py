"""Approximation for arbitrary guests: embed into a square with the anchors
isometric on the boundary, find a large empty axis-aligned hole near the
center, and project every vertex radially from the hole center back onto the
anchor cycle.

All geometry is exact, with no floats anywhere: the embedding and the
projection use rational arithmetic (Fraction), and the hole search runs on
integers, every coordinate scaled by a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import (Retraction, StretchReport, SolverError, cycle_dist,
                   distance_lower_bound, stretch)


@dataclass(frozen=True)
class GridEmbedding:
    side: Fraction                     # M = [0,side] x [0,side], side = k/4
    placement: tuple                   # vertex id -> (Fraction x, Fraction y)
    anchor_boundary_position: tuple    # anchor index -> boundary point


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
        return (s, Fraction(0))
    if s <= 2 * side:
        return (side, s - side)
    if s <= 3 * side:
        return (3 * side - s, side)
    return (Fraction(0), 4 * side - s)


def _boundary_param(side, p):
    """Inverse of _boundary_point for points on the boundary."""
    x, y = p
    if y == 0:
        return x
    if x == side:
        return side + y
    if y == side:
        return 3 * side - x
    if x == 0:
        return 4 * side - y
    raise SolverError("point %r is not on the boundary" % (p,))


def grid_embed(instance):
    """Incremental embedding into the square of side k/4.

    Anchors go on the boundary at unit arc spacing (isometric to the cycle
    metric); every other vertex is placed, in BFS order from the anchor set,
    at a point of the intersection of the L-inf balls B(g(u), l*d_G(u,v))
    over all already placed u. The intersection of axis-aligned squares is a
    rectangle and is nonempty here (squares have Helly number 2, and the
    balls intersect pairwise by the triangle inequality), so placement never
    fails on a valid instance.
    """
    k = instance.k
    side = Fraction(k, 4)
    ell = distance_lower_bound(instance)
    placement = [None] * instance.n
    anchor_pos = []
    for i, a in enumerate(instance.anchors):
        p = _boundary_point(side, Fraction(i))
        placement[a] = p
        anchor_pos.append(p)

    # distances to every placed-or-future vertex, per source, on demand
    dists = {a: instance.distances_from(a) for a in instance.anchors}

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

    placed = list(instance.anchors)
    for v in order:
        lo_x, hi_x = Fraction(0), side
        lo_y, hi_y = Fraction(0), side
        for u in placed:
            if u not in dists:
                dists[u] = instance.distances_from(u)
            r = ell * dists[u][v]
            ux, uy = placement[u]
            lo_x = max(lo_x, ux - r)
            hi_x = min(hi_x, ux + r)
            lo_y = max(lo_y, uy - r)
            hi_y = min(hi_y, uy + r)
        if lo_x > hi_x or lo_y > hi_y:
            raise SolverError("empty placement rectangle for vertex %d "
                              "(violates the Helly argument)" % v)
        placement[v] = ((lo_x + hi_x) / 2, (lo_y + hi_y) / 2)
        placed.append(v)

    return GridEmbedding(side, tuple(placement), tuple(anchor_pos))


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

    The search runs on integers: every coordinate and range bound is scaled
    by den = 2 * lcm(their denominators), which makes each critical value an
    integer. A positive scale keeps every comparison and sort order, so only
    the returned Hole is converted back to Fraction.
    """
    side = embedding.side
    half = side / 2
    off = Fraction(k, 16)
    lo_c, hi_c = half - off, half + off
    den = 2 * lcm(lo_c.denominator, hi_c.denominator,
                  *(c.denominator for p in embedding.placement for c in p))
    pts = [(int(x * den), int(y * den)) for x, y in embedding.placement]
    cx_range = cy_range = (int(lo_c * den), int(hi_c * den))
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
    return Hole((Fraction(best_c[0], den), Fraction(best_c[1], den)),
                Fraction(best_t, den))


def _ray_to_boundary(side, center, p):
    """Intersection of the ray center->p with M's boundary, exact."""
    cx, cy = center
    dx, dy = p[0] - cx, p[1] - cy
    if dx == 0 and dy == 0:
        raise SolverError("ray through the hole center is undefined")
    best = None
    # candidate parameters s > 0 with center + s*d on each of the 4 sides
    cands = []
    if dx != 0:
        for wall in (Fraction(0), side):
            s = (wall - cx) / dx
            if s > 0:
                y = cy + s * dy
                if 0 <= y <= side:
                    cands.append((s, (wall, y)))
    if dy != 0:
        for wall in (Fraction(0), side):
            s = (wall - cy) / dy
            if s > 0:
                x = cx + s * dx
                if 0 <= x <= side:
                    cands.append((s, (x, wall)))
    for s, q in cands:
        if s >= 1 and (best is None or s < best[0]):
            best = (s, q)
    if best is None:
        # p lies past the boundary only if p is outside M; cannot happen
        raise SolverError("ray does not meet the boundary")
    return best[1]


def project_to_cycle(embedding, hole, instance):
    """Radial projection from the hole center, snapping clockwise to an anchor.

    Boundary arc parameter increases counterclockwise and anchors sit at
    integer parameters, so the nearest anchor in the clockwise direction from
    a boundary point at parameter s is floor(s). Points already at an anchor
    snap to it (floor of an integer is itself).
    """
    side = embedding.side
    k = instance.k
    assignment = [None] * instance.n
    for v in range(instance.n):
        if instance.is_anchor(v):
            assignment[v] = v
            continue
        q = _ray_to_boundary(side, hole.center, embedding.placement[v])
        s = _boundary_param(side, q)
        idx = int(s) % k    # floor: nearest anchor clockwise
        assignment[v] = instance.anchors[idx]
    return Retraction(tuple(assignment))


def approx_retract(instance):
    """Full pipeline; stretch <= floor(k/2) unconditionally."""
    emb = grid_embed(instance)
    hole = find_largest_hole(emb, instance.k)
    ret = project_to_cycle(emb, hole, instance)
    return ret, stretch(instance, ret)
