"""Retraction of planar point sets onto a circle of anchors.

Pipeline: exact Delaunay spanner over the points, contraction of tiny edges,
an integer length for each edge in proportion to its Euclidean length, a
host cycle hugging the anchor circle routed by Dijkstra on those lengths, an
exact planar solve of that weighted graph on the cycle, and a final snap of
every image to its nearest anchor. All geometry is exact: points live on a
dyadic grid, predicates are integer determinants, and the reported stretch
ratio is returned as an exact rational square.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .core import SolverError, ValidationError, _is_int, _normalize_edge
from . import planar as planar_mod

_GRID = 1 << 24   # dyadic grid for rationalized coordinates


def _quantize(x):
    return Fraction(round(x * _GRID), _GRID)


def _sqdist(p, q):
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


@dataclass(frozen=True)
class PointSet:
    """Exact rational plane points; the anchor points sit (approximately)
    uniformly on a circle with unit consecutive spacing."""
    points: tuple            # ((x, y) Fractions, ...)
    anchor_indices: tuple

    def __post_init__(self):
        pts = self.points
        if len(set(pts)) != len(pts):
            raise ValidationError("points must be distinct")
        k = len(self.anchor_indices)
        if k < 3:
            raise ValidationError("need at least 3 anchors")
        for i in self.anchor_indices:
            if not _is_int(i) or not 0 <= i < len(pts):
                raise ValidationError("anchor index %r is not an integer in "
                                      "[0, %d)" % (i, len(pts)))
        if len(set(self.anchor_indices)) != k:
            raise ValidationError("anchor indices must be distinct")
        hi = (1 + Fraction(1, k * k)) ** 2
        for i in range(k):
            a = pts[self.anchor_indices[i]]
            b = pts[self.anchor_indices[(i + 1) % k]]
            d2 = _sqdist(a, b)
            if not (1 <= d2 <= hi):
                raise ValidationError(
                    "anchor spacing %d-%d out of [1, (1+1/k^2)^2]" % (i, i + 1))

    @property
    def k(self):
        return len(self.anchor_indices)

    @property
    def n(self):
        return len(self.points)


def anchors_on_circle(k):
    """k rational points with consecutive spacing in [1, (1+1/k^2)^2]:
    a slightly inflated circle quantized to the dyadic grid."""
    if k < 3:
        raise ValidationError("k must be >= 3")
    r = circle_radius(k)
    pts = []
    for i in range(k):
        th = 2 * math.pi * i / k
        pts.append((_quantize(r * math.cos(th)), _quantize(r * math.sin(th))))
    return tuple(pts)


def circle_radius(k):
    """Float radius of the anchor circle used by anchors_on_circle."""
    return (1 + 0.5 / k ** 2) / (2 * math.sin(math.pi / k))


def gen_random_points(n_interior, k, seed):
    """Seeded PointSet: anchors on the circle plus interior grid points."""
    if n_interior < 0:
        raise ValidationError("the interior point count must be >= 0")
    rng = random.Random(seed)
    anchors = anchors_on_circle(k)
    pts = list(anchors)
    seen = set(pts)
    r = circle_radius(k) / math.sqrt(2)
    while len(pts) < k + n_interior:
        p = (_quantize(rng.uniform(-r, r)), _quantize(rng.uniform(-r, r)))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return PointSet(tuple(pts), tuple(range(k)))


# ---------------------------------------------------------------------------
# Delaunay spanner (exact: a sweep triangulation made Delaunay by Lawson
# flips, lifted-index perturbation for co-circular ties)


@dataclass(frozen=True)
class WeightedPlanarGraph:
    """Planar graph with exact squared edge lengths (lengths themselves are
    irrational in general; every decision below only compares squares)."""
    n: int
    sq_weights: dict         # normalized (u, v) -> Fraction squared length
    points: tuple            # vertex coordinates

    @property
    def edges(self):
        return sorted(self.sq_weights)


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _in_circle(pts, ia, ib, ic, idx):
    """Is point idx strictly inside the circumcircle of CCW triangle
    (ia, ib, ic)? The test is the sign of the lifted 4x4 determinant with
    rows (x, y, x^2 + y^2, 1). Translating every point by -d, d the tested
    point, leaves it unchanged and makes d's row (0, 0, 0, 1), so it is the
    3x3 determinant of the rows (x, y, x^2 + y^2) of a, b and c taken
    relative to d. Co-circular ties are broken by perturbing the lift of
    point i upward by eps*i (a regular-triangulation perturbation):
    larger-index co-circular points count as outside. When the opposite
    indices of the four points have equal sums that term is 0, and a second,
    smaller perturbation of the largest index alone decides. Both are one
    fixed lift of every point, so the predicate never ties."""
    dx, dy = pts[idx]
    ax, ay = pts[ia][0] - dx, pts[ia][1] - dy
    bx, by = pts[ib][0] - dx, pts[ib][1] - dy
    cx, cy = pts[ic][0] - dx, pts[ic][1] - dy
    d0 = ((ax * ax + ay * ay) * (bx * cy - by * cx)
          - (bx * bx + by * by) * (ax * cy - ay * cx)
          + (cx * cx + cy * cy) * (ax * by - ay * bx))
    if d0 != 0:
        return d0 > 0
    # the perturbation's coefficient: the 4x4 determinant with the point
    # indices in place of the lift, expanded along that column
    ids = (ia, ib, ic, idx)
    rows = [pts[i] + (1,) for i in ids]
    cof = [(-1) ** r * _det3([rows[j] for j in range(4) if j != r])
           for r in range(4)]
    d1 = sum(i * c for i, c in zip(ids, cof))
    if d1 != 0:
        return d1 > 0
    # the largest index's own cofactor: the orientation of three distinct
    # points on one circle, never 0
    return cof[ids.index(max(ids))] > 0


def _integer_points(pts):
    """(points, scale): the rational points times the lcm of their
    denominators, as integer pairs, and that lcm. Ratios of squared
    distances are unchanged."""
    den = 1
    for x, y in pts:
        den = den * x.denominator // math.gcd(den, x.denominator)
        den = den * y.denominator // math.gcd(den, y.denominator)
    return [(x.numerator * (den // x.denominator),
             y.numerator * (den // y.denominator)) for x, y in pts], den


def _sweep_triangles(ipts):
    """CCW triangles covering the hull of the integer points, every point a
    vertex, or None if all points are collinear. Points are taken in
    lexicographic order: a fan joins the first collinear run to the first
    point off its line, and each later point, lying outside the hull so far,
    is joined to every hull edge it strictly sees."""
    order = sorted(range(len(ipts)), key=ipts.__getitem__)
    a, b = ipts[order[0]], ipts[order[1]]
    m = 2
    while m < len(order) and _orient(a, b, ipts[order[m]]) == 0:
        m += 1
    if m == len(order):
        return None
    run, apex = order[:m], order[m]
    if _orient(a, b, ipts[apex]) < 0:
        run.reverse()
    tris = [(u, v, apex) for u, v in zip(run, run[1:])]
    hull = run + [apex]  # counter-clockwise
    for q in order[m + 1:]:
        h = len(hull)
        sees = [_orient(ipts[hull[i - 1]], ipts[hull[i]], ipts[q]) < 0
                for i in range(h)]
        # the seen edges are one cyclic run; rotate it to the front
        s = next(i for i in range(h) if sees[i] and not sees[i - 1])
        c = sees.count(True)
        hull = hull[s - 1:] + hull[:s - 1]
        tris += [(hull[j + 1], hull[j], q) for j in range(c)]
        hull = [hull[0], q] + hull[c:]
    return tris


def _lawson_flips(ipts, tris):
    """Flip edges of the triangulation until each is locally Delaunay under
    `_in_circle`. Returns opp: opp[(u, v)] = w for each CCW triangle
    (u, v, w) of the result."""
    opp = {}
    for a, b, c in tris:
        opp[a, b], opp[b, c], opp[c, a] = c, a, b
    stack = list(opp)
    while stack:
        u, v = stack.pop()
        w, x = opp.get((u, v)), opp.get((v, u))
        if w is None or x is None or not _in_circle(ipts, u, v, w, x):
            continue
        # the quadrilateral u, x, v, w is convex: its diagonal uv becomes wx
        del opp[u, v], opp[v, u]
        opp[u, x], opp[x, w], opp[w, u] = w, u, x
        opp[x, v], opp[v, w], opp[w, x] = w, x, v
        stack += ((u, x), (x, v), (v, w), (w, u))
    return opp


def delaunay_spanner(points):
    """Delaunay triangulation edges with exact squared Euclidean lengths.

    A sweep triangulation of the integer-scaled points is made Delaunay by
    Lawson flips (Lawson 1977). `_in_circle` is the sign of one fixed lift
    of the points onto the paraboloid, each lift raised by an infinitesimal
    ordered by index, so no four lifted points are coplanar and the
    Delaunay triangulation is unique (simulation of simplicity, Edelsbrunner
    and Muecke 1990): it is the projected lower hull of the lifts. An edge
    that fails the test always has a convex quadrilateral, so every such
    edge can be flipped; each flip lowers the lifted surface, so the flips
    end, and a triangulation of the hull that is locally convex at every
    edge is the lower hull. Its triangles are therefore exactly the triples
    whose perturbed circumcircle holds no other point, the brute force's
    answer, found with O(n^2) in-circle tests at worst instead of O(n^4).
    Each squared length is one Fraction over the squared common scale.
    """
    pts = points.points if isinstance(points, PointSet) else tuple(points)
    n = len(pts)
    if n < 3:
        raise ValidationError("need at least 3 points")
    ipts, den = _integer_points(pts)   # integers for fast predicates
    if len(set(ipts)) != n:
        raise ValidationError("points must be distinct")
    tris = _sweep_triangles(ipts)
    if tris is None:
        raise ValidationError("all points are collinear")
    edges = {_normalize_edge(u, v) for u, v in _lawson_flips(ipts, tris)}
    sq = {(u, v): Fraction(_sqdist(ipts[u], ipts[v]), den * den)
          for u, v in sorted(edges)}
    return WeightedPlanarGraph(n, sq, tuple(pts))


# ---------------------------------------------------------------------------
# contraction and unweighted conversion


def contract_small_edges(g, k, n):
    """Contract every edge of squared length below (2/(kn))^2; parallel edges
    keep the minimum weight. Returns (graph, group) where group[v] is v's new
    vertex id. It does not know which vertices are anchors: callers check
    through group that no two anchors merged. One union-find pass suffices:
    an edge left between two groups keeps the least weight of the original
    edges joining them, none of them short, so it is never contracted."""
    thr = Fraction(4, (k * n) ** 2)
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, v), w in g.sq_weights.items():
        if w < thr:
            ru, rv = find(u), find(v)
            parent[max(ru, rv)] = min(ru, rv)
    reps = sorted({find(v) for v in range(g.n)})
    new_id = {r: i for i, r in enumerate(reps)}
    group = tuple(new_id[find(v)] for v in range(g.n))
    # parallel minima under the final renaming
    merged = {}
    for (u, v), w in g.sq_weights.items():
        gu, gv = group[u], group[v]
        if gu == gv:
            continue
        e = _normalize_edge(gu, gv)
        if e not in merged or w < merged[e]:
            merged[e] = w
    pts = tuple(g.points[reps[i]] for i in range(len(reps)))
    return WeightedPlanarGraph(len(reps), merged, pts), group


def subdivision_counts(g, k, n):
    """The integer length m of each edge, keyed like g.sq_weights in sorted
    order: ceil(k^2 n / 2) for weights >= k, floor(k n w / 2) otherwise
    (>= 1 after contraction). With w^2 = p/q, k n w / 2 is
    sqrt(p q (k n)^2) / (2 q), and floor(sqrt(x) / c) = floor(isqrt(x) / c)
    for an integer c > 0, so each count is one integer square root."""
    kn2 = (k * n) ** 2
    long_count = (k * k * n + 1) // 2
    counts = {}
    for (u, v), sq in sorted(g.sq_weights.items()):
        p, q = sq.numerator, sq.denominator
        if p * kn2 < 4 * q:     # below (2 / (k n))^2
            raise ValidationError("edge (%d,%d) below contraction threshold"
                                  % (u, v))
        if p >= k * k * q:
            m = long_count
        else:
            m = isqrt(p * q * kn2) // (2 * q)
            if m < 1:
                raise SolverError("subdivision count fell below 1")
        counts[(u, v)] = m
    return counts


def to_unweighted(g, k, n):
    """Replace each weighted edge by a unit-length path of its
    `subdivision_counts` edges. Returns (total vertices, edges, along) with
    original vertex ids preserved; along[w - g.n] = (u, v, j, m) places
    subdivision vertex w at j/m of the way from u to v. The pipeline solves
    the weighted graph itself; this is the unit graph it stands for."""
    total = g.n
    edges = []
    along = []
    for (u, v), m in subdivision_counts(g, k, n).items():
        path = [u] + list(range(total, total + m - 1)) + [v]
        total += m - 1
        along.extend((u, v, j, m) for j in range(1, m))
        edges.extend((path[i], path[i + 1]) for i in range(m))
    return total, edges, along


def _position(g, u, v, j, m):
    """Exact position of the point j/m of the way from u to v along the edge
    (u, v) of g, interpolated from the edge's lesser end."""
    if j == 0:
        return g.points[u]
    if u > v:
        u, v, j = v, u, m - j
    pu, pv = g.points[u], g.points[v]
    return (pu[0] + Fraction(j, m) * (pv[0] - pu[0]),
            pu[1] + Fraction(j, m) * (pv[1] - pu[1]))


# ---------------------------------------------------------------------------
# host cycle construction


def _tree(adj, src, banned=frozenset(), cut=frozenset()):
    """(dist, parent) of shortest paths from src, avoiding the banned
    vertices and the cut edges, given as (u, v) pairs.

    adj[u] lists (w, m) in the order of u's neighbours in the unit graph
    (`to_unweighted`), whose ids are sorted: unit-length edges by w, then
    the paths of longer edges in sorted edge order, which is again by w.
    Ties are broken as BFS on the unit graph breaks them. BFS dequeues
    vertices at equal distance in the preorder of its tree, and only
    vertices of this graph branch, so a path's label is (length, the
    positions in adj of its steps), least first. Two labels of equal length
    keep their order when both are extended by one edge, since neither
    position tuple is a prefix of the other, so Dijkstra's order is BFS's."""
    if src in banned:
        raise SolverError("path endpoint %d is blocked" % src)
    label = {src: (0, ())}
    par = {src: None}
    heap = [(0, (), src)]
    done = set()
    while heap:
        d, key, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for rank, (w, m) in enumerate(adj[u]):
            if w in done or w in banned or (u, w) in cut:
                continue
            lab = (d + m, key + (rank,))
            if w not in label or lab < label[w]:
                label[w] = lab
                par[w] = u
                heapq.heappush(heap, lab + (w,))
    return {v: lab[0] for v, lab in label.items()}, par


def _shortest_path(adj, src, dst, banned=frozenset(), cut=frozenset()):
    par = _tree(adj, src, banned, cut)[1]
    if dst not in par:
        raise SolverError("no path between %d and %d avoiding earlier "
                          "pieces" % (src, dst))
    path = [dst]
    while path[-1] != src:
        path.append(par[path[-1]])
    path.reverse()
    return path


def _grow_path(adj, path, targets, banned=frozenset()):
    """Incremental closest-vertex construction: for each target anchor in
    order, trim the path at its closest vertex and append a shortest path to
    the anchor. Appended branches avoid the kept portion (and `banned`), so
    the result stays a simple path: the branch is read off the search from
    the anchor, and every vertex on it but the closest one is strictly
    nearer the anchor, so it is not on the path. In the unit graph the
    closest vertex is never inside an edge's path, being one step farther
    than a neighbour on the path, so the trim is at a vertex here too."""
    for t in targets:
        dist, par = _tree(adj, t, banned)
        best_pos = min(range(len(path)),
                       key=lambda i: (dist.get(path[i], 1 << 60), i))
        if path[best_pos] not in dist:
            raise SolverError("anchor unreachable during path construction")
        kept = path[:best_pos + 1]
        branch = [path[best_pos]]
        while branch[-1] != t:
            branch.append(par[branch[-1]])
        path = kept + branch[1:]
        if len(set(path)) != len(path):
            raise SolverError("closest-vertex path construction "
                              "self-intersected")
    return path


def _segment_between(path, x, y):
    i, j = path.index(x), path.index(y)
    return path[i:j + 1] if i <= j else path[j:i + 1][::-1]


def build_host_cycle(n, lengths, anchors):
    """Simple host cycle through the weighted graph (n vertices, edge (u, v)
    of length lengths[(u, v)]), hugging the anchor circle: two
    incrementally-built half paths joined by two trimmed shortest paths.
    Returns the cycle's vertices. Paths are routed by Dijkstra, with ties
    broken as BFS breaks them on the unit graph (`_tree`), so the cycle is
    the one BFS routes there, whose turns are all at vertices of this
    graph. Raises SolverError if the pieces fail to form a simple cycle."""
    k = len(anchors)
    if k < 10:
        raise ValidationError("host cycle construction needs k >= 10")
    adj = [[] for _ in range(n)]
    for (u, v), m in lengths.items():
        adj[u].append((v, m))
        adj[v].append((u, m))
    for a in adj:
        a.sort(key=lambda wm: (wm[1] > 1, wm[0]))
    half = k // 2
    h1 = _shortest_path(adj, anchors[2], anchors[3])
    h1 = _grow_path(adj, h1, [anchors[i] for i in range(4, half - 1)])
    s1 = set(h1)
    # later pieces are routed around the earlier ones: with sparse interiors
    # the unrestricted shortest paths routinely share central vertices
    h2 = _shortest_path(adj, anchors[k - 2], anchors[k - 3], banned=s1)
    h2 = _grow_path(adj, h2,
                    [anchors[i] for i in range(k - 4, half + 1, -1)],
                    banned=s1)
    s2 = set(h2)

    def connector(src, dst, banned, cut=frozenset()):
        p = _shortest_path(adj, src, dst, banned, cut)
        i1 = max(i for i, v in enumerate(p) if v in s1)
        later = [i for i, v in enumerate(p) if v in s2 and i > i1]
        if not later:
            raise SolverError("connector misses the second half cycle")
        i2 = min(later)
        return p[i1:i2 + 1]

    p_ab = connector(anchors[2], anchors[k - 2], frozenset())  # a on h1
    # the second connector avoids p_ab but its two ends, and the inside of
    # each longer edge of p_ab, even one joining those two ends
    ends = {anchors[half - 2], anchors[half + 2]}
    cut = set()
    for u, v in zip(p_ab, p_ab[1:]):
        if lengths[_normalize_edge(u, v)] > 1:
            cut.update(((u, v), (v, u)))
    p_cd = connector(anchors[half - 2], anchors[half + 2],
                     frozenset(p_ab) - ends, cut)
    a, b = p_ab[0], p_ab[-1]
    c, d = p_cd[0], p_cd[-1]
    cycle = (_segment_between(h1, a, c)
             + p_cd[1:]
             + _segment_between(h2, d, b)[1:]
             + p_ab[::-1][1:-1])
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise SolverError("host cycle is not simple")
    for i in range(len(cycle)):
        e = _normalize_edge(cycle[i], cycle[(i + 1) % len(cycle)])
        if e not in lengths:
            raise SolverError("host cycle uses a missing edge")
    return cycle


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class EuclidResult:
    """assignment[i] is the index (into the point set) of point i's anchor;
    ratio_sq is the exact square of the worst pairwise stretch ratio."""
    assignment: tuple
    ratio_sq: Fraction

    @property
    def ratio(self):
        return math.sqrt(self.ratio_sq)


def _ratio_sq(points, assignment):
    """The worst squared ratio |f(u) f(v)|^2 / |u v|^2 over pairs of points,
    on the points scaled to integers: pairs are compared by
    cross-multiplying, and one Fraction is built at the end."""
    pts = _integer_points(points.points)[0]
    num, den = 0, 1
    for u in range(points.n):
        pu, fu = pts[u], pts[assignment[u]]
        for v in range(u + 1, points.n):
            a = _sqdist(fu, pts[assignment[v]])
            b = _sqdist(pu, pts[v])
            if a * den > num * b:
                num, den = a, b
    return Fraction(num, den)


def euclid_retract(points):
    """Constant-factor retraction of the point set onto its anchors.

    k >= 10 runs the full pipeline: spanner, contraction, an integer length
    per edge, host cycle, exact planar solve of the weighted graph, and
    nearest-anchor snap. Smaller k brute-forces the assignment directly.
    Anchors are always fixed.
    """
    k, n = points.k, points.n
    if k < 10:
        from .oracle import brute_force_min_ratio
        asg, ratio_sq = brute_force_min_ratio(points)
        return EuclidResult(asg, ratio_sq)
    g = delaunay_spanner(points)
    g2, group = contract_small_edges(g, k, n)
    aidx = [group[points.anchor_indices[i]] for i in range(k)]
    if len(set(aidx)) != k:
        raise SolverError("contraction merged two anchors; anchor spacing "
                          "premise violated")
    lengths = subdivision_counts(g2, k, n)
    cycle = build_host_cycle(g2.n, lengths, aidx)
    pos, _ = planar_mod.optimal_retract_weighted(g2.n, lengths, cycle)
    # an image is a position on the cycle, read as (cycle edge, offset):
    # starts[e] is the position of cycle[e], which the solve gives it
    starts = [pos[c] for c in cycle]
    anchor_pts = [points.points[i] for i in points.anchor_indices]
    anchor_set = set(points.anchor_indices)
    assignment = []
    for v in range(n):
        if v in anchor_set:
            assignment.append(v)
            continue
        p = pos[group[v]]
        e = bisect_right(starts, p) - 1
        u, w = cycle[e], cycle[(e + 1) % len(cycle)]
        pt = _position(g2, u, w, p - starts[e],
                       lengths[_normalize_edge(u, w)])
        best = min(range(k),
                   key=lambda i: (_sqdist(pt, anchor_pts[i]), i))
        assignment.append(points.anchor_indices[best])
    assignment = tuple(assignment)
    return EuclidResult(assignment, _ratio_sq(points, assignment))
