"""Lower-bound certifiers.

Three independent routes: the metric distance bound (anchor pairs), a Sperner
coloring certificate on square grids, and a cycle linear program. The LP at l
is infeasible exactly when the host cycle lies in the rational span of the
cycles shorter than l, and Horton's candidate cycles (Horton 1987, "A
polynomial-time algorithm to find the shortest cycle basis of a graph") span
those, so its least infeasible l is a cycle-span threshold found by one exact
elimination over the candidates in order of length.

The candidates come from one BFS tree per vertex that keeps each vertex's
root-path edge bitmask. A non-tree edge's cycle is the XOR of its two ends'
masks plus its own bit, which cancels the shared stem with no path walk; its
bit count is its length, and the mask itself drops duplicates. A
candidate's vertex tuple is built only when the elimination reads it, so
candidates past the threshold are never built. The elimination keeps rows,
host sums and combinations in Python ints while every pivot is +-1 and
brings in Fraction only at a pivot of another value; certificate
coefficients are always Fractions. A feasible answer is checked once by
`oracle.separation_oracle`, the independent checker of the LP's feasible
side. Everything runs in exact arithmetic; certificates are explicit (a
trichromatic triangle, or short cycles with rational coefficients whose
directed edges sum to the host cycle).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .core import (SolverError, ValidationError, _is_int,
                   distance_lower_bound, gen_grid)
from .oracle import EdgeAssignment, separation_oracle


# ---------------------------------------------------------------------------
# distance bound


def distance_stretch_lower_bound(instance):
    """ceil of max(1, max d_H(a,b)/d_G(a,b) over anchor pairs); stretch is an
    integer at least that ratio, so rounding up is sound."""
    return ceil(distance_lower_bound(instance))


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


def _horton_candidates(instance, l):
    """Horton's candidate cycles with fewer than l edges, shortest first.

    For each vertex x take one BFS tree T and give every vertex the bitmask
    of the edges on its tree path from x: mask[child] = mask[parent] | bit
    of the tree edge, with bit i standing for instance.edges[i]. A non-tree
    edge uv closes the walk T(x->u) + uv + T(v->x). The two tree paths share
    a stem from x to their last common vertex w, and the XOR cancels it:
    mask[u] ^ mask[v] | bit(uv) is the edge set of the simple cycle
    T(w->u) + uv + T(v->w), found with no path walk, and its bit count is
    the cycle's length. (Neither of u, v is the other's tree ancestor, or uv
    would be a BFS tree edge, so the cycle has at least three edges; a tree
    edge gives its own bit alone and is passed over.) A simple cycle's edge
    set fixes its vector up to sign, so the mask itself drops duplicates;
    the first root and edge to give it keep it.

    Candidates come in order of length, ties in order of first appearance,
    each as the vertex tuple (w..u, v..) read as a closed directed walk.
    The generator builds a tuple from its root's parent array only when the
    caller asks for it, so candidates past the caller's stopping point are
    never built.
    """
    n = instance.n
    ends = [(u, v, 1 << i) for i, (u, v) in enumerate(instance.edges)]
    inc = [[] for _ in range(n)]   # (neighbour, edge bit); instance.edges
    for u, v, b in ends:           # is sorted, so neighbours come in order
        inc[u].append((v, b))
        inc[v].append((u, b))
    trees = []
    first = {}                 # mask -> (length, order, root, u, v)
    for x in range(n):
        parent = [-1] * n
        mask = [0] * n
        parent[x] = x
        order = [x]
        for w in order:
            mw = mask[w]
            for nb, b in inc[w]:
                if parent[nb] < 0:
                    parent[nb] = w
                    mask[nb] = mw | b
                    order.append(nb)
        trees.append((parent, mask))
        for u, v, b in ends:
            c = mask[u] ^ mask[v] | b
            if c not in first:
                length = c.bit_count()
                if 2 < length < l:
                    first[c] = (length, len(first), x, u, v)
    for _, _, x, u, v in sorted(first.values()):
        parent, mask = trees[x]
        up, vp = [u], [v]    # tree paths u->w and v->w; depth = bit count
        while mask[up[-1]].bit_count() > mask[vp[-1]].bit_count():
            up.append(parent[up[-1]])
        while mask[vp[-1]].bit_count() > mask[up[-1]].bit_count():
            vp.append(parent[vp[-1]])
        while up[-1] != vp[-1]:
            up.append(parent[up[-1]])
            vp.append(parent[vp[-1]])
        yield tuple(reversed(up)) + tuple(vp[:-1])


def _span_elimination(instance, l):
    """Decide whether the host cycle H lies in the rational span of the
    simple cycles with fewer than l edges.

    Each Horton candidate, shortest first, becomes a row over the free edges
    (keyed by index in instance.edges; +1 along the edge's normalized
    direction, -1 against it) and carries its host sum h (host edges count
    +1 in anchor order, -1 against it, read from a table of directed host
    edges) and the combination of candidates it stands for. Rows are
    reduced in exact arithmetic against an echelon basis, pivot = least
    free edge. Entries, h and combination coefficients stay Python ints
    while every pivot is +-1, which normalises a row by multiplying; only a
    pivot of another value brings in Fraction. Candidates are read one at a
    time, so no tuple past the deciding one is built.

    Returns (combination, None) at the first candidate that reduces to a
    zero row with h != 0. Such a combination vanishes on every free edge, so
    it is a cycle-space vector on H alone, i.e. (h/k)*H; its coefficients
    are rescaled by Fraction(k) / h, so they are Fractions that sum to
    exactly H. Otherwise returns (None, basis) with basis = {pivot: (row, h,
    combination)}, row[pivot] = 1 and every other edge of row after the
    pivot.
    """
    k, anchors = instance.k, instance.anchors
    host = {}
    for i in range(k):
        a, b = anchors[i], anchors[(i + 1) % k]
        host[a, b] = 1
        host[b, a] = -1
    eid = {e: i for i, e in enumerate(instance.edges)}
    cands = []
    basis = {}
    for idx, cyc in enumerate(_horton_candidates(instance, l)):
        cands.append(cyc)
        h = 0
        row = {}
        u = cyc[-1]
        for v in cyc:
            sign = host.get((u, v))
            if sign is not None:
                h += sign
            elif u < v:
                row[eid[u, v]] = 1
            else:
                row[eid[v, u]] = -1
            u = v
        comb = {idx: 1}
        while row:
            piv = min(row)
            if piv not in basis:
                break
            prow, ph, pcomb = basis[piv]
            f = row[piv]
            for target, src in ((row, prow), (comb, pcomb)):
                for c, a in src.items():
                    val = target.get(c, 0) - f * a
                    if val:
                        target[c] = val
                    else:
                        target.pop(c, None)
            h -= f * ph
        if not row:
            if h == 0:
                continue
            scale = Fraction(k) / h
            return [(cands[i], a * scale)
                    for i, a in sorted(comb.items())], None
        f = row[piv]
        if f != 1:
            inv = -1 if f == -1 else 1 / Fraction(f)
            row = {c: a * inv for c, a in row.items()}
            comb = {i: a * inv for i, a in comb.items()}
            h *= inv
        basis[piv] = (row, h, comb)
    return None, basis


def lp_feasible(instance, l):
    """Decide the cycle LP: does an edge assignment exist with host edges +1
    and zero sum on every directed cycle shorter than l?

    It is infeasible exactly when the host cycle H lies in the rational span
    of the cycles shorter than l (a combination vanishing on the free edges
    is mu*H and forces mu*k = 0), and those cycles are spanned by Horton's
    candidate cycles shorter than l (Horton 1987, "A polynomial-time
    algorithm to find the shortest cycle basis of a graph"). So one
    elimination over the candidates decides it. Returns (False, combination),
    a list of (cycle, coefficient) pairs of simple cycles shorter than l
    whose weighted directed edge sum is exactly H, or (True, EdgeAssignment)
    read off the echelon basis and checked once by separation_oracle. l must
    be an int >= 2.
    """
    if not _is_int(l) or l < 2:
        raise ValidationError("l must be an integer >= 2, got %r" % (l,))
    combination, basis = _span_elimination(instance, l)
    if combination is not None:
        return False, combination
    vals = {}
    for p in sorted(basis, reverse=True):
        row, h, _ = basis[p]
        vals[p] = -h - sum(a * vals.get(e, 0) for e, a in row.items()
                           if e != p)
    edges = instance.edges
    x = EdgeAssignment(instance, {edges[p]: val for p, val in vals.items()})
    if separation_oracle(instance, x, l) is not None:
        raise SolverError("span basis gave an assignment violating a "
                          "cycle shorter than %d" % l)
    return True, x


def lp_certificate(instance):
    """The cycle-LP stretch lower bound with its proof: (bound, l0, cycles).

    A stretch-s retraction makes the LP at ceil(k/s) feasible: give each
    edge the signed cycle step between its endpoints' images, so host edges
    get +1, every step is at most s, and a cycle with fewer than ceil(k/s)
    edges sums to a multiple of k smaller than k in absolute value, so to 0.
    The smallest infeasible l0 is one more than the length of the first
    Horton candidate, in order of length, that puts H in the span of the
    candidates so far (see lp_feasible; every cycle of length L through x is
    the telescoping sum of the candidates of x's tree for its own edges, each
    at most L long, so the candidates shorter than l span all cycles shorter
    than l). cycles is lp_feasible's combination at l0. Every s with
    ceil(k/s) >= l0 is then impossible; the bound is one more than the
    largest such s. When the LP is feasible at l = k the result is
    (1, None, None).
    """
    k = instance.k
    cycles, _ = _span_elimination(instance, k)
    if cycles is None:
        return 1, None, None
    l0 = 1 + max(len(c) for c, _ in cycles)
    s = 1
    while -(-k // (s + 1)) >= l0:
        s += 1
    return s + 1, l0, cycles


def lp_stretch_lower_bound(instance):
    """A stretch lower bound from the cycle LP; see lp_certificate."""
    return lp_certificate(instance)[0]
