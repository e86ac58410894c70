"""Ground-truth brute force for tiny instances.

Independent of the solver modules on purpose: optimal retraction is found by
iterative deepening on the target stretch with DFS + forward checking (an
exact branch-and-bound), surrounding-cycle lengths are found by exhaustive
simple-cycle enumeration with a face flood-fill containment test. Both
answers of the cycle LP have a checker here: an infeasibility certificate is
checked by summing its cycles edge by edge, and a feasible edge assignment by
the separation oracle, a hop-bounded DP that runs on the assignment scaled to
integers and returns a violated cycle with its exact rational sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .core import (Retraction, StretchReport, ResourceError, SolverError,
                   ValidationError, _normalize_edge, host_from_cycle)


@dataclass
class SearchBudget:
    max_free_vertices: int = 12
    max_states: int = 10 ** 8
    states_used: int = field(default=0, compare=False)

    def tick(self):
        self.states_used += 1
        if self.states_used > self.max_states:
            raise ResourceError("oracle state budget exceeded")


def _graph_bits(graph, host):
    """Shared setup: adjacency, free vertices, branch order, fixed images."""
    n = graph.n
    adj = [[] for _ in range(n)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    anchors = list(host.anchors)
    aset = set(anchors)
    free = [v for v in range(n) if v not in aset]
    # branch order: decreasing anchor-adjacency, then id (deterministic)
    free.sort(key=lambda v: (-sum(1 for w in adj[v] if w in aset), v))
    return adj, anchors, aset, free


def _feasible_assignment(graph, host, s, budget):
    """Find an assignment with stretch <= s, or None. DFS + forward checking."""
    adj, anchors, aset, free = _graph_bits(graph, host)
    n = graph.n
    image = [None] * n
    for a in anchors:
        image[a] = a
    # domains: per free vertex, the anchors compatible with assigned neighbors
    domains = {}
    for v in free:
        dom = set(anchors)
        for w in adj[v]:
            if image[w] is not None:
                dom = {c for c in dom if host.dist(c, image[w]) <= s}
        if not dom:
            return None
        domains[v] = dom
    # also host edges between anchors and anchor-anchor guest edges
    for u, v in graph.edges:
        if u in aset and v in aset and host.dist(u, v) > s:
            return None

    order = free

    def dfs(i):
        budget.tick()
        if i == len(order):
            return True
        v = order[i]
        # candidates ordered by closeness to assigned neighbors' images
        assigned_imgs = [image[w] for w in adj[v] if image[w] is not None]
        cands = sorted(domains[v],
                       key=lambda c: (max((host.dist(c, g) for g in assigned_imgs),
                                          default=0), c))
        for c in cands:
            ok = True
            for g in assigned_imgs:
                if host.dist(c, g) > s:
                    ok = False
                    break
            if not ok:
                continue
            image[v] = c
            # forward check: shrink unassigned neighbor domains
            touched = []
            dead = False
            for w in adj[v]:
                if image[w] is None and w in domains:
                    removed = {d for d in domains[w] if host.dist(d, c) > s}
                    if removed:
                        domains[w] -= removed
                        touched.append((w, removed))
                        if not domains[w]:
                            dead = True
                            break
            if not dead and dfs(i + 1):
                return True
            for w, removed in touched:
                domains[w] |= removed
            image[v] = None
        return False

    if dfs(0):
        return list(image)
    return None


def brute_force_optimal(graph, host=None, budget=None):
    """Exact optimum retraction of a tiny guest onto a SubgraphHost.

    graph: anything with .n and .edges (an Instance, or a plain holder).
    host: SubgraphHost; defaults to the instance's anchor cycle.
    """
    if host is None:
        host = host_from_cycle(graph)
    if budget is None:
        budget = SearchBudget()
    aset = set(host.anchors)
    n_free = sum(1 for v in range(graph.n) if v not in aset)
    if n_free > budget.max_free_vertices:
        raise ResourceError("too many free vertices for the oracle (%d > %d)"
                            % (n_free, budget.max_free_vertices))
    lo = 0
    for u, v in graph.edges:
        if u in aset and v in aset:
            lo = max(lo, host.dist(u, v))
    hi = host.diameter()
    for s in range(max(lo, 0), hi + 1):
        image = _feasible_assignment(graph, host, s, budget)
        if image is not None:
            ret = Retraction(tuple(image))
            # recompute the achieved stretch (may be < s when s jumps past it)
            best, witness = 0, None
            for u, v in graph.edges:
                d = host.dist(image[u], image[v])
                if d > best:
                    best, witness = d, (u, v)
            return ret, StretchReport(best, witness)
    raise ValidationError("no retraction exists within the host diameter "
                          "(host disconnected from guest?)")


def enumerate_optimal(graph, host=None):
    """Plain full enumeration (no pruning); for pruning-agreement tests only."""
    if host is None:
        host = host_from_cycle(graph)
    aset = set(host.anchors)
    free = [v for v in range(graph.n) if v not in aset]
    if len(free) > 6:
        raise ResourceError("full enumeration capped at 6 free vertices")
    best = None
    best_img = None
    for combo in itertools.product(host.anchors, repeat=len(free)):
        image = [None] * graph.n
        for a in host.anchors:
            image[a] = a
        for v, c in zip(free, combo):
            image[v] = c
        s = 0
        for u, v in graph.edges:
            s = max(s, host.dist(image[u], image[v]))
        if best is None or s < best:
            best = s
            best_img = list(image)
    return Retraction(tuple(best_img)), best


def _all_simple_cycles(n, adj, cap=14):
    """All simple cycles (as vertex tuples) of a graph with <= cap vertices."""
    if n > cap:
        raise ResourceError("cycle enumeration capped at %d vertices" % cap)
    cycles = []
    for start in range(n):
        # only cycles whose minimum vertex is `start`
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            for w in adj[v]:
                if w < start:
                    continue
                if w == start and len(path) >= 3:
                    # dedupe the two orientations
                    if path[1] < path[-1]:
                        cycles.append(tuple(path))
                elif w not in path:
                    stack.append((w, path + [w]))
    return cycles


def enumerate_min_surrounding_cycle(embedding, face_id, cap=16):
    """Length of the shortest simple cycle surrounding face F.

    Exhaustive: enumerates all simple cycles and flood-fills faces from F
    (never crossing a cycle edge); the cycle surrounds F iff the fill cannot
    reach the outer face. F's own boundary counts as surrounding.
    """
    n = embedding.n
    adj = [[] for _ in range(n)]
    for u, v in embedding.graph_edges:
        adj[u].append(v)
        adj[v].append(u)
    if face_id == embedding.outer_face:
        raise ValidationError("F must be a bounded face")
    best = None
    for cyc in _all_simple_cycles(n, adj, cap):
        cyc_edges = set()
        m = len(cyc)
        for i in range(m):
            a, b = cyc[i], cyc[(i + 1) % m]
            cyc_edges.add((a, b) if a < b else (b, a))
        # flood fill over faces, crossing only non-cycle edges
        seen = {face_id}
        stack = [face_id]
        surrounds = True
        while stack:
            f = stack.pop()
            if f == embedding.outer_face:
                surrounds = False
                break
            for e in embedding.face_edge_sets[f]:
                if e in cyc_edges:
                    continue
                for g in embedding.edge_faces[e]:
                    if g not in seen:
                        seen.add(g)
                        stack.append(g)
        if surrounds and (best is None or m < best):
            best = m
    if best is None:
        raise ValidationError("no cycle surrounds the face (graph has no cycle?)")
    return best


def brute_force_min_ratio(points, budget=None):
    """Exact minimum of the worst pairwise Euclidean stretch ratio over all
    anchor assignments of a PointSet (anchors fixed to themselves).

    Branch and bound on the partial maximum squared ratio; interior points
    are assigned in order, anchor candidates nearest-first. Returns
    (assignment, ratio_sq) with exact rational ratio_sq.
    """
    if budget is None:
        budget = SearchBudget()
    pts = points.points
    anchors = list(points.anchor_indices)
    aset = set(anchors)
    free = [v for v in range(points.n) if v not in aset]
    if len(free) > budget.max_free_vertices:
        raise ResourceError("too many interior points for brute force")

    def sqd(p, q):
        return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2

    # anchors map to themselves: every anchor pair contributes ratio 1
    base = Fraction(1) if len(anchors) > 1 else Fraction(0)
    best = [None, None]          # [assignment dict, ratio_sq]

    def pair_sq(img_u, img_v, u, v):
        num = sqd(pts[img_u], pts[img_v])
        if num == 0:
            return Fraction(0)
        return Fraction(num, sqd(pts[u], pts[v]))

    def dfs(i, assigned, cur):
        budget.tick()
        if best[1] is not None and cur >= best[1]:
            return
        if i == len(free):
            best[0] = dict(assigned)
            best[1] = cur
            return
        v = free[i]
        order = sorted(anchors, key=lambda a: sqd(pts[v], pts[a]))
        for a in order:
            worst = cur
            ok = True
            for u in anchors:
                if u != a:
                    worst = max(worst, pair_sq(a, u, v, u))
                    if best[1] is not None and worst >= best[1]:
                        ok = False
                        break
            if ok:
                for j in range(i):
                    u = free[j]
                    worst = max(worst, pair_sq(a, assigned[u], v, u))
                    if best[1] is not None and worst >= best[1]:
                        ok = False
                        break
            if ok:
                assigned[v] = a
                dfs(i + 1, assigned, worst)
                del assigned[v]

    dfs(0, {}, base)
    if best[0] is None:
        raise ResourceError("search exhausted without a solution")
    asg = tuple(best[0].get(v, v) for v in range(points.n))
    return asg, best[1]


def _host_signs(anchors):
    """H's edges, each in both directions: +1 along anchor order, -1
    against it."""
    k = len(anchors)
    signs = {}
    for i in range(k):
        a, b = anchors[i], anchors[(i + 1) % k]
        signs[a, b] = Fraction(1)
        signs[b, a] = Fraction(-1)
    return signs


class EdgeAssignment:
    """Exact rational values on directed edges: host edges are fixed at +1 in
    anchor order, every other edge carries a variable value, and reversal
    negates."""

    __slots__ = ("instance", "values", "_host_dir")

    def __init__(self, instance, values=None):
        self.instance = instance
        self._host_dir = _host_signs(instance.anchors)
        self.values = {e: Fraction(0) for e in instance.edges
                       if e not in self._host_dir}
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
    The DP runs on x times D, the lcm of its denominators, so on ints: every
    comparison and sign is that of x itself.
    """
    if l < 2:
        raise ValidationError("l must be >= 2")
    n = instance.n
    max_h = l - 2
    D = lcm(*(val.denominator for val in x.values.values()))
    # steps[w] lists (nb, D * x(w, nb)) for the neighbors nb of w
    steps = [[(nb, int(D * x.directed(w, nb)))
              for nb in instance.neighbors(w)] for w in range(n)]
    # DP from each vertex s: extremal weights of s->w walks with h edges
    for s in range(n):
        lo_par = [{} for _ in range(max_h + 1)]
        hi_par = [{} for _ in range(max_h + 1)]
        reach_lo = [dict() for _ in range(max_h + 1)]
        reach_hi = [dict() for _ in range(max_h + 1)]
        reach_lo[0][s] = 0
        reach_hi[0][s] = 0
        for h in range(1, max_h + 1):
            for w, val in reach_lo[h - 1].items():
                for nb, step in steps[w]:
                    cand = val + step
                    cur = reach_lo[h].get(nb)
                    if cur is None or cand < cur:
                        reach_lo[h][nb] = cand
                        lo_par[h][nb] = w
            for w, val in reach_hi[h - 1].items():
                for nb, step in steps[w]:
                    cand = val + step
                    cur = reach_hi[h].get(nb)
                    if cur is None or cand > cur:
                        reach_hi[h][nb] = cand
                        hi_par[h][nb] = w
        # close a cycle with any edge (u, s): walk s -> u plus edge u -> s
        for u, out in steps[s]:
            back = -out
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




def check_lp_certificate(graph, l, combination):
    """Check a cycle-LP infeasibility certificate at l by direct summation.

    combination is a sequence of (cycle, coefficient) pairs, each cycle a
    vertex sequence read as a closed directed walk. Every cycle must be a
    simple cycle of the guest with at least 3 and fewer than l edges, and
    every coefficient a nonzero rational. The weighted sum of the cycles'
    directed edges must be 0 on every edge off the anchor cycle and the same
    c != 0 on each anchor-cycle edge taken in anchor order: then no edge
    values with anchor-cycle edges +1 sum to 0 around every cycle shorter
    than l, since the coefficient-weighted sum of their sums around the
    certificate's cycles would be both 0 and c*k. Returns c; raises
    ValidationError naming the first failure.
    """
    if not combination:
        raise ValidationError("empty certificate")
    edges = {frozenset(e) for e in graph.edges}
    net = {}                           # (u, v) with u < v -> weight along u->v
    for cycle, coef in combination:
        cycle = tuple(cycle)
        coef = Fraction(coef)
        if coef == 0:
            raise ValidationError("zero coefficient on %r" % (cycle,))
        if len(cycle) < 3 or len(set(cycle)) != len(cycle):
            raise ValidationError("%r is not a simple cycle" % (cycle,))
        if len(cycle) >= l:
            raise ValidationError("%r has length %d >= %d"
                                  % (cycle, len(cycle), l))
        for i in range(len(cycle)):
            u, v = cycle[i - 1], cycle[i]
            if frozenset((u, v)) not in edges:
                raise ValidationError("(%r, %r) is not an edge" % (u, v))
            key, sign = ((u, v), 1) if u < v else ((v, u), -1)
            net[key] = net.get(key, 0) + sign * coef
    host = _host_signs(graph.anchors)
    first = min(e for e in host if e[0] < e[1])
    c = net.get(first, 0) * host[first]
    if c == 0:
        raise ValidationError("the cycles sum to 0 on the anchor cycle")
    for e in edges:
        key = tuple(sorted(e))
        want = c * host.get(key, 0)
        if net.get(key, 0) != want:
            raise ValidationError("edge %r carries %s, expected %s"
                                  % (key, net.get(key, 0), want))
    return c
