"""Instances, the cycle metric, retraction evaluation, subdivision, generators,
and JSON serialization shared by all solvers.

An Instance is a connected unweighted guest graph together with an ordered
anchor cycle H: the anchors are distinct vertices listed in cycle order, and
consecutive anchors (cyclically) must be joined by an edge, so H is a cycle of
the guest. A Retraction maps every vertex to an anchor, fixing the anchors;
its stretch is the maximum cycle distance between the images of an edge's
endpoints.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction


class ValidationError(ValueError):
    """Malformed instance, retraction, or argument."""


class SolverError(RuntimeError):
    """A solver could not produce an answer (resource cap, construction failure)."""


class ResourceError(SolverError):
    """An explicit budget (states, memory) was exceeded."""


def _normalize_edge(u, v):
    if u == v:
        raise ValidationError("self-loop edge (%r, %r)" % (u, v))
    return (u, v) if u < v else (v, u)


def _distances(adj, lengths, src):
    """Shortest-path distances from src over adj, as a dict holding the
    vertices reached. With `lengths` None every edge has length 1 and a BFS
    finds them; else Dijkstra does, an edge (u, v) having length
    lengths[(u, v)], normalized."""
    dist = {src: 0}
    if lengths is None:
        queue = [src]
        for u in queue:
            d = dist[u] + 1
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    queue.append(w)
        return dist
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for w in adj[u]:
            d2 = d + lengths[_normalize_edge(u, w)]
            if d2 < dist.get(w, d2 + 1):
                dist[w] = d2
                heapq.heappush(heap, (d2, w))
    return dist


class Instance:
    """Immutable guest graph plus ordered anchor cycle.

    Vertex ids are dense integers 0..n-1. Anchors are vertex ids listed in
    cycle order; internally each anchor also has a cycle index 0..k-1.
    """

    __slots__ = ("n", "edges", "anchors", "points", "_adj", "_anchor_index",
                 "_dist_cache", "_host_edges")

    def __init__(self, n, edges, anchors, points=None):
        if not _is_int(n) or n <= 0:
            raise ValidationError("vertex count must be a positive integer")
        norm = []
        seen = set()
        for u, v in edges:
            # as _is_int, with the common case of two plain ints inline
            if ((type(u) is not int or type(v) is not int)
                    and not (_is_int(u) and _is_int(v))):
                raise ValidationError("edge %r has a non-integer end"
                                      % ((u, v),))
            e = _normalize_edge(u, v)
            if e[0] < 0 or e[1] >= n:       # e[0] < e[1]
                raise ValidationError("edge %r out of range" % (e,))
            if e in seen:
                raise ValidationError("duplicate edge %r" % (e,))
            seen.add(e)
            norm.append(e)
        self.n = n
        self.edges = tuple(sorted(norm))
        anchors = tuple(anchors)
        for a in anchors:
            if not _is_int(a) or not 0 <= a < n:
                raise ValidationError("anchor %r is not a vertex id" % (a,))
        if len(anchors) < 3:
            raise ValidationError("need at least 3 anchors")
        if len(set(anchors)) != len(anchors):
            raise ValidationError("anchors must be distinct")
        self.anchors = anchors
        k = len(anchors)
        host = []
        for i in range(k):
            e = _normalize_edge(anchors[i], anchors[(i + 1) % k])
            if e not in seen:
                raise ValidationError(
                    "anchors do not form a cycle: missing edge %r" % (e,))
            host.append(e)
        self._host_edges = frozenset(host)
        if points is not None:
            try:
                if len(points) != n:
                    raise ValueError("%d points for %d vertices"
                                     % (len(points), n))
                points = tuple((_coordinate(x), _coordinate(y))
                               for x, y in points)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError("points must be one pair of finite "
                                      "numbers per vertex: %s" % exc) from None
        self.points = points
        if len(self.edges) < n - 1:
            raise ValidationError("guest graph is disconnected")
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._anchor_index = {a: i for i, a in enumerate(anchors)}
        self._dist_cache = {}
        # connectivity (disconnected guests are rejected here; modules that
        # decompose build their sub-instances explicitly)
        if n > 1:
            dist = self.distances_from(0)
            if any(d < 0 for d in dist):
                raise ValidationError("guest graph is disconnected")

    @property
    def k(self):
        return len(self.anchors)

    def neighbors(self, v):
        return self._adj[v]

    def is_anchor(self, v):
        return v in self._anchor_index

    def anchor_index(self, v):
        return self._anchor_index[v]

    def distances_from(self, source):
        """BFS distances from source; -1 for unreachable. Memoized."""
        cached = self._dist_cache.get(source)
        if cached is not None:
            return cached
        dist = [-1] * self.n
        dist[source] = 0
        q = deque([source])
        while q:
            u = q.popleft()
            for w in self._adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    q.append(w)
        dist = tuple(dist)
        self._dist_cache[source] = dist
        return dist

    def host_edges(self):
        """The k cycle edges of H, normalized."""
        return self._host_edges

    def __eq__(self, other):
        return (isinstance(other, Instance) and self.n == other.n
                and self.edges == other.edges and self.anchors == other.anchors
                and self.points == other.points)

    def __hash__(self):
        return hash((self.n, self.edges, self.anchors))

    def __repr__(self):
        return "Instance(n=%d, |E|=%d, k=%d)" % (self.n, len(self.edges), self.k)


@dataclass(frozen=True)
class Retraction:
    """Total assignment vertex id -> anchor vertex id, fixing anchors."""
    assignment: tuple

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))

    def image(self, v):
        return self.assignment[v]


@dataclass(frozen=True)
class StretchReport:
    max_stretch: int
    witness_edge: tuple | None


class SubgraphHost:
    """An arbitrary connected host subgraph (anchors + host edges) with its
    shortest-path metric. Cycle hosts are the special case used by most
    modules; the treewidth DP accepts any connected subgraph."""

    __slots__ = ("anchors", "edges", "_index", "_dist")

    def __init__(self, anchors, edges):
        self.anchors = tuple(anchors)
        for a in self.anchors:
            if not _is_int(a):
                raise ValidationError("host anchor %r is not a vertex id"
                                      % (a,))
        if len(set(self.anchors)) != len(self.anchors):
            raise ValidationError("host anchors must be distinct")
        aset = set(self.anchors)
        norm = set()
        for e in edges:
            if (not isinstance(e, (tuple, list)) or len(e) != 2
                    or not (_is_int(e[0]) and _is_int(e[1]))):
                raise ValidationError("host edge %r is not a pair of vertex "
                                      "ids" % (e,))
            e = _normalize_edge(*e)
            if e[0] not in aset or e[1] not in aset:
                raise ValidationError("host edge %r leaves the anchor set" % (e,))
            norm.add(e)
        self.edges = frozenset(norm)
        self._index = {a: i for i, a in enumerate(self.anchors)}
        adj = {a: [] for a in self.anchors}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._dist = {}
        for s in self.anchors:
            d = _distances(adj, None, s)
            if len(d) != len(self.anchors):
                raise ValidationError("host subgraph is disconnected")
            self._dist.update(((s, t), dv) for t, dv in d.items())

    @property
    def k(self):
        return len(self.anchors)

    def contains(self, v):
        return v in self._index

    def dist(self, a, b):
        return self._dist[(a, b)]

    def diameter(self):
        return max(self._dist.values())


def host_from_cycle(instance):
    """The instance's anchor cycle as a SubgraphHost."""
    return SubgraphHost(instance.anchors, instance.host_edges())


def cycle_dist(k, i, j):
    """Cycle metric on indices 0..k-1."""
    d = abs(i - j)
    return min(d, k - d)


def check_retraction(instance, retraction):
    """Raise unless retraction is total, anchor-valued, and fixes anchors."""
    asg = retraction.assignment
    if len(asg) != instance.n:
        raise ValidationError("assignment is not total")
    for v, img in enumerate(asg):
        if not instance.is_anchor(img):
            raise ValidationError("vertex %d maps to non-anchor %r" % (v, img))
    for a in instance.anchors:
        if asg[a] != a:
            raise ValidationError("anchor %d is moved to %r" % (a, asg[a]))


def stretch(instance, retraction):
    """Max cycle distance between endpoint images over all edges."""
    check_retraction(instance, retraction)
    k = instance.k
    asg = retraction.assignment
    idx = instance.anchor_index
    best = 0
    witness = None
    for u, v in instance.edges:
        d = cycle_dist(k, idx(asg[u]), idx(asg[v]))
        if d > best:
            best = d
            witness = (u, v)
    return StretchReport(best, witness)


def _distance_ratio(search, branch, host_dist):
    """(num, den) of the anchor distance ratio: max(1, max over pairs a, b
    of `branch` of d_H(a, b) / d_G(a, b)), with search(a)[b] = d_G(a, b) and
    host_dist(a, b) = d_H(a, b), skipping pairs the search does not reach.

    It bounds the optimal stretch onto any connected host H from below: a
    stretch-l map takes a shortest a-b path of G to a host walk of d_G(a, b)
    steps of length at most l. Branch anchors, those with a guest edge off
    H, suffice, and that is exact. Take anchors a != b and a shortest a-b
    path P in G. If P uses only host edges, |P| >= d_H(a,b) and the ratio
    is at most 1. Otherwise let p be where P first takes a non-host edge and
    q where its last non-host edge ends: P runs along H before p and after
    q, so p and q are branch anchors, and p != q as P is simple. With c the
    length of P outside its p-q subpath, d_G(a,b) = c + d_G(p,q) and
    d_H(a,b) <= c + d_H(p,q), so the ratio is at most
    (c + d_H(p,q)) / (c + d_G(p,q)) <= max(1, d_H(p,q)/d_G(p,q)).
    """
    num, den = 1, 1
    for x, a in enumerate(branch):
        dist = search(a)
        for b in branch[x + 1:]:
            try:
                d = dist[b]
            except KeyError:
                continue
            dh = host_dist(a, b)
            if dh * den > num * d:
                num, den = dh, d
    return num, den


def distance_lower_bound(instance):
    """The anchor distance ratio (`_distance_ratio`) as an exact Fraction;
    branch anchors are those with more than two neighbours."""
    k, idx = instance.k, instance._anchor_index
    branch = [a for a in instance.anchors if len(instance.neighbors(a)) > 2]
    return Fraction(*_distance_ratio(
        instance.distances_from, branch,
        lambda a, b: cycle_dist(k, idx[a], idx[b])))


def subdivide(instance, l):
    """Replace every non-host edge by a path of l edges (l-1 fresh vertices).

    Returns (new_instance, back_map) where back_map[new_vertex] is the
    original vertex id for originals and None for fresh path vertices.
    Original vertices keep their ids, so restricting an assignment of the
    subdivided instance to the first n entries restricts the retraction.
    """
    if l < 1:
        raise ValidationError("subdivision factor must be >= 1")
    host = instance.host_edges()
    edges = []
    nxt = instance.n
    back = list(range(instance.n))
    for u, v in instance.edges:
        if (u, v) in host or l == 1:
            edges.append((u, v))
            continue
        prev = u
        for _ in range(l - 1):
            edges.append((prev, nxt))
            back.append(None)
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    sub = Instance(nxt, edges, instance.anchors)
    return sub, tuple(back)


def gen_grid(m):
    """m x m grid graph; anchors are the 4(m-1) boundary vertices in cycle order."""
    if m < 3:
        raise ValidationError("grid size must be >= 3")
    vid = lambda r, c: r * m + c
    edges = []
    for r in range(m):
        for c in range(m):
            if c + 1 < m:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < m:
                edges.append((vid(r, c), vid(r + 1, c)))
    anchors = ([vid(0, c) for c in range(m)]
               + [vid(r, m - 1) for r in range(1, m)]
               + [vid(m - 1, c) for c in range(m - 2, -1, -1)]
               + [vid(r, 0) for r in range(m - 2, 0, -1)])
    return Instance(m * m, edges, anchors)


def gen_column_deleted_grid(m):
    """gen_grid(m) with every vertical edge not in the first or last column removed."""
    grid = gen_grid(m)
    edges = [(u, v) for u, v in grid.edges if v - u == 1 or u % m in (0, m - 1)]
    return Instance(m * m, edges, grid.anchors)


def gen_random_planar(n_free, k, seed):
    """Seeded random connected planar instance: the anchor cycle as outer
    boundary, triangulated by a random fan, free vertices inserted one at a
    time into random triangles, then random edge deletions that keep the
    graph connected (and the anchor cycle intact)."""
    import random as _random
    if k < 3:
        raise ValidationError("k must be >= 3")
    if n_free < 0:
        raise ValidationError("the free vertex count must be >= 0")
    rng = _random.Random(seed)
    n = k + n_free
    edges = {_normalize_edge(i, (i + 1) % k) for i in range(k)}
    apex = rng.randrange(k)
    triangles = []
    for i in range(k):
        a, b = i, (i + 1) % k
        if a == apex or b == apex:
            continue
        edges.add(_normalize_edge(apex, a))
        edges.add(_normalize_edge(apex, b))
        triangles.append((apex, a, b))
    for v in range(k, n):
        x, y, z = triangles.pop(rng.randrange(len(triangles)))
        edges.update((_normalize_edge(v, x), _normalize_edge(v, y),
                      _normalize_edge(v, z)))
        triangles.extend([(v, x, y), (v, y, z), (v, x, z)])
    host = {_normalize_edge(i, (i + 1) % k) for i in range(k)}

    def connected(es):
        adj = [[] for _ in range(n)]
        for u, v in es:
            adj[u].append(v)
            adj[v].append(u)
        return len(_distances(adj, None, 0)) == n

    removable = sorted(edges - host)
    rng.shuffle(removable)
    for e in removable:
        if rng.random() < 0.4:
            edges.discard(e)
            if not connected(edges):
                edges.add(e)
    return Instance(n, sorted(edges), tuple(range(k)))


def serialize_instance(instance):
    obj = {
        "n": instance.n,
        "edges": [[u, v] for u, v in instance.edges],
        "anchors": list(instance.anchors),
    }
    if instance.points is not None:
        obj["points"] = [[p[0].numerator, p[0].denominator,
                          p[1].numerator, p[1].denominator]
                         for p in instance.points]
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _coordinate(x):
    """x as a Fraction if it is an int (not a bool), a float or a Fraction;
    Fraction() would also read strings and Decimals."""
    if not (_is_int(x) or isinstance(x, (float, Fraction))):
        raise TypeError("%r is not an int, float or Fraction" % (x,))
    return Fraction(x)


def _int_list(value, what, length=None):
    """value if it is a list of ints (of the given length), else raise."""
    if (not isinstance(value, list) or not all(_is_int(x) for x in value)
            or length is not None and len(value) != length):
        count = "" if length is None else "%d " % length
        raise ValidationError("%s must be a list of %sintegers"
                              % (what, count))
    return value


def _json_object(text):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError("not valid JSON: %s" % exc) from exc
    if not isinstance(obj, dict):
        raise ValidationError("top level must be a JSON object")
    return obj


def parse_instance(text):
    obj = _json_object(text)
    for field in ("n", "edges", "anchors"):
        if field not in obj:
            raise ValidationError("missing field %r" % field)
    # Instance checks n and every vertex id; here only the JSON shapes
    edges, anchors = obj["edges"], obj["anchors"]
    if (not isinstance(edges, list)
            or not all(isinstance(e, list) and len(e) == 2 for e in edges)):
        raise ValidationError("edges must be a list of 2-element lists")
    if not isinstance(anchors, list):
        raise ValidationError("anchors must be a list")
    points = None
    if obj.get("points") is not None:
        if not isinstance(obj["points"], list):
            raise ValidationError("points must be a list")
        points = []
        for i, quad in enumerate(obj["points"]):
            xn, xd, yn, yd = _int_list(quad, "points[%d]" % i, 4)
            if xd == 0 or yd == 0:
                raise ValidationError("points[%d] has a zero denominator" % i)
            points.append((Fraction(xn, xd), Fraction(yn, yd)))
    return Instance(obj["n"], edges, anchors, points)


def serialize_retraction(retraction, max_stretch):
    obj = {"assignment": list(retraction.assignment),
           "stretch": max_stretch}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_retraction(text):
    obj = _json_object(text)
    if "assignment" not in obj:
        raise ValidationError("missing field 'assignment'")
    claimed = obj.get("stretch")
    if claimed is not None and not _is_int(claimed):
        raise ValidationError("stretch must be an integer")
    assignment = _int_list(obj["assignment"], "assignment")
    return Retraction(tuple(assignment)), claimed


def parse_host(text, instance):
    """A SubgraphHost from JSON {anchors: [...], edges: [[u, v], ...]} whose
    anchors are vertices of the instance and whose edges are its edges."""
    obj = _json_object(text)
    for field in ("anchors", "edges"):
        if field not in obj:
            raise ValidationError("missing host field %r" % field)
    anchors = _int_list(obj["anchors"], "host anchors")
    if not anchors:
        raise ValidationError("host anchors must not be empty")
    for a in anchors:
        if not 0 <= a < instance.n:
            raise ValidationError("host anchor %r out of range" % (a,))
    if not isinstance(obj["edges"], list):
        raise ValidationError("host edges must be a list")
    edges = [tuple(_int_list(e, "host edges[%d]" % i, 2))
             for i, e in enumerate(obj["edges"])]
    guest = set(instance.edges)
    for u, v in edges:
        if _normalize_edge(u, v) not in guest:
            raise ValidationError("host edge %r is not a guest edge" % ([u, v],))
    return SubgraphHost(anchors, edges)
