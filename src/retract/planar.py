"""Exact minimum-stretch retraction for planar guests.

One route decides every planar instance: `optimal_retract_weighted` solves
a graph whose edges stand for paths of given integer lengths, without
building those paths, and `optimal_retract_planar` solves an instance as
that graph with every length 1.

Route: reduce to the 2-connected block containing the host cycle H, found
by one lowpoint DFS (`_hanging`); a vertex outside the block takes the
image of the block vertex its component hangs off, which adds no stretch.
Then split on the pieces of the block minus H's vertices, in one pass
(`_pieces`): each chord of H, and each component with its edges to H, is
solved independently at its own optimum. Every non-anchor vertex and every
edge off H lies in one piece, piece maps fix the anchors and host edges
have stretch 1, so the optimum is the largest piece optimum. A chain, a
chord or a component whose vertices all have degree 2, is a path of length
L between anchors a and b; it has a map of stretch l exactly when
L*l >= d_H(a, b), so it is decided in closed form (`_chain_at`) with no
embedding. Every other piece is a part: H with the piece attached. A part
has one piece, so H bounds a face of every embedding of it. Each part is
taken to its weighted core once (`_weighted_part`): the vertices of degree
other than 2, each chain of degree-2 vertices between them one core edge
that carries its length L, and only that core is planarity-tested and
embedded, by the left-right test (`_lr_rotation`, linear time and
iterative). Its faces are walked once on that rotation, and the walk keeps
each half-edge's face and each face's length. Each stretch l of a part is
decided on the core by scanning its bounded faces F with a winding cover:
core vertices are copied into layers that shift where a core edge crosses
a dual path from F to the outer face, found by BFS over the face walks,
and labels are shortest-path values from the core anchor copies, with a
core edge of length L on H and L*l off it. The map is verified per chain
from the labels, and only the accepted map gives images to the inner chain
vertices. The scan is exact (see `_lipschitz_retract`). A part's optimum is
the least feasible l, scanned upward from the part's anchor distance ratio
(`core._distance_ratio`: a BFS from each branch anchor when every length of
the part is 1, else Dijkstra). The merged map is checked in closed form
(`_check_weighted`).

`reduce_two_connected` and `plane_core` take the same block and core of an
`Instance` by calls of the solve's own `_hanging` and builder, the builder
with every length 1 and ids that put the anchors first; no solve calls
them. `plane_embed` embeds a one-piece instance, counted by `_pieces`,
through `plane_core`: with every length 1 it rebuilds each chain from its
link and splices the chains into the core's face walks, as the
PlaneEmbedding that the curve certificate below reads; no core builds one.

The paper's certificate, k vertex-disjoint curves from F to H found by max
flow in a triangulated supergraph and the retraction read off the regions
they cut out, is kept as `triangulate_for_face`, `max_disjoint_paths` and
`retraction_from_curves`; the solver does not call it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from math import ceil

from .core import (Instance, Retraction, SolverError, ValidationError,
                   _distance_ratio, _distances, _normalize_edge, cycle_dist,
                   distance_lower_bound, stretch)
from .core import subdivide  # noqa: F401  (perfbench/spans.py wraps it here)


class NotPlanarError(ValidationError):
    """The guest graph is not planar; the exact algorithm does not apply."""


class PlaneEmbedding:
    """A combinatorial plane embedding given by its face walks, for the
    curve certificate (`plane_embed`, `triangulate_for_face`).

    faces are directed boundary walks (simple cycles in the 2-connected
    case), no half-edge on two of them; outer_face indexes the face bounded
    by the anchor cycle. The edges, each face's edge set and each half-edge's
    face are derived from the walks.
    """

    __slots__ = ("n", "faces", "outer_face", "anchors", "graph_edges",
                 "face_edge_sets", "edge_faces", "half_face")

    def __init__(self, n, faces, outer_face, anchors):
        self.n = n
        self.faces = tuple(tuple(f) for f in faces)
        self.outer_face = outer_face
        self.anchors = tuple(anchors)
        edges = set()
        half_face = {}
        face_edge_sets = []
        for fid, walk in enumerate(self.faces):
            fes = set()
            m = len(walk)
            for i in range(m):
                u, v = walk[i], walk[(i + 1) % m]
                e = _normalize_edge(u, v)
                edges.add(e)
                fes.add(e)
                if (u, v) in half_face:
                    raise SolverError("half-edge (%d,%d) on two faces" % (u, v))
                half_face[(u, v)] = fid
            face_edge_sets.append(frozenset(fes))
        self.graph_edges = tuple(sorted(edges))
        self.face_edge_sets = tuple(face_edge_sets)
        ef = {}
        for fid, fes in enumerate(face_edge_sets):
            for e in fes:
                ef.setdefault(e, []).append(fid)
        self.edge_faces = {e: tuple(fs) for e, fs in ef.items()}
        self.half_face = half_face


class PlaneCore:
    """A part's weighted core, embedded once, in the core's own ids 0..c-1.

    The core is the vertices of degree other than 2 (one vertex of a bare
    cycle), plus interior vertices promoted from any chain of degree-2
    vertices that would otherwise close a loop or repeat a core edge, so
    that the core is simple and each core edge stands for exactly one
    chain. A chain lies wholly on H or wholly off it, since an inner vertex
    of H has no edge off H. The core alone is embedded: rotation[v] is
    core vertex v's clockwise neighbours; faces[f] is face f's walk, each
    half-edge (v, w) followed by (w, the neighbour before v in w's
    rotation); half_face[(v, w)] is the face whose walk takes (v, w);
    outer_face is H's face; and `forward` holds the host core edges
    directed in anchor order. k is H's length; `outs` gives the part vertex
    each core vertex is (None for an inner vertex of a longer edge); `seeds`
    pairs each core anchor with its anchor index; each link (x, y, L, on H,
    sites) is a core edge from x to y, in anchor order on H and from its
    lesser id off H, that stands for a chain of L edges, whose inner
    vertices (t, v), in increasing t, that are part vertices v take the
    image of the chain's vertex t; the links come in the order the builder
    takes the chains, each taken once; and face_lengths[f] is face f's
    length (on H, off H). A map is a dict of anchor indices over the
    vertices of the part.
    """

    __slots__ = ("k", "rotation", "faces", "half_face", "outer_face",
                 "forward", "outs", "seeds", "links", "face_lengths")


def plane_core(instance):
    """Planarity-test the instance and embed its core (see PlaneCore): the
    solve's own builder (`_weighted_part`), every edge of length 1. The
    core's ids keep the order of the anchors by index, then the other
    vertices in order; `outs` reports the instance's own."""
    host = instance.host_edges()
    return _weighted_part(
        instance.k, {a: i for i, a in enumerate(instance.anchors)},
        instance.anchors, host, dict.fromkeys(instance.edges, 1),
        [e for e in instance.edges if e not in host],
        [v for v in range(instance.n) if not instance.is_anchor(v)])[0]


# ---------------------------------------------------------------------------
# the left-right planarity test


def _lr_rotation(n, edges):
    """Clockwise rotation of every vertex of a planar graph.

    The vertices are 0..n-1, and `edges` lists each edge (u, v) once, with
    no loops; the searches take the roots in increasing order and each
    vertex's neighbours in the order of `edges`. Returns a list of n tuples,
    rotation[v] v's neighbours in clockwise order; raises NotPlanarError if
    the graph is not planar.

    This is the left-right planarity test of de Fraysseix and Rosenstiehl as
    formulated by U. Brandes, "The Left-Right Planarity Test" (2009), ported
    from the iterative orientation, testing, sign and embedding phases of
    `LRPlanarity` in networkx 3.6.1 (networkx/algorithms/planarity.py;
    3-clause BSD license, Copyright (c) 2004-2025, NetworkX Developers). No
    phase recurses, and each is linear but for the sorts by nesting depth. A
    conflict pair is a list [left low, left high, right low, right high] of
    return edges (None for none), one interval empty when both its ends are
    None. The embedding is kept as clockwise and counterclockwise links
    between the neighbours of each vertex, keyed by half-edge, plus the
    vertex's leftmost neighbour, where its rotation starts.
    """
    if n > 2 and len(edges) > 3 * n - 6:
        raise NotPlanarError("guest graph is not planar")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    # orientation: a DFS directs each tree edge away from its root and each
    # back edge to an ancestor, and finds lowpoints and nesting depths
    height = {}
    parent = {}         # the tree edge into each vertex, None at a root
    lowpt = {}
    lowpt2 = {}
    depth = {}
    out = [[] for _ in range(n)]    # each vertex's edges, as oriented
    roots = []
    at = [0] * n
    for root in range(n):
        if root in height:
            continue
        roots.append(root)
        height[root] = 0
        parent[root] = None
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent[v]
            hv = height[v]
            nbrs = adj[v]
            i = at[v]
            while i < len(nbrs):
                w = nbrs[i]
                vw = (v, w)
                if vw not in lowpt:     # else back from the tree edge vw
                    if (w, v) in lowpt:
                        i += 1
                        continue
                    out[v].append(w)
                    lowpt[vw] = lowpt2[vw] = hv
                    if w not in height:
                        parent[w] = vw
                        height[w] = hv + 1
                        at[v] = i
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[vw] = height[w]
                depth[vw] = 2 * lowpt[vw] + (lowpt2[vw] < hv)
                if e is not None:
                    lo, lo2 = lowpt[vw], lowpt2[vw]
                    if lo < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lo2)
                        lowpt[e] = lo
                    elif lo > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lo)
                    else:
                        lowpt2[e] = min(lowpt2[e], lo2)
                i += 1

    # testing: a second DFS, children by nesting depth, keeps a stack S of
    # conflict pairs and fails when an edge must lie on both sides
    ordered = [sorted(out[v], key=lambda w: depth[(v, w)]) for v in range(n)]
    ref = {}
    side = {}
    S = []
    bottom = {}
    lowpt_edge = {}

    def add_constraints(ei, e):
        P = [None, None, None, None]
        # merge the return edges of ei into P's right interval
        while True:
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge the return edges of ei's earlier siblings that conflict with
        # ei into P's left interval
        lo = lowpt[ei]
        while S and ((S[-1][1] is not None and lowpt[S[-1][1]] > lo)
                     or (S[-1][3] is not None and lowpt[S[-1][3]] > lo)):
            Q = S.pop()
            if Q[3] is not None and lowpt[Q[3]] > lo:
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if Q[3] is not None and lowpt[Q[3]] > lo:
                return False
            ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [None, None, None, None]:
            S.append(P)
        return True

    def lowest(P):
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e):
        u = e[0]
        hu = height[u]
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:
            # trim the back edges ending at u from the top pair's intervals
            P = S[-1]
            while P[1] is not None and P[1][1] == u:
                P[1] = ref.get(P[1])
            if P[1] is None and P[0] is not None:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and P[3][1] == u:
                P[3] = ref.get(P[3])
            if P[3] is None and P[2] is not None:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        if lowpt[e] < hu:
            # e lies on the side of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    at = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent[v]
            hv = height[v]
            nbrs = ordered[v]
            i = at[v]
            while i < len(nbrs):
                w = nbrs[i]
                ei = (v, w)
                if ei not in bottom:    # else back from the tree edge ei
                    bottom[ei] = S[-1] if S else None
                    if parent[w] == ei:
                        at[v] = i
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt_edge[ei] = ei
                    S.append([None, None, ei, ei])
                if lowpt[ei] < hv:
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        raise NotPlanarError("guest graph is not planar")
                i += 1
            else:
                if e is not None:
                    remove_back_edges(e)

    # sign: resolve each edge's side, relative to its ref edge, to absolute
    def sign(e):
        stack = [e]
        old = {}
        while stack:
            x = stack.pop()
            r = ref.get(x)
            if r is not None:
                stack.append(x)
                stack.append(r)
                old[x] = r
                ref[x] = None
            else:
                side[x] = side.get(x, 1) * side.get(old.get(x), 1)
        return side[e]

    for v in range(n):
        for w in out[v]:
            depth[(v, w)] *= sign((v, w))

    # embedding: each vertex's outgoing edges by signed nesting depth, then
    # a third DFS places the incoming tree edge and back edges
    cw = {}
    ccw = {}
    leftmost = {}

    def after(v, w, x):     # w just clockwise of x around v
        y = cw[(v, x)]
        cw[(v, x)] = ccw[(v, y)] = w
        ccw[(v, w)] = x
        cw[(v, w)] = y

    def before(v, w, x):    # w just counterclockwise of x around v
        y = ccw[(v, x)]
        ccw[(v, x)] = cw[(v, y)] = w
        cw[(v, w)] = x
        ccw[(v, w)] = y
        if leftmost[v] == x:
            leftmost[v] = w

    for v in range(n):
        nbrs = ordered[v] = sorted(out[v], key=lambda w: depth[(v, w)])
        if nbrs:
            x = leftmost[v] = nbrs[0]
            cw[(v, x)] = ccw[(v, x)] = x
            for w in nbrs[1:]:
                after(v, w, x)
                x = w
    left_ref = {}
    right_ref = {}
    at = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            nbrs = ordered[v]
            i = at[v]
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                ei = (v, w)
                if parent[w] == ei:
                    # v becomes w's leftmost neighbour
                    if w in leftmost:
                        before(w, v, leftmost[w])
                    else:
                        leftmost[w] = v
                        cw[(w, v)] = ccw[(w, v)] = v
                    left_ref[v] = right_ref[v] = w
                    at[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                if side[ei] == 1:
                    after(w, v, right_ref[w])
                else:
                    before(w, v, left_ref[w])
                    left_ref[w] = v

    rotation = [()] * n
    for v, start in leftmost.items():
        rot = [start]
        x = cw[(v, start)]
        while x != start:
            rot.append(x)
            x = cw[(v, x)]
        rotation[v] = tuple(rot)
    return rotation


# ---------------------------------------------------------------------------
# preprocessing: 2-connected reduction and embedding / decomposition


@dataclass(frozen=True)
class ReduceMap:
    """Back-mapping for reduce_two_connected.

    old_of_new[new_id] = original id of a kept vertex;
    gateway[old_id] = kept original vertex (a cut vertex) a collapsed
    vertex hangs off of; kept vertices are not in gateway.
    """
    n_original: int
    old_of_new: tuple
    gateway: dict


def reduce_two_connected(instance):
    """Collapse everything outside the block containing H onto its cut vertex.

    Returns (reduced_instance, ReduceMap); the block is found by
    `_hanging`. Any retraction of the block lifts by sending each hanging
    vertex to its gateway's image. An instance with nothing hanging is its
    own block: it is returned itself, with the identity map.
    """
    n = instance.n
    gateway = _hanging(n, instance.neighbors, instance.anchors)
    if not gateway:
        return instance, ReduceMap(n, tuple(range(n)), {})
    old_of_new = tuple(v for v in range(n) if v not in gateway)
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    edges = [(new_of_old[u], new_of_old[v]) for u, v in instance.edges
             if u in new_of_old and v in new_of_old]
    anchors = tuple(new_of_old[a] for a in instance.anchors)
    reduced = Instance(len(old_of_new), edges, anchors)
    return reduced, ReduceMap(n, old_of_new, gateway)


def _hanging(n, neighbors, anchors):
    """{v: gateway} for every vertex v outside the block containing the
    anchor cycle H, its gateway the block vertex that v's component of G
    minus the block attaches at.

    One iterative lowpoint DFS over neighbors(v), rooted at an anchor r. A
    tree child c of p whose subtree reaches no vertex above p (low[c] >=
    disc[p]) is cut off by p; if that subtree holds no anchor it hangs off
    p, and every vertex in it takes p's gateway, or p itself when p is
    kept, so nested hangs collapse onto the outermost cut vertex. This is
    exact: H is a 2-connected cycle through r, so a cut-off subtree holding
    an anchor is a child subtree of r, and at most one of those holds
    anchors.
    """
    root = anchors[0]
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    anchored = [False] * n      # the vertex's DFS subtree holds an anchor
    for a in anchors:
        anchored[a] = True
    disc[root] = 0
    order = [root]
    stack = [(root, iter(neighbors(root)))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if disc[w] < 0:
                disc[w] = low[w] = len(order)
                parent[w] = v
                order.append(w)
                stack.append((w, iter(neighbors(w))))
                break
            if disc[w] < low[v] and w != parent[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            p = parent[v]
            if p >= 0:
                if low[v] < low[p]:
                    low[p] = low[v]
                if anchored[v]:
                    anchored[p] = True
    # in preorder, so a vertex's parent is settled before the vertex
    gateway = {}
    anchored_cuts = 0
    for v in order[1:]:
        p = parent[v]
        if p in gateway:
            gateway[v] = gateway[p]
        elif low[v] >= disc[p]:
            if anchored[v]:
                anchored_cuts += 1
            else:
                gateway[v] = p
    if anchored_cuts > 1:
        raise SolverError("anchor cycle does not lie in one block")
    return gateway


def _pieces(n, neighbors, P, host, skip):
    """(chains, comps): the pieces of G minus the cycle vertices P, cycle
    vertex c at position P[c]. neighbors(v) lists v's neighbours, none in
    `skip`, and no vertex of `skip` is visited. A chord, an edge off `host`
    between cycle vertices, is the chain (u, v), u < v, in sorted edge
    order; a component whose vertices all have degree 2 the chain a, its
    vertices..., b between cycle vertices, from its end of lesser P; every
    other one (its sorted vertices, its sorted edges, those to the cycle
    included)."""
    chains = sorted((u, w) for u in P for w in neighbors(u)
                    if u < w and w in P and (u, w) not in host)
    comps = []
    seen = set(P).union(skip)
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        comp, edges = [s], []
        for v in comp:
            for w in neighbors(v):
                if w in P or w > v:
                    edges.append(_normalize_edge(v, w))
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        if any(len(neighbors(v)) != 2 for v in comp):
            comps.append((sorted(comp), sorted(edges)))
            continue
        # a path of degree-2 vertices: walk it from a cycle vertex at one end
        end = next(v for v in comp if any(w in P for w in neighbors(v)))
        chain = [next(w for w in neighbors(end) if w in P), end]
        while chain[-1] not in P:
            x, y = neighbors(chain[-1])
            chain.append(y if x == chain[-2] else x)
        if P[chain[-1]] < P[chain[0]]:
            chain.reverse()
        chains.append(tuple(chain))
    return chains, comps


def plane_embed(instance):
    """Embed a one-piece instance with H on the outer face.

    A piece is a chord of H, or a component C of G minus the anchors with
    its edges to H (see `_pieces`). H bounds a face of every embedding of a
    one-piece instance: a connected C lies on one side of the Jordan curve
    H, so the other side holds nothing. Two or more pieces are rejected, as
    H may bound no face of the whole. The face walks are the core's
    (`plane_core`), with every chain spliced back in; the faces keep the
    core's face ids. Every length is 1, so a link's chain is rebuilt from
    the link: on H it runs from x's anchor index for L steps, and off H
    every inner vertex is a site.
    """
    chains, comps = _pieces(instance.n, instance.neighbors,
                            instance._anchor_index, instance.host_edges(), ())
    if len(chains) + len(comps) > 1:
        raise ValidationError("H need not bound a face of an instance with "
                              "two or more pieces; embed its parts")
    core = plane_core(instance)
    anchors, k, outs = instance.anchors, instance.k, core.outs
    index = dict(core.seeds)
    path = {}
    for x, y, L, on_h, sites in core.links:
        if on_h:
            chain = [anchors[(index[x] + t) % k] for t in range(L + 1)]
        else:
            chain = [outs[x]] + [v for _, v in sites] + [outs[y]]
        path[(x, y)] = chain
        path[(y, x)] = chain[::-1]
    faces = [[t for v, w in zip(walk, walk[1:] + walk[:1])
              for t in path[(v, w)][:-1]] for walk in core.faces]
    return PlaneEmbedding(instance.n, faces, core.outer_face,
                          instance.anchors)


# ---------------------------------------------------------------------------
# the curve certificate: triangulation and disjoint paths (not on the solve
# path; tests compare the winding cover against it)


@dataclass(frozen=True)
class Supergraph:
    """Triangulated supergraph G_delta(F) with terminals s and t.

    embedding covers the graph vertices only (0..n_total-1, originals first);
    s is adjacent to every vertex of F's boundary, t to every anchor.
    """
    embedding: PlaneEmbedding
    face: int
    n_original: int
    s: int
    t: int
    s_neighbors: tuple
    t_neighbors: tuple


@dataclass(frozen=True)
class CurveSet:
    face: int
    paths: tuple   # each a vertex tuple from a face-boundary vertex to an anchor


def _triangulate_walk(walk, fresh, new_faces):
    """Triangulate one face given by its directed boundary walk.

    Inserts an inner (y-1)-cycle tied to the boundary plus a star vertex in
    the leftover quad, then recurses on the inner cycle. The replacement
    triangles are emitted with the same orientation as the parent walk, and
    every through-path via new vertices is at least as long as along the old
    boundary, so original distances are preserved.
    """
    walk = list(walk)
    while len(walk) > 3:
        y = len(walk)
        c = [fresh + i for i in range(y - 1)]
        fresh += y - 1
        star = fresh
        fresh += 1
        for i in range(y - 1):
            new_faces.append((walk[i], walk[(i + 1) % y], c[i]))
        for i in range(y - 2):
            new_faces.append((walk[i + 1], c[i + 1], c[i]))
        for a, b in ((c[y - 2], walk[y - 1]), (walk[y - 1], walk[0]),
                     (walk[0], c[0]), (c[0], c[y - 2])):
            new_faces.append((a, b, star))
        walk = c
    new_faces.append(tuple(walk))
    return fresh


def triangulate_for_face(embedding, face):
    """Make every bounded face except `face` a triangle; attach terminals.

    New vertices go inside the non-triangle faces, so all original pairwise
    distances are preserved. The new embedding's face list is built directly
    from the gadget construction (re-running a planarity embedder could flip
    a gadget to the wrong side of its face, since 2-connected graphs have
    many embeddings).
    """
    if face == embedding.outer_face:
        raise ValidationError("the distinguished face must be bounded")
    new_faces = []
    keep = {}
    todo = []
    for fid, walk in enumerate(embedding.faces):
        if fid in (face, embedding.outer_face) or len(walk) <= 3:
            keep[fid] = len(new_faces)
            new_faces.append(walk)
        else:
            todo.append(walk)
    fresh = embedding.n
    for walk in todo:
        fresh = _triangulate_walk(walk, fresh, new_faces)
    emb = PlaneEmbedding(fresh, new_faces, keep[embedding.outer_face],
                         embedding.anchors)
    new_face = keep[face]
    s, t = fresh, fresh + 1
    return Supergraph(emb, new_face, embedding.n, s, t,
                      tuple(sorted(set(emb.faces[new_face]))),
                      tuple(embedding.anchors))


def max_disjoint_paths(supergraph, s, t):
    """Maximum set of vertex-disjoint paths from F's boundary to the anchors.

    Unit vertex capacities via in/out splitting; BFS augmenting paths (at
    most k of them); the flow is decomposed into paths and each path is
    trimmed to run from its last F-boundary vertex to its first anchor.
    """
    if (s, t) != (supergraph.s, supergraph.t):
        raise ValidationError("terminals do not match the supergraph")
    emb = supergraph.embedding
    n = emb.n
    # node ids in the flow network: 2v (in), 2v+1 (out), S, T
    S, T = 2 * n, 2 * n + 1
    cap = {}
    forward = set()
    adj = [[] for _ in range(2 * n + 2)]

    def add(a, b, c):
        cap[(a, b)] = c
        cap.setdefault((b, a), 0)
        forward.add((a, b))
        adj[a].append(b)
        adj[b].append(a)

    for v in range(n):
        add(2 * v, 2 * v + 1, 1)
    for u, v in emb.graph_edges:
        add(2 * u + 1, 2 * v, 1)
        add(2 * v + 1, 2 * u, 1)
    for v in supergraph.s_neighbors:
        add(S, 2 * v, 1)
    for v in supergraph.t_neighbors:
        add(2 * v + 1, T, 1)

    def augment():
        parent = {S: None}
        queue = [S]
        for a in queue:
            if a == T:
                break
            for b in adj[a]:
                if b not in parent and cap.get((a, b), 0) > 0:
                    parent[b] = a
                    queue.append(b)
        if T not in parent:
            return False
        b = T
        while parent[b] is not None:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        return True

    while augment():
        pass

    # decompose: walk saturated forward unit arcs from S, consuming them
    def flow_successor(a):
        for b in adj[a]:
            if (a, b) in forward and cap[(a, b)] == 0:
                cap[(a, b)] = 1
                cap[(b, a)] -= 1
                return b
        return None

    fset = set(supergraph.s_neighbors)
    aset = set(supergraph.t_neighbors)
    paths = []
    for v0 in supergraph.s_neighbors:
        if cap[(S, 2 * v0)] != 0:
            continue
        cap[(S, 2 * v0)] = 1
        cap[(2 * v0, S)] -= 1
        path = [v0]
        node = 2 * v0
        while True:
            node = flow_successor(node)
            if node is None:
                raise SolverError("flow decomposition stalled")
            if node == T:
                break
            if node % 2 == 0:
                path.append(node // 2)
        # trim: cut at the first anchor, start at the last F vertex before it
        first_a = next(i for i, v in enumerate(path) if v in aset)
        path = path[:first_a + 1]
        last_f = max(i for i, v in enumerate(path) if v in fset)
        paths.append(tuple(path[last_f:]))
    ends = [p[-1] for p in paths]
    if len(set(ends)) != len(ends):
        raise SolverError("disjoint paths share an anchor endpoint")
    return CurveSet(supergraph.face, tuple(paths))


def retraction_from_curves(embedding, curves):
    """Stretch-1 retraction of the (triangulated) graph from k valid curves.

    Barrier edges are the host edges, F's boundary, and the curve edges; the
    faces split into regions by flood fill. Each region other than F and the
    outer face is bordered by exactly one host edge; its vertices map to that
    edge's earlier-in-anchor-order endpoint, and curve vertices map to the
    curve's anchor.
    """
    k = len(embedding.anchors)
    if len(curves.paths) != k:
        raise ValidationError("need exactly %d curves, got %d"
                              % (k, len(curves.paths)))
    idx = {a: i for i, a in enumerate(embedding.anchors)}
    host_dir = {}
    for i, a in enumerate(embedding.anchors):
        b = embedding.anchors[(i + 1) % k]
        host_dir[_normalize_edge(a, b)] = a   # earlier endpoint in anchor order
    barriers = set(host_dir)
    barriers |= set(embedding.face_edge_sets[curves.face])
    curve_anchor = {}
    for path in curves.paths:
        for i in range(len(path) - 1):
            barriers.add(_normalize_edge(path[i], path[i + 1]))
        for v in path:
            curve_anchor[v] = path[-1]

    region = [None] * len(embedding.faces)
    region[curves.face] = -1
    region[embedding.outer_face] = -2
    region_host = {}
    nxt = 0
    for fid in range(len(embedding.faces)):
        if region[fid] is not None:
            continue
        rid = nxt
        nxt += 1
        stack = [fid]
        region[fid] = rid
        while stack:
            f = stack.pop()
            for e in embedding.face_edge_sets[f]:
                if e in host_dir:
                    region_host.setdefault(rid, set()).add(e)
                if e in barriers:
                    continue
                for g in embedding.edge_faces[e]:
                    if region[g] is None:
                        region[g] = rid
                        stack.append(g)

    assignment = [None] * embedding.n
    for a in embedding.anchors:
        assignment[a] = a
    for v, a in curve_anchor.items():
        if assignment[v] is None:
            assignment[v] = a
    vertex_faces = [[] for _ in range(embedding.n)]
    for fid, walk in enumerate(embedding.faces):
        for v in walk:
            vertex_faces[v].append(fid)
    for v in range(embedding.n):
        if assignment[v] is not None:
            continue
        rids = {region[f] for f in vertex_faces[v]} - {-1, -2}
        if len(rids) != 1:
            raise SolverError("vertex %d borders %d regions" % (v, len(rids)))
        hosts = region_host.get(rids.pop(), set())
        if len(hosts) != 1:
            raise SolverError("region bordered by %d host edges" % len(hosts))
        assignment[v] = host_dir[next(iter(hosts))]
    ret = Retraction(tuple(assignment))
    # the construction is certified: every edge must have stretch <= 1
    for u, v in embedding.graph_edges:
        if cycle_dist(k, idx[ret.image(u)], idx[ret.image(v)]) > 1:
            raise SolverError("curve regions produced stretch > 1 on (%d,%d)"
                              % (u, v))
    return ret


# ---------------------------------------------------------------------------
# the winding cover: the per-face decision


def _dual_crossing_signs(plane, face, forward):
    """BFS in the dual from `face` to the outer face, over the face walks of
    `plane` (a PlaneCore or a PlaneEmbedding: its `faces`, `half_face` and
    `outer_face`); return sign[(u,v)] = +-1 for the directed edges crossed
    by the dual path, normalized so the crossed edge of `forward` (H's
    edges directed in anchor order) scores +1. The face across half-edge
    (u, v) of a walk is the one that walks (v, u), and a crossing counts +1
    on the half-edge of the face it leaves."""
    half_face, outer = plane.half_face, plane.outer_face
    parent = {face: None}
    queue = [face]
    for f in queue:
        if f == outer:
            break
        walk = plane.faces[f]
        for u, v in zip(walk, walk[1:] + walk[:1]):
            g = half_face[(v, u)]
            if g not in parent:
                parent[g] = (f, u, v)
                queue.append(g)
    if outer not in parent:
        raise SolverError("outer face unreachable in the dual")
    sign = {}
    f = outer
    while parent[f] is not None:
        f, u, v = parent[f]
        sign[(u, v)] = sign.get((u, v), 0) + 1
        sign[(v, u)] = sign.get((v, u), 0) - 1
    w = sum(sign.get(he, 0) for he in forward)
    if w == 0:
        raise SolverError("dual path does not separate H from F")
    if w < 0:
        sign = {he: -s for he, s in sign.items()}
    return sign


def _lipschitz_retract(core, face, l):
    """Self-certifying stretch-l construction on the weighted core via the
    winding cover; None means no stretch-l map has all its winding on
    `face`.

    Core vertices are copied into layers -J..J, J the number of core edges
    that a dual path from `face` to H's face crosses; a core edge whose
    chain has L edges has length L on H and L*l off it, and shifts the layer
    where the dual path crosses it. Core anchor copies are seeded at their
    anchor index plus k per layer, labels are shortest-path values, and a
    vertex's image is its layer-0 label mod k. This is the unit cover of the
    l-subdivided part, with every anchor seeded, read at the same face:
    - J suffices. In the unbounded cover, seeds and hence labels rise by k
      per layer. Take a shortest path to a layer-0 copy with fewest edges.
      Were some vertex on it in layers j1 and then j2, the prefix to the
      first visit, moved up j2 - j1 layers, would reach the second visit at
      the same cost with fewer edges. So the path projects to a simple path
      of the core, which crosses each crossed core edge at most once.
    - Chains. Put each crossing on its chain's last edge. An inner chain
      vertex has degree 2, so paths through a chain cost its length, and
      inner vertex t of a chain from x to y, with edges of length w and
      layer shift s, is labelled min(D(x, 0) + t*w, D(y, s) + (L - t)*w).
    - Anchors inside a chain on H carry no seed. Number H's copies by
      walking H in anchor order; this psi grows by 1 per host edge, and
      every anchor copy's seed is psi or psi + k, anchor 0's being psi.
      With every anchor seeded the labels are min over copies h of H of
      psi(h) + d(h, v). With the core anchors alone they are the same plus
      one common 0 or k, since walking H forward from a core anchor copy
      reaches every copy of H at psi or psi + k. The images agree.
    - Another dual path relabels the layers of the vertices between the two
      paths; that moves psi by a multiple of k, so the images agree again.
    The map is verified before it is returned, in O(1) per chain. Copies
    joined by an edge the dual path does not cross are labelled at most
    the edge's length apart, so the edge's images are within l. So it
    suffices that: core anchors are fixed; on a chain on H, in anchor order,
    inner vertex t is labelled from y where 2t > D(y, s) + L - D(x, 0), and
    those labels fall by 1 as t rises, while the anchors rise by 1, so with
    k >= 3 only t = L - 1 may be, and it must be fixed; and on a crossed
    chain off H, its last edge is within l. The solve checks the merged
    map of all parts in closed form (`_check_weighted`).
    """
    k = core.k
    sign = _dual_crossing_signs(core, face, core.forward)
    J = len(sign) // 2
    width = 2 * J + 1
    INF = float("inf")
    dist = [INF] * (len(core.outs) * width)
    offset = k * (J + 1)
    heap = []
    for c, i in core.seeds:
        for j in range(-J, J + 1):
            val = i + k * j + offset
            node = c * width + (j + J)
            dist[node] = val
            heap.append((val, node))
    heapq.heapify(heap)
    adj = [[] for _ in core.outs]   # (neighbor, layer shift, length)
    shifts = []
    for x, y, L, on_h, _ in core.links:
        s = sign.get((x, y), 0)
        shifts.append(s)
        length = L if on_h else L * l
        adj[x].append((y, s, length))
        adj[y].append((x, -s, length))
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        v, j = node // width, node % width - J
        for w, s, length in adj[v]:
            j2 = j + s
            if j2 < -J or j2 > J:
                continue
            node2 = w * width + (j2 + J)
            d2 = d + length
            if d2 < dist[node2]:
                dist[node2] = d2
                heapq.heappush(heap, (d2, node2))
    if INF in dist:
        return None
    lab = dist[J::width]
    if any(lab[c] % k != i for c, i in core.seeds):
        return None
    for (x, y, L, on_h, _), s in zip(core.links, shifts):
        if on_h and L > 1:
            a, b = lab[x], dist[y * width + J + s]
            # the first inner vertex labelled from y: b + L - t < a + t
            t = max(1, (b + L - a) // 2 + 1)
            if t < L - 1 or (t == L - 1 and (b + L - 2 * t - a) % k):
                return None
        elif s and not on_h:
            a, b = lab[x], dist[y * width + J + s]
            if cycle_dist(k, min(a + (L - 1) * l, b + l) % k,
                          lab[y] % k) > l:
                return None
    img = {v: lab[c] % k for c, v in enumerate(core.outs) if v is not None}
    for (x, y, L, on_h, sites), s in zip(core.links, shifts):
        if sites:
            w = 1 if on_h else l
            a, b = lab[x], dist[y * width + J + s]
            for t, v in sites:
                img[v] = min(a + t * w, b + (L - t) * w) % k
    return img


# ---------------------------------------------------------------------------
# the decision procedure and the optimizer


def _stretch1_embedded(core, l):
    """A map of stretch at most l that the cover finds on a bounded face of
    the part's core, or None. A face walk's images step at most each edge's
    length, 1 on H and l elsewhere, so faces shorter than k in that length
    cannot wind around H; the longest faces are tried first."""
    size = {f: on_h + l * off_h
            for f, (on_h, off_h) in enumerate(core.face_lengths)
            if f != core.outer_face}
    faces = sorted((f for f in size if size[f] >= core.k),
                   key=size.get, reverse=True)
    for f in faces:
        ret = _lipschitz_retract(core, f, l)
        if ret is not None:
            return ret
    return None


def _chain_at(k, i, j, l, t):
    """Anchor index of vertex t of a chain from anchor i to anchor j at
    stretch l: min(t*l, d) steps from i along the shorter arc (the
    increasing one on a tie), d = d_H(i, j).

    A chain of L edges needs L*l >= d, as the images of its vertices form a
    walk of L steps from i to j, each of at most l; and L*l >= d suffices,
    as these images step at most l apart."""
    d = cycle_dist(k, i, j)
    step = 1 if (j - i) % k == d else -1
    return (i + step * min(t * l, d)) % k


def stretch1_retract(instance):
    """The optimal retraction if its stretch is 1, else None (none exists)."""
    ret, rep = optimal_retract_planar(instance)
    return ret if rep.max_stretch == 1 else None


def _start_lower_bound(instance):
    """The distance lower bound rounded up: the bound the scan over l starts
    from, which the solve takes off the weighted part (`_weighted_part`)."""
    return ceil(distance_lower_bound(instance))


def _scan(core, start):
    """(l, map) for the least l >= start at which the face scan finds a map
    of the core. The core is embedded once, and each l is decided on it,
    with a core edge of L edges of length L on H and L*l off it.
    Feasibility is monotone in l, and the scan starts at the part's
    distance bound, at most its optimum."""
    cap = max(1, core.k // 2)
    for l in range(min(start, cap), cap + 1):
        ret = _stretch1_embedded(core, l)
        if ret is not None:
            return l, ret
    # every retraction has stretch <= floor(k/2), and the cover is exact
    raise SolverError("no retraction of stretch %d found" % cap)


def optimal_retract_planar(instance):
    """Minimum-stretch retraction of a planar instance: the weighted route
    with every edge of length 1, whose positions are then anchor indices.
    Returns (retraction, its stretch report), and raises SolverError unless
    the map's stretch is the route's optimum."""
    pos, optimum = optimal_retract_weighted(
        instance.n, dict.fromkeys(instance.edges, 1), instance.anchors)
    ret = Retraction(tuple(instance.anchors[p] for p in pos))
    rep = stretch(instance, ret)
    if rep.max_stretch != optimum:
        raise SolverError("retraction has stretch %d, not its pieces' optimum "
                          "%d" % (rep.max_stretch, optimum))
    return ret, rep


# ---------------------------------------------------------------------------
# the weighted route: a graph whose edges stand for paths, never subdivided


def optimal_retract_weighted(n, lengths, cycle):
    """Minimum-stretch retraction of a weighted planar graph onto a cycle,
    decided without subdividing it.

    `lengths` maps each edge (u, v), u < v, to its integer length m >= 1,
    and `cycle` lists the host cycle's vertices in order. The instance
    decided is the unit one in which each edge is a path of m edges, its
    inner vertices numbered after the n vertices, edge by edge in sorted
    order, from u to v, and whose anchors are the K = (sum of the cycle's
    lengths) vertices of the cycle, anchor 0 at cycle[0]. Returns (pos, l):
    l is the optimum and pos[v] the anchor index of v's image.

    The route is the module's (see its docstring), with every piece read
    off the weighted graph. `_hanging` finds the block of H and `_pieces`
    splits it. A chain between two cycle vertices, a chord or a component
    whose vertices all have degree 2, steps by its edges' lengths; it is
    decided in closed form (`_chain_at`), and only its inner vertices get
    images. Every other component is a part, whose core and
    start bound `_weighted_part` takes straight from the weighted graph and
    the component's edges, its chains walked as ranges of the subdivided
    part's ids. `_scan` decides each l on the core, and only the
    component's images are kept. The merged map is checked in closed form
    (`_check_weighted`).
    """
    r = len(cycle)
    P = {}
    host = set()
    K = 0
    for i, c in enumerate(cycle):
        P[c] = K
        e = _normalize_edge(c, cycle[(i + 1) % r])
        host.add(e)
        K += lengths[e]
    adj = [[] for _ in range(n)]
    for u, v in lengths:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    gateway = _hanging(n, adj.__getitem__, cycle)
    bn = [[w for w in a if w not in gateway] for a in adj]
    pos = [None] * n
    for c in cycle:
        pos[c] = P[c]
    optima = []
    chains, comps = _pieces(n, bn.__getitem__, P, host, gateway)
    for seq in chains:
        steps = [lengths[_normalize_edge(u, v)] for u, v in zip(seq, seq[1:])]
        i, j = P[seq[0]], P[seq[-1]]
        l = max(1, -(-cycle_dist(K, i, j) // sum(steps)))
        optima.append(l)
        t = 0
        for v, m in zip(seq[1:-1], steps):
            t += m
            pos[v] = _chain_at(K, i, j, l, t)
    for comp, edges in comps:
        l, img = _scan(*_weighted_part(K, P, cycle, host, lengths, edges,
                                       comp))
        optima.append(l)
        for v in comp:
            pos[v] = img[v]
    for v, gate in gateway.items():
        pos[v] = pos[gate]
    optimum = max(optima, default=1)
    _check_weighted(K, lengths, host, pos, optimum)
    return pos, optimum


def _weighted_part(K, P, cycle, host, lengths, edges, comp):
    """(core, start bound) of the part H plus the piece with the vertices
    `comp` off H and the sorted edges `edges` off H, read off the weighted
    graph (see PlaneCore). Every vertex of the part is reported, in maps
    over its vertices; the start bound is the part's anchor distance ratio
    (`core._distance_ratio`) rounded up.

    The walk runs in the ids of the subdivided part: anchors 0..K-1 by
    position, then comp's vertices, then the inner vertices of its edges
    (u, v), edge by edge in sorted order, from u to v; an id below K is an
    anchor index. The core is the vertices of degree other than 2, or one
    vertex of a bare cycle, and each chain between them is walked once,
    edge by edge, as ranges of those ids, and turned there to run as its
    link does (see PlaneCore); a link keeps the chain's ends, length and
    sites, not its ids. The core's own ids 0..c-1 keep the order of the
    subdivided ids. `_lr_rotation` embeds the core, which raises
    NotPlanarError if the part is not planar. The faces are walked on the
    core's rotation and listed in the order the walk finds them, each from
    its least (core vertex, rotation position) half-edge."""
    r = len(cycle)
    pn = {c: [cycle[i - 1], cycle[(i + 1) % r]] for i, c in enumerate(cycle)}
    for v in comp:
        pn[v] = []
    for u, v in edges:
        pn[u].append(v)
        pn[v].append(u)
    vid = dict(P)
    vid.update((v, K + i) for i, v in enumerate(comp))
    # runs[(u, v)] is the range of ids of the edge's inner vertices, walked
    # from u
    runs = {}
    n = K + len(comp)
    for e in edges:
        m = lengths[e] - 1
        runs[e] = range(n, n + m)
        runs[e[::-1]] = range(n + m - 1, n - 1, -1)
        n += m
    for i, c in enumerate(cycle):
        d = cycle[(i + 1) % r]
        m = lengths[_normalize_edge(c, d)]
        runs[(c, d)] = range(P[c] + 1, P[c] + m)
        runs[(d, c)] = range(P[c] + m - 1, P[c], -1)
    core_set = {v for v in pn if len(pn[v]) != 2} or {min(pn)}
    is_core = {vid[v] for v in core_set}
    # links lists each core edge once, as (x, y, L, on H, sites): it runs in
    # anchor order on H and from its lesser end off it, and its sites (t, v)
    # are the inner vertices t that are vertices v of the part; `span` holds
    # the core edges, and `walked` both end half-edges of every chain taken
    links, span, walked = [], set(), set()

    def add_chain(chain, h, sites):
        x, y, L = chain[0], chain[-1], len(chain) - 1
        span.add(_normalize_edge(x, y))
        walked.add((x, chain[1]))
        walked.add((y, chain[-2]))
        if (chain[1] != (x + 1) % K) if h else x > y:
            x, y = y, x
            sites = tuple((L - t, v) for t, v in reversed(sites))
        links.append((x, y, L, h, sites))

    # single edges first: a chain parallel to one is the one promoted
    for u, v in edges + sorted(host):
        if lengths[(u, v)] == 1 and u in core_set and v in core_set:
            add_chain((vid[u], vid[v]), (u, v) in host, ())
    for u in sorted(core_set, key=vid.get):
        for first, w in sorted(((runs[(u, w)] or [vid[w]])[0], w)
                               for w in pn[u]):
            if (vid[u], first) in walked:
                continue
            chain, inner, x = [vid[u]], [], u
            h = _normalize_edge(u, w) in host
            while True:
                chain += runs[(x, w)]
                chain.append(vid[w])
                if w in core_set:
                    break
                inner.append((len(chain) - 1, w))
                a, b = pn[w]
                x, w = w, (b if a == x else a)
            chain, y, i = tuple(chain), chain[-1], 0
            # promote while the chain closes a loop or repeats a core edge
            while len(chain) - i > 2 and (
                    chain[i] == y or _normalize_edge(chain[i], y) in span):
                is_core.add(chain[i + 1])
                add_chain(chain[i:i + 2], h, ())
                i += 1
            add_chain(chain[i:], h,
                      tuple((t - i, v) for t, v in inner if t > i))
    # the core's own ids 0..c-1 keep the order of the ids above
    nodes = sorted(is_core)
    index = {v: c for c, v in enumerate(nodes)}
    links = [(index[x], index[y], L, h, sites) for x, y, L, h, sites in links]
    span = {_normalize_edge(x, y): (L, h) for x, y, L, h, _ in links}
    rotation = _lr_rotation(len(nodes), sorted(span))
    faces, half_face, face_lengths = [], {}, []
    for v0 in range(len(nodes)):
        for w0 in rotation[v0]:
            if (v0, w0) in half_face:
                continue
            v, w = v0, w0
            walk, on, off = [], 0, 0
            while (v, w) not in half_face:
                half_face[(v, w)] = len(faces)
                walk.append(v)
                L, h = span[_normalize_edge(v, w)]
                on, off = (on + L, off) if h else (on, off + L)
                rot = rotation[w]
                v, w = w, rot[rot.index(v) - 1]
            faces.append(walk)
            face_lengths.append((on, off))

    pc = PlaneCore()
    pc.k = K
    pc.rotation = rotation
    pc.faces = faces
    pc.half_face = half_face
    pc.face_lengths = face_lengths
    # H's face is the one face with no length off H: the piece lies on the
    # other side of H, and a face walk along H alone goes round all of it
    pc.outer_face = next(f for f, (_, off) in enumerate(face_lengths)
                         if not off)
    vertex = {vid[v]: v for v in pn}
    pc.outs = tuple(map(vertex.get, nodes))
    pc.seeds = tuple((c, v) for c, v in enumerate(nodes) if v < K)
    pc.links = tuple(links)
    pc.forward = frozenset((x, y) for x, y, _, h, _ in links if h)
    # the anchor distance ratio (`_distance_ratio`), by BFS when every
    # length of the part is 1
    unit = K == r and all(lengths[e] == 1 for e in edges)
    num, den = _distance_ratio(
        partial(_distances, pn, None if unit else lengths),
        [c for c in cycle if len(pn[c]) > 2],
        lambda a, b: cycle_dist(K, P[a], P[b]))
    return pc, -(-num // den)


def _check_weighted(K, lengths, host, pos, optimum):
    """Raise SolverError unless the map pos (anchor indices on the K-cycle)
    extends to the subdivided graph at stretch exactly `optimum`: an edge
    (u, v) off H of length m takes its images d apart in m steps, so its
    least stretch is ceil(d/m), which a walk along the shorter arc attains
    (`_chain_at`), and host edges have stretch 1."""
    worst = 1
    for e, m in lengths.items():
        if e not in host:
            d = cycle_dist(K, pos[e[0]], pos[e[1]])
            worst = max(worst, -(-d // m))
    if worst != optimum:
        raise SolverError("retraction has stretch %d, not its pieces' optimum "
                          "%d" % (worst, optimum))
