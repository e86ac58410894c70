"""Exact minimum-stretch retraction for planar guests.

Route: reduce to the 2-connected block containing the anchor cycle H, found
by one lowpoint DFS over the instance's adjacency (an instance with nothing
hanging off that block is its own block and is not copied), then split on
the pieces of G - V(H) (`plane_parts`): each component of G - V(H)
with H attached, and each chord of H, is solved independently and merged.
A chain, a chord or a component whose vertices all have degree 2, is a path
of L edges between anchors a and b; it has a map of stretch l exactly when
L*l >= d_H(a, b), so it is decided in closed form with no sub-instance,
subdivision, embedding or cover. Every other piece is a part: H with the
piece attached. A part has one piece, so H bounds a face of every embedding
of it. Each part is taken to its weighted core once (`plane_core`): the
vertices of degree other than 2, each chain of degree-2 vertices between
them one core edge that carries its length L, and networkx embeds only
that core. Each stretch l of a part is decided on the core by scanning its
bounded faces F with a winding cover: core vertices are copied into layers
that shift where a core edge crosses a dual path from F to the outer face,
and labels are shortest-path values from the core anchor copies, with a
core edge of length L on H and L*l off it. The map is verified per chain
from the labels, and only the accepted map gives images to the inner chain
vertices. The scan is exact (see `_lipschitz_retract`). A part's optimum is
the least feasible l, scanned upward from the part's distance bound; the
instance's optimum is the largest piece optimum. `plane_embed` splices the
chains back into the core's embedding, for the curve certificate below.

The paper's certificate, k vertex-disjoint curves from F to H found by max
flow in a triangulated supergraph and the retraction read off the regions
they cut out, is kept as `triangulate_for_face`, `max_disjoint_paths` and
`retraction_from_curves`; the solver does not call it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import ceil

import networkx as nx

from .core import (Instance, Retraction, SolverError, ValidationError,
                   _normalize_edge, cycle_dist, distance_lower_bound, stretch)
from .core import subdivide  # noqa: F401  (perfbench/spans.py wraps it here)


class NotPlanarError(ValidationError):
    """The guest graph is not planar; the exact algorithm does not apply."""


class PlaneEmbedding:
    """A combinatorial plane embedding with explicit face lists.

    rotation[v] is the cyclic order of v's neighbors; faces are directed
    boundary walks (simple cycles in the 2-connected case); outer_face indexes
    the face bounded by the anchor cycle.
    """

    __slots__ = ("n", "rotation", "faces", "outer_face", "anchors",
                 "graph_edges", "face_edge_sets", "edge_faces", "half_face")

    def __init__(self, n, rotation, faces, outer_face, anchors):
        self.n = n
        self.rotation = rotation
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
    """A part's weighted core, embedded once.

    The core is the vertices of degree other than 2, plus interior vertices
    promoted from any chain of degree-2 vertices that would otherwise close a
    loop or repeat a core edge, so that the core is simple and each core
    edge stands for exactly one chain. A chain lies wholly on H or wholly
    off it, since an inner vertex of H has no edge off H. `embedding` embeds
    the core alone, with H's face as outer face, and `forward` holds the
    host core edges directed in anchor order. For the cover, `vertices`
    lists the core vertices, whose positions there are their dense ids;
    `seeds` pairs each core anchor's dense id with its anchor index; each
    link (chain, x, y, on H) gives a core edge's chain, in anchor order on H,
    and the dense ids x and y of its first and last vertex; and
    face_lengths[f] is face f's length (on H, off H).
    """

    __slots__ = ("instance", "embedding", "forward", "vertices", "seeds",
                 "links", "face_lengths")

    def __init__(self, instance, embedding, forward, chains):
        self.instance = instance
        self.embedding = embedding
        self.forward = forward
        self.vertices = tuple(v for v in range(instance.n)
                              if embedding.rotation[v])
        index = {v: c for c, v in enumerate(self.vertices)}
        self.seeds = tuple((index[a], i)
                           for i, a in enumerate(instance.anchors)
                           if a in index)
        self.links = tuple((c, index[c[0]], index[c[-1]],
                            (c[0], c[-1]) in forward) for c in chains)
        span = {_normalize_edge(c[0], c[-1]): (len(c) - 1, on_h)
                for c, _, _, on_h in self.links}
        self.face_lengths = []
        for fes in embedding.face_edge_sets:
            on_h = off_h = 0
            for e in fes:
                L, h = span[e]
                if h:
                    on_h += L
                else:
                    off_h += L
            self.face_lengths.append((on_h, off_h))


def plane_core(instance):
    """Planarity-test the instance and embed its core (see PlaneCore).

    networkx embeds the core. The faces are walked on the core's rotation
    and listed in the order a walk of the whole graph would find them: by
    the least (vertex, rotation position) of any half-edge on the face, a
    chain's inner vertex v ordering its two half-edges as v's sorted
    neighbors do, so `plane_embed`'s face ids are the core's.
    """
    n = instance.n
    nbr = [instance.neighbors(v) for v in range(n)]
    core = [len(a) != 2 for a in nbr]
    if not any(core):          # a bare cycle
        core[0] = True
    # path[(u, w)] is the chain that the core edge (u, w) stands for, walked
    # from u; `walked` holds both end half-edges of every chain taken
    path = {}
    walked = set()
    core_edges = set()

    def add_chain(chain):
        u, v = chain[0], chain[-1]
        core_edges.add(_normalize_edge(u, v))
        path[(u, v)] = chain
        path[(v, u)] = chain[::-1]
        walked.add((u, chain[1]))
        walked.add((v, chain[-2]))

    for u, v in instance.edges:
        if core[u] and core[v]:
            add_chain((u, v))
    for u in range(n):
        if not core[u]:
            continue
        for x in nbr[u]:
            if (u, x) in walked:
                continue
            chain = [u, x]
            while not core[chain[-1]]:
                a, b = nbr[chain[-1]]
                chain.append(b if a == chain[-2] else a)
            v = chain[-1]
            i = 0
            # promote while the chain closes a loop or repeats a core edge
            while len(chain) - i > 2 and (
                    chain[i] == v
                    or _normalize_edge(chain[i], v) in core_edges):
                core[chain[i + 1]] = True
                add_chain(tuple(chain[i:i + 2]))
                i += 1
            add_chain(tuple(chain[i:]))
    g = nx.Graph()
    g.add_nodes_from(v for v in range(n) if core[v])
    g.add_edges_from(core_edges)
    ok, emb = nx.check_planarity(g)
    if not ok:
        raise NotPlanarError("guest graph is not planar")
    rotation = [()] * n
    for v in g:
        rotation[v] = tuple(emb.neighbors_cw_order(v))

    def first_half_edge(u, w):
        # the least (vertex, rotation position) of a half-edge on the chain
        # walked from u to w
        chain = path[(u, w)]
        key = (u, rotation[u].index(w))
        if len(chain) > 2:
            m = min(chain[1:-1])
            after = chain[chain.index(m) + 1]
            key = min(key, (m, nbr[m].index(after)))
        return key

    found = []
    seen = set()
    for v0 in range(n):
        for w0 in rotation[v0]:
            if (v0, w0) in seen:
                continue
            v, w = v0, w0
            walk = []
            key = None
            while (v, w) not in seen:
                seen.add((v, w))
                walk.append(v)
                here = first_half_edge(v, w)
                if key is None or here < key:
                    key = here
                rot = rotation[w]
                v, w = w, rot[rot.index(v) - 1]
            found.append((key, walk))
    found.sort()
    embedding = PlaneEmbedding(n, rotation, [walk for _, walk in found], None,
                               instance.anchors)
    k = instance.k
    host = instance.host_edges()
    chains = []
    forward = set()
    host_core = set()
    for e in embedding.graph_edges:
        chain = path[e]
        if _normalize_edge(chain[0], chain[1]) in host:
            host_core.add(e)
            i = instance.anchor_index(chain[0])
            if instance.anchor_index(chain[1]) != (i + 1) % k:
                chain = path[e[::-1]]
            forward.add((chain[0], chain[-1]))
        chains.append(chain)
    # H's face lies along one of the two sides of the host edge from anchor
    # 0 to anchor 1, on the chain whose L anchor steps pass anchor 0
    x, y = next((x, y) for x, y in forward
                if -instance.anchor_index(x) % k < len(path[(x, y)]) - 1)
    outer = embedding.half_face[(x, y)]
    if embedding.face_edge_sets[outer] != host_core:
        outer = embedding.half_face[(y, x)]
    embedding.outer_face = outer
    return PlaneCore(instance, embedding, frozenset(forward), chains)


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

    def lift(self, reduced_retraction):
        """Pull a retraction of the reduced instance back to the original."""
        asg_new = reduced_retraction.assignment
        asg = [None] * self.n_original
        for new_id, old_id in enumerate(self.old_of_new):
            asg[old_id] = self.old_of_new[asg_new[new_id]]
        for old_id, gate in self.gateway.items():
            asg[old_id] = asg[gate]
        return Retraction(tuple(asg))


def reduce_two_connected(instance):
    """Collapse everything outside the block containing H onto its cut vertex.

    Returns (reduced_instance, ReduceMap). The block is found by one
    iterative lowpoint DFS over the instance's adjacency, rooted at an
    anchor r. A tree child c of p whose subtree reaches no vertex above p
    (low[c] >= disc[p]) is cut off by p; if that subtree holds no anchor it
    hangs off p, and every vertex in it takes p's gateway, or p itself when
    p is kept, so nested hangs collapse onto the outermost cut vertex. This
    is exact: H is a 2-connected cycle through r, so a cut-off subtree
    holding an anchor is a child subtree of r, and at most one of those
    holds anchors. Any retraction of the block lifts by sending each
    hanging vertex to its gateway's image. An instance with nothing hanging
    is its own block: it is returned itself, with the identity map.
    """
    n = instance.n
    root = instance.anchors[0]
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    anchored = [False] * n      # the vertex's DFS subtree holds an anchor
    for a in instance.anchors:
        anchored[a] = True
    disc[root] = 0
    order = [root]
    stack = [(root, iter(instance.neighbors(root)))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if disc[w] < 0:
                disc[w] = low[w] = len(order)
                parent[w] = v
                order.append(w)
                stack.append((w, iter(instance.neighbors(w))))
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
    if not gateway:
        return instance, ReduceMap(n, tuple(range(n)), {})
    old_of_new = tuple(v for v in range(n) if v not in gateway)
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    edges = [(new_of_old[u], new_of_old[v]) for u, v in instance.edges
             if u in new_of_old and v in new_of_old]
    anchors = tuple(new_of_old[a] for a in instance.anchors)
    reduced = Instance(len(old_of_new), edges, anchors)
    return reduced, ReduceMap(n, old_of_new, gateway)


def plane_parts(instance):
    """Split the instance into the pieces that are solved apart.

    A piece is a chord of H, or a connected component C of G minus the
    anchors together with its edges to H. Returns (parts, chains). A chain
    is a chord or a component whose vertices all have degree 2: the path
    (a, inner vertices..., b) between two anchors, decided in closed form
    with no sub-instance (see `_chain_images`). Every other piece is a part
    (sub_instance, old_of_new): H with that piece attached; an instance with
    no chain and at most one piece is its own single part, with the
    identity map. A part of a 2-connected instance is 2-connected, since
    its component attaches at two or more anchors.
    """
    k = instance.k
    anchor_new = {a: i for i, a in enumerate(instance.anchors)}
    host = instance.host_edges()
    chains = [(u, v) for u, v in instance.edges
              if u in anchor_new and v in anchor_new and (u, v) not in host]
    comps = []
    seen = set(anchor_new)
    for s in range(instance.n):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        for v in comp:
            for w in instance.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        if any(len(instance.neighbors(v)) != 2 for v in comp):
            comps.append(sorted(comp))
            continue
        # a path of degree-2 vertices: walk it from an anchor at one end
        end = next(v for v in comp
                   if any(w in anchor_new for w in instance.neighbors(v)))
        chain = [next(w for w in instance.neighbors(end) if w in anchor_new),
                 end]
        while chain[-1] not in anchor_new:
            x, y = instance.neighbors(chain[-1])
            chain.append(y if x == chain[-2] else x)
        chains.append(tuple(chain))
    if not chains and len(comps) <= 1:
        return [(instance, tuple(range(instance.n)))], []
    host_new = [(i, (i + 1) % k) for i in range(k)]
    parts = []
    for comp in comps:
        old_of_new = tuple(instance.anchors) + tuple(comp)
        new_of_old = dict(anchor_new)
        new_of_old.update((v, k + i) for i, v in enumerate(comp))
        edges = list(host_new)
        for v in comp:
            for w in instance.neighbors(v):
                if w > v or w in anchor_new:
                    edges.append((new_of_old[v], new_of_old[w]))
        parts.append((Instance(len(old_of_new), edges, range(k)),
                      old_of_new))
    return parts, chains


def plane_embed(instance):
    """Embed a one-piece part (see plane_parts) with H on the outer face.

    H bounds a face of every embedding of such a part: a connected C lies on
    one side of the Jordan curve H, so the other side holds nothing. Two or
    more pieces are rejected, as H may bound no face of the whole. The
    embedding is the core's (`plane_core`) with every chain spliced back
    in: each face walk starts at its least half-edge, and the faces keep
    the core's ids.
    """
    parts, chains = plane_parts(instance)
    if len(parts) + len(chains) > 1:
        raise ValidationError("H need not bound a face of an instance with "
                              "two or more pieces; embed its parts")
    core = plane_core(instance)
    emb = core.embedding
    path = {}
    for chain, _, _, _ in core.links:
        path[(chain[0], chain[-1])] = chain
        path[(chain[-1], chain[0])] = chain[::-1]
    rotation = tuple(tuple(path[(v, w)][1] for w in emb.rotation[v])
                     if emb.rotation[v] else instance.neighbors(v)
                     for v in range(instance.n))
    faces = []
    for walk in emb.faces:
        full = []
        for i, v in enumerate(walk):
            full += path[(v, walk[(i + 1) % len(walk)])][:-1]
        m = len(full)
        start = min(range(m), key=lambda i: (
            full[i], rotation[full[i]].index(full[(i + 1) % m])))
        faces.append(full[start:] + full[:start])
    return PlaneEmbedding(instance.n, rotation, faces, emb.outer_face,
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


def _rotation_from_faces(n, faces):
    """Stitch a rotation system out of consistently oriented face walks: a
    corner (a, v, b) of some face makes the edges (v,a), (v,b) consecutive
    around v."""
    succ = [dict() for _ in range(n)]
    for walk in faces:
        m = len(walk)
        for i in range(m):
            a, v, b = walk[i - 1], walk[i], walk[(i + 1) % m]
            if a in succ[v]:
                raise SolverError("inconsistent face orientations at %d" % v)
            succ[v][a] = b
    rotation = []
    for v in range(n):
        if not succ[v]:
            rotation.append(())
            continue
        start = next(iter(succ[v]))
        cyc = [start]
        w = succ[v][start]
        while w != start:
            cyc.append(w)
            w = succ[v][w]
        if len(cyc) != len(succ[v]):
            raise SolverError("rotation at vertex %d is not a single cycle" % v)
        rotation.append(tuple(cyc))
    return tuple(rotation)


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
    rotation = _rotation_from_faces(fresh, new_faces)
    emb = PlaneEmbedding(fresh, rotation, new_faces, keep[embedding.outer_face],
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


def _dual_crossing_signs(embedding, face, forward):
    """BFS in the face-adjacency graph from `face` to the outer face; return
    sign[(u,v)] = +-1 for the directed edges crossed by the dual path,
    normalized so the crossed edge of `forward` (H's edges directed in
    anchor order) scores +1."""
    parent = {face: None}
    queue = [face]
    for f in queue:
        if f == embedding.outer_face:
            break
        for e in embedding.face_edge_sets[f]:
            for g in embedding.edge_faces[e]:
                if g not in parent:
                    parent[g] = (f, e)
                    queue.append(g)
    if embedding.outer_face not in parent:
        raise SolverError("outer face unreachable in the dual")
    sign = {}
    f = embedding.outer_face
    while parent[f] is not None:
        prev, e = parent[f]
        u, v = e
        # (u, v) has the face to one side; crossing prev -> f counts +1 for
        # the direction whose left face is prev
        if embedding.half_face.get((u, v)) == prev:
            sign[(u, v)] = sign.get((u, v), 0) + 1
            sign[(v, u)] = sign.get((v, u), 0) - 1
        else:
            sign[(v, u)] = sign.get((v, u), 0) + 1
            sign[(u, v)] = sign.get((u, v), 0) - 1
        f = prev
    w = sum(sign.get(he, 0) for he in forward)
    if w == 0:
        raise SolverError("dual path does not separate H from F")
    if w < 0:
        sign = {he: -s for he, s in sign.items()}
    return sign


def _lipschitz_retract(core, face, l=1):
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
    chain off H, its last edge is within l. The expanded map is then
    checked with `stretch` as well.
    """
    inst = core.instance
    k = inst.k
    sign = _dual_crossing_signs(core.embedding, face, core.forward)
    J = len(sign) // 2
    width = 2 * J + 1
    INF = float("inf")
    dist = [INF] * (len(core.vertices) * width)
    offset = k * (J + 1)
    heap = []
    for c, i in core.seeds:
        for j in range(-J, J + 1):
            val = i + k * j + offset
            node = c * width + (j + J)
            dist[node] = val
            heap.append((val, node))
    heapq.heapify(heap)
    adj = [[] for _ in core.vertices]   # (neighbor, layer shift, length)
    shifts = []
    for chain, x, y, on_h in core.links:
        s = sign.get((chain[0], chain[-1]), 0)
        shifts.append(s)
        length = len(chain) - 1 if on_h else (len(chain) - 1) * l
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
    for (chain, x, y, on_h), s in zip(core.links, shifts):
        L = len(chain) - 1
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
    anchors = inst.anchors
    asg = [None] * inst.n
    for c, v in enumerate(core.vertices):
        asg[v] = anchors[lab[c] % k]
    for (chain, x, y, on_h), s in zip(core.links, shifts):
        L = len(chain) - 1
        if L > 1:
            w = 1 if on_h else l
            a, b = lab[x], dist[y * width + J + s]
            for t in range(1, L):
                asg[chain[t]] = anchors[min(a + t * w, b + (L - t) * w) % k]
    ret = Retraction(tuple(asg))
    if stretch(inst, ret).max_stretch > l:
        raise SolverError("core cover map exceeds stretch %d" % l)
    return ret


# ---------------------------------------------------------------------------
# the decision procedure and the optimizer


def _stretch1_embedded(core, l=1):
    """A map of stretch at most l that the cover finds on a bounded face of
    the part's core, or None. A face walk's images step at most each edge's
    length, 1 on H and l elsewhere, so faces shorter than k in that length
    cannot wind around H; the longest faces are tried first."""
    size = {f: on_h + l * off_h
            for f, (on_h, off_h) in enumerate(core.face_lengths)
            if f != core.embedding.outer_face}
    faces = sorted((f for f in size if size[f] >= core.instance.k),
                   key=size.get, reverse=True)
    for f in faces:
        ret = _lipschitz_retract(core, f, l)
        if ret is not None:
            return ret
    return None


def _chain_images(k, i, j, L, l):
    """Anchor indices of the inner vertices of a chain of L edges from anchor
    i to anchor j, at a stretch l with L*l >= d = d_H(i, j).

    Inner vertex t goes min(t*l, d) steps from i along the shorter arc (the
    increasing one on a tie), so consecutive images are at most l apart.
    That suffices, and L*l >= d is also necessary: the images of the chain
    form a walk of L steps from i to j, each of at most l. The map is
    checked over the chain's L edges, as the cover checks each part map."""
    d = cycle_dist(k, i, j)
    step = 1 if (j - i) % k == d else -1
    idx = [(i + step * min(t * l, d)) % k for t in range(L)] + [j]
    if any(cycle_dist(k, x, y) > l for x, y in zip(idx, idx[1:])):
        raise SolverError("chain map exceeds stretch %d" % l)
    return idx[1:-1]


def stretch1_retract(instance):
    """The optimal retraction if its stretch is 1, else None (none exists)."""
    ret, rep = optimal_retract_planar(instance)
    return ret if rep.max_stretch == 1 else None


def _start_lower_bound(instance):
    """The distance lower bound rounded up: where the search over l starts."""
    return max(1, ceil(distance_lower_bound(instance)))


def _part_optimum(part):
    """(l, map): the least l at which the part has a map of stretch l, and
    that map. The part's core is embedded once, and each l is decided on it
    by the face scan, with a core edge of L edges of length L on H and L*l
    off it. Feasibility is monotone in l, and the scan starts at the part's
    distance bound, at most its optimum."""
    core = plane_core(part)
    cap = max(1, part.k // 2)
    for l in range(min(_start_lower_bound(part), cap), cap + 1):
        ret = _stretch1_embedded(core, l)
        if ret is not None:
            return l, ret
    # every retraction has stretch <= floor(k/2), and the cover is exact
    raise SolverError("no retraction of stretch %d found" % cap)


def optimal_retract_planar(instance):
    """Minimum-stretch retraction of a planar instance.

    The instance is reduced to the block of H and split into pieces once.
    Each piece is solved at its own optimum OPT_p: a part by the scan of
    `_part_optimum`, a chain of L edges between anchors d apart on H at
    max(1, ceil(d/L)) (see `_chain_images`). Every non-anchor vertex and
    every non-host edge of the block lies in one piece, piece maps fix the
    anchors and host edges have stretch 1, so a merged map's stretch is its
    largest piece stretch and OPT(block) = max OPT_p. The lift sends each
    hanging component to its gateway's image, so it adds no stretch.
    """
    reduced, rmap = reduce_two_connected(instance)
    parts, chains = plane_parts(reduced)
    asg = list(range(reduced.n))
    optima = []
    for sub, old_of_new in parts:
        l, part = _part_optimum(sub)
        optima.append(l)
        for new_id, old_id in enumerate(old_of_new):
            asg[old_id] = old_of_new[part.assignment[new_id]]
    k = reduced.k
    for chain in chains:
        i, j = reduced.anchor_index(chain[0]), reduced.anchor_index(chain[-1])
        L = len(chain) - 1
        l = max(1, -(-cycle_dist(k, i, j) // L))
        optima.append(l)
        for v, t in zip(chain[1:-1], _chain_images(k, i, j, L, l)):
            asg[v] = reduced.anchors[t]
    ret = rmap.lift(Retraction(tuple(asg)))
    rep = stretch(instance, ret)
    if rep.max_stretch != max(optima):
        raise SolverError("retraction has stretch %d, not its pieces' optimum "
                          "%d" % (rep.max_stretch, max(optima)))
    return ret, rep
