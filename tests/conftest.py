import heapq
import random
import sys
from collections import deque, namedtuple
from fractions import Fraction
from pathlib import Path

import networkx as nx

sys.path.insert(0, str(Path(__file__).parent))

from retract import planar
from retract.approx import Hole, _boundary_point
from retract.core import (Instance, Retraction, SolverError, ValidationError,
                          _normalize_edge, cycle_dist, distance_lower_bound,
                          gen_random_planar, stretch)

# (k, interior points, seed) of the point sets of the euclid-points workload
BENCH_SETS = ((10, 0, 9000), (11, 0, 0), (12, 0, 0), (13, 0, 9018),
              (14, 0, 9009), (10, 1, 9010), (10, 1, 9100), (10, 1, 9102),
              (10, 2, 9101))


def make_w4():
    """C4 plus a hub adjacent to all 4 anchors."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
    return Instance(5, edges, (0, 1, 2, 3))


def make_ck(k):
    """G = H = C_k."""
    return Instance(k, [(i, (i + 1) % k) for i in range(k)], tuple(range(k)))


def all_pairs_distance_ratio(inst):
    """max over every anchor pair of d_H/d_G, by a BFS from every anchor."""
    adj = [[] for _ in range(inst.n)]
    for u, v in inst.edges:
        adj[u].append(v)
        adj[v].append(u)
    k = inst.k
    best = Fraction(0)
    for i, a in enumerate(inst.anchors):
        dist = {a: 0}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        for j in range(i + 1, k):
            best = max(best, Fraction(cycle_dist(k, i, j),
                                      dist[inst.anchors[j]]))
    return best


def all_anchor_start_bound(n, edges, host):
    """Reference for `treewidth._start_bound`: max(1, ceil of the max over
    every anchor pair of d_H(a, b) / d_G(a, b)), by BFS in G from every
    anchor of the host."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = 1
    for a in host.anchors:
        dist = {a: 0}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        for b in host.anchors:
            if b != a and b in dist:
                best = max(best, -(-host.dist(a, b) // dist[b]))
    return best


def random_planar_family(count, max_free, max_k, seed0):
    """`count` seeded `gen_random_planar` instances, k in 4..max_k and
    1..max_free free vertices."""
    out = []
    rng = random.Random(seed0)
    for i in range(count):
        k = rng.randint(4, max_k)
        n_free = rng.randint(1, max_free)
        out.append(gen_random_planar(n_free, k, seed0 + i))
    return out


def chain_piece(inst, chain):
    """(sub_instance, old_of_new) for a chain (a, inner..., b) of
    plane_parts_reference(inst): H with the chain attached, the anchors
    first."""
    k = inst.k
    old_of_new = tuple(inst.anchors) + tuple(chain[1:-1])
    new_of_old = {v: i for i, v in enumerate(old_of_new)}
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(new_of_old[u], new_of_old[v]) for u, v in zip(chain, chain[1:])]
    return Instance(len(old_of_new), edges, range(k)), old_of_new


def pieces(inst):
    """(sub_instance, old_of_new) for every piece of
    plane_parts_reference(inst), the chains built explicitly."""
    parts, chains = plane_parts_reference(inst)
    return parts + [chain_piece(inst, chain) for chain in chains]


def plane_parts_reference(instance):
    """The pieces of the instance, split as the solve's one pass
    (`planar._pieces`) splits them, by its own chord list, component BFS and
    chain walk over the instance, vertex by vertex.

    A piece is a chord of H, or a connected component C of G minus the
    anchors together with its edges to H, so a tree that hangs off the block
    lies in a component: its own if it hangs off an anchor, else the one it
    hangs off. Returns (parts, chains). A chain is a chord (u, v), u < v, in
    sorted edge order, or a component whose vertices all have degree 2: the
    path (a, inner vertices..., b) between two anchors, from its end of
    lesser anchor index. Every other piece is a part (sub_instance,
    old_of_new): H with that piece attached, the anchors first and then C's
    vertices in order; an instance with no chain and at most one piece is
    its own single part, with the identity map."""
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
        if anchor_new[chain[-1]] < anchor_new[chain[0]]:
            chain.reverse()
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


def as_retraction(instance, img):
    """The Retraction of a core map, a dict of anchor indices over the
    vertices of the instance; None stays None."""
    if img is None:
        return None
    return Retraction(tuple(instance.anchors[img[v]]
                            for v in range(instance.n)))


def chain_images(k, i, j, L, l):
    """Anchor indices of the inner vertices of a chain of L edges from anchor
    i to anchor j, at a stretch l with L*l >= d_H(i, j), as
    `planar._chain_at` places them; the map is checked over the chain's L
    edges."""
    idx = [planar._chain_at(k, i, j, l, t) for t in range(L)] + [j]
    if any(cycle_dist(k, x, y) > l for x, y in zip(idx, idx[1:])):
        raise SolverError("chain map exceeds stretch %d" % l)
    return idx[1:-1]


def part_optimum(part):
    """(l, map) of one part of `plane_parts_reference`: the face scan of its core
    (`planar.plane_core`) from its distance bound, the map a dict of anchor
    indices by vertex, checked to have stretch at most l."""
    l, img = planar._scan(planar.plane_core(part),
                          planar._start_lower_bound(part))
    if stretch(part, as_retraction(part, img)).max_stretch > l:
        raise SolverError("core cover map exceeds stretch %d" % l)
    return l, img


def lift(rmap, retraction):
    """Pull a retraction of `reduce_two_connected`'s reduced instance back
    to the original along its `ReduceMap`: a kept vertex takes its reduced
    image, a hanging vertex its gateway's."""
    asg_new = retraction.assignment
    asg = [None] * rmap.n_original
    for new_id, old_id in enumerate(rmap.old_of_new):
        asg[old_id] = rmap.old_of_new[asg_new[new_id]]
    for old_id, gate in rmap.gateway.items():
        asg[old_id] = asg[gate]
    return Retraction(tuple(asg))


def unit_route_reference(instance):
    """Reference for `planar.optimal_retract_planar`: the route on the
    instance itself, vertex by vertex. It reduces to the block of H
    (`reduce_two_connected`), splits the block into pieces
    (`plane_parts_reference`), solves each part at its own optimum by the face scan
    (`part_optimum`) and each chain of L edges between anchors d apart at
    max(1, ceil(d/L)) (`chain_images`), merges the piece maps, lifts the
    merged map and checks that its stretch is the largest piece optimum.
    Returns (retraction, stretch report)."""
    reduced, rmap = planar.reduce_two_connected(instance)
    parts, chains = plane_parts_reference(reduced)
    asg = list(range(reduced.n))
    optima = []
    for sub, old_of_new in parts:
        l, img = part_optimum(sub)
        optima.append(l)
        for new_id, old_id in enumerate(old_of_new):
            asg[old_id] = old_of_new[sub.anchors[img[new_id]]]
    k = reduced.k
    for chain in chains:
        i, j = reduced.anchor_index(chain[0]), reduced.anchor_index(chain[-1])
        L = len(chain) - 1
        l = max(1, -(-cycle_dist(k, i, j) // L))
        optima.append(l)
        for v, t in zip(chain[1:-1], chain_images(k, i, j, L, l)):
            asg[v] = reduced.anchors[t]
    ret = lift(rmap, Retraction(tuple(asg)))
    rep = stretch(instance, ret)
    if rep.max_stretch != max(optima):
        raise SolverError("retraction has stretch %d, not its pieces' optimum "
                          "%d" % (rep.max_stretch, max(optima)))
    return ret, rep


def nx_reduce_two_connected(instance):
    """Reference for `planar.reduce_two_connected`: the block of H from
    networkx's biconnected components, each component of G minus the block
    collapsed onto the one block vertex it attaches at. Always builds a new
    reduced instance."""
    g = nx.Graph()
    g.add_nodes_from(range(instance.n))
    g.add_edges_from(instance.edges)
    aset = set(instance.anchors)
    block = None
    for comp in nx.biconnected_components(g):
        if aset <= comp:
            block = set(comp)
            break
    if block is None:  # k >= 3 so H is a cycle inside one block
        raise ValidationError("anchor cycle does not lie in one block")
    gateway = {}
    if len(block) < instance.n:
        rest = g.subgraph(v for v in range(instance.n) if v not in block)
        for comp in nx.connected_components(rest):
            gates = {w for v in comp for w in g[v] if w in block}
            if len(gates) != 1:
                raise ValidationError("hanging component attaches at %d block "
                                      "vertices, expected 1" % len(gates))
            gate = gates.pop()
            for v in comp:
                gateway[v] = gate
    old_of_new = tuple(sorted(block))
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    edges = [(new_of_old[u], new_of_old[v]) for u, v in instance.edges
             if u in new_of_old and v in new_of_old]
    anchors = tuple(new_of_old[a] for a in instance.anchors)
    reduced = Instance(len(old_of_new), edges, anchors)
    return reduced, planar.ReduceMap(instance.n, old_of_new, gateway)


def nx_rotation(n, edges):
    """Reference for `planar._lr_rotation`: networkx's planarity test on the
    vertices 0..n-1, and the clockwise rotation of each vertex of its
    embedding, or NotPlanarError."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    ok, emb = nx.check_planarity(g)
    if not ok:
        raise planar.NotPlanarError("guest graph is not planar")
    rotation = [()] * n
    for v in g:
        rotation[v] = tuple(emb.neighbors_cw_order(v))
    return rotation


def networkx_min_fill_reference(n, edges):
    """Reference for `treewidth._raw_decompose`: networkx's min-fill tree
    decomposition, read as (sorted bag tuples in node order, adjacency
    lists in the order of the tree's edges)."""
    from networkx.algorithms import approximation as nx_approx
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    _, tree = nx_approx.treewidth_min_fill_in(g)
    bags = [tuple(sorted(b)) for b in tree.nodes]
    index = {b: i for i, b in enumerate(tree.nodes)}
    adj = [[] for _ in bags]
    for a, b in tree.edges:
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    return bags, adj


def rotation_faces(rotation):
    """The face walks of a rotation system on the vertices 0..n-1, each
    half-edge (v, w) followed by (w, the neighbour before v in w's clockwise
    rotation), as `planar._weighted_part` walks them."""
    faces = []
    seen = set()
    for v0 in range(len(rotation)):
        for w0 in rotation[v0]:
            if (v0, w0) in seen:
                continue
            v, w = v0, w0
            walk = []
            while (v, w) not in seen:
                seen.add((v, w))
                walk.append(v)
                rot = rotation[w]
                v, w = w, rot[rot.index(v) - 1]
            faces.append(walk)
    return faces


def part_embeddings(inst):
    """(piece, embedding) for each piece of the 2-connected reduction of
    inst, chains included."""
    return [(sub, planar.plane_embed(sub)) for sub, _ in
            pieces(planar.reduce_two_connected(inst)[0])]


def host_forward(embedding):
    """H's edges directed in anchor order."""
    a = embedding.anchors
    return [(a[i], a[(i + 1) % len(a)]) for i in range(len(a))]


def full_cover(instance, embedding, face, l=1):
    """Reference for `planar._lipschitz_retract`: the winding cover over
    every vertex of the part, with every anchor seeded and every stretch
    checked.

    Vertices are copied into layers, edges crossing the dual path shift the
    layer, anchor copies are seeded at their index plus k per layer, and the
    label of each vertex is its shortest-path value in the cover, with host
    edges of length 1 and all others of length l. J layers on each side, J
    the number of edges the dual path crosses."""
    k = instance.k
    host = instance.host_edges()
    sign = planar._dual_crossing_signs(embedding, face,
                                       host_forward(embedding))
    J = max(1, len(sign) // 2)
    width = 2 * J + 1
    n = instance.n
    INF = float("inf")
    dist = [INF] * (n * width)
    offset = k * (J + 1)
    heap = []
    for i, a in enumerate(instance.anchors):
        for j in range(-J, J + 1):
            val = i + k * j + offset
            node = a * width + (j + J)
            if val < dist[node]:
                dist[node] = val
                heap.append((val, node))
    heapq.heapify(heap)
    adj = [[] for _ in range(n)]
    for u, v in instance.edges:
        su = sign.get((u, v), 0)
        length = 1 if (u, v) in host else l
        adj[u].append((v, su, length))
        adj[v].append((u, -su, length))
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
    layer0 = dist[J::width]
    if INF in layer0:
        return None
    assignment = [instance.anchors[(d - offset) % k] for d in layer0]
    if any(assignment[a] != a for a in instance.anchors):
        return None
    ret = Retraction(tuple(assignment))
    return ret if stretch(instance, ret).max_stretch <= l else None


def full_stretch1(instance, embedding, l=1):
    """Reference for `planar._stretch1_embedded`: the same face scan, with
    `full_cover` on the part's full embedding."""
    host = instance.host_edges()
    size = {}
    for f, walk in enumerate(embedding.faces):
        if f != embedding.outer_face:
            on_h = len(embedding.face_edge_sets[f] & host)
            size[f] = on_h + l * (len(walk) - on_h)
    faces = sorted((f for f in size if size[f] >= instance.k), key=size.get,
                   reverse=True)
    for f in faces:
        ret = full_cover(instance, embedding, f, l)
        if ret is not None:
            return ret
    return None


def _bfs_parents(adj, src, banned=frozenset()):
    if src in banned:
        raise SolverError("path endpoint %d is blocked" % src)
    par = {src: None}
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in par and w not in banned:
                par[w] = u
                q.append(w)
    return par


def _bfs_path(adj, src, dst, banned=frozenset()):
    par = _bfs_parents(adj, src, banned)
    if dst not in par:
        raise SolverError("no path between %d and %d avoiding earlier "
                          "pieces" % (src, dst))
    path = [dst]
    while path[-1] != src:
        path.append(par[path[-1]])
    path.reverse()
    return path


def _bfs_grow_path(adj, path, targets, banned=frozenset()):
    for t in targets:
        if t in banned:
            raise SolverError("path endpoint %d is blocked" % t)
        dist = {t: 0}
        q = deque([t])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in dist and w not in banned:
                    dist[w] = dist[u] + 1
                    q.append(w)
        best_pos = min(range(len(path)),
                       key=lambda i: (dist.get(path[i], 1 << 60), i))
        if path[best_pos] not in dist:
            raise SolverError("anchor unreachable during path construction")
        kept = path[:best_pos + 1]
        keep_set = set(kept)
        par = _bfs_parents(adj, t, banned | (keep_set - {path[best_pos]}))
        if path[best_pos] not in par:
            raise SolverError("anchor unreachable during path construction")
        branch = [path[best_pos]]
        while branch[-1] != t:
            branch.append(par[branch[-1]])
        path = kept + branch[1:]
        if len(set(path)) != len(path):
            raise SolverError("closest-vertex path construction "
                              "self-intersected")
    return path


def bfs_host_cycle(n, edges, anchors):
    """Reference for `euclid.build_host_cycle`: the same construction by BFS
    on the unit graph (`euclid.to_unweighted`), returning its vertex ids."""
    from retract.euclid import _segment_between
    k = len(anchors)
    if k < 10:
        raise ValidationError("host cycle construction needs k >= 10")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    half = k // 2
    h1 = _bfs_path(adj, anchors[2], anchors[3])
    h1 = _bfs_grow_path(adj, h1, [anchors[i] for i in range(4, half - 1)])
    s1 = set(h1)
    h2 = _bfs_path(adj, anchors[k - 2], anchors[k - 3], banned=s1)
    h2 = _bfs_grow_path(adj, h2,
                        [anchors[i] for i in range(k - 4, half + 1, -1)],
                        banned=s1)
    s2 = set(h2)

    def connector(src, dst, banned):
        p = _bfs_path(adj, src, dst, banned=banned)
        i1 = max(i for i, v in enumerate(p) if v in s1)
        later = [i for i, v in enumerate(p) if v in s2 and i > i1]
        if not later:
            raise SolverError("connector misses the second half cycle")
        i2 = min(later)
        return p[i1:i2 + 1]

    p_ab = connector(anchors[2], anchors[k - 2], frozenset())
    p_cd = connector(anchors[half - 2], anchors[half + 2],
                     frozenset(p_ab) - {anchors[half - 2], anchors[half + 2]})
    a, b = p_ab[0], p_ab[-1]
    c, d = p_cd[0], p_cd[-1]
    cycle = (_segment_between(h1, a, c)
             + p_cd[1:]
             + _segment_between(h2, d, b)[1:]
             + p_ab[::-1][1:-1])
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise SolverError("host cycle is not simple")
    eset = {_normalize_edge(u, v) for u, v in edges}
    for i in range(len(cycle)):
        if _normalize_edge(cycle[i], cycle[(i + 1) % len(cycle)]) not in eset:
            raise SolverError("host cycle uses a missing edge")
    return cycle


def unit_graph(n, lengths):
    """(total, edges) of the weighted graph with each edge (u, v), u < v, a
    path of lengths[(u, v)] unit edges, numbered as `euclid.to_unweighted`
    numbers it: inner vertices after the n vertices, edge by edge in sorted
    order, from u to v."""
    total = n
    edges = []
    for (u, v), m in sorted(lengths.items()):
        path = [u] + list(range(total, total + m - 1)) + [v]
        total += m - 1
        edges += list(zip(path, path[1:]))
    return total, edges


def expand_cycle(n, lengths, cycle):
    """A cycle of the weighted graph as the vertex ids of `unit_graph`."""
    first = {}
    total = n
    for e, m in sorted(lengths.items()):
        first[e] = total
        total += m - 1
    out = []
    for c, d in zip(cycle, cycle[1:] + cycle[:1]):
        e = _normalize_edge(c, d)
        inner = list(range(first[e], first[e] + lengths[e] - 1))
        out += [c] + (inner if c < d else inner[::-1])
    return out


def _unit_pipeline(ps):
    from retract import euclid
    k = ps.k
    g2, group = euclid.contract_small_edges(euclid.delaunay_spanner(ps), k,
                                            ps.n)
    total, edges, along = euclid.to_unweighted(g2, k, ps.n)
    host = bfs_host_cycle(total, edges, [group[a] for a in ps.anchor_indices])
    return g2, group, along, Instance(total, edges, tuple(host))


def euclid_instance(ps):
    """The unit instance whose answers `euclid.euclid_retract` reproduces
    for a point set of k >= 10: the subdivided contracted spanner with the
    host cycle that BFS routes on it."""
    return _unit_pipeline(ps)[3]


def unit_euclid_retract(ps):
    """Reference for `euclid.euclid_retract` at k >= 10: the unit route's
    solve of `euclid_instance` (`unit_route_reference`), each image snapped
    from its position on the subdivided edge (`to_unweighted`'s `along`).
    Returns (assignment, ratio_sq, the instance's host cycle)."""
    from retract import euclid
    g2, group, along, inst = _unit_pipeline(ps)
    ret, _ = unit_route_reference(inst)
    anchors = set(ps.anchor_indices)
    asg = []
    for v in range(ps.n):
        if v in anchors:
            asg.append(v)
            continue
        w = ret.assignment[group[v]]
        pt = (g2.points[w] if w < g2.n
              else euclid._position(g2, *along[w - g2.n]))
        best = min(range(ps.k), key=lambda i: (
            euclid._sqdist(pt, ps.points[ps.anchor_indices[i]]), i))
        asg.append(ps.anchor_indices[best])
    return tuple(asg), euclid._ratio_sq(ps, tuple(asg)), list(inst.anchors)


def in_circle_4x4(pts, ia, ib, ic, idx):
    """Reference for `euclid._in_circle`: the sign of the lifted 4x4
    determinant, expanded along the lifted column, with co-circular ties
    broken by the lifted-index perturbation. Raising row r's lift by delta
    adds delta times its cofactor, so when the index-weighted cofactors sum
    to 0 the next perturbation, that of the largest index alone, leaves the
    sign of that row's cofactor."""
    from retract.euclid import _det3
    rows = []
    for i in (ia, ib, ic, idx):
        x, y = pts[i]
        rows.append((x, y, x * x + y * y, 1, i))
    d0 = 0
    d1 = 0
    cofs = []
    for r in range(4):
        sub = [rows[j][:2] + (rows[j][3],) for j in range(4) if j != r]
        cof = (-1) ** (r + 2) * _det3(sub)
        cofs.append(cof)
        d0 += rows[r][2] * cof
        d1 += rows[r][4] * cof
    if d0 != 0:
        return d0 > 0
    if d1 != 0:
        return d1 > 0
    top = cofs[max(range(4), key=lambda r: rows[r][4])]
    if top != 0:
        return top > 0
    raise SolverError("degenerate in-circle test")


def interior_square(side):
    """anchors_on_circle(10) and the corners of an axis-aligned square of
    the given side at the origin, numbered so that the two ends of each
    diagonal have the same index sum (10 + 13 = 11 + 12): the four corners
    are co-circular, and the lifted-index tie-break alone cannot order
    them."""
    from retract import euclid
    zero = Fraction(0)
    corners = ((zero, zero), (side, zero), (zero, side), (side, side))
    return euclid.PointSet(euclid.anchors_on_circle(10) + corners,
                           tuple(range(10)))


def brute_delaunay_spanner(points):
    """Reference for `euclid.delaunay_spanner`: a non-degenerate triple is a
    Delaunay triangle iff no other point is inside its (perturbed)
    circumcircle, tested over every triple."""
    from retract import euclid
    pts = points.points if isinstance(points, euclid.PointSet) \
        else tuple(points)
    n = len(pts)
    if n < 3:
        raise ValidationError("need at least 3 points")
    ipts = euclid._integer_points(pts)[0]
    edges = set()
    found_triangle = False
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                o = euclid._orient(ipts[a], ipts[b], ipts[c])
                if o == 0:
                    continue
                tri = (a, b, c) if o > 0 else (a, c, b)
                if any(euclid._in_circle(ipts, *tri, d)
                       for d in range(n) if d not in tri):
                    continue
                found_triangle = True
                edges.update((_normalize_edge(a, b), _normalize_edge(b, c),
                              _normalize_edge(a, c)))
    if not found_triangle:
        raise ValidationError("all points are collinear")
    sq = {e: euclid._sqdist(pts[e[0]], pts[e[1]]) for e in sorted(edges)}
    return euclid.WeightedPlanarGraph(n, sq, tuple(pts))


def fraction_ratio_sq(points, assignment):
    """Reference for `euclid._ratio_sq`: the worst squared ratio over every
    pair with distinct images, as a max of Fractions."""
    from retract.euclid import _sqdist
    pts = points.points
    worst = Fraction(0)
    for u in range(points.n):
        for v in range(u + 1, points.n):
            num = _sqdist(pts[assignment[u]], pts[assignment[v]])
            if num == 0:
                continue
            worst = max(worst, Fraction(num, _sqdist(pts[u], pts[v])))
    return worst


def cycle_score(embedding, cycle, retraction):
    """Sum of signed steps of the images along a closed vertex sequence.

    A step from image index i to i+1 (mod k) counts +1, the reverse -1,
    staying put 0; any step between non-adjacent anchors violates the
    stretch-1 premise. The result is the winding number times k; the host
    cycle itself always scores k.
    """
    anchors = embedding.anchors
    k = len(anchors)
    idx = {a: i for i, a in enumerate(anchors)}
    total = 0
    m = len(cycle)
    for i in range(m):
        u, v = cycle[i], cycle[(i + 1) % m]
        d = (idx[retraction.image(v)] - idx[retraction.image(u)]) % k
        if d == 0:
            continue
        if d == 1:
            total += 1
        elif d == k - 1:
            total -= 1
        else:
            raise ValidationError("images of consecutive cycle vertices are "
                                  "%d anchors apart" % min(d, k - d))
    return total


def enclosed_faces(embedding, cycle_edges):
    """Face ids strictly inside a simple cycle (given by its edge set):
    everything unreachable from the outer face without crossing the cycle."""
    cyc = {_normalize_edge(u, v) for u, v in cycle_edges}
    outside = {embedding.outer_face}
    stack = [embedding.outer_face]
    while stack:
        f = stack.pop()
        for e in embedding.face_edge_sets[f]:
            if e in cyc:
                continue
            for g in embedding.edge_faces[e]:
                if g not in outside:
                    outside.add(g)
                    stack.append(g)
    return frozenset(f for f in range(len(embedding.faces)) if f not in outside)


def _fraction_hole_feasible(points, cx_range, cy_range, t):
    """The hole search's feasibility sweep on Fraction coordinates: a center
    in the ranges at L-inf distance >= t from every point, or None."""
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


def fraction_largest_hole(embedding, k):
    """Reference for `approx.find_largest_hole`: the same critical-set binary
    search, run on the Fraction coordinates."""
    pts = list(embedding.placement)
    half = embedding.side / 2
    off = Fraction(k, 16)
    cx_range = cy_range = (half - off, half + off)
    t_cap = half - off
    crit = {t_cap}
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    bounds = cx_range + cy_range
    for i in range(len(pts)):
        for b in bounds:
            crit.add(abs(xs[i] - b))
            crit.add(abs(ys[i] - b))
        for j in range(i + 1, len(pts)):
            crit.add(abs(xs[i] - xs[j]) / 2)
            crit.add(abs(ys[i] - ys[j]) / 2)
    crit = sorted(c for c in crit if 0 < c <= t_cap)
    lo, hi = 0, len(crit) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        w = _fraction_hole_feasible(pts, cx_range, cy_range, crit[mid])
        if w is not None:
            best = Hole(w, crit[mid])
            lo = mid + 1
        else:
            hi = mid - 1
    return best


FractionEmbedding = namedtuple("FractionEmbedding", "side placement")


def fraction_view(embedding):
    """`approx.grid_embed`'s integer embedding on Fractions: the square's
    side and each vertex's point, as `fraction_grid_embed` reports them."""
    s = embedding.scale
    return FractionEmbedding(Fraction(embedding.width, s),
                             tuple((Fraction(x, s), Fraction(y, s))
                                   for x, y in embedding.coords))


def boundary_param(side, p):
    """Inverse of `approx._boundary_point` for points on the boundary."""
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


def fraction_grid_embed(instance):
    """Reference for `approx.grid_embed`: the same BFS-order placement at
    the center of the intersected L-inf balls, on Fraction coordinates."""
    k = instance.k
    side = Fraction(k, 4)
    ell = distance_lower_bound(instance)
    placement = [None] * instance.n
    for i, a in enumerate(instance.anchors):
        placement[a] = _boundary_point(side, Fraction(i))
    dists = {a: instance.distances_from(a) for a in instance.anchors}
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
    return FractionEmbedding(side, tuple(placement))


def _fraction_ray_to_boundary(side, center, p):
    """Intersection of the ray center->p with M's boundary: the least
    parameter s >= 1 over the sides it meets, on Fractions."""
    cx, cy = center
    dx, dy = p[0] - cx, p[1] - cy
    if dx == 0 and dy == 0:
        raise SolverError("ray through the hole center is undefined")
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
    best = None
    for s, q in cands:
        if s >= 1 and (best is None or s < best[0]):
            best = (s, q)
    if best is None:
        raise SolverError("ray does not meet the boundary")
    return best[1]


def fraction_project_to_cycle(embedding, hole, instance):
    """Reference for `approx.project_to_cycle`: the ray's boundary point and
    its arc parameter on Fractions, snapped to anchor floor(s) mod k."""
    assignment = [None] * instance.n
    for v in range(instance.n):
        if instance.is_anchor(v):
            assignment[v] = v
            continue
        q = _fraction_ray_to_boundary(embedding.side, hole.center,
                                      embedding.placement[v])
        s = boundary_param(embedding.side, q)
        assignment[v] = instance.anchors[int(s) % instance.k]
    return Retraction(tuple(assignment))


def horton_reference(instance, l):
    """Reference for `bounds._horton_candidates`: Horton's candidate cycles
    with fewer than l edges, shortest first, by walking tree paths. For
    each vertex x one BFS tree T; each non-tree edge uv gives the cycle
    T(w->u) + uv + T(v->w), w the last vertex the tree paths from x to u and
    to v share, found by climbing both paths; one cycle is kept per
    frozenset of edges, and a stable sort by length keeps ties in order of
    first appearance."""
    seen = set()
    out = []
    for x in range(instance.n):
        parent = {x: None}
        depth = {x: 0}
        order = [x]
        for w in order:
            for nb in instance.neighbors(w):
                if nb not in parent:
                    parent[nb] = w
                    depth[nb] = depth[w] + 1
                    order.append(nb)
        for u, v in instance.edges:
            if parent[u] == v or parent[v] == u:
                continue
            up, vp = [u], [v]
            while depth[up[-1]] > depth[vp[-1]]:
                up.append(parent[up[-1]])
            while depth[vp[-1]] > depth[up[-1]]:
                vp.append(parent[vp[-1]])
            while up[-1] != vp[-1]:
                up.append(parent[up[-1]])
                vp.append(parent[vp[-1]])
            if len(up) + len(vp) - 1 >= l:
                continue
            cyc = tuple(reversed(up)) + tuple(vp[:-1])
            key = frozenset(_normalize_edge(cyc[i - 1], cyc[i])
                            for i in range(len(cyc)))
            if key not in seen:
                seen.add(key)
                out.append(cyc)
    out.sort(key=len)
    return out


def span_elimination_reference(instance, l):
    """Reference for `bounds._span_elimination`: the same elimination over
    `horton_reference`'s candidates with every entry a Fraction and rows
    keyed by edge, each basis row normalised by dividing by its pivot.
    Returns (combination, None) or (None, {pivot edge: (row, h, comb)})."""
    k, anchors = instance.k, instance.anchors
    host = {}
    for i in range(k):
        a, b = anchors[i], anchors[(i + 1) % k]
        host[a, b] = Fraction(1)
        host[b, a] = Fraction(-1)
    cands = horton_reference(instance, l)
    basis = {}
    for idx, cyc in enumerate(cands):
        h = Fraction(0)
        row = {}
        for i in range(len(cyc)):
            u, v = cyc[i - 1], cyc[i]
            if (u, v) in host:
                h += host[u, v]
            else:
                e = _normalize_edge(u, v)
                row[e] = Fraction(1 if (u, v) == e else -1)
        comb = {idx: Fraction(1)}
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
            scale = k / h
            return [(cands[i], a * scale)
                    for i, a in sorted(comb.items())], None
        inv = 1 / row[piv]
        basis[piv] = ({c: a * inv for c, a in row.items()}, h * inv,
                      {i: a * inv for i, a in comb.items()})
    return None, basis


def lp_feasible_reference(instance, l):
    """Reference for `bounds.lp_feasible` on `span_elimination_reference`:
    (False, combination) or (True, {free edge: value}) with every free edge
    of the instance present, read off the echelon basis by back
    substitution."""
    combination, basis = span_elimination_reference(instance, l)
    if combination is not None:
        return False, combination
    vals = {}
    for p in sorted(basis, reverse=True):
        row, h, _ = basis[p]
        vals[p] = -h - sum(a * vals.get(e, 0) for e, a in row.items()
                           if e != p)
    host = instance.host_edges()
    return True, {e: Fraction(vals.get(e, 0)) for e in instance.edges
                  if e not in host}


def lp_certificate_reference(instance):
    """Reference for `bounds.lp_certificate` on
    `span_elimination_reference`: (bound, l0, cycles)."""
    k = instance.k
    cycles, _ = span_elimination_reference(instance, k)
    if cycles is None:
        return 1, None, None
    l0 = 1 + max(len(c) for c, _ in cycles)
    s = 1
    while -(-k // (s + 1)) >= l0:
        s += 1
    return s + 1, l0, cycles
