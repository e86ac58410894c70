"""Exact retraction to an arbitrary connected subgraph host via tree
decompositions.

A retraction of stretch at most l is decided by dynamic programming over a
nice tree decomposition (min-fill heuristic width) of the graph itself, built
once per solve: a vertex may take an image only if it lies within host
distance l of the images of its neighbours already in the bag. The optimum is
the least l the DP accepts, scanned upward from the anchor distance ratio.

The subdivision route (`_subdivided`, `_spliced_decomposition`) is kept as a
reference: stretch l is feasible iff the graph with every non-host edge
replaced by an l-edge path retracts with stretch 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (Instance, ResourceError, Retraction, SolverError,
                   StretchReport, SubgraphHost, ValidationError,
                   _normalize_edge, host_from_cycle)

LEAF, INTRODUCE, FORGET, JOIN = "leaf", "introduce", "forget", "join"

_TABLE_CAP = 1 << 28


@dataclass(frozen=True)
class _Node:
    kind: str
    bag: tuple          # sorted vertex tuple
    children: tuple     # node indices, already processed (post-order)
    vertex: object      # introduced/forgotten vertex, else None


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted binary decomposition with leaf/introduce/forget/join nodes,
    empty leaf and root bags, children stored before parents."""
    nodes: tuple
    root: int
    width: int


def _raw_decompose(n, edges):
    """Heuristic (min-fill) tree decomposition of the graph on vertices
    0..n-1 with the given edges, none a loop: (bags, tree adjacency).

    bags[i] is a sorted vertex tuple; adj[i] lists bag i's home bag first
    (none for bag 0) and then its children in creation order.

    This is the minimum fill-in heuristic of H. L. Bodlaender and A. M. C. A.
    Koster, "Treewidth computations I. Upper bounds" (2010), ported from
    `treewidth_min_fill_in` and `treewidth_decomp` in networkx 3.6.1
    (networkx/algorithms/approximation/treewidth.py; 3-clause BSD license,
    Copyright (c) 2004-2025, NetworkX Developers), whose decompositions it
    reproduces bag for bag and in the same order. Each round sorts the live
    vertices by degree (stably, in vertex order); when the least degree is
    the live count - 1 the rest form the first bag. Otherwise it eliminates
    the first vertex of least fill-in (the number of missing edges among its
    neighbours), stopping a vertex's count once it reaches the best so far
    and taking a vertex of fill 0 at once: its neighbourhood becomes a
    clique and is pushed with it. The stack is then popped, each vertex
    with its neighbourhood making a new bag hung on the first earlier bag
    holding that neighbourhood, or else on the first bag.
    """
    graph = {v: set() for v in range(n)}
    for u, v in edges:
        graph[u].add(v)
        graph[v].add(u)
    stack = []
    while graph:
        order = sorted(graph, key=lambda x: len(graph[x]))
        if len(graph[order[0]]) == len(graph) - 1:
            break
        # fill counts are doubled: each missing edge is seen from both ends
        best, best_fill = None, float("inf")
        for v in order:
            nbrs = graph[v]
            fill = 0
            for u in nbrs:
                fill += len(nbrs - graph[u]) - 1
                if fill >= best_fill:
                    break
            if fill < best_fill:
                best, best_fill = v, fill
                if fill == 0:
                    break
        nbrs = graph.pop(best)
        for u in nbrs:
            graph[u] |= nbrs
            graph[u] -= {u, best}
        stack.append((best, nbrs))
    bags = [set(graph)]
    adj = [[]]
    while stack:
        v, nbrs = stack.pop()
        home = next((i for i, bag in enumerate(bags) if nbrs <= bag), 0)
        adj[home].append(len(bags))
        adj.append([home])
        nbrs.add(v)
        bags.append(nbrs)
    return [tuple(sorted(bag)) for bag in bags], adj


def _make_nice(bags, adj):
    """Root the decomposition, binarize joins, and expand bag changes into
    introduce/forget chains; leaves and the root get empty bags."""
    nodes = []

    def emit(kind, bag, children=(), vertex=None):
        nodes.append(_Node(kind, tuple(bag), tuple(children), vertex))
        return len(nodes) - 1

    def morph(idx, frm, to):
        """Chain of forgets then introduces turning bag `frm` into `to`."""
        cur = list(frm)
        for v in sorted(set(frm) - set(to)):
            cur.remove(v)
            idx = emit(FORGET, sorted(cur), (idx,), v)
        for v in sorted(set(to) - set(frm)):
            cur.append(v)
            idx = emit(INTRODUCE, sorted(cur), (idx,), v)
        return idx

    # iterative post-order over the rooted tree
    order = []
    parent = {0: None}
    stack = [0]
    while stack:
        b = stack.pop()
        order.append(b)
        for c in adj[b]:
            if c != parent[b]:
                parent[c] = b
                stack.append(c)
    done = {}
    for b in reversed(order):
        kids = [done[c] for c in adj[b] if c != parent[b]]
        if not kids:
            idx = emit(LEAF, ())
            idx = morph(idx, (), bags[b])
        else:
            kids = [morph(i, nodes[i].bag, bags[b]) for i in kids]
            idx = kids[0]
            for other in kids[1:]:
                idx = emit(JOIN, bags[b], (idx, other))
        done[b] = idx
    root = morph(done[0], bags[0], ())
    width = max(len(b) for b in bags) - 1
    return NiceTreeDecomposition(tuple(nodes), root, width)


def tree_decompose(instance):
    """Nice tree decomposition of the instance's graph (min-fill width)."""
    return _make_nice(*_raw_decompose(instance.n, instance.edges))


def _stretch1_graph(n, edges, host, decomp, l=1):
    """Assignment list for a retraction of (n, edges) onto the host subgraph
    with stretch at most l, or None. Core of the DP; edges need not form an
    Instance."""
    anchor_set = set(host.anchors)
    images = host.anchors
    eset = {_normalize_edge(u, v) for u, v in edges}
    tables = {}
    forget_choice = {}
    work = 0
    for idx in range(len(decomp.nodes)):
        node = decomp.nodes[idx]
        if node.kind == LEAF:
            tables[idx] = {()}
            continue
        if node.kind == JOIN:
            a, b = node.children
            tables[idx] = tables.pop(a) & tables.pop(b)
            continue
        child = node.children[0]
        child_table = tables.pop(child)
        v = node.vertex
        if node.kind == FORGET:
            cpos = decomp.nodes[child].bag.index(v)
            table = set()
            choice = {}
            for g in child_table:
                rest = g[:cpos] + g[cpos + 1:]
                if rest not in table:
                    table.add(rest)
                    choice[rest] = g[cpos]
            tables[idx] = table
            forget_choice[idx] = choice
            continue
        # introduce
        pos = node.bag.index(v)
        cbag = decomp.nodes[child].bag
        nbrs = [i for i, u in enumerate(cbag)
                if _normalize_edge(u, v) in eset]
        candidates = (v,) if v in anchor_set else images
        work += len(child_table) * len(candidates)
        if work > _TABLE_CAP:
            raise ResourceError("DP table budget exceeded (%d entries)" % work)
        table = set()
        for g in child_table:
            for a in candidates:
                if all(host.dist(a, g[i]) <= l for i in nbrs):
                    table.add(g[:pos] + (a,) + g[pos:])
        tables[idx] = table
    if not tables[decomp.root]:
        return None
    # top-down reconstruction
    assignment = {}
    stack = [(decomp.root, ())]
    while stack:
        idx, g = stack.pop()
        node = decomp.nodes[idx]
        if node.kind == LEAF:
            continue
        if node.kind == JOIN:
            stack.append((node.children[0], g))
            stack.append((node.children[1], g))
            continue
        child = node.children[0]
        v = node.vertex
        if node.kind == INTRODUCE:
            pos = node.bag.index(v)
            assignment[v] = g[pos]
            stack.append((child, g[:pos] + g[pos + 1:]))
        else:  # forget
            cpos = decomp.nodes[child].bag.index(v)
            val = forget_choice[idx][g]
            stack.append((child, g[:cpos] + (val,) + g[cpos:]))
    return [assignment[v] for v in range(n)]


def host_stretch(instance, host, retraction):
    """Stretch of a retraction measured in the host subgraph's metric.
    Validates totality, host-anchor images, and anchor fixing."""
    asg = retraction.assignment
    if len(asg) != instance.n:
        raise ValidationError("assignment is not total")
    for v, img in enumerate(asg):
        if not host.contains(img):
            raise ValidationError("vertex %d maps outside the host" % v)
    for a in host.anchors:
        if asg[a] != a:
            raise ValidationError("host anchor %d is moved" % a)
    best, witness = 0, None
    for u, v in instance.edges:
        d = host.dist(asg[u], asg[v])
        if d > best:
            best, witness = d, (u, v)
    return StretchReport(best, witness)


def stretch1_tw(instance, host):
    """A stretch-1 retraction of the instance onto the host, or None."""
    for a in host.anchors:
        if not (0 <= a < instance.n):
            raise ValidationError("host anchor %d outside the instance" % a)
    asg = _stretch1_graph(instance.n, instance.edges, host,
                          tree_decompose(instance))
    if asg is None:
        return None
    return Retraction(tuple(asg))


def _subdivided(instance, host, l):
    """(n, edges) with every non-host edge replaced by an l-edge path, plus
    the list of (edge, chain vertices) used to splice decomposition bags."""
    n = instance.n
    edges = [e for e in instance.edges if e in host.edges]
    chains = []
    for e in instance.edges:
        if e in host.edges:
            continue
        u, v = e
        chain = list(range(n, n + l - 1))
        n += l - 1
        path = [u] + chain + [v]
        edges.extend((path[i], path[i + 1]) for i in range(l))
        chains.append((e, chain))
    return n, edges, chains


def _spliced_decomposition(bags, adj, chains):
    """Insert path bags for each subdivided edge next to a bag holding both
    endpoints; width grows to at most max(width, 2)."""
    bags = list(bags)
    adj = [list(a) for a in adj]

    def attach(parent_idx, bag):
        bags.append(tuple(sorted(bag)))
        adj.append([parent_idx])
        adj[parent_idx].append(len(bags) - 1)
        return len(bags) - 1

    for (u, v), chain in chains:
        home = next(i for i, b in enumerate(bags) if u in b and v in b)
        if not chain:
            continue
        cur = attach(home, (u, v, chain[0]))
        for i in range(len(chain) - 1):
            cur = attach(cur, (v, chain[i], chain[i + 1]))
    return bags, adj


def _start_bound(n, edges, host):
    """max(1, ceil of the max over anchor pairs of d_H(a, b) / d_G(a, b)),
    by BFS in G from each anchor.

    A lower bound on the optimal stretch for any host: a retraction of
    stretch l maps a shortest a-b path of G to a host walk from a to b whose
    d_G(a, b) steps each have length at most l.
    """
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


def optimal_retract_tw(instance, host=None):
    """Minimum-stretch retraction onto an arbitrary connected subgraph host.

    Runs the DP on the instance's own decomposition, built once, for
    l = `_start_bound`, l + 1, ... up to the host diameter (always
    achievable); the first l the DP accepts is the optimum. Deciding
    stretch <= l directly answers the stretch-1 question on the
    l-subdivision: a stretch-1 map of the l-subdivision restricts to a
    stretch-<=l map of G, and a stretch-l map of G extends along host
    geodesics to a stretch-1 map of the l-subdivision.
    """
    if host is None:
        host = host_from_cycle(instance)
    decomp = tree_decompose(instance)
    limit = max(1, host.diameter())
    for l in range(_start_bound(instance.n, instance.edges, host), limit + 1):
        asg = _stretch1_graph(instance.n, instance.edges, host, decomp, l)
        if asg is not None:
            ret = Retraction(tuple(asg))
            return ret, host_stretch(instance, host, ret)
    raise SolverError("no retraction within the host diameter; "
                      "host metric must be inconsistent")
