import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from retract import core, euclid, planar
from retract.core import (Instance, SolverError, ValidationError, cycle_dist,
                          gen_random_planar)
from retract.euclid import (PointSet, WeightedPlanarGraph, anchors_on_circle,
                            build_host_cycle, contract_small_edges,
                            delaunay_spanner, euclid_retract,
                            gen_random_points, subdivision_counts,
                            to_unweighted)
from retract.oracle import brute_force_min_ratio
from retract.planar import optimal_retract_planar, optimal_retract_weighted

from conftest import (BENCH_SETS, bfs_host_cycle, brute_delaunay_spanner,
                      expand_cycle, fraction_ratio_sq, in_circle_4x4,
                      interior_square, unit_euclid_retract, unit_graph)

F = Fraction


def test_anchor_circle_spacing():
    for k in (10, 11, 12, 13, 14, 20):
        pts = anchors_on_circle(k)
        ps = PointSet(pts, tuple(range(k)))  # constructor validates spacing
        assert ps.k == k


def test_pointset_rejects_bad_spacing():
    with pytest.raises(ValidationError):
        PointSet(((F(0), F(0)), (F(3), F(0)), (F(0), F(3))), (0, 1, 2))


def test_delaunay_triangle():
    g = delaunay_spanner([(F(0), F(0)), (F(2), F(0)), (F(1), F(2))])
    assert g.edges == [(0, 1), (0, 2), (1, 2)]


def test_delaunay_unit_square():
    g = delaunay_spanner([(F(0), F(0)), (F(1), F(0)),
                          (F(1), F(1)), (F(0), F(1))])
    assert len(g.sq_weights) == 5  # 4 sides + one diagonal (tie perturbed)
    sides = [e for e, w in g.sq_weights.items() if w == 1]
    diags = [e for e, w in g.sq_weights.items() if w == 2]
    assert len(sides) == 4 and len(diags) == 1
    gx = nx.Graph(g.edges)
    assert nx.check_planarity(gx)[0]


def test_delaunay_square_with_tied_diagonal_sums():
    # 0 + 3 = 1 + 2 on the two diagonals zeroes the lifted-index term; the
    # largest index then decides, with the brute force's answer
    sq = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    g = delaunay_spanner(sq)
    assert g.edges == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert g.sq_weights == brute_delaunay_spanner(sq).sq_weights


def test_delaunay_collinear_rejected():
    with pytest.raises(ValidationError):
        delaunay_spanner([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))])


def test_delaunay_repeated_point_rejected():
    # a repeated point is on the hull the sweep has built, which it needs
    # each new point to lie outside
    with pytest.raises(ValidationError, match="distinct"):
        delaunay_spanner([(F(0), F(0)), (F(2), F(0)), (F(1), F(2)),
                          (F(2), F(0))])


def _spanner_ratio(g):
    gx = nx.Graph()
    for (u, v), sq in g.sq_weights.items():
        gx.add_edge(u, v, w=math.sqrt(sq))
    dist = dict(nx.all_pairs_dijkstra_path_length(gx, weight="w"))
    worst = 0.0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            d = math.sqrt(euclid._sqdist(g.points[u], g.points[v]))
            worst = max(worst, dist[u][v] / d)
    return worst


def test_spanner_ratio_circle():
    g = delaunay_spanner(anchors_on_circle(8))
    assert _spanner_ratio(g) <= 2.5 + 1e-9


def test_spanner_ratio_random():
    for seed in (1, 2, 3):
        ps = gen_random_points(6, 12, seed)
        g = delaunay_spanner(ps)
        assert _spanner_ratio(g) <= 2.5 + 1e-9


def test_contract_identity_when_no_small_edges():
    ps = gen_random_points(0, 12, 0)
    g = delaunay_spanner(ps)
    g2, group = contract_small_edges(g, 12, 12)
    assert g2.n == g.n
    assert group == tuple(range(g.n))
    assert g2.sq_weights == g.sq_weights


def test_contract_merges_tight_pair():
    k, n = 10, 12
    pts = list(anchors_on_circle(k))
    pts.append((F(1, 100), F(1, 100)))
    pts.append((F(1, 100) + F(1, k * n + 1), F(1, 100)))  # below 2/(kn)
    g = delaunay_spanner(pts)
    g2, group = contract_small_edges(g, k, n)
    assert group[k] == group[k + 1]
    assert g2.n == n - 1
    anchor_groups = [group[i] for i in range(k)]
    assert len(set(anchor_groups)) == k


def test_contract_merges_tight_triple():
    # three points pairwise closer than 2/(kn) fall into one group, and every
    # edge left keeps the least weight between its groups, none below the
    # threshold
    k, n = 10, 13
    d = F(1, k * n + 1)
    pts = list(anchors_on_circle(k))
    pts += [(F(1, 100), F(1, 100)), (F(1, 100) + d, F(1, 100)),
            (F(1, 100), F(1, 100) + d)]
    g = delaunay_spanner(pts)
    assert all(g.sq_weights[(u, v)] < F(4, (k * n) ** 2)
               for u, v in ((k, k + 1), (k, k + 2), (k + 1, k + 2)))
    g2, group = contract_small_edges(g, k, n)
    assert group[k] == group[k + 1] == group[k + 2]
    assert g2.n == n - 2
    assert len(set(group[:k])) == k
    least = {}
    for (u, v), w in g.sq_weights.items():
        if group[u] != group[v]:
            e = tuple(sorted((group[u], group[v])))
            least[e] = min(w, least.get(e, w))
    assert g2.sq_weights == least
    assert min(least.values()) >= F(4, (k * n) ** 2)


def test_to_unweighted_counts():
    pts = ((F(0), F(0)), (F(1), F(0)), (F(4), F(0)))
    k, n = 4, 8
    g = WeightedPlanarGraph(3, {(0, 1): F(1),      # w=1 -> kn*w/2 = 16
                                (1, 2): F(9),      # w=3 < k? 3<4: floor 48
                                (0, 2): F(16)},    # w=4 >= k: ceil(k^2 n/2)
                           pts)
    total, edges, pos = to_unweighted(g, k, n)
    counts = {}
    # recover path lengths from the chain structure
    assert len(edges) == 16 + 48 + (k * k * n + 1) // 2
    assert total == 3 + 15 + 47 + (k * k * n + 1) // 2 - 1
    # threshold weight subdivides to exactly one edge
    gt = WeightedPlanarGraph(3, {(0, 1): F(4, (k * n) ** 2),
                                 (1, 2): F(9), (0, 2): F(16)}, pts)
    _, e2, _ = to_unweighted(gt, k, n)
    assert len(e2) == 1 + 48 + (k * k * n + 1) // 2


def test_to_unweighted_rejects_small():
    pts = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    g = WeightedPlanarGraph(3, {(0, 1): F(1, 10 ** 9), (1, 2): F(1),
                                (0, 2): F(1)}, pts)
    with pytest.raises(ValidationError):
        to_unweighted(g, 4, 8)


def _eager_positions(g, k, n):
    """Every vertex position of to_unweighted(g, k, n), each subdivision
    vertex interpolated exactly along its edge, in the order it numbers
    them."""
    pos = list(g.points)
    for (u, v), sq in sorted(g.sq_weights.items()):
        m = ((k * k * n + 1) // 2 if sq >= k * k
             else math.isqrt(sq.numerator * sq.denominator * k * k * n * n
                             // 4) // sq.denominator)
        pu, pv = g.points[u], g.points[v]
        pos += [(pu[0] + F(j, m) * (pv[0] - pu[0]),
                 pu[1] + F(j, m) * (pv[1] - pu[1])) for j in range(1, m)]
    return pos


def _weighted_pipeline(ps):
    """(g2, group, lengths, anchors in g2, host cycle) of euclid_retract."""
    g2, group = contract_small_edges(delaunay_spanner(ps), ps.k, ps.n)
    lengths = subdivision_counts(g2, ps.k, ps.n)
    aidx = [group[a] for a in ps.anchor_indices]
    return g2, group, lengths, aidx, build_host_cycle(g2.n, lengths, aidx)


def test_lazy_positions_match_eager_interpolation():
    # an image is read as (cycle edge, offset); its point is that of the
    # unit graph's vertex there, interpolated eagerly
    snapped = 0
    for k, n_int, seed in BENCH_SETS:
        ps = gen_random_points(n_int, k, seed)
        g2, group, lengths, _, cyc = _weighted_pipeline(ps)
        total, _, _ = to_unweighted(g2, k, ps.n)
        eager = _eager_positions(g2, k, ps.n)
        assert len(eager) == total
        unit_cycle = expand_cycle(g2.n, lengths, cyc)
        pos, _ = optimal_retract_weighted(g2.n, lengths, cyc)
        starts = [unit_cycle.index(c) for c in cyc]
        want = list(range(k))
        for v in range(k, ps.n):
            p = pos[group[v]]
            e = max(e for e, s in enumerate(starts) if s <= p)
            u, w = cyc[e], cyc[(e + 1) % len(cyc)]
            m = lengths[tuple(sorted((u, w)))]
            pt = euclid._position(g2, u, w, p - starts[e], m)
            assert pt == eager[unit_cycle[p]]
            snapped += unit_cycle[p] >= g2.n
            want.append(min(range(k), key=lambda i: (
                euclid._sqdist(pt, ps.points[i]), i)))
        assert euclid_retract(ps).assignment == tuple(want)
    assert snapped >= 1


def _pipeline_graph(ps):
    """(total, edges, host cycle, anchors) of the unit graph, the cycle
    being the weighted route's, in the unit graph's ids."""
    g2, _, lengths, aidx, cyc = _weighted_pipeline(ps)
    total, edges = unit_graph(g2.n, lengths)
    return total, edges, expand_cycle(g2.n, lengths, cyc), aidx


def test_host_cycle_anchors_only():
    ps = gen_random_points(0, 12, 0)
    total, edges, cyc, aidx = _pipeline_graph(ps)
    assert len(set(cyc)) == len(cyc) >= 3
    scale = ps.k * ps.n // 2
    _check_proximity(total, edges, cyc, aidx, scale)


def test_host_cycle_with_interior():
    for n_int, k, seed in ((1, 12, 5), (3, 10, 9)):
        ps = gen_random_points(n_int, k, seed)
        total, edges, cyc, aidx = _pipeline_graph(ps)
        assert len(set(cyc)) == len(cyc)
        _check_proximity(total, edges, cyc, aidx, ps.k * ps.n // 2 + 1)


def _check_proximity(n, edges, cycle, anchors, scale):
    from collections import deque
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    onh = set(cycle)
    dist = {v: 0 for v in onh}
    q = deque(onh)
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    # every anchor close to H; every H vertex close to an anchor
    for a in anchors:
        assert dist[a] <= 5 * scale
    da = {}
    q = deque(anchors)
    for a in anchors:
        da[a] = 0
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in da:
                da[w] = da[u] + 1
                q.append(w)
    half = Fraction(5, 2)
    for v in cycle:
        assert da[v] <= half * scale


def test_host_cycle_needs_k10():
    ps = gen_random_points(0, 12, 0)
    g2, _, lengths, aidx, _ = _weighted_pipeline(ps)
    with pytest.raises(ValidationError):
        build_host_cycle(g2.n, lengths, aidx[:8])


def test_brute_force_anchors_only_is_identity():
    ps = gen_random_points(0, 10, 3)
    asg, ratio_sq = brute_force_min_ratio(ps)
    assert asg == tuple(range(10))
    assert ratio_sq == 1


def test_euclid_retract_anchors_only():
    ps = gen_random_points(0, 12, 1)
    res = euclid_retract(ps)
    assert res.assignment == tuple(range(12))
    assert res.ratio_sq == 1


def test_euclid_retract_center_point():
    pts = list(anchors_on_circle(12))
    pts.append((F(0), F(0)))
    ps = PointSet(tuple(pts), tuple(range(12)))
    res = euclid_retract(ps)
    assert res.assignment[:12] == tuple(range(12))
    assert res.assignment[12] < 12
    nk2 = ps.n * ps.k // 2
    assert res.ratio_sq <= nk2 * nk2


def test_euclid_retract_matches_bound_and_oracle():
    ps = gen_random_points(3, 10, 105)
    res = euclid_retract(ps)
    assert res.assignment[:10] == tuple(range(10))
    nk2 = Fraction(ps.n * ps.k, 2)
    assert res.ratio_sq <= nk2 * nk2
    _, opt_sq = brute_force_min_ratio(ps)
    assert res.ratio_sq <= 200 * 200 * opt_sq


def test_small_k_falls_back_to_brute_force():
    pts = list(anchors_on_circle(6))
    pts.append((F(0), F(0)))
    ps = PointSet(tuple(pts), tuple(range(6)))
    res = euclid_retract(ps)
    _, opt_sq = brute_force_min_ratio(ps)
    assert res.ratio_sq == opt_sq


def test_gen_random_points_deterministic():
    a = gen_random_points(5, 12, 42)
    b = gen_random_points(5, 12, 42)
    assert a == b
    assert a.n == 17


def test_gen_random_planar_properties():
    for seed in range(5):
        inst = gen_random_planar(6, 8, seed)
        assert inst.n == 14
        gx = nx.Graph(list(inst.edges))
        gx.add_nodes_from(range(inst.n))
        assert nx.check_planarity(gx)[0]
        assert nx.is_connected(gx)
    assert gen_random_planar(6, 8, 3).edges == gen_random_planar(6, 8, 3).edges


def _checked_sets():
    """The 9 euclid-points sets and the 20 sets of criterion 8."""
    sets = [gen_random_points(n_int, k, seed) for k, n_int, seed in BENCH_SETS]
    return sets + [gen_random_points(i % 9, 10 + i % 5, 9000 + i)
                   for i in range(20)]


def test_in_circle_matches_lifted_4x4_reference(monkeypatch):
    # the translated 3x3 determinant keeps every spanner edge of the 4x4
    # route, the co-circular unit square's perturbed ties included
    sets = _checked_sets()
    sets += [gen_random_points(seed % 4, 3 + seed % 8, 500 + seed)
             for seed in range(100)]
    sets.append([(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))])
    sets.append([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))])
    got = [delaunay_spanner(ps).sq_weights for ps in sets]
    monkeypatch.setattr(euclid, "_in_circle", in_circle_4x4)
    assert got == [delaunay_spanner(ps).sq_weights for ps in sets]


def _hand_built_sets():
    """Collinear runs on the hull, first in the sweep and inside the hull,
    and co-circular sets: the unit square in both index orders, a regular
    octagon on the dyadic grid, and the twelve lattice points of the circle
    of radius 5, in both orders."""
    def pts(coords):
        return [(F(x), F(y)) for x, y in coords]
    lattice = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0),
               (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)]
    return [pts([(0, 0), (1, 0), (2, 0), (3, 0), (1, 2)]),
            pts([(0, 0), (0, 1), (0, 2), (0, 3), (2, 1), (-1, 5)]),
            pts([(0, 0), (4, 0), (2, 1), (2, 2), (2, 3), (0, 5), (4, 5)]),
            list(anchors_on_circle(10))
            + [(F(i, 5), F(i, 10)) for i in range(-2, 3)],
            pts([(0, 0), (1, 0), (1, 1), (0, 1)]),
            pts([(0, 0), (1, 0), (0, 1), (1, 1)]),
            list(anchors_on_circle(8)),
            pts(lattice), pts(lattice[::-1])]


def test_spanner_matches_brute_force():
    # the sweep and Lawson flips keep the edges and exact squared lengths
    # of the test over every triple: on the 29 checked sets, 200 seeded
    # sets, 20 larger ones (5 to 20 interior points, k 10 to 20) and the
    # hand-built collinear and co-circular sets
    sets = _checked_sets()
    sets += [gen_random_points(i % 6, 10 + i % 5, 5000 + i)
             for i in range(200)]
    sets += [gen_random_points(5 + i % 16, 10 + i % 11, 7000 + i)
             for i in range(20)]
    sets += _hand_built_sets()
    for ps in sets:
        got = delaunay_spanner(ps).sq_weights
        assert got == brute_delaunay_spanner(ps).sq_weights, ps


@pytest.mark.parametrize("side", [F(1, 4), F(1, 3), F(2, 5)])
def test_euclid_retract_interior_square(side):
    # four co-circular interior points whose diagonals have equal index
    # sums solve within the n k / 2 bound
    ps = interior_square(side)
    res = euclid_retract(ps)
    assert res.assignment[:10] == tuple(range(10))
    nk2 = F(ps.n * ps.k, 2)
    assert res.ratio_sq <= nk2 * nk2


def test_integer_ratio_matches_fraction_reference():
    for ps in _checked_sets():
        asg = euclid_retract(ps).assignment
        assert euclid._ratio_sq(ps, asg) == fraction_ratio_sq(ps, asg)
    # coincident images give numerator 0; with all of them the ratio is 0
    ps = gen_random_points(3, 10, 105)
    for asg in (tuple(range(10)) + (0, 0, 0), (0,) * 13):
        assert euclid._ratio_sq(ps, asg) == fraction_ratio_sq(ps, asg)
    assert euclid._ratio_sq(ps, (0,) * 13) == 0


def test_bench_sets_reach_the_oracle_optimum():
    # euclid-points' quality_gap of 1.0: each bench set (at most 2 interior
    # points) is solved at the brute-force optimum ratio
    for k, n_int, seed in BENCH_SETS:
        ps = gen_random_points(n_int, k, seed)
        assert euclid_retract(ps).ratio_sq == brute_force_min_ratio(ps)[1]


@pytest.mark.parametrize("index", [-1, 99, 2.0])
def test_pointset_rejects_bad_anchor_index(index):
    # -1 would wrap around to the last point, 99 would index past the end,
    # and 2.0 is no index
    ps = gen_random_points(2, 10, 1)
    pts = ps.points[:9] + ps.points[10:] + ps.points[9:10]
    PointSet(pts, tuple(range(9)) + (11,))      # the anchor moved to the end
    with pytest.raises(ValidationError):
        PointSet(pts, tuple(range(9)) + (index,))


def test_weighted_route_matches_unit_route():
    # the Dijkstra host cycle, in the unit graph's ids, is the BFS cycle,
    # and the assignment and ratio are those of the planar solve of the unit
    # instance, on the 9 bench sets, the 20 criterion-8 sets and 200 seeded
    # sets, 40 of them anchors only (where the shortest-path ties are)
    sets = _checked_sets()
    sets += [gen_random_points(i % 6, 10 + i % 5, 5000 + i)
             for i in range(200)]
    assert sum(ps.n == ps.k for ps in sets) >= 40
    for ps in sets:
        g2, _, lengths, _, cyc = _weighted_pipeline(ps)
        asg, ratio_sq, unit_cycle = unit_euclid_retract(ps)
        assert expand_cycle(g2.n, lengths, cyc) == unit_cycle, ps
        res = euclid_retract(ps)
        assert (res.assignment, res.ratio_sq) == (asg, ratio_sq), ps


def test_host_cycle_matches_bfs_on_random_lengths():
    # 600 random planar graphs with k = 10 to 12 anchors and edges of length
    # 1 to 3: the Dijkstra cycle, in unit ids, is the BFS cycle of the unit
    # graph, or both constructions fail; unit-length edges, whose unit
    # neighbours come first in BFS order, and a second connector whose two
    # ends p_ab joins by a longer edge both occur here
    built = 0
    for seed in range(600):
        rng = random.Random(seed)
        inst = gen_random_planar(seed % 5, 10 + seed % 3, seed)
        lengths = {e: rng.randint(1, 3) for e in inst.edges}
        anchors = list(inst.anchors)
        total, edges = unit_graph(inst.n, lengths)
        try:
            want = bfs_host_cycle(total, edges, anchors)
        except SolverError:
            want = None
        try:
            got = expand_cycle(inst.n, lengths,
                               build_host_cycle(inst.n, lengths, anchors))
        except SolverError:
            got = None
        assert got == want, seed
        built += want is not None
    assert built >= 400


def test_euclid_retract_builds_no_unit_graph(monkeypatch):
    # k >= 10 builds no Instance and calls neither to_unweighted nor the
    # unit planar solver
    calls = []
    init = core.Instance.__init__

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(core.Instance, "__init__", counted("Instance", init))
    monkeypatch.setattr(euclid, "to_unweighted",
                        counted("to_unweighted", to_unweighted))
    monkeypatch.setattr(planar, "optimal_retract_planar",
                        counted("planar", optimal_retract_planar))
    for k, n_int, seed in BENCH_SETS:
        euclid_retract(gen_random_points(n_int, k, seed))
    assert calls == []
    Instance(3, [(0, 1), (1, 2), (2, 0)], (0, 1, 2))
    assert calls == ["Instance"]


def test_closed_form_check_rejects_a_moved_image():
    # the merged map passes; moving one image so that an edge off H needs
    # more than m*l* steps, or claiming another optimum, raises
    ps = gen_random_points(2, 10, 9101)
    g2, _, lengths, _, cyc = _weighted_pipeline(ps)
    pos, opt = optimal_retract_weighted(g2.n, lengths, cyc)
    K = sum(lengths[tuple(sorted(e))] for e in zip(cyc, cyc[1:] + cyc[:1]))
    host = {tuple(sorted(e)) for e in zip(cyc, cyc[1:] + cyc[:1])}
    planar._check_weighted(K, lengths, host, pos, opt)
    for bad in (opt - 1, opt + 1):
        with pytest.raises(SolverError):
            planar._check_weighted(K, lengths, host, pos, bad)
    (u, v), m = next(((u, v), m) for (u, v), m in lengths.items()
                     if (u, v) not in host and u not in cyc
                     and m * opt < K // 2)
    moved = list(pos)
    moved[u] = (pos[v] + K // 2) % K
    assert cycle_dist(K, moved[u], moved[v]) > m * opt
    with pytest.raises(SolverError):
        planar._check_weighted(K, lengths, host, moved, opt)
