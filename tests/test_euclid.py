import math
from fractions import Fraction

import networkx as nx
import pytest

from retract import euclid
from retract.core import Instance, ValidationError, gen_random_planar
from retract.euclid import (PointSet, WeightedPlanarGraph, anchors_on_circle,
                            build_host_cycle, contract_small_edges,
                            delaunay_spanner, euclid_retract,
                            gen_random_points, to_unweighted)
from retract.oracle import brute_force_min_ratio
from retract.planar import optimal_retract_planar

from conftest import BENCH_SETS, fraction_ratio_sq, in_circle_4x4

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


def test_delaunay_collinear_rejected():
    with pytest.raises(ValidationError):
        delaunay_spanner([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))])


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


def test_lazy_positions_match_eager_interpolation():
    snapped = 0
    for k, n_int, seed in BENCH_SETS:
        ps = gen_random_points(n_int, k, seed)
        g2, group = contract_small_edges(delaunay_spanner(ps), k, ps.n)
        total, edges, along = to_unweighted(g2, k, ps.n)
        eager = _eager_positions(g2, k, ps.n)
        assert len(eager) == total
        host = build_host_cycle(total, edges,
                                [group[a] for a in ps.anchor_indices])
        ret, _ = optimal_retract_planar(Instance(total, edges, tuple(host)))
        want = list(range(k))
        for v in range(k, ps.n):
            img = ret.assignment[group[v]]
            assert euclid._position(g2, along, img) == eager[img]
            snapped += img >= g2.n
            want.append(min(range(k), key=lambda i: (
                euclid._sqdist(eager[img], ps.points[i]), i)))
        assert euclid_retract(ps).assignment == tuple(want)
    assert snapped >= 1


def _pipeline_graph(ps):
    g = delaunay_spanner(ps)
    g2, group = contract_small_edges(g, ps.k, ps.n)
    total, edges, pos = to_unweighted(g2, ps.k, ps.n)
    aidx = [group[i] for i in ps.anchor_indices]
    return total, edges, pos, aidx


def test_host_cycle_anchors_only():
    ps = gen_random_points(0, 12, 0)
    total, edges, pos, aidx = _pipeline_graph(ps)
    cyc = build_host_cycle(total, edges, aidx)
    assert len(set(cyc)) == len(cyc) >= 3
    scale = ps.k * ps.n // 2
    _check_proximity(total, edges, cyc, aidx, scale)


def test_host_cycle_with_interior():
    for n_int, k, seed in ((1, 12, 5), (3, 10, 9)):
        ps = gen_random_points(n_int, k, seed)
        total, edges, pos, aidx = _pipeline_graph(ps)
        cyc = build_host_cycle(total, edges, aidx)
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
    total, edges, pos, aidx = _pipeline_graph(ps)
    with pytest.raises(ValidationError):
        build_host_cycle(total, edges, aidx[:8])


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
    got = [delaunay_spanner(ps).sq_weights for ps in sets]
    monkeypatch.setattr(euclid, "_in_circle", in_circle_4x4)
    assert got == [delaunay_spanner(ps).sq_weights for ps in sets]


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
