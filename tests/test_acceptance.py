"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION n PASS/FAIL line (directly to the real
stdout so it survives pytest capture) and enforces its stated time budget.
Criteria 1-5 register every solver-produced retraction for the LP soundness
sweep in criterion 6.
"""

import random
import sys
import time
from fractions import Fraction
from math import ceil

import pytest

from retract import approx, bounds, oracle, planar, treewidth
from retract.core import (Instance, Retraction, SubgraphHost,
                          distance_lower_bound, gen_column_deleted_grid,
                          gen_grid, stretch, subdivide)

from conftest import cycle_score, part_embeddings, random_planar_family

# (instance, max_stretch) for every solver-produced retraction in criteria 1-5
_SOLVED = []
# (instance, optimum) pairs from criterion 1, reused by criteria 6 and 9
_C1_INSTANCES = []


def _w4():
    return Instance(5, [(0, 1), (1, 2), (2, 3), (0, 3),
                        (0, 4), (1, 4), (2, 4), (3, 4)], (0, 1, 2, 3))


def _ck(k):
    return Instance(k, [(i, (i + 1) % k) for i in range(k)], tuple(range(k)))


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num, ok, detail):
    line = "CRITERION %d %s: %s\n" % (num, "PASS" if ok else "FAIL", detail)
    with _CAPSYS.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()
    assert ok, line


def _budget(num, t0, limit_s):
    took = time.monotonic() - t0
    assert took < limit_s, "criterion %d exceeded %ds budget (%.1fs)" % (
        num, limit_s, took)
    return took


def test_criterion_1_planar_exactness():
    t0 = time.monotonic()
    insts = [gen_grid(3), gen_grid(4)] + random_planar_family(50, 10, 8, 11)
    for inst in insts:
        ret, rep = planar.optimal_retract_planar(inst)
        _, orep = oracle.brute_force_optimal(inst)
        assert rep.max_stretch == orep.max_stretch, \
            "planar %d != oracle %d" % (rep.max_stretch, orep.max_stretch)
        assert stretch(inst, ret).max_stretch == rep.max_stretch
        _SOLVED.append((inst, rep.max_stretch))
        _C1_INSTANCES.append((inst, rep.max_stretch))
    took = _budget(1, t0, 300)
    _report(1, True, "planar == oracle on %d instances (%.1fs)"
            % (len(insts), took))


def test_criterion_2_distance_bound():
    t0 = time.monotonic()
    vals = {m: bounds.distance_stretch_lower_bound(gen_grid(m))
            for m in (3, 4, 5, 8)}
    ok = all(v == 2 for v in vals.values())
    _budget(2, t0, 300)
    _report(2, ok, "distance bound on grids = %s (expected all 2)" % vals)


def test_criterion_3_sperner():
    t0 = time.monotonic()
    checked = 0
    for m in (3, 4, 5, 6):
        grid = gen_grid(m)
        rets = [approx.approx_retract(grid)[0],
                planar.optimal_retract_planar(grid)[0]]
        if m <= 4:
            rets.append(oracle.brute_force_optimal(grid)[0])
        if m == 3:
            rets.append(treewidth.optimal_retract_tw(grid)[0])
        for ret in rets:
            coloring = bounds.retraction_coloring(grid, ret)
            tri = bounds.sperner_certificate(m, coloring)
            assert {coloring[v] for v in tri} == {0, 1, 2}
            checked += 1
            _SOLVED.append((grid, stretch(grid, ret).max_stretch))
    _, rep4 = oracle.brute_force_optimal(gen_grid(4))
    assert rep4.max_stretch >= 3
    took = _budget(3, t0, 60)
    _report(3, True, "%d colorings certified; grid4 oracle = %d >= 3 (%.1fs)"
            % (checked, rep4.max_stretch, took))


def test_criterion_4_column_deleted_gap():
    t0 = time.monotonic()
    details = []
    for m in (5, 8):
        inst = gen_column_deleted_grid(m)
        _, prep = planar.optimal_retract_planar(inst)
        assert prep.max_stretch == 2, "colgrid%d planar = %d" % (
            m, prep.max_stretch)
        _, arep = approx.approx_retract(inst)
        assert 4 * arep.max_stretch >= m, "colgrid%d approx %d < m/4" % (
            m, arep.max_stretch)
        _SOLVED.append((inst, prep.max_stretch))
        _SOLVED.append((inst, arep.max_stretch))
        details.append("m=%d planar=2 approx=%d" % (m, arep.max_stretch))
    took = _budget(4, t0, 120)
    _report(4, True, "; ".join(details) + " (%.1fs)" % took)


def test_criterion_5_approx_guarantee():
    t0 = time.monotonic()
    insts = [gen_grid(m) for m in (3, 4, 5, 6, 7)]
    insts += [gen_column_deleted_grid(m) for m in (5, 6, 7)]
    insts += random_planar_family(92, 20, 24, 500)
    assert len(insts) == 100
    for inst in insts:
        assert inst.n <= 100 and inst.k <= 24
        _, rep = approx.approx_retract(inst)
        s = rep.max_stretch
        assert s <= inst.k // 2
        ell = distance_lower_bound(inst)
        # s <= 1 + 80*sqrt(2)*sqrt(n)*ell  <=>  (s-1)^2 <= 12800*n*ell^2
        assert Fraction((s - 1) ** 2) <= 12800 * inst.n * ell * ell, \
            "growth bound violated: s=%d n=%d ell=%s" % (s, inst.n, ell)
        _SOLVED.append((inst, s))
    took = _budget(5, t0, 300)
    _report(5, True, "approx bounds held on 100 instances (%.1fs)" % took)


def test_criterion_6_lp_soundness():
    t0 = time.monotonic()
    assert _SOLVED, "criteria 1-5 must run first"
    seen = set()
    for inst, s in _SOLVED:
        key = (inst.edges, inst.anchors, max(1, s))
        if key in seen:
            continue
        seen.add(key)
        l = ceil(Fraction(inst.k, max(1, s)))
        feasible, _ = bounds.lp_feasible(inst, l)
        assert feasible, "LP infeasible at l=%d despite stretch %d" % (l, s)
    lb_checked = 0
    for inst, s in _C1_INSTANCES:
        lb = bounds.lp_stretch_lower_bound(inst)
        assert lb <= s, "LP bound %d exceeds optimum %d" % (lb, s)
        lb_checked += 1
    feasible, cert = bounds.lp_feasible(_w4(), 4)
    assert not feasible
    assert oracle.check_lp_certificate(_w4(), 4, cert)
    took = _budget(6, t0, 300)
    _report(6, True, "%d retractions LP-certified, %d lower bounds <= "
                     "optimum; W4 infeasible at l=4 with %d short cycles "
                     "(%.1fs)" % (len(seen), lb_checked, len(cert), took))


def _random_host_case(rng):
    """A small connected guest with a random connected host subgraph."""
    n = rng.randint(5, 9)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    tree_host = rng.random() < 0.4
    anchors = {rng.randrange(n)}
    hedges = set()
    size = rng.randint(2, n - 1)
    while len(anchors) < size:
        grow = [e for e in edges if (e[0] in anchors) != (e[1] in anchors)]
        if not grow:
            break
        e = rng.choice(grow)
        anchors.update(e)
        hedges.add(e)
    if not tree_host:
        # close the host into a cyclic subgraph: add anchor-anchor edges to
        # both the guest and the host
        alist = sorted(anchors)
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(alist, 2) if len(alist) >= 2 else (None, None)
            if u is not None:
                e = (min(u, v), max(u, v))
                if e not in edges:
                    edges.append(e)
                hedges.add(e)
        edges = sorted(edges)
    holder = type("Guest", (), {"n": n, "edges": tuple(edges)})()
    return holder, SubgraphHost(sorted(anchors), hedges)


def test_criterion_7_treewidth_exactness():
    t0 = time.monotonic()
    rng = random.Random(777)
    done = trees = 0
    while done < 30:
        g, host = _random_host_case(rng)
        if host.k < 2:
            continue
        ret, rep = treewidth.optimal_retract_tw(g, host)
        _, want = oracle.brute_force_optimal(g, host)
        assert rep.max_stretch == want.max_stretch
        assert treewidth.host_stretch(g, host, ret).max_stretch == \
            rep.max_stretch
        if len(host.edges) == host.k - 1:
            trees += 1
        done += 1
    assert trees >= 5, "want at least 5 tree hosts, got %d" % trees
    took = _budget(7, t0, 180)
    _report(7, True, "treewidth == oracle on 30 instances "
                     "(%d tree hosts) (%.1fs)" % (trees, took))


def test_criterion_8_euclid():
    t0 = time.monotonic()
    from retract.euclid import euclid_retract, gen_random_points
    worst = Fraction(0)
    for i in range(20):
        k = 10 + i % 5
        n_int = i % 9
        ps = gen_random_points(n_int, k, 9000 + i)
        res = euclid_retract(ps)
        for a in ps.anchor_indices:
            assert res.assignment[a] == a, "anchor %d moved" % a
        nk2 = Fraction(len(ps.points) * k, 2)
        assert res.ratio_sq <= nk2 * nk2, "ratio exceeds nk/2"
        _, opt_sq = oracle.brute_force_min_ratio(ps)
        factor_sq = res.ratio_sq / opt_sq
        assert factor_sq <= 200 * 200, "ratio vs brute force exceeds 200"
        worst = max(worst, factor_sq)
    took = _budget(8, t0, 600)
    _report(8, True, "20 point sets; worst factor %.2f <= 200 (%.1fs)"
            % (float(worst) ** 0.5, took))


def test_criterion_9_structural_invariants():
    t0 = time.monotonic()
    # stretch-1 instances: plain cycles and subdivisions at the known optimum
    stretch1_insts = [_ck(k) for k in range(4, 13)]
    for base, l in ((gen_grid(3), 3), (gen_grid(3), 4), (gen_grid(4), 3),
                    (gen_column_deleted_grid(5), 2), (_w4(), 2)):
        stretch1_insts.append(subdivide(base, l)[0])
    for inst, s in _C1_INSTANCES:
        if len(stretch1_insts) >= 24:
            break
        if s > 1:
            stretch1_insts.append(subdivide(inst, s)[0])
    assert len(stretch1_insts) >= 20

    # (a) curve-derived retractions have stretch <= 1
    # (c) winding identity: host scores k, consistently oriented faces sum to 0
    curve_checked = score_checked = 0
    for inst in stretch1_insts:
        for part, emb in part_embeddings(inst):
            ret = None
            for f in range(len(emb.faces)):
                if f == emb.outer_face or len(emb.faces[f]) < part.k:
                    continue
                sg = planar.triangulate_for_face(emb, f)
                curves = planar.max_disjoint_paths(sg, sg.s, sg.t)
                if len(curves.paths) < part.k:
                    continue
                full = planar.retraction_from_curves(sg.embedding, curves)
                ret = Retraction(full.assignment[:part.n])
                assert stretch(part, ret).max_stretch <= 1
                curve_checked += 1
                break
            if ret is None:
                continue
            assert cycle_score(emb, part.anchors, ret) == part.k
            scores = [cycle_score(emb, emb.faces[f], ret)
                      for f in range(len(emb.faces))]
            assert sum(scores) == 0
            assert abs(scores[emb.outer_face]) == part.k
            score_checked += 1
    assert curve_checked >= 20 and score_checked >= 20

    # (b) Menger: max disjoint paths == min surrounding cycle, 30 faces
    menger = 0
    for inst in (gen_grid(3), gen_grid(4), _w4(), subdivide(_w4(), 2)[0],
                 subdivide(_ck(4), 2)[0], subdivide(_ck(6), 2)[0],
                 subdivide(gen_grid(3), 2)[0],
                 subdivide(gen_grid(3), 3)[0]):
        for _, emb in part_embeddings(inst):
            for f in range(len(emb.faces)):
                if f == emb.outer_face or menger >= 30:
                    continue
                sg = planar.triangulate_for_face(emb, f)
                got = len(planar.max_disjoint_paths(sg, sg.s, sg.t).paths)
                assert got == oracle.enumerate_min_surrounding_cycle(
                    emb, f, cap=20)
                menger += 1
    assert menger >= 30

    # (d) subdivision duality: smallest feasible l equals the optimum
    dual = 0
    for inst, s in _C1_INSTANCES[:15]:
        assert planar.stretch1_retract(subdivide(inst, s)[0]) is not None
        if s > 1:
            assert planar.stretch1_retract(subdivide(inst, s - 1)[0]) is None
        dual += 1
    took = _budget(9, t0, 300)
    _report(9, True, "curves on %d, winding on %d, Menger on %d faces, "
                     "duality on %d instances (%.1fs)"
            % (curve_checked, score_checked, menger, dual, took))
