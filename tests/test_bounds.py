import random
from fractions import Fraction

import pytest

from retract import oracle, planar
from retract.bounds import (EdgeAssignment, _horton_candidates,
                            distance_stretch_lower_bound,
                            lp_certificate, lp_feasible,
                            lp_stretch_lower_bound, retraction_coloring,
                            segment_coloring, separation_oracle,
                            sperner_certificate)
from retract.core import (Instance, ValidationError, gen_column_deleted_grid,
                          gen_grid, gen_random_planar)

import frozen
from conftest import (horton_reference, lp_certificate_reference,
                      lp_feasible_reference, make_ck, make_w4)


# --- distance bound ---------------------------------------------------------

@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_distance_bound_on_grids(m):
    assert distance_stretch_lower_bound(gen_grid(m)) == frozen.GRID_DISTANCE_LB_INT


def test_distance_bound_cycle_is_one():
    assert distance_stretch_lower_bound(make_ck(8)) == 1


# --- Sperner ----------------------------------------------------------------

def test_segment_coloring_sizes():
    for k in (8, 12, 16, 20):
        seg = segment_coloring(k)
        sizes = [seg.count(c) for c in (0, 1, 2)]
        assert sizes[0] == sizes[1] == k // 3
        assert sum(sizes) == k
        # contiguous
        assert list(seg) == sorted(seg)


def test_sperner_uniform_interior_m3():
    grid = gen_grid(3)
    seg = segment_coloring(grid.k)
    coloring = [0] * grid.n
    for i, a in enumerate(grid.anchors):
        coloring[a] = seg[i]
    coloring[4] = 0  # single interior vertex
    tri = sperner_certificate(3, coloring)
    assert len(tri) == 3
    assert {coloring[v] for v in tri} == {0, 1, 2}


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_sperner_random_interiors(m):
    grid = gen_grid(m)
    seg = segment_coloring(grid.k)
    rng = random.Random(1000 + m)
    base = [None] * grid.n
    for i, a in enumerate(grid.anchors):
        base[a] = seg[i]
    interior = [v for v in range(grid.n) if base[v] is None]
    for _ in range(25):
        coloring = list(base)
        for v in interior:
            coloring[v] = rng.randrange(3)
        tri = sperner_certificate(m, coloring)
        assert {coloring[v] for v in tri} == {0, 1, 2}
        # the triangle is one of the triangulation's faces
        r, c = min(tri) // m, min(tri) % m
        assert set(tri) in ({r * m + c, r * m + c + 1, (r + 1) * m + c + 1},
                            {r * m + c, (r + 1) * m + c, (r + 1) * m + c + 1})


def test_sperner_rejects_bad_boundary():
    grid = gen_grid(4)
    coloring = [0] * grid.n
    with pytest.raises(ValidationError):
        sperner_certificate(4, coloring)
    # alternating colors: runs too short
    coloring = [v % 3 for v in range(grid.n)]
    with pytest.raises(ValidationError):
        sperner_certificate(4, coloring)


def test_retraction_coloring_matches_segments():
    grid = gen_grid(4)
    ret, _ = planar.optimal_retract_planar(grid)
    coloring = retraction_coloring(grid, ret)
    seg = segment_coloring(grid.k)
    for i, a in enumerate(grid.anchors):
        assert coloring[a] == seg[i]
    tri = sperner_certificate(4, coloring)
    assert {coloring[v] for v in tri} == {0, 1, 2}


# --- edge assignments and the separation oracle ------------------------------

def test_edge_assignment_antisymmetry_and_host():
    w4 = make_w4()
    x = EdgeAssignment(w4, {(0, 4): Fraction(1, 2)})
    assert x.directed(0, 4) == Fraction(1, 2)
    assert x.directed(4, 0) == Fraction(-1, 2)
    assert x.directed(0, 1) == 1
    assert x.directed(1, 0) == -1
    assert x.directed(3, 0) == 1  # closing host edge, anchor order
    with pytest.raises(ValidationError):
        EdgeAssignment(w4, {(0, 1): Fraction(1)})  # host edge is not free


def test_separation_oracle_w4_zero_spokes():
    w4 = make_w4()
    x = EdgeAssignment(w4)  # all spokes 0
    cyc = separation_oracle(w4, x, 4)
    assert cyc is not None
    assert len(cyc.vertices) == 3
    assert abs(cyc.total) == 1
    assert 4 in cyc.vertices  # must pass through the hub
    # at l=3 no cycle is short enough
    assert separation_oracle(w4, x, 3) is None


def test_separation_oracle_cycle_identity():
    ck = make_ck(10)
    x = EdgeAssignment(ck)
    assert separation_oracle(ck, x, 10) is None


def _all_short_directed_cycle_violations(inst, x, l):
    """Exhaustive check: any simple directed cycle with < l edges and
    nonzero sum?"""
    adj = [sorted(inst.neighbors(v)) for v in range(inst.n)]
    found = []

    def extend(path, seen):
        v = path[-1]
        for w in adj[v]:
            if w == path[0] and len(path) >= 2:
                total = sum(x.directed(path[i], path[(i + 1) % len(path)])
                            for i in range(len(path)))
                if total != 0 and len(path) < l:
                    found.append(tuple(path))
            elif w > path[0] and w not in seen and len(path) < l - 1:
                seen.add(w)
                path.append(w)
                extend(path, seen)
                path.pop()
                seen.discard(w)

    for s in range(inst.n):
        extend([s], {s})
    return found


def test_separation_oracle_vs_exhaustive():
    rng = random.Random(7)
    insts = [make_w4(), make_ck(6), gen_grid(3)]
    for inst in insts:
        host = inst.host_edges()
        free = [e for e in inst.edges if e not in host]
        for trial in range(6):
            vals = {e: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                    for e in free}
            x = EdgeAssignment(inst, vals)
            for l in range(3, inst.k + 1):
                cyc = separation_oracle(inst, x, l)
                exhaustive = _all_short_directed_cycle_violations(inst, x, l)
                if cyc is None:
                    assert not exhaustive
                else:
                    assert exhaustive
                    assert len(cyc.vertices) < l
                    assert cyc.total != 0
                    total = sum(
                        x.directed(cyc.vertices[i],
                                   cyc.vertices[(i + 1) % len(cyc.vertices)])
                        for i in range(len(cyc.vertices)))
                    assert total == cyc.total


# --- the cycle LP -----------------------------------------------------------

def test_lp_w4_frozen():
    w4 = make_w4()
    ok3, x3 = lp_feasible(w4, 3)
    assert ok3 is frozen.W4_LP3_FEASIBLE
    ok4, cert = lp_feasible(w4, 4)
    assert ok4 is frozen.W4_LP4_FEASIBLE
    assert oracle.check_lp_certificate(w4, 4, cert)
    assert all(len(cyc) == 3 for cyc, _ in cert)
    # the four triangle equalities clash with the host sum of 4
    assert len({tuple(sorted(cyc)) for cyc, _ in cert}) == 4


def test_lp_cycle_always_feasible():
    for k in (4, 7, 12):
        ck = make_ck(k)
        ok, x = lp_feasible(ck, k)
        assert ok
        assert separation_oracle(ck, x, k) is None


def test_lp_feasible_returns_satisfying_assignment():
    grid = gen_grid(3)
    ok, x = lp_feasible(grid, 4)
    assert ok
    assert separation_oracle(grid, x, 4) is None


def test_lp_monotone_in_l():
    for inst in (make_w4(), gen_grid(3), gen_grid(4)):
        feas = [lp_feasible(inst, l)[0] for l in range(2, inst.k + 1)]
        # True prefix then False suffix
        assert feas == sorted(feas, reverse=True)


def test_lp_lower_bound_frozen():
    assert lp_stretch_lower_bound(make_w4()) == frozen.W4_LP_LOWER_BOUND
    assert lp_stretch_lower_bound(gen_grid(5)) == frozen.GRID5_LP_LOWER_BOUND


def test_lp_lower_bound_sound_vs_oracle():
    rng = random.Random(99)
    for trial in range(8):
        inst = _random_small(rng)
        lb = lp_stretch_lower_bound(inst)
        best = oracle.brute_force_optimal(inst)
        assert best is not None
        assert lb <= best[1].max_stretch


def _ladder_instance(key):
    family, params = key.split(":")
    if family == "grid":
        return gen_grid(int(params))
    if family == "colgrid":
        return gen_column_deleted_grid(int(params))
    k, nf = map(int, params.split(","))
    return gen_random_planar(nf, k, 100 * k + nf)


@pytest.mark.parametrize("key", sorted(frozen.LADDER_LP))
def test_lp_certificate_ladder_frozen(key):
    inst = _ladder_instance(key)
    bound, l0, cert = lp_certificate(inst)
    assert (bound, l0) == frozen.LADDER_LP[key]
    assert oracle.check_lp_certificate(inst, l0, cert)


def test_lp_threshold_exact_on_random_planar():
    # l0 is the least infeasible l: the certificate proves l0 infeasible
    # and separation_oracle accepts the solution at l0 - 1
    rng = random.Random(4242)
    for _ in range(200):
        k, nf = rng.randrange(3, 11), rng.randrange(1, 7)
        inst = gen_random_planar(nf, k, rng.randrange(1 << 30))
        bound, l0, cert = lp_certificate(inst)
        if l0 is None:
            assert bound == 1 and lp_feasible(inst, k)[0]
            continue
        assert oracle.check_lp_certificate(inst, l0, cert)
        ok, x = lp_feasible(inst, l0 - 1)
        assert ok and separation_oracle(inst, x, l0 - 1) is None
        assert bound == 1 + max(s for s in range(1, k + 1)
                                if -(-k // s) >= l0)


def test_lp_sound_for_retractions():
    # any stretch-s retraction certifies feasibility at ceil(k/s)
    for inst in (gen_grid(3), gen_grid(4), make_w4()):
        ret, rep = planar.optimal_retract_planar(inst)
        s = max(1, rep.max_stretch)
        l = -(-inst.k // s)
        assert lp_feasible(inst, l)[0]


# (k, free vertices) of the benchmark's drawn random planar instances
DRAWN_RP = tuple((k, nf) for k in (6, 8, 10) for nf in (4, 8, 12))


def _differential_set(name):
    """The ladder with grid 7, the 310 random planar instances of the
    planar tests, or 200 drawn like the benchmark's random instances."""
    if name == "ladder":
        return ([_ladder_instance(key) for key in sorted(frozen.LADDER_LP)]
                + [gen_grid(7)])
    if name == "random":
        return [gen_random_planar(nf, k, 1000 * k + nf)
                for k in range(3, 13) for nf in range(31)]
    rng = random.Random(2020)
    return [gen_random_planar(nf, k, rng.randrange(1 << 31))
            for k, nf in (rng.choice(DRAWN_RP) for _ in range(200))]


@pytest.mark.parametrize("name,count", [("ladder", 23), ("random", 310),
                                        ("drawn", 200)])
def test_lp_matches_tree_path_reference(name, count):
    # the bitmask candidates and the integer-first elimination give the
    # tree-path walk's candidates in its order, and the all-Fraction
    # elimination's bound, l0, certificate and feasible assignments
    insts = _differential_set(name)
    assert len(insts) == count
    for inst in insts:
        k = inst.k
        assert list(_horton_candidates(inst, k)) == horton_reference(inst, k)
        got = lp_certificate(inst)
        assert got == lp_certificate_reference(inst), inst
        if got[1] is not None:
            assert all(type(c) is Fraction for _, c in got[2])
            assert oracle.check_lp_certificate(inst, got[1], got[2])
        for l in range(2, k + 1):
            ok, res = lp_feasible(inst, l)
            ref_ok, ref = lp_feasible_reference(inst, l)
            assert ok is ref_ok, (inst, l)
            if ok:
                assert res.values == ref
            else:
                assert res == ref
                assert all(type(c) is Fraction for _, c in res)


@pytest.mark.parametrize("l", [2.5, "3", 1, 0, True, None])
def test_lp_feasible_rejects_bad_l(l, monkeypatch):
    # rejected before the candidates are generated or eliminated
    def no_call(*args):
        raise AssertionError("elimination ran")
    monkeypatch.setattr("retract.bounds._span_elimination", no_call)
    with pytest.raises(ValidationError):
        lp_feasible(make_w4(), l)


def _random_small(rng):
    k = rng.choice([4, 5, 6, 8])
    extra = rng.randint(1, 3)
    n = k + extra
    edges = [(i, (i + 1) % k) for i in range(k)]
    for v in range(k, n):
        deg = rng.randint(2, 3)
        for u in rng.sample(range(v), min(deg, v)):
            edges.append((u, v))
    try:
        return Instance(n=n, edges=edges, anchors=tuple(range(k)))
    except ValidationError:
        return _random_small(rng)
