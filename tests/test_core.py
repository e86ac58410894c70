import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from retract.core import (Instance, Retraction, SubgraphHost,
                          ValidationError, cycle_dist, stretch,
                          distance_lower_bound, subdivide, gen_grid,
                          gen_column_deleted_grid, parse_instance,
                          serialize_instance, host_from_cycle,
                          gen_random_planar)
from retract.euclid import gen_random_points

from conftest import (all_pairs_distance_ratio, euclid_instance, make_w4,
                      make_ck)
import frozen


# --- cycle metric ---

@pytest.mark.parametrize("k,i,j,expect", frozen.CYCLE_DIST_CASES)
def test_cycle_distance_cases(k, i, j, expect):
    assert cycle_dist(k, i, j) == expect


def test_cycle_distance_is_a_metric():
    for k in range(3, 13):
        for i in range(k):
            for j in range(k):
                d = cycle_dist(k, i, j)
                assert d >= 0
                assert d == cycle_dist(k, j, i)
                assert (d == 0) == (i == j)
                for h in range(k):
                    assert d <= cycle_dist(k, i, h) + cycle_dist(k, h, j)


# --- instance validation ---

def test_anchors_must_form_cycle():
    with pytest.raises(ValidationError):
        Instance(4, [(0, 1), (1, 2), (2, 3)], (0, 1, 2, 3))


def test_duplicate_edge_rejected():
    with pytest.raises(ValidationError):
        Instance(3, [(0, 1), (1, 0), (1, 2), (2, 0)], (0, 1, 2))


def test_disconnected_guest_rejected():
    with pytest.raises(ValidationError):
        Instance(5, [(0, 1), (1, 2), (2, 0)], (0, 1, 2))


def test_huge_vertex_count_rejected_before_allocation():
    # fewer than n - 1 edges cannot connect n vertices; the check must come
    # before any per-vertex table, so a child capped at 1 GiB of address
    # space rejects n = 10**12 instead of running out of memory
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from retract.core import Instance, ValidationError\n"
            "try:\n"
            "    Instance(10 ** 12, [(0, 1), (1, 2), (0, 2)], (0, 1, 2))\n"
            "except ValidationError as exc:\n"
            "    print(exc)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "guest graph is disconnected", out.stderr


@pytest.mark.parametrize("edges,anchors", [
    ([(False, True), (True, 2), (False, 2)], [False, True, 2]),  # bools
    ([(0, 1.0), (1, 2), (0, 2)], [0, 1, 2]),                  # float end
    ([(0, 1), (1, 2), (0, 2)], [0, 1.0, 2]),                  # float anchor
    ([(0, "1"), (1, 2), (0, 2)], [0, 1, 2]),                  # str end
    ([(0, 1), (1, 2), (0, 2)], [0, 1, "2"]),                  # str anchor
    ([(0, 1), (1, 2), (0, 2)], [[0], 1, 2]),                  # list anchor
    ([(0, 1), (1, 2), (0, 2)], [0, {1: 1}, 2]),               # dict anchor
])
def test_vertex_ids_must_be_ints(edges, anchors):
    # such ids would not survive serialize -> parse; the same ids as ints do
    with pytest.raises(ValidationError):
        Instance(3, edges, anchors)
    inst = Instance(3, [tuple(map(_as_int, e)) for e in edges],
                    list(map(_as_int, anchors)))
    assert parse_instance(serialize_instance(inst)) == inst


def _as_int(x):
    """The int that id x stands for: a list or dict by its one item."""
    return int(next(iter(x)) if isinstance(x, (list, dict)) else x)


def test_bool_vertex_count_rejected():
    with pytest.raises(ValidationError, match="vertex count"):
        Instance(True, [], [0, 1, 2])


@pytest.mark.parametrize("points", [
    [(None, 0)] * 3,                # not a number
    5,                              # not a list
    [("a", 0)] * 3,                 # not a numeral
    [(0,)] * 3,                     # one coordinate
    [(0, 0, 0)] * 3,                # three coordinates
    [1, 2, 3],                      # no coordinates
    [(float("nan"), 0)] * 3,        # nan
    [(float("inf"), 0)] * 3,        # infinite
    [(0, 0)] * 2,                   # one point short
    [("1/2", 0)] * 3,               # a numeral string
    [(" 3 ", 0)] * 3,               # a padded numeral string
    [(True, 0)] * 3,                # a bool
    [(Decimal("0.1"), 0)] * 3,      # a Decimal
])
def test_malformed_points_rejected(points):
    with pytest.raises(ValidationError, match="points"):
        Instance(3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2], points=points)


# --- stretch ---

def test_identity_stretch_on_cycles():
    for k in range(3, 10):
        inst = make_ck(k)
        rep = stretch(inst, Retraction(tuple(range(k))))
        assert rep.max_stretch == 1


def test_w4_hub_to_anchor0():
    inst = make_w4()
    rep = stretch(inst, Retraction((0, 1, 2, 3, 0)))
    assert rep.max_stretch == 2  # edge (hub, anchor 2)


def test_moved_anchor_rejected():
    inst = make_ck(4)
    with pytest.raises(ValidationError):
        stretch(inst, Retraction((1, 1, 2, 3)))


def test_anchor_edge_floor():
    # an anchor-anchor edge forces stretch >= its cycle distance
    k = 8
    edges = [(i, (i + 1) % k) for i in range(k)] + [(0, 3)]
    inst = Instance(k, edges, tuple(range(k)))
    rep = stretch(inst, Retraction(tuple(range(k))))
    assert rep.max_stretch >= cycle_dist(k, 0, 3) == 3


# --- distance lower bound ---

@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_grid_distance_bound(m):
    assert distance_lower_bound(gen_grid(m)) == frozen.GRID_DISTANCE_LB_EXACT[m]


def test_cycle_distance_bound_is_one():
    assert distance_lower_bound(make_ck(9)) == 1


def test_w4_distance_bound():
    assert distance_lower_bound(make_w4()) == 1


def _chords_and_pendants(seed):
    """Seeded guest, usually non-planar: C_k, free vertices on a random
    tree hung off H, random chords and cross edges, and pendant trees."""
    rng = random.Random(seed)
    k = rng.randint(3, 14)
    n = k + rng.randint(0, 10)
    edges = {(i, (i + 1) % k) for i in range(k)}
    for v in range(k, n):
        edges.add((rng.randrange(v), v))
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges.add((u, v))
    for _ in range(rng.randint(0, 4)):
        root = rng.randrange(n)
        for _ in range(rng.randint(1, 3)):
            edges.add((root, n))
            root, n = n, n + 1
    return Instance(n, sorted(edges), tuple(range(k)))


def _euclid_host(n_int, k, seed):
    return euclid_instance(gen_random_points(n_int, k, seed))


def test_distance_bound_equals_all_pairs_reference():
    insts = [gen(m) for gen in (gen_grid, gen_column_deleted_grid)
             for m in range(3, 9)]
    insts += [gen_random_planar(seed % 11, 3 + seed % 14, seed)
              for seed in range(200)]
    insts += [_chords_and_pendants(seed) for seed in range(200)]
    for base in insts[::8]:
        insts += [subdivide(base, 2)[0], subdivide(base, 3)[0]]
    insts += [_euclid_host(0, 10, 9000), _euclid_host(1, 10, 9010)]
    for inst in insts:
        assert distance_lower_bound(inst) == all_pairs_distance_ratio(inst), inst


# --- subdivision ---

def test_subdivide_w4():
    sub, back = subdivide(make_w4(), 2)
    assert sub.n == frozen.W4_SUBDIV2[0]
    assert len(sub.edges) == frozen.W4_SUBDIV2[1]
    assert back[:5] == (0, 1, 2, 3, 4)
    assert all(b is None for b in back[5:])


def test_subdivide_identity():
    inst = gen_grid(3)
    sub, _ = subdivide(inst, 1)
    assert sub == inst


def test_subdivide_grid3():
    sub, _ = subdivide(gen_grid(3), 3)
    assert sub.n == frozen.GRID3_SUBDIV3_VERTICES


# --- generators ---

@pytest.mark.parametrize("m", [3, 4, 5])
def test_grid_counts(m):
    inst = gen_grid(m)
    n, k, e = frozen.GRID_COUNTS[m]
    assert (inst.n, inst.k, len(inst.edges)) == (n, k, e)


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_colgrid_counts(m):
    inst = gen_column_deleted_grid(m)
    assert len(inst.edges) == frozen.COLGRID_EDGE_COUNTS[m]
    assert inst.k == 4 * (m - 1)


def test_grid_m_too_small():
    with pytest.raises(ValidationError):
        gen_grid(2)


# --- serialization ---

def test_round_trip():
    inst = gen_grid(3)
    assert parse_instance(serialize_instance(inst)) == inst


def test_round_trip_points():
    inst = Instance(3, [(0, 1), (1, 2), (2, 0)], (0, 1, 2),
                    points=[(Fraction(1, 2), Fraction(0)),
                            (Fraction(1), Fraction(1, 3)),
                            (1.5, 2)])
    assert inst.points[2] == (Fraction(3, 2), Fraction(2))
    assert all(type(c) is Fraction for p in inst.points for c in p)
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_rejects_bad_cycle():
    with pytest.raises(ValidationError):
        parse_instance('{"n":4,"edges":[[0,1],[1,2],[2,3]],"anchors":[0,1,2,3]}')


def test_serialization_deterministic():
    a = serialize_instance(gen_grid(4))
    b = serialize_instance(gen_grid(4))
    assert a == b


# --- SubgraphHost ---

def test_cycle_host_metric_matches_cycle_distance():
    inst = make_ck(8)
    host = host_from_cycle(inst)
    for i in range(8):
        for j in range(8):
            assert host.dist(i, j) == cycle_dist(8, i, j)


@pytest.mark.parametrize("anchors,edges", [
    ([0, [1]], [(0, 1)]),                 # list anchor
    ([0, 1], [(0, 1, 2)]),                # three-vertex edge
    ([0, 1], [(0, "1")]),                 # str end
    ([0, 1.0], [(0, 1)]),                 # float anchor
])
def test_host_ids_must_be_ints(anchors, edges):
    with pytest.raises(ValidationError, match="host"):
        SubgraphHost(anchors, edges)


@given(st.integers(min_value=3, max_value=12), st.data())
def test_subdivide_keeps_host_edges(k, data):
    inst = make_ck(k)
    l = data.draw(st.integers(min_value=1, max_value=4))
    sub, _ = subdivide(inst, l)
    assert sub == inst  # every edge of C_k is a host edge
