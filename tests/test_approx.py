"""Grid-embedding approximation: contraction property of the embedding,
hole emptiness and size, projection validity, and the per-edge stretch bound."""

import math
import random
from fractions import Fraction

import pytest

from retract.approx import (Hole, approx_retract, find_largest_hole,
                            grid_embed, project_to_cycle, _boundary_point)
from retract.core import (Instance, check_retraction, cycle_dist,
                          distance_lower_bound, gen_column_deleted_grid,
                          gen_grid, gen_random_planar, stretch)

from conftest import (boundary_param, fraction_grid_embed,
                      fraction_largest_hole, fraction_project_to_cycle,
                      fraction_view, random_planar_family)


def random_cycle_instance(n, k, rng, extra=2.0):
    """C_k on vertices 0..k-1 plus n-k free vertices with random attachments."""
    edges = {(i, (i + 1) % k) if i < (i + 1) % k else ((i + 1) % k, i)
             for i in range(k)}
    for v in range(k, n):
        # attach to at least one earlier vertex to keep it connected
        d = 1 + rng.randrange(max(1, int(extra)))
        for u in rng.sample(range(v), min(d, v)):
            edges.add((u, v))
    return Instance(n, sorted(edges), tuple(range(k)))


def dinf(p, q):
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def test_boundary_param_roundtrip():
    side = Fraction(7, 2)
    for num in range(0, 4 * 7):
        s = Fraction(num, 2)
        p = _boundary_point(side, s)
        assert boundary_param(side, p) == s % (4 * side)


@pytest.mark.parametrize("inst", [gen_grid(3), gen_grid(4), gen_grid(5),
                                  gen_column_deleted_grid(5)])
def test_embed_is_contractive(inst):
    emb = fraction_view(grid_embed(inst))
    ell = distance_lower_bound(inst)
    assert emb.side == Fraction(inst.k, 4)
    # anchors sit at unit arc spacing
    for i, a in enumerate(inst.anchors):
        assert emb.placement[a] == _boundary_point(emb.side, Fraction(i))
    # every placement is inside M and every edge is short in L-inf
    for x, y in emb.placement:
        assert 0 <= x <= emb.side and 0 <= y <= emb.side
    for u, v in inst.edges:
        assert dinf(emb.placement[u], emb.placement[v]) <= ell


def test_embed_contractive_all_pairs_small():
    inst = gen_grid(3)
    emb = fraction_view(grid_embed(inst))
    ell = distance_lower_bound(inst)
    for u in range(inst.n):
        du = inst.distances_from(u)
        for v in range(u + 1, inst.n):
            assert dinf(emb.placement[u], emb.placement[v]) <= ell * du[v]


@pytest.mark.parametrize("inst", [gen_grid(3), gen_grid(5),
                                  gen_column_deleted_grid(8)])
def test_hole_is_empty_centered_and_large(inst):
    emb = grid_embed(inst)
    hole = find_largest_hole(emb, inst.k)
    k, n = inst.k, inst.n
    view = fraction_view(emb)
    half = view.side / 2
    cx, cy = hole.center
    assert abs(cx - half) <= Fraction(k, 16)
    assert abs(cy - half) <= Fraction(k, 16)
    assert hole.half_side > 0
    for p in view.placement:
        assert dinf(p, hole.center) >= hole.half_side
    # averaging guarantee: partition the center box (side k/8) into m*m cells
    # with m*m > n; an empty cell certifies half_side >= (k/16)/m
    m = math.isqrt(n) + 1
    assert hole.half_side >= Fraction(k, 16 * m)


def test_projection_is_a_retraction():
    inst = gen_grid(4)
    emb = grid_embed(inst)
    hole = find_largest_hole(emb, inst.k)
    ret = project_to_cycle(emb, hole, inst)
    check_retraction(inst, ret)


@pytest.mark.parametrize("inst", [gen_grid(3), gen_grid(4), gen_grid(5),
                                  gen_grid(6), gen_column_deleted_grid(5),
                                  gen_column_deleted_grid(8)])
def test_per_edge_projection_bound(inst):
    """d_H(f(u), f(v)) <= 1 + 10*sqrt(2)*(k/r)*d_inf(g(u), g(v)) per edge,
    with r the full hole side. Compared exactly on squares."""
    emb = grid_embed(inst)
    hole = find_largest_hole(emb, inst.k)
    ret = project_to_cycle(emb, hole, inst)
    k = inst.k
    r = 2 * hole.half_side
    placement = fraction_view(emb).placement
    idx = inst.anchor_index
    for u, v in inst.edges:
        dh = cycle_dist(k, idx(ret.image(u)), idx(ret.image(v)))
        if dh <= 1:
            continue
        d = dinf(placement[u], placement[v])
        # (dh-1)*r <= 10*sqrt(2)*k*d  <=>  ((dh-1)*r)^2 <= 200*k^2*d^2
        assert ((dh - 1) * r) ** 2 <= 200 * k * k * d * d


def test_approx_never_exceeds_half_k():
    rng = random.Random(7)
    for trial in range(15):
        k = rng.randrange(4, 13)
        n = k + rng.randrange(0, 12)
        inst = random_cycle_instance(n, k, rng)
        ret, rep = approx_retract(inst)
        check_retraction(inst, ret)
        assert rep.max_stretch <= k // 2
        assert rep == stretch(inst, ret)


def test_approx_sqrt_bound_on_grids():
    """stretch <= 1 + 80*sqrt(2)*sqrt(n)*ell, compared exactly on squares."""
    for inst in (gen_grid(3), gen_grid(4), gen_grid(5), gen_grid(6),
                 gen_column_deleted_grid(5), gen_column_deleted_grid(8)):
        _, rep = approx_retract(inst)
        s = rep.max_stretch
        ell = distance_lower_bound(inst)
        if s <= 1:
            continue
        # s - 1 <= 80*sqrt(2)*sqrt(n)*ell  <=>  (s-1)^2 <= 12800*n*ell^2
        assert (s - 1) ** 2 <= 12800 * inst.n * ell * ell


def test_column_grid_approx_is_order_m():
    """On the column-deleted grid the embedding route cannot beat ~m/4:
    this is the hard family separating the approximation from the optimum."""
    for m in (5, 8):
        inst = gen_column_deleted_grid(m)
        _, rep = approx_retract(inst)
        assert rep.max_stretch * 4 >= m


def _hole_cases():
    """The planar ladder (22 instances) and 200 seeded random planar
    instances."""
    insts = [gen_grid(m) for m in (3, 4, 5, 6)]
    insts += [gen_column_deleted_grid(m) for m in (5, 6, 7, 8)]
    insts += [gen_random_planar(nf, k, 100 * k + nf)
              for k in (6, 8, 10, 12, 14, 16, 20) for nf in (4, 8)]
    rng = random.Random(2024)
    insts += [gen_random_planar(rng.randint(0, 12), rng.randint(4, 16),
                                rng.randrange(1 << 31)) for _ in range(200)]
    return insts


def test_integer_embedding_matches_fraction_reference():
    """Placement, hole and projection on the one integer scale equal the
    Fraction references, on the hole cases, criterion 5's 100 instances and
    two instances placed on scales above 2^26."""
    insts = _hole_cases()
    insts += [gen_grid(m) for m in (3, 4, 5, 6, 7)]
    insts += [gen_column_deleted_grid(m) for m in (5, 6, 7)]
    insts += random_planar_family(92, 20, 24, 500)
    insts += [gen_grid(12), gen_random_planar(200, 20, 5)]
    for inst in insts:
        emb = grid_embed(inst)
        ref = fraction_grid_embed(inst)
        assert fraction_view(emb) == ref
        hole = find_largest_hole(emb, inst.k)
        want = fraction_largest_hole(ref, inst.k)
        assert hole == want
        assert all(isinstance(c, Fraction)
                   for c in hole.center + (hole.half_side,))
        assert project_to_cycle(emb, hole, inst).assignment == \
            fraction_project_to_cycle(ref, want, inst).assignment
        # a center off the embedding's grid is projected on a finer one
        off = Hole((want.center[0] + Fraction(1, 3 * emb.scale),
                    want.center[1]), want.half_side)
        assert project_to_cycle(emb, off, inst).assignment == \
            fraction_project_to_cycle(ref, off, inst).assignment
    # grid 12 keeps a scale above 2^26; the drawn one is placed on 4q 2^200
    # (200 non-anchor vertices) before its scale shrinks to 2^3
    assert grid_embed(insts[-2]).scale > 1 << 26
