import random

import pytest

from retract.bounds import lp_certificate
from retract.core import (Instance, ResourceError, SubgraphHost,
                          ValidationError, stretch, gen_grid,
                          gen_random_planar, distance_lower_bound)
from retract.oracle import (SearchBudget, brute_force_optimal,
                            check_lp_certificate, enumerate_optimal)

from conftest import make_w4, make_ck
import frozen


def test_cycle_identity():
    inst = make_ck(8)
    ret, rep = brute_force_optimal(inst)
    assert rep.max_stretch == 1
    assert ret.assignment == tuple(range(8))


def test_w4_optimum():
    _, rep = brute_force_optimal(make_w4())
    assert rep.max_stretch == frozen.W4_OPTIMAL


def test_grid3_optimum():
    _, rep = brute_force_optimal(gen_grid(3))
    assert rep.max_stretch == frozen.GRID3_OPTIMAL


def test_grid4_optimum():
    _, rep = brute_force_optimal(gen_grid(4))
    assert rep.max_stretch == frozen.GRID4_OPTIMAL


def test_returned_retraction_realizes_reported_stretch():
    for inst in (make_w4(), gen_grid(3), gen_grid(4)):
        ret, rep = brute_force_optimal(inst)
        assert stretch(inst, ret).max_stretch == rep.max_stretch


def test_budget_enforced():
    inst = gen_grid(5)  # 9 free vertices
    with pytest.raises(ResourceError):
        brute_force_optimal(inst, budget=SearchBudget(max_free_vertices=4))


def test_distance_bound_never_exceeds_optimum():
    for inst in (make_w4(), gen_grid(3), gen_grid(4), make_ck(7)):
        _, rep = brute_force_optimal(inst)
        assert distance_lower_bound(inst) <= rep.max_stretch


def _random_small_instance(rng):
    """Random connected instance with a C_k anchor cycle and a few free vertices."""
    k = rng.randint(3, 6)
    extra = rng.randint(1, 4)
    n = k + extra
    edges = {(i, (i + 1) % k) for i in range(k)}
    for v in range(k, n):
        others = list(range(v))
        rng.shuffle(others)
        for w in others[:rng.randint(1, 3)]:
            edges.add((min(v, w), max(v, w)))
    return Instance(n, sorted(edges), tuple(range(k)))


def test_pruning_agrees_with_full_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        inst = _random_small_instance(rng)
        _, rep = brute_force_optimal(inst)
        _, full = enumerate_optimal(inst)
        assert rep.max_stretch == full


def test_tree_host():
    # host is a path subtree of C6 plus a star; guest includes extra vertices
    inst_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 0), (6, 3)]
    host = SubgraphHost((0, 1, 2, 3), [(0, 1), (1, 2), (2, 3)])
    class G:
        n = 7
        edges = tuple(inst_edges)
    ret, rep = brute_force_optimal(G, host=host)
    assert all(ret.assignment[a] == a for a in host.anchors)
    assert rep.max_stretch >= 1


def _lp_certified():
    """(instance, l0, certificate) from the LP bound on a few instances."""
    insts = [make_w4(), gen_grid(4), gen_grid(5)]
    insts += [gen_random_planar(nf, k, 31 * k + nf)
              for k in (6, 9, 12) for nf in (3, 6)]
    out = []
    for inst in insts:
        _, l0, cert = lp_certificate(inst)
        if l0 is not None:
            out.append((inst, l0, cert))
    return out


def test_lp_checker_rejects_mutations():
    cases = _lp_certified()
    assert len(cases) >= 6
    non_edges = 0
    for inst, l0, cert in cases:
        assert check_lp_certificate(inst, l0, cert) != 0
        for i, (cyc, coef) in enumerate(cert):
            dropped = cert[:i] + cert[i + 1:]
            with pytest.raises(ValidationError):
                check_lp_certificate(inst, l0, dropped)
            changed = cert[:i] + [(cyc, coef * 2)] + cert[i + 1:]
            with pytest.raises(ValidationError, match="carries"):
                check_lp_certificate(inst, l0, changed)
            long = cert[:i] + [(inst.anchors, coef)] + cert[i + 1:]
            with pytest.raises(ValidationError, match="length"):
                check_lp_certificate(inst, l0, long)
            # swap the first vertex for one off the cycle and not adjacent
            # to the second, so the cycle steps along a non-edge
            far = next((z for z in range(inst.n) if z not in cyc
                        and z not in inst.neighbors(cyc[1])), None)
            if far is not None:
                bad = cert[:i] + [((far,) + tuple(cyc[1:]), coef)] \
                    + cert[i + 1:]
                with pytest.raises(ValidationError, match="not an edge"):
                    check_lp_certificate(inst, l0, bad)
                non_edges += 1
    assert non_edges
