import random
import sys
from pathlib import Path

import pytest

from retract import cli, oracle, planar, treewidth
from retract.core import (Instance, ResourceError, SubgraphHost,
                          ValidationError, gen_column_deleted_grid, gen_grid,
                          gen_random_planar, host_from_cycle)
from retract.treewidth import (NiceTreeDecomposition, _make_nice,
                               _raw_decompose, _spliced_decomposition,
                               _start_bound, _stretch1_graph, _subdivided,
                               host_stretch, optimal_retract_tw, stretch1_tw,
                               tree_decompose)

import frozen
from conftest import make_ck, make_w4, networkx_min_fill_reference
from test_acceptance import _random_host_case

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _check_decomposition(decomp, n, edges):
    nodes = decomp.nodes
    # children precede parents; bags are sorted tuples
    for i, nd in enumerate(nodes):
        assert all(c < i for c in nd.children)
        assert list(nd.bag) == sorted(nd.bag)
        if nd.kind == "leaf":
            assert nd.bag == () and not nd.children
        elif nd.kind == "join":
            a, b = nd.children
            assert nodes[a].bag == nd.bag == nodes[b].bag
        elif nd.kind == "introduce":
            (c,) = nd.children
            assert set(nd.bag) == set(nodes[c].bag) | {nd.vertex}
        else:
            (c,) = nd.children
            assert set(nd.bag) == set(nodes[c].bag) - {nd.vertex}
    assert nodes[decomp.root].bag == ()
    # vertex coverage and subtree connectivity
    where = [set() for _ in range(n)]
    for i, nd in enumerate(nodes):
        for v in nd.bag:
            where[v].add(i)
    assert all(where[v] for v in range(n))
    parent = [None] * len(nodes)
    for i, nd in enumerate(nodes):
        for c in nd.children:
            parent[c] = i
    for v in range(n):
        # bags containing v must form a connected subtree: all but one have
        # their parent in the set
        roots = [i for i in where[v]
                 if parent[i] is None or parent[i] not in where[v]]
        assert len(roots) == 1
    # edge coverage
    for u, v in edges:
        assert any(u in nd.bag and v in nd.bag for nd in nodes)


def test_decompose_path_width_one():
    p5 = Instance(n=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
                  anchors=(0, 1, 2, 3, 4))
    # a bare path is not a valid Instance; build the graph directly
    bags, adj = _raw_decompose(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    d = _make_nice(bags, adj)
    assert d.width == 1
    _check_decomposition(d, 5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def test_decompose_cycle_width_two():
    c8 = make_ck(8)
    d = tree_decompose(c8)
    assert d.width == 2
    _check_decomposition(d, c8.n, c8.edges)


def test_decompose_grid4_width():
    g = gen_grid(4)
    d = tree_decompose(g)
    assert d.width <= 8
    _check_decomposition(d, g.n, g.edges)


def test_stretch1_identity_on_cycle():
    c8 = make_ck(8)
    ret = stretch1_tw(c8, host_from_cycle(c8))
    assert ret is not None
    assert ret.assignment == tuple(range(8))


def test_stretch1_none_on_w4():
    w4 = make_w4()
    assert stretch1_tw(w4, host_from_cycle(w4)) is None


def test_optimal_w4():
    w4 = make_w4()
    ret, rep = optimal_retract_tw(w4)
    assert rep.max_stretch == frozen.W4_OPTIMAL


def test_optimal_grid3_matches_planar_and_oracle():
    g = gen_grid(3)
    ret, rep = optimal_retract_tw(g)
    _, prep = planar.optimal_retract_planar(g)
    _, orep = oracle.brute_force_optimal(g)
    assert rep.max_stretch == prep.max_stretch == orep.max_stretch \
           == frozen.GRID3_OPTIMAL


def test_path_host_on_c8():
    # host = 3-edge path 0-1-2-3; the rest of C8 is guest
    c8 = make_ck(8)
    host = SubgraphHost((0, 1, 2, 3), [(0, 1), (1, 2), (2, 3)])
    ret, rep = optimal_retract_tw(c8, host)
    _, orep = oracle.brute_force_optimal(c8, host)
    assert rep.max_stretch == orep.max_stretch
    host_stretch(c8, host, ret)  # validates anchor fixing / image


def test_star_host_always_solvable():
    # hub 4 adjacent to all anchors of W4; host = the spanning star
    w4 = make_w4()
    host = SubgraphHost((0, 1, 2, 3, 4),
                        [(0, 4), (1, 4), (2, 4), (3, 4)])
    ret, rep = optimal_retract_tw(w4, host)
    _, orep = oracle.brute_force_optimal(w4, host)
    assert rep.max_stretch == orep.max_stretch <= host.diameter()


def _random_host_instance(rng):
    """Small connected graph plus a random connected subgraph host."""
    n = rng.randint(5, 9)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    extra = rng.randint(0, n)
    while extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
            extra -= 1
    edges = sorted(edges)
    # grow a connected host from a random seed vertex
    size = rng.randint(2, max(2, n - 2))
    anchors = {rng.randrange(n)}
    hedges = set()
    frontier = [e for e in edges if (e[0] in anchors) != (e[1] in anchors)]
    while len(anchors) < size and frontier:
        e = rng.choice(frontier)
        anchors.update(e)
        hedges.add(e)
        frontier = [e for e in edges
                    if (e[0] in anchors) != (e[1] in anchors)]
    # optionally close host cycles with induced edges
    for e in edges:
        if e[0] in anchors and e[1] in anchors and rng.random() < 0.3:
            hedges.add(e)
    holder = type("G", (), {"n": n, "edges": tuple(edges)})()
    return holder, SubgraphHost(sorted(anchors), hedges)


def _spliced_optimum(g, host):
    """(l, assignment) for the least l at which g with every non-host edge
    subdivided into l edges has a stretch-1 retraction, decided on the
    spliced decomposition (the reference route), or None."""
    bb, ba = _raw_decompose(g.n, g.edges)
    for l in range(1, max(1, host.diameter()) + 1):
        n_l, edges_l, chains = _subdivided(g, host, l)
        bags, adj = _spliced_decomposition(bb, ba, chains)
        asg = _stretch1_graph(n_l, edges_l, host, _make_nice(bags, adj))
        if asg is not None:
            return l, asg
    return None


def test_random_hosts_match_oracle():
    rng = random.Random(4242)
    done = 0
    while done < 30:
        g, host = _random_host_instance(rng)
        if len(host.anchors) < 2:
            continue
        best = oracle.brute_force_optimal(g, host)
        spliced = _spliced_optimum(g, host)
        assert (spliced is None) == (best is None)
        if spliced is not None:
            found, asg = spliced
            # achieved stretch on the original graph
            s = max(host.dist(asg[u], asg[v]) for u, v in g.edges)
            assert s == best[1].max_stretch == found or \
                   (found == 1 and s == 0 == best[1].max_stretch)
        done += 1


def _differential_cases():
    """300 seeded random hosts, cycle hosts of small grids, and the
    criterion-7 cases."""
    rng = random.Random(1111)
    cases = []
    while len(cases) < 300:
        g, host = _random_host_instance(rng)
        if len(host.anchors) >= 2:
            cases.append((g, host))
    for inst in (gen_grid(3), gen_grid(4), gen_column_deleted_grid(5),
                 gen_column_deleted_grid(6)):
        cases.append((inst, host_from_cycle(inst)))
    rng = random.Random(777)
    drawn = 0
    while drawn < 30:
        g, host = _random_host_case(rng)
        if host.k >= 2:
            cases.append((g, host))
            drawn += 1
    return cases


def test_direct_dp_matches_spliced_route():
    for g, host in _differential_cases():
        l, _ = _spliced_optimum(g, host)
        ret, rep = optimal_retract_tw(g, host)
        assert rep.max_stretch == l
        assert host_stretch(g, host, ret).max_stretch == l
        assert _start_bound(g.n, g.edges, host) <= l


def test_anchor_order_invariance():
    c8 = make_ck(8)
    host_fwd = SubgraphHost((0, 1, 2, 3), [(0, 1), (1, 2), (2, 3)])
    host_rev = SubgraphHost((3, 2, 1, 0), [(2, 3), (1, 2), (0, 1)])
    _, rep_f = optimal_retract_tw(c8, host_fwd)
    _, rep_r = optimal_retract_tw(c8, host_rev)
    assert rep_f.max_stretch == rep_r.max_stretch


def test_spliced_width_bound():
    g = gen_grid(3)
    host = host_from_cycle(g)
    bb, ba = _raw_decompose(g.n, g.edges)
    base_width = max(len(b) for b in bb) - 1
    for l in (2, 3, 5):
        n_l, edges_l, chains = _subdivided(g, host, l)
        bags, adj = _spliced_decomposition(bb, ba, chains)
        d = _make_nice(bags, adj)
        assert d.width == max(base_width, 2)
        _check_decomposition(d, n_l, edges_l)


def test_host_stretch_validation():
    c8 = make_ck(8)
    host = host_from_cycle(c8)
    from retract.core import Retraction
    with pytest.raises(ValidationError):
        host_stretch(c8, host, Retraction(tuple([0] * 8)))  # moves anchors


def _complete(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _min_fill_set(name):
    """(n, edges) graphs on which the min-fill port is checked against
    networkx: grids 3-8, column-deleted grids 5-10 and the benchmark's
    treewidth grids; 300 of the benchmark's random host guests; 200 random
    planar instances; or graphs that end in the abort branch at once or hang
    bags on the first bag (a single vertex, isolated vertices, K4, K5, a
    disconnected graph)."""
    if name == "grids":
        families = ([("grid", m) for m in range(3, 9)]
                    + [("colgrid", m) for m in range(5, 11)]
                    + list(workloads.TW_GRIDS))
        return [(g.n, g.edges) for g in
                (workloads._family(*f) for f in families)]
    if name == "hosts":
        rng = random.Random(5)
        return [workloads._random_host_case(rng)[:2] for _ in range(300)]
    if name == "planar":
        rng = random.Random(7)
        insts = [gen_random_planar(rng.randrange(16), rng.randrange(3, 13),
                                   rng.randrange(1 << 30)) for _ in range(200)]
        return [(g.n, g.edges) for g in insts]
    return [(1, []), (4, []), (6, [(1, 4)]), (4, _complete(4)),
            (5, _complete(5)),
            (9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3),
                 (3, 5)])]


@pytest.mark.parametrize("name,count", [("grids", 16), ("hosts", 300),
                                        ("planar", 200), ("edge", 6)])
def test_min_fill_matches_networkx_reference(name, count):
    graphs = _min_fill_set(name)
    assert len(graphs) == count
    for n, edges in graphs:
        assert _raw_decompose(n, edges) == networkx_min_fill_reference(n, edges)


def test_tw_answers_match_networkx_decomposition(monkeypatch):
    rng = random.Random(5)
    cases = [workloads.host_case(workloads._random_host_case(rng))
             for _ in range(300)]
    ours = [(tree_decompose(g).width, optimal_retract_tw(g, host))
            for g, host in cases]
    monkeypatch.setattr(treewidth, "_raw_decompose",
                        networkx_min_fill_reference)
    for (g, host), (width, (ret, rep)) in zip(cases, ours):
        assert tree_decompose(g).width == width
        ref_ret, ref_rep = optimal_retract_tw(g, host)
        assert ret.assignment == ref_ret.assignment
        assert rep.max_stretch == ref_rep.max_stretch


def test_table_cap_raises_resource_error(tmp_path, monkeypatch):
    # the DP work counter peaks at 63 on grid 3 and at 917 on grid 4
    monkeypatch.setattr(treewidth, "_TABLE_CAP", 100)
    assert optimal_retract_tw(gen_grid(3))[1].max_stretch == 3
    with pytest.raises(ResourceError):
        optimal_retract_tw(gen_grid(4))
    inst, out = tmp_path / "inst.json", tmp_path / "ret.json"
    assert cli.run(["gen", "grid", "--m", "4", "-o", str(inst)]) == 0
    assert cli.run(["solve", "--algo", "treewidth", "-i", str(inst),
                    "-o", str(out)]) == 3
    assert not out.exists()
