"""Planar exact solver: reduction, embedding, triangulation, disjoint paths,
curve regions, the stretch-1 decision, the optimizer, and cycle scores."""

import os
import random
import subprocess
import sys
from math import ceil
from pathlib import Path

import networkx as nx
import pytest

from retract import euclid, planar
from retract.core import (Instance, Retraction, ValidationError,
                          _normalize_edge, cycle_dist,
                          gen_column_deleted_grid, gen_grid, gen_random_planar,
                          stretch, subdivide)
from retract.oracle import brute_force_optimal, enumerate_min_surrounding_cycle
from retract.planar import (NotPlanarError, PlaneEmbedding,
                            max_disjoint_paths, optimal_retract_planar,
                            optimal_retract_weighted, plane_embed,
                            reduce_two_connected, retraction_from_curves,
                            stretch1_retract, triangulate_for_face)

from conftest import (BENCH_SETS, all_pairs_distance_ratio, as_retraction,
                      chain_images, chain_piece, cycle_score, enclosed_faces,
                      euclid_instance, expand_cycle, full_cover, full_stretch1,
                      host_forward, lift, make_ck, make_w4,
                      nx_reduce_two_connected, nx_rotation, part_embeddings,
                      part_optimum, pieces, plane_parts_reference,
                      rotation_faces, unit_graph, unit_route_reference)
from frozen import (COLGRID_OPTIMAL, GRID3_OPTIMAL, GRID4_OPTIMAL,
                    GRID4_CENTER_FACE_MIN_CYCLE, W4_OPTIMAL)

ROOT = Path(__file__).resolve().parent.parent


def cycle_with_pendant():
    # C6 plus a 2-vertex path hanging off anchor 0
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (6, 7)]
    return Instance(8, edges, tuple(range(6)))


def test_reduce_collapses_pendant():
    inst = cycle_with_pendant()
    red, rmap = reduce_two_connected(inst)
    assert red.n == 6 and len(red.edges) == 6
    lifted = lift(rmap, Retraction(tuple(range(6))))
    assert lifted.assignment[6] == 0 and lifted.assignment[7] == 0
    assert stretch(inst, lifted).max_stretch == 1


def test_reduce_identity_on_grid():
    inst = gen_grid(3)
    red, rmap = reduce_two_connected(inst)
    assert red.n == inst.n and red.edges == inst.edges
    assert red is inst
    assert rmap == planar.ReduceMap(inst.n, tuple(range(inst.n)), {})
    ret, rep = brute_force_optimal(red)
    assert stretch(inst, lift(rmap, ret)).max_stretch == rep.max_stretch


def test_reduce_two_grids_sharing_cut_vertex():
    # gen_grid(3) with a second 2x2 grid glued at vertex 8 (a corner anchor)
    base = gen_grid(3)
    edges = list(base.edges) + [(8, 9), (8, 10), (9, 11), (10, 11)]
    inst = Instance(12, edges, base.anchors)
    red, rmap = reduce_two_connected(inst)
    assert red.n == 9
    ret, rep = brute_force_optimal(red)
    lifted = lift(rmap, ret)
    assert stretch(inst, lifted).max_stretch == rep.max_stretch
    assert lifted.assignment[9] == lifted.assignment[8]


def _euclid_instance(k, n_interior, seed):
    """The unit instance whose answers `euclid_retract` reproduces."""
    return euclid_instance(euclid.gen_random_points(n_interior, k, seed))


def _hanging_cases():
    """Hand-built instances with parts hanging off the block of H."""
    w4 = list(make_w4().edges)              # hub 4 is not an anchor
    c6 = [(i, (i + 1) % 6) for i in range(6)]
    return [
        # a pendant tree on anchor 2
        Instance(10, c6 + [(2, 6), (6, 7), (6, 8), (8, 9)], range(6)),
        # a triangle glued at the hub
        Instance(7, w4 + [(4, 5), (5, 6), (6, 4)], range(4)),
        # a triangle glued at the hub, carrying its own pendant path
        Instance(9, w4 + [(4, 5), (5, 6), (6, 4), (5, 7), (7, 8)], range(4)),
        # two triangles sharing one cut vertex, the hub, then anchor 0
        Instance(9, w4 + [(4, 5), (5, 6), (6, 4), (4, 7), (7, 8), (8, 4)],
                 range(4)),
        Instance(10, c6 + [(0, 6), (6, 7), (7, 0), (0, 8), (8, 9), (9, 0)],
                 range(6)),
    ]


# (k, interior points, generator seed) of the benchmark's Euclidean sets
EUCLID_SETS = ((10, 0, 9000), (11, 0, 0), (12, 0, 0), (13, 0, 9018),
               (14, 0, 9009), (10, 1, 9010), (10, 1, 9100), (10, 1, 9102),
               (10, 2, 9101))


def test_lowpoint_reduce_matches_networkx_reference():
    insts = _ladder() + [gen_grid(7)]
    insts += [gen_random_planar(nf, k, 1000 * k + nf)
              for k in range(3, 13) for nf in range(31)]
    insts += [_euclid_instance(*s) for s in EUCLID_SETS]
    insts += _hanging_cases()
    hanging = 0
    for inst in insts:
        red, rmap = reduce_two_connected(inst)
        ref, ref_map = nx_reduce_two_connected(inst)
        assert red == ref and rmap == ref_map, inst
        assert (red is inst) == (not ref_map.gateway)
        hanging += bool(ref_map.gateway)
    assert len(insts) == 22 + 1 + 310 + 9 + 5
    assert hanging >= 250
    gateways = [reduce_two_connected(inst)[1].gateway
                for inst in _hanging_cases()]
    assert gateways[2] == {5: 4, 6: 4, 7: 4, 8: 4}
    assert gateways[3] == {v: 4 for v in range(5, 9)}


def test_reduce_pendant_path_needs_no_recursion():
    # a 20,000-vertex path hung off anchor 3 of C6 is a DFS branch 20,000 deep
    m = 20000
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(3, 6)]
    edges += [(v, v + 1) for v in range(6, 5 + m)]
    inst = Instance(6 + m, edges, range(6))
    red, rmap = reduce_two_connected(inst)
    assert red == make_ck(6)
    lifted = lift(rmap, Retraction(tuple(range(6))))
    assert lifted.assignment[6:] == (3,) * m


def test_plane_embed_counts():
    emb = plane_embed(gen_grid(3))
    assert len(emb.faces) == 5            # 9 - 12 + F = 2
    assert emb.face_edge_sets[emb.outer_face] == gen_grid(3).host_edges()
    emb = plane_embed(make_ck(8))
    assert len(emb.faces) == 2


def test_plane_embed_rejects_nonplanar():
    # K5 with a hamiltonian anchor triangle is nonplanar
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    inst = Instance(5, edges, (0, 1, 2))
    red, _ = reduce_two_connected(inst)
    with pytest.raises(NotPlanarError):
        plane_embed(red)


def c8_with_two_hubs():
    # C8 plus a hub on anchors 0,1,4 and a second hub on anchors 2,6,7:
    # G - V(H) has two components, one part each (they cannot sit on the
    # same side of H, so no embedding of the whole has H as a face)
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(0, 8), (1, 8), (4, 8), (2, 9), (6, 9), (7, 9)]
    return Instance(10, edges, tuple(range(8)))


def c8_with_chains():
    # C8 plus the chord (1, 5), the path 0-8-9-4, a hub 10 on anchors 2 and
    # 6, and a hub 11 on anchors 3, 5 and 7: three chains and one part
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(1, 5)]
    edges += [(0, 8), (8, 9), (9, 4), (2, 10), (6, 10)]
    edges += [(3, 11), (5, 11), (7, 11)]
    return Instance(12, edges, tuple(range(8)))


def test_plane_embed_decomposes():
    inst = c8_with_two_hubs()
    parts, chains = plane_parts_reference(inst)
    assert len(parts) == 2 and chains == []
    for sub, old_of_new in parts:
        assert sub.k == 8 and sub.n == 9
        assert old_of_new[:8] == inst.anchors
        assert plane_parts_reference(sub) == ([(sub, tuple(range(9)))], [])
    with pytest.raises(ValidationError):
        plane_embed(inst)
    # no stretch-1 map exists (a hub sees anchors 4 apart); the optimizer
    # still solves the decomposed instance and matches the oracle
    assert stretch1_retract(inst) is None
    _, rep = optimal_retract_planar(inst)
    _, want = brute_force_optimal(inst)
    assert rep.max_stretch == want.max_stretch == 2


def test_plane_parts_takes_out_chains():
    inst = c8_with_chains()
    parts, chains = plane_parts_reference(inst)
    assert chains == [(1, 5), (0, 8, 9, 4), (2, 10, 6)]
    assert [old for _, old in parts] == [tuple(range(8)) + (11,)]
    with pytest.raises(ValidationError):
        plane_embed(inst)
    # the chord's optimum 4 = d_H(1, 5) is the largest piece optimum
    ret, rep = optimal_retract_planar(inst)
    _, want = brute_force_optimal(inst)
    assert rep.max_stretch == want.max_stretch == 4
    # chains go min(t*l, d) steps along the increasing arc on a tie
    assert ret.assignment[8:11] == (2, 4, 4)
    # one chain alone is no part: it is decided without an embedding
    assert plane_parts_reference(c8_with_chord()) == ([], [(0, 4)])


def _block_parts(inst):
    """The parts of the block of H in inst (`reduce_two_connected`), as
    `plane_parts_reference` splits it."""
    return [part for part, _ in
            plane_parts_reference(reduce_two_connected(inst)[0])[0]]


def _hang_tree(inst, v, size, rng):
    """inst with a random tree of `size` new vertices hung off vertex v."""
    edges = list(inst.edges)
    tree = [v]
    for x in range(inst.n, inst.n + size):
        edges.append((rng.choice(tree), x))
        tree.append(x)
    return Instance(inst.n + size, edges, inst.anchors)


def _assert_pieces_match_reference(inst):
    """The solve's pass over the pieces (`_pieces`, nothing skipped) splits
    inst as `plane_parts_reference` does, list order included: the same
    chains, and per part the component of its non-anchor vertices, in
    order, with its edges off H. Where the reference keeps the instance
    whole, `_pieces` finds no chain and one component, or none when G = H.
    Returns the reference's chains and the vertices of `_pieces`'
    components."""
    host = inst.host_edges()
    chains, comps = planar._pieces(inst.n, inst.neighbors, inst._anchor_index,
                                   host, ())
    parts, want = plane_parts_reference(inst)
    assert chains == want, inst
    if parts and parts[0][0] is inst:
        parts = [([v for v in range(inst.n) if not inst.is_anchor(v)],
                  [e for e in inst.edges if e not in host])
                 ] if inst.n > inst.k else []
    else:
        k = inst.k
        parts = [(list(old[k:]),
                  sorted(_normalize_edge(old[u], old[v])
                         for u, v in part.edges if max(u, v) >= k))
                 for part, old in parts]
    assert comps == parts, inst
    return want, {v for comp, _ in comps for v in comp}


def test_pieces_matches_plane_parts_reference():
    # `_pieces` splits as the reference's own walk does, on the ladder, grid
    # 7, 310 random instances and the hand-built ones, none of them reduced,
    # and on each again with a tree hung off an anchor, off an inner chain
    # vertex and off a component vertex: every hung tree stays inside a
    # component
    rng = random.Random(25)
    insts = _ladder() + [gen_grid(7)]
    insts += [gen_random_planar(nf, k, 1000 * k + nf)
              for k in range(3, 13) for nf in range(31)]
    insts += [c8_with_two_hubs(), c8_with_chains(), c8_with_chord()]
    hung = {"anchor": 0, "chain": 0, "component": 0}
    for inst in insts:
        chains, _ = _assert_pieces_match_reference(inst)
        inner = [v for chain in chains for v in chain[1:-1]]
        sites = {"anchor": list(inst.anchors), "chain": inner,
                 "component": [v for v in range(inst.n)
                               if not inst.is_anchor(v) and v not in inner]}
        for where, vertices in sites.items():
            if not vertices:
                continue
            tree = _hang_tree(inst, rng.choice(vertices), rng.randint(1, 4),
                              rng)
            _, kept = _assert_pieces_match_reference(tree)
            assert kept.issuperset(range(inst.n, tree.n)), (inst, where)
            hung[where] += 1
    assert hung["anchor"] == len(insts)
    assert hung["chain"] >= 200 and hung["component"] >= 300, hung


def _assert_plane_map(emb):
    """The face walks of emb take each direction of each edge of
    emb.graph_edges exactly once, and n - |E| + |F| = 2."""
    walked = [(walk[i], walk[(i + 1) % len(walk)])
              for walk in emb.faces for i in range(len(walk))]
    directed = {(u, v) for e in emb.graph_edges for u, v in (e, e[::-1])}
    assert len(walked) == len(set(walked)) and set(walked) == directed
    assert emb.n - len(emb.graph_edges) + len(emb.faces) == 2


def test_triangulate_preserves_distances():
    inst = gen_grid(3)
    emb = plane_embed(inst)
    face = next(f for f in range(5) if f != emb.outer_face)
    sg = triangulate_for_face(emb, face)
    _assert_plane_map(sg.embedding)
    assert sg.n_original == 9
    before = {v: inst.distances_from(v) for v in range(9)}
    tri = Instance(sg.embedding.n, sg.embedding.graph_edges,
                   inst.anchors)
    for u in range(9):
        after = tri.distances_from(u)
        for v in range(9):
            assert after[v] == before[u][v]
    # all faces but F and outer are triangles
    for fid, walk in enumerate(sg.embedding.faces):
        if fid not in (sg.face, sg.embedding.outer_face):
            assert len(walk) == 3


def test_triangulate_hexagon_recursion():
    inst = make_ck(6)
    emb = plane_embed(inst)
    # triangulating with F = the bounded face leaves nothing to do (only two
    # faces exist), so use a hexagon hanging inside a larger cycle instead:
    # C6 outer anchors + inner hexagon joined by a matching (a prism)
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    edges += [(i, 6 + i) for i in range(6)]
    prism = Instance(12, edges, tuple(range(6)))
    emb = plane_embed(prism)
    face = next(f for f in range(len(emb.faces))
                if f != emb.outer_face and len(emb.faces[f]) == 6)
    sg = triangulate_for_face(emb, face)
    _assert_plane_map(sg.embedding)
    before = {v: prism.distances_from(v) for v in range(12)}
    tri = Instance(sg.embedding.n, sg.embedding.graph_edges, prism.anchors)
    for u in range(12):
        after = tri.distances_from(u)
        for v in range(12):
            assert after[v] == before[u][v]


def test_max_disjoint_paths_degenerate_cycle():
    inst = make_ck(6)
    emb = plane_embed(inst)
    face = 1 - emb.outer_face
    sg = triangulate_for_face(emb, face)
    curves = max_disjoint_paths(sg, sg.s, sg.t)
    assert len(curves.paths) == 6
    assert all(len(p) == 1 for p in curves.paths)


def test_max_disjoint_paths_grid4_center():
    inst = gen_grid(4)
    emb = plane_embed(inst)
    # the center unit face is the one avoiding all anchors
    aset = set(inst.anchors)
    face = next(f for f in range(len(emb.faces))
                if f != emb.outer_face and not (set(emb.faces[f]) & aset))
    sg = triangulate_for_face(emb, face)
    curves = max_disjoint_paths(sg, sg.s, sg.t)
    assert len(curves.paths) == GRID4_CENTER_FACE_MIN_CYCLE == 4
    assert enumerate_min_surrounding_cycle(emb, face) == 4


def test_disjoint_paths_match_min_surrounding_cycle():
    # Menger cross-check on each bounded face of small instances
    for inst in (gen_grid(3), make_w4(), subdivide(make_ck(4), 2)[0]):
        emb = plane_embed(inst)
        for f in range(len(emb.faces)):
            if f == emb.outer_face:
                continue
            sg = triangulate_for_face(emb, f)
            _assert_plane_map(sg.embedding)
            got = len(max_disjoint_paths(sg, sg.s, sg.t).paths)
            assert got == enumerate_min_surrounding_cycle(emb, f)


def test_retraction_from_curves_interior_path():
    # C8 plus a chord-free interior path between anchors 0 and 1
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 8), (8, 9), (9, 1)]
    inst = Instance(10, edges, tuple(range(8)))
    emb = plane_embed(inst)
    face = max((f for f in range(len(emb.faces)) if f != emb.outer_face),
               key=lambda f: len(emb.faces[f]))
    sg = triangulate_for_face(emb, face)
    curves = max_disjoint_paths(sg, sg.s, sg.t)
    assert len(curves.paths) == 8
    ret = Retraction(retraction_from_curves(sg.embedding, curves)
                     .assignment[:inst.n])
    assert stretch(inst, ret).max_stretch <= 1
    assert ret.assignment[8] in (0, 1) and ret.assignment[9] in (0, 1)
    # the solver's own map may send the path elsewhere, within stretch 1
    assert stretch(inst, stretch1_retract(inst)).max_stretch <= 1


def test_stretch1_identity_on_cycle():
    inst = make_ck(5)
    ret = stretch1_retract(inst)
    assert ret.assignment == tuple(range(5))


def c8_with_chord():
    # C8 plus the chord (0, 4): its faces have length 5, both below k
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)]
    return Instance(8, edges, tuple(range(8)))


@pytest.mark.parametrize("inst", [make_w4(), gen_grid(3), c8_with_chord()])
def test_stretch1_none_and_short_surrounding_cycles(inst):
    assert stretch1_retract(inst) is None
    # contrapositive of the score bound: every bounded face is surrounded by
    # a cycle shorter than k
    red, _ = reduce_two_connected(inst)
    emb = plane_embed(red)
    for f in range(len(emb.faces)):
        if f != emb.outer_face:
            assert enumerate_min_surrounding_cycle(emb, f) < inst.k


def test_stretch1_monotone_in_subdivision():
    inst = gen_grid(3)
    results = {}
    for l in (2, 3, 4):
        sub, _ = subdivide(inst, l)
        results[l] = stretch1_retract(sub)
    assert results[2] is None          # optimum is 3
    assert results[3] is not None
    assert results[4] is not None


def test_optimal_chord():
    _, rep = optimal_retract_planar(c8_with_chord())
    assert rep.max_stretch == 4


@pytest.mark.parametrize("inst,want", [
    (gen_grid(3), GRID3_OPTIMAL),
    (gen_grid(4), GRID4_OPTIMAL),
    (make_w4(), W4_OPTIMAL),
    (gen_column_deleted_grid(5), COLGRID_OPTIMAL),
])
def test_optimal_known_values(inst, want):
    ret, rep = optimal_retract_planar(inst)
    assert rep.max_stretch == want
    assert stretch(inst, ret).max_stretch == want


def test_optimal_agrees_with_oracle_on_pendant_graph():
    inst = cycle_with_pendant()
    _, rep = optimal_retract_planar(inst)
    _, want = brute_force_optimal(inst)
    assert rep.max_stretch == want.max_stretch


def _web(k, rings, rng):
    """The anchor cycle 0..k-1 inside `rings` concentric k-cycles, joined
    ring to ring by spokes, with a diagonal in about half of the quads: the
    innermost face lies rings + 1 dual crossings from the outer face."""
    vid = lambda j, i: k * j + i % k
    edges = []
    for j in range(rings + 1):
        for i in range(k):
            edges.append((vid(j, i), vid(j, i + 1)))
            if j < rings:
                edges.append((vid(j, i), vid(j + 1, i)))
                x = rng.random()
                if x < 0.25:
                    edges.append((vid(j, i), vid(j + 1, i + 1)))
                elif x < 0.5:
                    edges.append((vid(j, i + 1), vid(j + 1, i)))
    return Instance(k * (rings + 1), edges, tuple(range(k)))


def _face_family():
    """(instance, l, limit): each instance is probed at l = optimum - 1
    and l = optimum; limit, when set, caps the probe at that many faces,
    those with the longest dual paths."""
    rng = random.Random(7)
    insts = [gen_grid(m) for m in (3, 4)]
    insts += [gen_column_deleted_grid(m) for m in (5, 7)]
    insts += [_web(rng.randint(4, 8), rng.randint(3, 6), rng)
              for _ in range(6)]
    # its innermost face is feasible, and the cover needs 5 layers there
    insts.append(_web(9, 6, random.Random(16)))
    insts += [gen_random_planar(rng.randint(3, 16), rng.randint(4, 12),
                                rng.randrange(1 << 30)) for _ in range(8)]
    out = []
    for inst in insts:
        opt = optimal_retract_planar(inst)[1].max_stretch
        out += [(inst, l, None) for l in (opt - 1, opt) if l >= 1]
    # grid 7 at the optimum: only two central faces, 3 crossings deep
    grid7 = gen_grid(7)
    out.append((grid7, optimal_retract_planar(grid7)[1].max_stretch, 2))
    return out


def test_cover_decides_each_face_as_flow_does():
    # per face: the winding cover finds a stretch-1 map exactly when max
    # flow finds k disjoint curves, on every bounded face of every part; the
    # core cover decides the same face, which has the same id in the core
    outcomes = set()
    deepest = 0
    for inst, l, limit in _face_family():
        for part, emb in part_embeddings(subdivide(inst, l)[0]):
            core = planar.plane_core(part)
            faces = [f for f in range(len(emb.faces)) if f != emb.outer_face]
            forward = host_forward(emb)
            crossed = {f: len(planar._dual_crossing_signs(emb, f, forward))
                       // 2 for f in faces}
            faces.sort(key=crossed.get, reverse=True)
            for f in faces[:limit]:
                sg = triangulate_for_face(emb, f)
                flow = len(max_disjoint_paths(sg, sg.s, sg.t).paths) == part.k
                cover = full_cover(part, emb, f)
                assert (cover is not None) == flow, (inst.n, l, f)
                assert as_retraction(
                    part, planar._lipschitz_retract(core, f, 1)) == cover
                outcomes.add(flow)
                deepest = max(deepest, crossed[f])
    assert outcomes == {True, False}
    assert deepest >= 5


def test_core_cover_matches_full_cover_on_every_face():
    # the core cover returns the full-part cover's map, or None with it, on
    # every bounded face at l = 1, 2 and 3, those shorter than k included
    faces = accepted = 0
    for seed in range(200):
        inst = gen_random_planar(1 + seed % 6, 6 + seed % 11, seed)
        for part in _block_parts(inst):
            core = planar.plane_core(part)
            emb = plane_embed(part)
            for f in range(len(emb.faces)):
                if f == emb.outer_face:
                    continue
                for l in (1, 2, 3):
                    ret = as_retraction(
                        part, planar._lipschitz_retract(core, f, l))
                    assert ret == full_cover(part, emb, f, l), (inst, f, l)
                    assert ret is None or stretch(part, ret).max_stretch <= l
                    faces += 1
                    accepted += ret is not None
    assert faces >= 1000 and 0 < accepted < faces


def _ladder():
    """The 22 instances of the planar ladder: grids, column-deleted grids
    and random planar instances with k up to 20."""
    insts = [gen_grid(m) for m in (3, 4, 5, 6)]
    insts += [gen_column_deleted_grid(m) for m in (5, 6, 7, 8)]
    return insts + [gen_random_planar(nf, k, 100 * k + nf)
                    for k in (6, 8, 10, 12, 14, 16, 20) for nf in (4, 8)]


def test_length_l_cover_matches_subdivided_probe():
    # every probe of every part, from l = 1 to the part's optimum: the core
    # cover, with a core edge of L edges of length L on H and L*l off it,
    # accepts exactly when the full unit cover accepts on the explicitly
    # l-subdivided part, and exactly from the part's optimum on; where it
    # accepts, its map has stretch at most l and is the full-part cover's.
    # The solver's answer, by the weighted route, is the unit route's
    insts = _ladder() + [gen_grid(7)]
    insts += [gen_random_planar(nf, k, 1000 * k + nf)
              for k in range(3, 13) for nf in range(31)]
    insts += [euclid_instance(euclid.gen_random_points(n_int, k, seed))
              for k, n_int, seed in BENCH_SETS]
    parts = probes = euclid_parts = 0
    for inst in insts:
        assert optimal_retract_planar(inst) == unit_route_reference(inst), inst
        for part in _block_parts(inst):
            opt = part_optimum(part)[0]
            core = planar.plane_core(part)
            for l in range(1, opt + 1):
                ret = as_retraction(part, planar._stretch1_embedded(core, l))
                sub = subdivide(part, l)[0]
                ref = full_stretch1(sub, plane_embed(sub))
                assert (ret is None) == (ref is None) == (l < opt), (inst, l)
                if ret is not None:
                    assert stretch(part, ret).max_stretch <= l
                    assert full_stretch1(part, plane_embed(part), l) == ret
                probes += 1
            parts += 1
            euclid_parts += len(core.vertices) < part.n // 10
    assert parts >= 600 and probes >= 1000 and euclid_parts >= 7


def test_start_lower_bound_is_the_distance_bound():
    # C_256 plus a hub adjacent to anchors 1 and 129: d_H = 128, d_G = 2
    hub = Instance(257, [(i, (i + 1) % 256) for i in range(256)]
                   + [(1, 256), (129, 256)], tuple(range(256)))
    assert planar._start_lower_bound(hub) == 64
    for inst in [hub] + _ladder():
        assert planar._start_lower_bound(inst) == ceil(
            all_pairs_distance_ratio(inst))


def test_weighted_start_bound_is_the_distance_bound(monkeypatch):
    # the start bound of the solve: on every part of the ladder and of the
    # 310 random instances, all of unit length, the search runs as BFS, which
    # agrees with Dijkstra, and the bound `_weighted_part` hands to the scan
    # is the part's all-pairs distance bound; edges longer than 1 run Dijkstra
    searches = []
    starts = []
    distances, scan = planar._distances, planar._scan

    def traced_distances(adj, lengths, src):
        searches.append(lengths is None)
        return distances(adj, lengths, src)

    def traced_scan(core, start):
        starts.append(start)
        return scan(core, start)

    monkeypatch.setattr(planar, "_distances", traced_distances)
    monkeypatch.setattr(planar, "_scan", traced_scan)
    # C_256 plus a hub on anchors 1 and 129 is a chain, decided at
    # ceil(128 / 2) = 64; a third spoke, to anchor 2, makes the hub a part
    # with the same bound
    spokes = [(i, (i + 1) % 256) for i in range(256)] + [(1, 256), (129, 256)]
    hub = Instance(257, spokes, tuple(range(256)))
    assert optimal_retract_planar(hub)[1].max_stretch == 64 and starts == []
    hub = Instance(257, spokes + [(2, 256)], tuple(range(256)))
    optimal_retract_planar(hub)
    assert starts == [64]
    insts = [hub] + _ladder()
    insts += [gen_random_planar(nf, k, 1000 * k + nf)
              for k in range(3, 13) for nf in range(31)]
    parts = 0
    for inst in insts:
        starts.clear()
        optimal_retract_planar(inst)
        want = []
        for part in _block_parts(inst):
            if part.n == part.k:
                continue        # H alone: no scan, the optimum is 1
            want.append(ceil(all_pairs_distance_ratio(part)))
            adj = [part.neighbors(v) for v in range(part.n)]
            lengths = dict.fromkeys(part.edges, 1)
            for a in part.anchors:
                if len(adj[a]) > 2:
                    assert (distances(adj, None, a)
                            == distances(adj, lengths, a)), inst
        assert starts == want, inst
        parts += len(want)
    assert all(searches) and parts >= 300
    # the same C_256 with lengths: the hub's spokes of length 2 and 3
    lengths = dict.fromkeys(hub.edges, 1)
    lengths.update({(1, 256): 2, (2, 256): 3})
    searches.clear()
    optimal_retract_weighted(257, lengths, list(range(256)))
    assert searches and not any(searches)


def test_core_links_are_oriented_chains():
    # each core edge is one link, whose chain runs from core vertex x to
    # core vertex y; a chain on H steps +1 mod k per edge and is a `forward`
    # edge, one off H is not, and each site (t, v) is the chain's inner
    # vertex t, which in `plane_core`'s ids (the anchors by index, then the
    # other vertices in order) is v
    insts = _ladder() + [gen_grid(7)]
    insts += [gen_random_planar(nf, k, 1000 * k + nf)
              for k in range(3, 13) for nf in range(31)]
    links = 0
    for inst in insts:
        for part in _block_parts(inst):
            core = planar.plane_core(part)
            k = part.k
            ids = list(part.anchors)
            ids += [v for v in range(part.n) if not part.is_anchor(v)]
            cid = {v: c for c, v in enumerate(ids)}
            edges = set()
            for chain, x, y, on_h, sites in core.links:
                L = len(chain) - 1
                assert (core.vertices[x], core.vertices[y]) == (
                    chain[0], chain[-1]), inst
                edges.add(tuple(sorted((chain[0], chain[-1]))))
                end = (chain[0], chain[-1])
                if on_h:
                    assert all(b == (a + 1) % k
                               for a, b in zip(chain, chain[1:])), inst
                    assert end in core.forward, inst
                else:
                    assert end not in core.forward, inst
                for t, v in sites:
                    assert 0 < t < L and chain[t] == cid[v], inst
                links += 1
            assert len(edges) == len(core.links), inst
            assert edges == {(v, w) for v, rot in enumerate(core.rotation)
                             for w in rot if v < w}, inst
    assert links >= 8000


def _core_fields(core, orig):
    """The fields of a PlaneCore, each reported vertex v read as orig[v]."""
    links = tuple((chain, x, y, on_h, tuple((t, orig[v]) for t, v in sites))
                  for chain, x, y, on_h, sites in core.links)
    return (core.rotation, core.faces, core.half_face, core.outer_face,
            core.forward, core.vertices,
            tuple(None if v is None else orig[v] for v in core.outs),
            core.seeds, links, core.face_lengths)


def test_solve_scans_plane_core_of_each_part(monkeypatch):
    # the core the solve scans for each part is `plane_core` of that part of
    # the unit route, vertex for vertex: the builder is one, and the solve
    # reports every vertex of the part, in the instance's own ids. Each core
    # lists its faces in the order a walk of its rotation finds them, and
    # each chain of the unit route runs from its end of lesser anchor index
    cores = []
    scan = planar._scan

    def traced_scan(core, start):
        cores.append(core)
        return scan(core, start)

    monkeypatch.setattr(planar, "_scan", traced_scan)
    insts = _ladder() + [gen_grid(7)]
    insts += [gen_random_planar(nf, k, 1000 * k + nf)
              for k in range(3, 13) for nf in range(31)]
    compared = oriented = 0
    for inst in insts:
        cores.clear()
        optimal_retract_planar(inst)
        red, rmap = reduce_two_connected(inst)
        parts, chains = plane_parts_reference(red)
        parts = [(part, [rmap.old_of_new[v] for v in old_of_new])
                 for part, old_of_new in parts if part.n > part.k]
        assert len(cores) == len(parts), inst
        for core, (part, orig) in zip(cores, parts):
            assert (_core_fields(core, range(inst.n))
                    == _core_fields(planar.plane_core(part), orig)), inst
            assert core.faces == rotation_faces(core.rotation,
                                                core.vertices), inst
            # the walk keeps what PlaneEmbedding derives from the faces; a
            # part is 2-connected, so no core edge is twice on one face
            emb = PlaneEmbedding(len(core.rotation), core.faces,
                                 core.outer_face, core.anchors)
            assert emb.half_face == core.half_face, inst
            span = {tuple(sorted((chain[0], chain[-1]))): (len(chain) - 1, h)
                    for chain, _, _, h, _ in core.links}
            assert core.face_lengths == [
                tuple(sum(span[e][0] for e in fes if span[e][1] == h)
                      for h in (True, False))
                for fes in emb.face_edge_sets], inst
            compared += 1
        for chain in chains:
            if len(chain) > 2:
                assert (red.anchors.index(chain[0])
                        < red.anchors.index(chain[-1])), (inst, chain)
                oriented += 1
    assert compared >= 600 and oriented >= 300


def test_cycle_score_host_is_k():
    inst, _ = subdivide(gen_grid(3), GRID3_OPTIMAL)
    ret = stretch1_retract(inst)
    red, _ = reduce_two_connected(inst)
    emb = plane_embed(red)
    assert cycle_score(emb, inst.anchors, ret) == inst.k


def test_cycle_score_requires_stretch_one():
    inst = make_ck(6)
    emb = plane_embed(inst)
    bad = Retraction((0, 1, 2, 3, 4, 5))
    jump = Retraction((0, 2, 2, 3, 4, 5))
    assert cycle_score(emb, inst.anchors, bad) == 6
    with pytest.raises(ValidationError):
        cycle_score(emb, (0, 1), jump)


def test_face_sum_identity():
    inst, _ = subdivide(gen_grid(3), GRID3_OPTIMAL)
    ret = stretch1_retract(inst)
    emb = plane_embed(inst)
    scores = [cycle_score(emb, emb.faces[f], ret)
              for f in range(len(emb.faces))]
    # consistently oriented faces: everything cancels over the sphere
    assert sum(scores) == 0
    assert abs(scores[emb.outer_face]) == inst.k
    # every face's own region is just itself
    for f in range(len(emb.faces)):
        if f == emb.outer_face:
            continue
        walk = emb.faces[f]
        es = [(walk[i], walk[(i + 1) % len(walk)]) for i in range(len(walk))]
        inside = enclosed_faces(emb, es)
        assert f in inside
        got = sum(cycle_score(emb, emb.faces[g], ret) for g in inside)
        assert abs(got) == abs(cycle_score(emb, walk, ret))


# ---------------------------------------------------------------------------
# the core embedding: degree-2 chains spliced back into the core rotation


def theta(a, b, c):
    """Two poles joined by three internally disjoint paths of a, b and c
    edges; the anchor cycle is made of the first two paths."""
    edges, paths = [], []
    nxt = 2
    for length in (a, b, c):
        path = [0] + list(range(nxt, nxt + length - 1)) + [1]
        nxt += length - 1
        edges += list(zip(path, path[1:]))
        paths.append(path)
    anchors = tuple(paths[0]) + tuple(reversed(paths[1][1:-1]))
    return Instance(nxt, edges, anchors)


def free_components(inst):
    g = nx.Graph()
    g.add_nodes_from(range(inst.n))
    g.add_edges_from(inst.edges)
    g.remove_nodes_from(inst.anchors)
    return nx.number_connected_components(g)


@pytest.mark.parametrize("inst", [
    make_ck(3), make_ck(9), theta(3, 4, 5), theta(2, 3, 3), theta(4, 4, 2),
    theta(3, 3, 1),
    subdivide(make_w4(), 2)[0], subdivide(make_w4(), 5)[0],
    subdivide(gen_grid(3), 3)[0], subdivide(gen_grid(4), 2)[0],
    subdivide(gen_grid(5), 4)[0],
], ids=["C3", "C9", "theta345", "theta233", "theta442", "theta331",
        "W4x2", "W4x5",
        "grid3x3", "grid4x2", "grid5x4"])
def test_core_embedding_is_a_plane_map(inst):
    assert free_components(inst) <= 1
    emb = plane_embed(inst)
    assert emb.n == inst.n and emb.graph_edges == inst.edges
    _assert_plane_map(emb)
    assert emb.face_edge_sets[emb.outer_face] == inst.host_edges()


def _colgrid(rows, cols):
    """rows x cols grid keeping only the first and last column's vertical
    edges; the boundary is the anchor cycle."""
    vid = lambda r, c: r * cols + c
    edges = [(vid(r, c), vid(r, c + 1)) for r in range(rows)
             for c in range(cols - 1)]
    edges += [(vid(r, c), vid(r + 1, c)) for r in range(rows - 1)
              for c in (0, cols - 1)]
    anchors = ([vid(0, c) for c in range(cols)]
               + [vid(r, cols - 1) for r in range(1, rows)]
               + [vid(rows - 1, c) for c in range(cols - 2, -1, -1)]
               + [vid(r, 0) for r in range(rows - 2, 0, -1)])
    return Instance(rows * cols, edges, anchors)


def _with_subdivided_chord(inst, i, j, length):
    """inst plus a path of `length` edges outside H between anchors i, j."""
    path = ([inst.anchors[i]] + list(range(inst.n, inst.n + length - 1))
            + [inst.anchors[j]])
    return Instance(inst.n + length - 1, list(inst.edges)
                    + list(zip(path, path[1:])), inst.anchors)


def _split_family():
    """(kind, instance) with G - V(H) in two or more components."""
    rng = random.Random(2024)
    out = [("colgrid", _colgrid(r, c))
           for r, c in ((4, 4), (5, 4), (4, 5), (5, 5), (6, 3), (3, 6),
                        (7, 3))]
    while len(out) < 40:
        k = rng.randint(4, 9)
        inst = gen_random_planar(rng.randint(2, 8), k, rng.randrange(1 << 30))
        kind = "random"
        if rng.random() < 0.5:
            i = rng.randrange(k)
            j = (i + rng.randint(2, k - 2)) % k
            inst = _with_subdivided_chord(inst, i, j, rng.randint(2, 4))
            kind = "chord"
        if free_components(inst) >= 2 and inst.n - inst.k <= 12:
            out.append((kind, inst))
    return out


def test_split_instances_match_oracle():
    # the answer has the oracle's optimum, and so does each of its parts
    kinds = set()
    for kind, inst in _split_family():
        ret, rep = optimal_retract_planar(inst)
        _, want = brute_force_optimal(inst)
        assert rep.max_stretch == want.max_stretch, kind
        assert stretch(inst, ret).max_stretch == rep.max_stretch
        red, rmap = reduce_two_connected(inst)
        for part, old_of_new in pieces(red):
            orig = [rmap.old_of_new[v] for v in old_of_new]
            part_of = {v: p for p, v in enumerate(orig)}
            restricted = Retraction(tuple(part_of[ret.assignment[v]]
                                          for v in orig))
            _, part_want = brute_force_optimal(part)
            assert (stretch(part, restricted).max_stretch
                    == part_want.max_stretch), kind
        kinds.add(kind)
    assert kinds == {"colgrid", "random", "chord"}


# ---------------------------------------------------------------------------
# chains in closed form: a chain of L edges between anchors d apart on H is
# feasible at stretch l exactly when L*l >= d


def _check_chain(inst, chain):
    """The closed-form optimum of a chain of inst equals the face scan's on
    its explicit piece and the oracle's; its map has stretch exactly l, and
    the cover finds no map of the piece's (l-1)-subdivision."""
    piece, _ = chain_piece(inst, chain)
    k = inst.k
    i, j = inst.anchor_index(chain[0]), inst.anchor_index(chain[-1])
    L = len(chain) - 1
    ret, rep = optimal_retract_planar(piece)
    l = rep.max_stretch
    assert l == max(1, ceil(cycle_dist(k, i, j) / L))
    assert part_optimum(piece)[0] == l
    assert brute_force_optimal(piece)[1].max_stretch == l
    images = chain_images(k, i, j, L, l)
    assert ret.assignment == tuple(range(k)) + tuple(images)
    assert stretch(piece, ret).max_stretch == l
    if l > 1:
        sub = subdivide(piece, l - 1)[0]
        assert planar._stretch1_embedded(planar.plane_core(sub), 1) is None
    return l


def test_chain_on_a_cycle_matches_scan_and_oracle():
    # C_k plus one chain of L edges between every pair of anchors
    optima = set()
    for k in range(3, 13):
        for L in range(1, 7):
            for a in range(k):
                for b in range(a + 1, k):
                    if L == 1 and b - a in (1, k - 1):
                        continue        # a chord must leave H
                    path = [a] + list(range(k, k + L - 1)) + [b]
                    inst = Instance(k + L - 1, list(make_ck(k).edges)
                                    + list(zip(path, path[1:])), range(k))
                    _, chains = plane_parts_reference(inst)
                    assert chains == [tuple(path)]
                    optima.add(_check_chain(inst, chains[0]))
    assert optima == set(range(1, 7))


def test_chain_pieces_of_ladder_and_random_instances():
    # every chain piece of the planar ladder and of 200 random instances
    insts = _ladder()
    insts += [gen_random_planar(seed % 13, 3 + seed % 10, seed)
              for seed in range(200)]
    chords = inner = 0
    for inst in insts:
        red, _ = reduce_two_connected(inst)
        for chain in plane_parts_reference(red)[1]:
            _check_chain(red, chain)
            chords += len(chain) == 2
            inner += len(chain) > 2
    assert chords >= 20 and inner >= 20


# ---------------------------------------------------------------------------
# the weighted route: each edge a path of m unit edges, never built


def _unit_answer(n, lengths, cycle):
    """(pos, optimum) of the unit route (`unit_route_reference`) on the unit
    graph of the weighted one, pos[v] the anchor index of v's image."""
    total, edges = unit_graph(n, lengths)
    inst = Instance(total, edges, expand_cycle(n, lengths, cycle))
    ret, rep = unit_route_reference(inst)
    return [inst.anchor_index(ret.assignment[v]) for v in range(n)], \
        rep.max_stretch


def test_weighted_route_matches_unit_route_on_random_lengths():
    # random planar instances with every edge of length 1 to 4, H the anchor
    # cycle: chords, degree-2 components, single whole parts and hanging
    # pieces all occur, and each answer is the unit route's
    rng = random.Random(7)
    seen = set()
    for seed in range(400):
        inst = gen_random_planar(seed % 9, 3 + seed % 10, seed)
        lengths = {e: rng.randint(1, 1 + seed % 4) for e in inst.edges}
        cycle = list(inst.anchors)
        got = optimal_retract_weighted(inst.n, lengths, cycle)
        assert got == _unit_answer(inst.n, lengths, cycle), seed
        red, rmap = reduce_two_connected(inst)
        parts, chains = plane_parts_reference(red)
        seen.add("hanging" if rmap.gateway else "block")
        seen.add("whole" if parts and parts[0][0] is red else "split")
        seen.update("chord" if len(c) == 2 else "path" for c in chains)
    assert seen == {"hanging", "block", "whole", "split", "chord", "path"}


def test_weighted_route_hangs_a_pendant_on_its_gateway():
    # C6 of lengths 1..6, a hub joined to anchors 0, 2 and 4, a pendant path
    # off the hub and a pendant vertex off anchor 3: each hanging vertex takes
    # its gateway's image, as reduce_two_connected lifts it
    lengths = {(0, 1): 1, (1, 2): 2, (2, 3): 3, (3, 4): 4, (4, 5): 5,
               (0, 5): 6, (0, 6): 2, (2, 6): 3, (4, 6): 1, (6, 7): 2,
               (7, 8): 1, (3, 9): 4}
    cycle = [0, 1, 2, 3, 4, 5]
    pos, opt = optimal_retract_weighted(10, lengths, cycle)
    assert (pos, opt) == _unit_answer(10, lengths, cycle)
    assert pos[7] == pos[8] == pos[6] and pos[9] == pos[3]
    total, edges = unit_graph(10, lengths)
    inst = Instance(total, edges, expand_cycle(10, lengths, cycle))
    gateway = reduce_two_connected(inst)[1].gateway
    assert gateway[7] == gateway[8] == 6 and gateway[9] == 3


# ---------------------------------------------------------------------------
# the left-right embedder


def _random_graph(rng, n):
    """(ids, edges) of a seeded connected graph on n vertices: a planar
    instance's edges with a few random edges added, or a random tree with
    up to 2n random edges added. The vertices get distinct random ids below
    n + 5, and the edges come in random order."""
    if rng.random() < 0.4:
        k = rng.randint(3, n)
        edges = set(gen_random_planar(n - k, k, rng.randrange(1 << 30)).edges)
        extra = rng.choice((0, 0, 1, 2))
    else:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        extra = rng.randint(0, 2 * n)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    ids = rng.sample(range(n + 5), n)
    edges = [(ids[u], ids[v]) for u, v in edges]
    rng.shuffle(edges)
    return sorted(ids), edges


def _check_rotation(rotation, nodes, edges):
    """Each rotation lists every neighbour exactly once, and its faces
    satisfy Euler's formula V - E + F = 2."""
    nbrs = {v: [] for v in nodes}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v in nodes:
        assert sorted(rotation[v]) == sorted(nbrs[v])
    assert all(rotation[v] == () for v in range(len(rotation))
               if v not in nbrs)
    faces = rotation_faces(rotation, nodes)
    assert len(nodes) - len(edges) + len(faces) == 2


def test_lr_rotation_matches_networkx_verdict():
    # 1200 seeded connected graphs of 3 to 25 vertices, planar and not
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for i in range(1200):
        n = 3 + i % 23
        nodes, edges = _random_graph(rng, n)
        try:
            nx_rotation(n + 5, nodes, edges)
            want = True
        except NotPlanarError:
            want = False
        try:
            rotation = planar._lr_rotation(n + 5, nodes, edges)
            got = True
        except NotPlanarError:
            got = False
        assert got == want, i
        verdicts[got] += 1
        if got:
            _check_rotation(rotation, nodes, edges)
    assert min(verdicts.values()) >= 300, verdicts


def test_lr_rotation_of_a_large_graph_needs_no_recursion():
    # a 2 x 1600 ladder: its depth-first searches run 3,200 vertices deep
    m = 1600
    edges = [(i, i + 1) for i in range(m - 1)]
    edges += [(m + i, m + i + 1) for i in range(m - 1)]
    edges += [(i, m + i) for i in range(m)]
    nodes = list(range(2 * m))
    _check_rotation(planar._lr_rotation(2 * m, nodes, edges), nodes, edges)
    with pytest.raises(NotPlanarError):
        # both diagonals between the ladder's corners: each must run outside
        # the ladder, where their ends alternate, so they cross
        planar._lr_rotation(2 * m, nodes, edges + [(0, 2 * m - 1),
                                                   (m, m - 1)])


def _k33_on_c4():
    # K3,3 on {0, 1, 2} x {3, 4, 5}, H its 4-cycle (0, 3, 1, 4)
    edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
    return Instance(6, edges, (0, 3, 1, 4))


def _k5_inside_c5():
    # C5, a K5 on 5 interior vertices, each joined to its own anchor
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    return Instance(10, edges, range(5))


def _with_gadget(inst, rng):
    """inst plus a K5 or K3,3, whole or less one edge, on new vertices, each
    of its edges subdivided up to twice, and 2 to 4 of its branch vertices
    joined to as many distinct anchors."""
    if rng.random() < 0.5:
        branch = 5
        gadget = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    else:
        branch = 6
        gadget = [(u, v) for u in range(3) for v in range(3, 6)]
    if rng.random() < 0.5:
        gadget.pop(rng.randrange(len(gadget)))
    base = n = inst.n
    n += branch
    edges = list(inst.edges)
    for u, v in gadget:
        path = [base + u] + list(range(n, n + rng.randint(0, 2))) + [base + v]
        n += len(path) - 2
        edges += zip(path, path[1:])
    t = rng.randint(2, 4)
    edges += zip(rng.sample(range(base, base + branch), t),
                 rng.sample(inst.anchors, t))
    return Instance(n, edges, inst.anchors)


def _part_rejected(inst):
    """Whether networkx finds some part of inst not planar."""
    return any(not nx.check_planarity(nx.Graph(sub.edges))[0]
               for sub in _block_parts(inst))


def _assert_routes_agree_on_planarity(inst):
    """The unit route (`unit_route_reference`), the weighted route and
    `optimal_retract_planar` raise NotPlanarError exactly when networkx
    rejects a part; otherwise the weighted route with unit lengths returns
    the unit route's answer. Returns whether a part was rejected."""
    lengths = dict.fromkeys(inst.edges, 1)
    cycle = list(inst.anchors)
    if _part_rejected(inst):
        with pytest.raises(NotPlanarError):
            unit_route_reference(inst)
        with pytest.raises(NotPlanarError):
            optimal_retract_planar(inst)
        with pytest.raises(NotPlanarError):
            optimal_retract_weighted(inst.n, lengths, cycle)
        return True
    assert (optimal_retract_weighted(inst.n, lengths, cycle)
            == _unit_answer(inst.n, lengths, cycle))
    return False


def test_nonplanar_parts_raise_on_both_routes():
    assert _assert_routes_agree_on_planarity(_k33_on_c4())
    assert _assert_routes_agree_on_planarity(_k5_inside_c5())
    rng = random.Random(31)
    rejected = 0
    for seed in range(120):
        k = 4 + seed % 6
        base = gen_random_planar(seed % 7, k, 9000 + seed)
        rejected += _assert_routes_agree_on_planarity(_with_gadget(base, rng))
    assert 30 <= rejected <= 90, rejected


def test_k5_on_the_anchors_of_c5_is_solved():
    # K5's chords of C5 are five separate chain pieces, not a part
    inst = Instance(5, [(u, v) for u in range(5) for v in range(u + 1, 5)],
                    range(5))
    _, rep = optimal_retract_planar(inst)
    assert rep.max_stretch == brute_force_optimal(inst)[1].max_stretch == 2
    assert optimal_retract_weighted(5, dict.fromkeys(inst.edges, 1),
                                    list(range(5)))[1] == 2


def test_no_solve_loads_networkx(tmp_path):
    # a None entry in sys.modules makes any import of networkx raise
    code = "\n".join([
        "import sys",
        "sys.modules['networkx'] = None",
        "from retract import (euclid_retract, gen_grid, gen_random_points,",
        "                     host_from_cycle, optimal_retract_planar,",
        "                     optimal_retract_tw)",
        "from retract.cli import run",
        "from retract.treewidth import stretch1_tw",
        "optimal_retract_planar(gen_grid(5))",
        "euclid_retract(gen_random_points(1, 10, 9010))",
        "optimal_retract_tw(gen_grid(3))",
        "stretch1_tw(gen_grid(3), host_from_cycle(gen_grid(3)))",
        "grid, points, out = sys.argv[1:]",
        "assert run(['gen', 'grid', '--m', '3', '-o', grid]) == 0",
        "assert run(['gen', 'random-points', '--n', '1', '--k', '10',",
        "            '--seed', '9010', '-o', points]) == 0",
        "for algo in ('planar', 'approx', 'treewidth', 'oracle'):",
        "    assert run(['solve', '--algo', algo, '-i', grid, '-o', out]) == 0",
        "assert run(['solve', '--algo', 'euclid', '-i', points, '-o', out]) == 0",
        "for method in ('distance', 'lp', 'sperner'):",
        "    assert run(['lb', '--method', method, '-i', grid]) == 0",
    ])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = [str(tmp_path / name) for name in ("grid.json", "points.json",
                                               "ret.json")]
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
