import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from retract import euclid, oracle
from retract.cli import run
from retract.core import (Instance, gen_column_deleted_grid, gen_grid,
                          parse_instance, parse_retraction,
                          serialize_instance)

import frozen
from conftest import interior_square, make_w4


def _gen(tmp_path, *args):
    path = tmp_path / "inst.json"
    assert run(["gen", *args, "-o", str(path)]) == 0
    return path


def test_gen_and_solve_planar_matches_oracle(tmp_path, capsys):
    inst_path = _gen(tmp_path, "grid", "--m", "3")
    out = tmp_path / "ret.json"
    assert run(["solve", "--algo", "planar", "-i", str(inst_path),
                "-o", str(out)]) == 0
    ret, claimed = parse_retraction(out.read_text())
    _, rep = oracle.brute_force_optimal(gen_grid(3))
    assert claimed == rep.max_stretch == frozen.GRID3_OPTIMAL
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["algorithm"] == "planar"
    assert record["stretch"] == frozen.GRID3_OPTIMAL
    assert len(record["instance_sha256"]) == 64


def test_verify_roundtrip_and_rejects_moved_anchor(tmp_path, capsys):
    inst_path = _gen(tmp_path, "grid", "--m", "3")
    out = tmp_path / "ret.json"
    run(["solve", "--algo", "oracle", "-i", str(inst_path), "-o", str(out)])
    assert run(["verify", "-i", str(inst_path), "-r", str(out)]) == 0
    bad = tmp_path / "bad.json"
    obj = json.loads(out.read_text())
    obj["assignment"][0] = 2   # move an anchor
    bad.write_text(json.dumps(obj))
    assert run(["verify", "-i", str(inst_path), "-r", str(bad)]) == 2


def test_lb_distance_prints_two(tmp_path, capsys):
    inst_path = _gen(tmp_path, "grid", "--m", "3")
    assert run(["lb", "--method", "distance", "-i", str(inst_path)]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out == {"bound": 2, "method": "distance"}


def test_runs_in_one_process_keep_their_own_results(tmp_path, capsys):
    # the parser is built once and shared by every run in the process
    from retract.cli import _build_parser
    assert _build_parser() is _build_parser()
    inst_path = _gen(tmp_path, "grid", "--m", "3")
    capsys.readouterr()
    assert run(["solve", "--algo", "planar", "-i", str(inst_path)]) == 0
    out, err = capsys.readouterr()
    _, claimed = parse_retraction(out)
    assert claimed == frozen.GRID3_OPTIMAL
    assert json.loads(err.strip().splitlines()[-1])["algorithm"] == "planar"
    assert run(["solve", "--algo", "bogus", "-i", str(inst_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice" in err
    assert run(["lb", "--method", "distance", "-i", str(inst_path)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"bound": 2, "method": "distance"}
    assert err == ""


def _combination(out):
    return [(c["cycle"], Fraction(*c["coef"])) for c in out["certificate"]]


def test_lb_lp_w4_certificate(tmp_path, capsys):
    from retract.core import serialize_instance
    inst_path = tmp_path / "w4.json"
    inst_path.write_text(serialize_instance(make_w4()))
    assert run(["lb", "--method", "lp", "-i", str(inst_path)]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["bound"] == frozen.W4_LP_LOWER_BOUND
    assert out["l"] == 4
    assert len(out["certificate"]) == 4
    assert oracle.check_lp_certificate(make_w4(), 4, _combination(out))


def test_lb_lp_certificate_is_for_l0(tmp_path, capsys):
    inst_path = _gen(tmp_path, "grid", "--m", "5")
    capsys.readouterr()
    assert run(["lb", "--method", "lp", "-i", str(inst_path)]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["bound"] == frozen.GRID5_LP_LOWER_BOUND
    # the smallest infeasible l is 5 < k = 16: the certificate's cycles are
    # shorter than 5 and their weighted sum is a nonzero multiple of H
    assert out["l"] == 5
    assert oracle.check_lp_certificate(gen_grid(5), 5, _combination(out))


def test_lb_lp_stdout_frozen(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    for inst, want in ((make_w4(), frozen.LB_LP_W4_STDOUT),
                       (gen_grid(5), frozen.LB_LP_GRID5_STDOUT)):
        inst_path.write_text(serialize_instance(inst))
        assert run(["lb", "--method", "lp", "-i", str(inst_path)]) == 0
        assert capsys.readouterr().out == want


def test_lb_sperner_on_grid(tmp_path, capsys):
    inst_path = _gen(tmp_path, "grid", "--m", "4")
    assert run(["lb", "--method", "sperner", "-i", str(inst_path)]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["bound"] == 3
    assert len(out["triangle"]) == 3


@pytest.mark.parametrize("inst", [gen_column_deleted_grid(4), make_w4()],
                         ids=["colgrid4", "w4"])
def test_lb_sperner_off_grid_exits_2(tmp_path, capsys, inst):
    # colgrid 4 has a square vertex count but not gen_grid's edges
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(serialize_instance(inst))
    assert run(["lb", "--method", "sperner", "-i", str(inst_path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "gen_grid instances only" in out.err


def test_verify_rejects_wrong_claimed_stretch(tmp_path, capsys):
    inst_path = _gen(tmp_path, "grid", "--m", "3")
    ret_path = tmp_path / "ret.json"
    run(["solve", "--algo", "planar", "-i", str(inst_path),
         "-o", str(ret_path)])
    obj = json.loads(ret_path.read_text())
    obj["stretch"] += 1
    ret_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", "-i", str(inst_path), "-r", str(ret_path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "claimed stretch" in out.err


def test_solve_approx_and_treewidth(tmp_path, capsys):
    inst_path = _gen(tmp_path, "random-planar", "--n", "4", "--k", "6",
                     "--seed", "2")
    for algo in ("approx", "treewidth", "oracle"):
        out = tmp_path / ("r_%s.json" % algo)
        assert run(["solve", "--algo", algo, "-i", str(inst_path),
                    "-o", str(out)]) == 0
        assert run(["verify", "-i", str(inst_path), "-r", str(out)]) == 0


def test_solve_treewidth_host_edges(tmp_path):
    from conftest import make_ck
    from retract.core import serialize_instance
    inst_path = tmp_path / "c8.json"
    inst_path.write_text(serialize_instance(make_ck(8)))
    host_path = tmp_path / "host.json"
    host_path.write_text(json.dumps(
        {"anchors": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3]]}))
    out = tmp_path / "ret.json"
    assert run(["solve", "--algo", "treewidth", "-i", str(inst_path),
                "-o", str(out), "--host-edges", str(host_path)]) == 0
    obj = json.loads(out.read_text())
    assert obj["assignment"][:4] == [0, 1, 2, 3]


def _points_and_host(tmp_path):
    """A point-set instance, which every route accepts (its anchors are the
    hull cycle of a Delaunay graph), and a path host on anchors 0..3."""
    inst_path = _gen(tmp_path, "random-points", "--n", "2", "--k", "10",
                     "--seed", "1")
    host_path = tmp_path / "host.json"
    host_path.write_text(json.dumps(
        {"anchors": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3]]}))
    return inst_path, host_path


@pytest.mark.parametrize("algo,host,fields", [
    ("planar", False, {"stretch", "lower_bounds"}),
    ("approx", False, {"stretch", "lower_bounds"}),
    ("treewidth", False, {"stretch", "lower_bounds"}),
    ("oracle", False, {"stretch", "lower_bounds"}),
    ("euclid", False, {"ratio_sq"}),
    ("treewidth", True, {"stretch"}),
])
def test_solve_run_record_fields(tmp_path, capsys, algo, host, fields):
    inst_path, host_path = _points_and_host(tmp_path)
    argv = ["solve", "--algo", algo, "-i", str(inst_path),
            "-o", str(tmp_path / "ret.json")]
    if host:
        argv += ["--host-edges", str(host_path)]
    capsys.readouterr()
    assert run(argv) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert set(record) == {"algorithm", "instance_sha256", "version",
                           "wall_time_s"} | fields
    assert record["algorithm"] == algo


def test_solve_host_edges_needs_treewidth(tmp_path):
    # the other solvers would drop the host file unread
    inst_path, host_path = _points_and_host(tmp_path)
    for algo in ("planar", "approx", "euclid", "oracle"):
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            rc = run(["solve", "--algo", algo, "-i", str(inst_path),
                      "--host-edges", str(host_path)])
        assert rc == 2 and "--host-edges" in err.getvalue(), algo


@pytest.mark.parametrize("host", [
    [1, 2],                                             # not an object
    {"anchors": [0, 1]},                                # missing edges
    {"anchors": "01", "edges": [[0, 1]]},               # string anchors
    {"anchors": [], "edges": []},                       # no anchors
    {"anchors": [0, 9], "edges": [[0, 9]]},             # anchor out of range
    {"anchors": [0, 1], "edges": 5},                    # edges not a list
    {"anchors": [0, 1], "edges": [[0, 1, 2]]},          # 3-element edge
    {"anchors": [0, 1], "edges": [[0, True]]},          # bool vertex id
    {"anchors": [0, 1], "edges": [[1, 2]]},             # edge leaves anchors
    {"anchors": [0, 2], "edges": []},                   # disconnected host
    "{not json",                                        # invalid JSON
    {"anchors": [0, 2], "edges": [[0, 2]]},             # not a guest edge
])
def test_solve_treewidth_malformed_host_exits_2(tmp_path, host):
    from conftest import make_ck
    from retract.core import serialize_instance
    inst_path = tmp_path / "c8.json"
    inst_path.write_text(serialize_instance(make_ck(8)))
    host_path = tmp_path / "host.json"
    host_path.write_text(host if isinstance(host, str) else json.dumps(host))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        rc = run(["solve", "--algo", "treewidth", "-i", str(inst_path),
                  "--host-edges", str(host_path)])
    assert rc == 2 and "validation error" in err.getvalue()


def test_gen_random_points_has_coordinates(tmp_path):
    inst_path = _gen(tmp_path, "random-points", "--n", "2", "--k", "10",
                     "--seed", "1")
    inst = parse_instance(inst_path.read_text())
    assert inst.points is not None and inst.n == 12


@pytest.mark.parametrize("family,n", [("random-planar", "-1"),
                                      ("random-points", "-2")])
def test_gen_negative_count_exits_2(family, n):
    # a negative vertex or point count is malformed input: exit 2 with a
    # validation error, no traceback and nothing written
    err, out = io.StringIO(), io.StringIO()
    with redirect_stderr(err), redirect_stdout(out):
        rc = run(["gen", family, "--n", n, "--k", "10"])
    assert rc == 2
    assert err.getvalue().startswith("validation error: ")
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == ""


def test_gen_and_solve_euclid_matches_api(tmp_path):
    # gen random-points builds the spanner for its edges, and solve --algo
    # euclid gives euclid_retract's assignment on the same PointSet
    inst_path = _gen(tmp_path, "random-points", "--n", "4", "--k", "12",
                     "--seed", "3")
    out = tmp_path / "ret.json"
    assert run(["solve", "--algo", "euclid", "-i", str(inst_path),
                "-o", str(out)]) == 0
    ret, _ = parse_retraction(out.read_text())
    ps = euclid.gen_random_points(4, 12, 3)
    assert ret.assignment == euclid.euclid_retract(ps).assignment


def test_solve_euclid_interior_square_exits_0(tmp_path):
    # four co-circular interior points whose diagonals have equal index
    # sums are valid input: exit 0, not the solver-error code 3
    ps = interior_square(Fraction(1, 3))
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(0, 10), (10, 11), (11, 13), (13, 12)]
    inst_path = tmp_path / "square.json"
    inst_path.write_text(serialize_instance(
        Instance(ps.n, edges, ps.anchor_indices, points=ps.points)))
    out = tmp_path / "ret.json"
    assert run(["solve", "--algo", "euclid", "-i", str(inst_path),
                "-o", str(out)]) == 0
    ret, _ = parse_retraction(out.read_text())
    assert ret.assignment == euclid.euclid_retract(ps).assignment


@pytest.mark.parametrize("inst", [
    # K3,3 on {0, 1, 2} x {3, 4, 5}, H its 4-cycle (0, 3, 1, 4)
    Instance(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)],
             (0, 3, 1, 4)),
    # C5 and a K5 on 5 interior vertices, each joined to its own anchor
    Instance(10, [(i, (i + 1) % 5) for i in range(5)]
             + [(i, 5 + i) for i in range(5)]
             + [(u, v) for u in range(5, 10) for v in range(u + 1, 10)],
             range(5)),
], ids=["k33", "k5-in-c5"])
def test_solve_planar_nonplanar_part_exits_2(tmp_path, inst):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(serialize_instance(inst))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        rc = run(["solve", "--algo", "planar", "-i", str(inst_path)])
    assert rc == 2
    assert err.getvalue().startswith("validation error: ")
    assert "Traceback" not in err.getvalue()


def test_exit_codes(tmp_path):
    assert run(["solve", "--algo", "bogus", "-i", "x"]) == 1   # usage
    missing = tmp_path / "missing.json"
    assert run(["solve", "--algo", "planar", "-i", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--algo", "planar", "-i", str(bad)]) == 2


def test_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["gen", "random-planar", "--n", "5", "--k", "8", "--seed", "9",
         "-o", str(a)])
    run(["gen", "random-planar", "--n", "5", "--k", "8", "--seed", "9",
         "-o", str(b)])
    assert a.read_text() == b.read_text()
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    run(["solve", "--algo", "planar", "-i", str(a), "-o", str(ra)])
    run(["solve", "--algo", "planar", "-i", str(b), "-o", str(rb)])
    assert ra.read_text() == rb.read_text()


@pytest.mark.parametrize("inst,ret", [
    ({"n": 3, "edges": [["0", 1], [1, 2], [0, 2]], "anchors": [0, 1, 2]},
     None),                                             # string vertex id
    ({"n": 3, "edges": [[0, 1], [1, 2], [2, False]], "anchors": [0, 1, 2]},
     None),                                             # bool vertex id
    ({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "anchors": [0, 1.0, 2]},
     None),                                             # float anchor
    ({"n": True, "edges": [], "anchors": []}, None),    # bool vertex count
    ({"n": 3, "edges": [[0, 1, 2], [1, 2], [0, 2]], "anchors": [0, 1, 2]},
     None),                                             # 3-element edge
    ({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "anchors": [0, 1, 2],
      "points": [[0, 1, 0, 1], [1, 0, 0, 1], [0, 1, 1, 1]]},
     None),                                             # zero denominator
    ({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "anchors": [0, 1, 2]},
     7),                                                # non-object file
    ({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "anchors": [0, 1, 2]},
     {"assignment": [0, [1], 2]}),                      # nested list
    ({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "anchors": [[0], 1, 2]},
     None),                                             # list anchor
    ({"n": 3, "edges": [[0, 1], [1, {}], [0, 2]], "anchors": [0, 1, 2]},
     None),                                             # dict vertex id
])
def test_malformed_input_exits_2(tmp_path, inst, ret):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(inst))
    ret_path = tmp_path / "ret.json"
    ret_path.write_text(json.dumps(ret if ret is not None
                                   else {"assignment": [0, 1, 2]}))
    err = io.StringIO()
    with redirect_stderr(err):
        rc = run(["verify", "-i", str(inst_path), "-r", str(ret_path)])
    assert rc == 2 and "validation error" in err.getvalue()


def test_binary_input_exits_2(tmp_path):
    bad = tmp_path / "inst.bin"
    bad.write_bytes(b"\xff\xfe{")
    with redirect_stderr(io.StringIO()):
        assert run(["lb", "--method", "distance", "-i", str(bad)]) == 2


_SCALARS = (st.none() | st.booleans() | st.integers(-2, 9)
            | st.integers(-10 ** 4, 10 ** 4) | st.floats(allow_nan=False)
            | st.text(max_size=2))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=2), inner,
                                       max_size=3), max_leaves=12)
_VERTEX = st.integers(0, 7) | _SCALARS
_INSTANCE = st.fixed_dictionaries(
    {"n": st.integers(0, 8) | _JSON,
     "edges": st.lists(st.lists(_VERTEX, min_size=1, max_size=3),
                       max_size=14) | _JSON,
     "anchors": st.lists(_VERTEX, max_size=6) | _JSON},
    optional={"points": st.lists(st.lists(st.integers(-2, 2), max_size=5),
                                 max_size=8) | _JSON})
_RETRACTION = st.fixed_dictionaries(
    {"assignment": st.lists(_VERTEX, max_size=8) | _JSON},
    optional={"stretch": _VERTEX})


def _cycle_instance(k, extra, n_free):
    """An anchor cycle 0..k-1 plus extra edges, as JSON."""
    n = k + n_free
    edges = {(i, (i + 1) % k) for i in range(k)}
    edges |= {(u, v) for u, v in extra if u < n and v < n and u != v}
    edges = {(min(e), max(e)) for e in edges}
    return {"n": n, "edges": sorted(edges), "anchors": list(range(k))}


_VALID_ISH = st.builds(_cycle_instance, st.integers(3, 6),
                       st.lists(st.tuples(st.integers(0, 9),
                                          st.integers(0, 9)), max_size=14),
                       st.integers(0, 4))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(inst=_INSTANCE | _VALID_ISH | _JSON, ret=_RETRACTION | _JSON)
def test_cli_fuzz_never_tracebacks(inst, ret):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "inst.json").write_text(json.dumps(inst))
        (tmp / "ret.json").write_text(json.dumps(ret))
        out = ["-o", str(tmp / "out.json")]
        for argv in (["verify", "-r", str(tmp / "ret.json")],
                     ["lb", "--method", "distance"],
                     ["lb", "--method", "lp"],
                     ["lb", "--method", "sperner"],
                     *(["solve", "--algo", algo] + out for algo in
                       ("planar", "approx", "treewidth", "oracle", "euclid")),
                     ["solve", "--algo", "treewidth", "--host-edges",
                      str(tmp / "ret.json")] + out):
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                rc = run(argv + ["-i", str(tmp / "inst.json")])
            assert rc in (0, 2, 3), (argv, rc, err.getvalue())
            assert "Traceback" not in err.getvalue()
