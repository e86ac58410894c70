"""The benchmark's own arithmetic on hand-built spans and sample lists."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import summary  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_nets_out_children():
    s = [Span("root", None, 0.0, 10.0, None),
         Span("a", 0, 1.0, 4.0, None),
         Span("b", 0, 5.0, 6.0, None),
         Span("a.kid", 1, 2.0, 3.0, None)]
    assert spans.self_times(s) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    s = [Span("root", None, 0.0, 10.0, None),
         Span("x", 0, 1.0, 5.0, None),
         Span("y", 0, 3.0, 7.0, None),
         Span("z", 0, 9.0, 12.0, None)]
    # children cover [1, 7] and [9, 10] of the root's interval
    assert spans.self_times(s)[0] == pytest.approx(3.0)


def test_recorder_nests_and_passes_through_outside_solves():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1, lambda a, r: r)
    outer = rec.wrap("outer", lambda x: inner(x) * 2, None)
    assert outer(1) == 4 and rec.spans == []
    assert rec.solve(outer, 1) == 4
    names = [(s.name, s.parent, s.value) for s in rec.spans]
    assert names == [(spans.ROOT, None, None), ("outer", 0, None),
                     ("inner", 1, 2)]


def test_install_and_uninstall_leave_no_wrapper():
    from retract import core, planar
    before = (core.Instance.__init__, planar.subdivide, core.stretch)
    assert spans.installed() == []
    patches = spans.install(spans.Recorder())
    try:
        assert "core.instance" in spans.installed()
        assert planar.subdivide is not before[1]
    finally:
        spans.uninstall(patches)
    assert spans.installed() == []
    assert (core.Instance.__init__, planar.subdivide, core.stretch) == before


@pytest.mark.parametrize("n, p", [(9, None), (19, None), (20, 50), (24, 50),
                                  (25, 60), (34, 70), (40, 75), (50, 80),
                                  (99, 80), (100, 90), (199, 90), (200, 95),
                                  (1000, 99), (10000, 99.9)])
def test_tail_rule_keeps_ten_samples_beyond(n, p):
    assert summary.tail_percentile(n) == p
    if p is not None:
        assert summary.beyond(n, p) >= 10


def test_nearest_rank():
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert summary.nearest_rank(values, 50) == 5
    assert summary.nearest_rank(values, 90) == 9
    assert summary.nearest_rank(values, 100) == 10


def test_quality_gap_is_upper_over_lower():
    # a solver above the optimum and a bound below it both read above 1
    assert summary.solver_gap(5, 4) == 1.25
    assert summary.bound_gap(3, 4) == pytest.approx(4 / 3)
    # an exact route reads exactly 1
    assert summary.solver_gap(4, 4) == 1
    assert summary.geomean([1.25, 0.8]) == pytest.approx(1.0)


def test_end_to_end_counts_failures_against_attempts():
    samples = [("a", 0.1, True, 1.0), ("b", 0.3, True, 4.0),
               ("c", 0.2, False, None), ("d", 0.4, True, 1.0)]
    m = summary.end_to_end(samples, 75)
    assert m["instances_per_s"] == pytest.approx(3 / 1.0)
    assert m["checked_frac"] == 0.75
    assert m["solve_tail_s"] == 0.3
    assert m["quality_gap"] == pytest.approx(4 ** (1 / 3))


def test_percentiles_use_every_solve():
    # one slow solve of "a" reaches the tail like a slow instance would
    samples = [("a", 0.1, True, 1.0), ("a", 0.9, True, 1.0),
               ("a", 0.1, True, 1.0), ("b", 0.2, True, 1.0),
               ("b", 0.2, True, 1.0), ("c", 0.5, True, 1.0)]
    m = summary.end_to_end(samples, 80)
    assert m["solve_p50_s"] == 0.2
    assert m["solve_tail_s"] == 0.5
    assert summary.end_to_end(samples, 90)["solve_tail_s"] == 0.9


def test_layer_metrics_from_spans():
    s = [Span(spans.ROOT, None, 0.0, 10.0, None),
         Span("euclid", 0, 0.0, 10.0, None),
         Span("planar.solve", 1, 1.0, 9.0, None),
         Span("planar.probe", 2, 2.0, 6.0, 40),
         Span("planar.probe", 3, 3.0, 4.0, 10),
         Span("planar.cover", 3, 4.0, 5.0, 1),
         Span("planar.cover", 3, 5.0, 6.0, 0),
         Span(spans.ROOT, None, 10.0, 12.0, None),
         Span("planar.solve", 7, 10.0, 12.0, None)]
    spec = [
        {"name": "probes", "stat": "calls", "span": "planar.probe",
         "outer": True},
        {"name": "probe_vertices", "stat": "value", "span": "planar.probe",
         "outer": True},
        {"name": "probe.self_s", "stat": "self_s", "span": "planar.probe"},
        {"name": "cover_hit_ratio", "stat": "hit_ratio",
         "span": "planar.cover"},
        {"name": "planar_s", "stat": "total_s", "span": "planar.solve",
         "within": "euclid"},
        {"name": "planar_share", "stat": "share", "span": "planar.solve",
         "within": "euclid"},
        {"name": "overhead", "stat": "overhead"},
    ]
    m = summary.layer_metrics(s, 2, 1.05, spec)
    assert m == pytest.approx({"probes": 0.5, "probe_vertices": 20.0,
                               "probe.self_s": 1.0, "cover_hit_ratio": 0.5,
                               "planar_s": 4.0, "planar_share": 0.8,
                               "overhead": 1.05})


def test_layer_spec_matches_benchmark_file():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "metrics.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == \
        [m["name"] for m in spec["per_layer"]]
    assert set(spec["workloads"]) == {w["name"] for w in bench["workloads"]}
    for w in spec["workloads"].values():
        # the tail rule, applied at the fewest solves a run made
        assert summary.tail_percentile(min(w["samples_per_run"])) == \
            w["tail_percentile"]
    traced = {t[0] for t in spans.TARGETS}
    for m in spec["per_layer"]:
        for key in ("span", "within"):
            assert m.get(key) is None or m[key] in traced
        for move in m["moves"]:
            metric, workload = move.split("@")
            assert metric in {e["name"] for e in bench["end_to_end"]}
            assert workload in spec["workloads"]
