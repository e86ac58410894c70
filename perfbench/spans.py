"""Span recording for the traced run.

Wrappers are installed from outside the package on the module-level
functions each layer calls through its module namespace, so `src/` is
untouched. A span is (name, parent, start, end, value): `parent` is the index
of the enclosing span, `value` an optional per-call count taken from the
call's arguments or result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import namedtuple

Span = namedtuple("Span", "name parent start end value")

MARK = "__perfbench_span__"

ROOT = "harness.solve"

# (span name, module, attribute, note); the note maps (args, result) to the
# span's value. Each function is replaced under every name bound to it in
# every retract module, so calls through any namespace are seen.
TARGETS = (
    ("core.instance", "core", "Instance.__init__", lambda a, r: a[0].n),
    ("core.subdivide", "core", "subdivide", None),
    ("core.stretch", "core", "stretch", None),
    ("core.distance_lb", "core", "distance_lower_bound", None),
    ("cli.parse", "core", "parse_instance", None),
    ("planar.solve", "planar", "optimal_retract_planar", None),
    ("planar.start_lb", "planar", "_start_lower_bound", None),
    ("planar.probe", "planar", "stretch1_retract", lambda a, r: a[0].n),
    ("planar.reduce", "planar", "reduce_two_connected", None),
    ("planar.embed", "planar", "plane_embed", None),
    ("planar.triangulate", "planar", "triangulate_for_face", None),
    ("planar.maxflow", "planar", "max_disjoint_paths",
     lambda a, r: int(len(r.paths) >= len(a[0].t_neighbors))),
    ("planar.curves", "planar", "retraction_from_curves", None),
    ("planar.cover", "planar", "_lipschitz_retract",
     lambda a, r: int(r is not None)),
    ("euclid", "euclid", "euclid_retract", None),
    ("euclid.spanner", "euclid", "delaunay_spanner", None),
    ("euclid.contract", "euclid", "contract_small_edges", None),
    ("euclid.unweight", "euclid", "to_unweighted", lambda a, r: r[0]),
    ("euclid.host_cycle", "euclid", "build_host_cycle", None),
    ("approx", "approx", "approx_retract", None),
    ("approx.embed", "approx", "grid_embed", None),
    ("approx.hole", "approx", "find_largest_hole", None),
    ("approx.project", "approx", "project_to_cycle", None),
    ("bounds.distance", "bounds", "distance_stretch_lower_bound", None),
    ("bounds.lp", "bounds", "lp_stretch_lower_bound", None),
    ("bounds.lp_feasible", "bounds", "lp_feasible", None),
    ("bounds.separation", "bounds", "separation_oracle", None),
    ("treewidth", "treewidth", "optimal_retract_tw", None),
    ("treewidth.decompose", "treewidth", "_raw_decompose", None),
    ("treewidth.decompose", "treewidth", "_make_nice", None),
    ("treewidth.splice", "treewidth", "_subdivided", None),
    ("treewidth.splice", "treewidth", "_spliced_decomposition", None),
    ("treewidth.dp", "treewidth", "_stretch1_graph", None),
    ("cli", "cli", "run", None),
)


class Recorder:
    """Collects spans opened inside `solve` calls; outside them the
    wrappers pass calls straight through."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid, name, start):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = Span(name, parent, start, end, None)

    def solve(self, fn, *args):
        """Run one timed solve under a root span."""
        sid, start = self._open()
        try:
            return fn(*args)
        finally:
            self._close(sid, ROOT, start)

    def wrap(self, name, fn, note):
        rec = self

        def wrapper(*args, **kwargs):
            if not rec._stack:
                return fn(*args, **kwargs)
            sid, start = rec._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(sid, name, start)
            if note is not None:
                rec.spans[sid] = rec.spans[sid]._replace(
                    value=note(args, result))
            return result

        setattr(wrapper, MARK, name)
        return wrapper


def _modules():
    import retract
    from retract import approx, bounds, cli, core, euclid, planar, treewidth
    return {"retract": retract, "core": core, "planar": planar,
            "euclid": euclid, "approx": approx, "bounds": bounds,
            "treewidth": treewidth, "cli": cli}


def install(recorder):
    """Install every wrapper; returns the patches for `uninstall`."""
    mods = _modules()
    patches = []
    for name, modname, attr, note in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[modname], cls_name)
            orig = cls.__dict__[meth]
            patches.append((cls, meth, orig))
            setattr(cls, meth, recorder.wrap(name, orig, note))
            continue
        orig = getattr(mods[modname], attr)
        wrapper = recorder.wrap(name, orig, note)
        for mod in mods.values():
            bound = [k for k, v in vars(mod).items() if v is orig]
            for k in bound:
                patches.append((mod, k, orig))
                setattr(mod, k, wrapper)
    return patches


def uninstall(patches):
    for obj, attr, orig in reversed(patches):
        setattr(obj, attr, orig)


def installed():
    """Names of wrappers currently present anywhere in the package."""
    found = []
    for mod in _modules().values():
        for v in list(vars(mod).values()):
            if getattr(v, MARK, None):
                found.append(getattr(v, MARK))
            elif isinstance(v, type):
                found += [getattr(f, MARK) for f in vars(v).values()
                          if getattr(f, MARK, None)]
    return sorted(set(found))


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur = None
        for a, b in sorted(kids.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur is not None and a <= cur[1]:
                cur[1] = max(cur[1], b)
                continue
            if cur is not None:
                covered += cur[1] - cur[0]
            cur = [a, b]
        if cur is not None:
            covered += cur[1] - cur[0]
        out.append(s.end - s.start - covered)
    return out


def has_ancestor(spans, i, name):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
