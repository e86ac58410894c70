"""Command-line front door: solve, lower bounds, generators, verification.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 solver or
resource error. `solve` emits the retraction and a run record (algorithm,
instance digest, wall time, version; the stretch and distance bound for
cycle hosts, ratio_sq for euclid, the host-metric stretch for --host-edges).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from math import isqrt

from . import __version__
from .core import (Instance, ResourceError, Retraction, SolverError,
                   ValidationError, gen_column_deleted_grid, gen_grid,
                   gen_random_planar, parse_host, parse_instance,
                   parse_retraction, serialize_instance, serialize_retraction,
                   stretch)
from . import bounds as bounds_mod


def _read_text(path):
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s is not UTF-8 text" % path) from exc


def _read_instance(path):
    return parse_instance(_read_text(path))


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _digest(instance):
    return hashlib.sha256(serialize_instance(instance).encode()).hexdigest()


def _solve(args):
    if args.host_edges and args.algo != "treewidth":
        raise ValidationError("--host-edges applies to --algo treewidth only")
    inst = _read_instance(args.input)
    t0 = time.monotonic()
    record = {"algorithm": args.algo, "instance_sha256": _digest(inst),
              "version": __version__}
    if args.algo == "euclid":
        if inst.points is None:
            raise ValidationError("euclid solver needs a 'points' field")
        from .euclid import PointSet, euclid_retract
        res = euclid_retract(PointSet(tuple(inst.points), inst.anchors))
        record["ratio_sq"] = [res.ratio_sq.numerator, res.ratio_sq.denominator]
        ret = Retraction(res.assignment)
        text = serialize_retraction(ret, stretch(inst, ret).max_stretch)
    else:
        host = ()
        if args.algo == "planar":
            from .planar import optimal_retract_planar as solver
        elif args.algo == "approx":
            from .approx import approx_retract as solver
        elif args.algo == "treewidth":
            from .treewidth import optimal_retract_tw as solver
            if args.host_edges:
                host = (parse_host(_read_text(args.host_edges), inst),)
        else:  # oracle
            from .oracle import brute_force_optimal as solver
        ret, rep = solver(inst, *host)
        record["stretch"] = rep.max_stretch
        # a non-cycle host's stretch lives in its own metric, so the
        # cycle-metric bounds do not apply to it
        if not host:
            record["lower_bounds"] = {
                "distance": bounds_mod.distance_stretch_lower_bound(inst)}
        text = serialize_retraction(ret, rep.max_stretch)
    record["wall_time_s"] = round(time.monotonic() - t0, 6)
    _write(args.output, text)
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def _lb(args):
    inst = _read_instance(args.input)
    if args.method == "distance":
        value = bounds_mod.distance_stretch_lower_bound(inst)
        out = {"method": "distance", "bound": value}
    elif args.method == "lp":
        value, l0, cert = bounds_mod.lp_certificate(inst)
        out = {"method": "lp", "bound": value}
        if l0 is not None:
            # cycles shorter than l0 whose weighted sum is the host cycle
            out["l"] = l0
            out["certificate"] = [
                {"cycle": list(cyc),
                 "coef": [coef.numerator, coef.denominator]}
                for cyc, coef in cert]
    else:  # sperner
        m = isqrt(inst.n)
        if m * m != inst.n or gen_grid(m).edges != inst.edges:
            raise ValidationError("sperner bound applies to gen_grid "
                                  "instances only")
        from .planar import optimal_retract_planar
        ret, _ = optimal_retract_planar(inst)
        coloring = bounds_mod.retraction_coloring(inst, ret)
        tri = bounds_mod.sperner_certificate(m, coloring)
        value = -(-2 * m // 3)
        out = {"method": "sperner", "bound": value, "triangle": list(tri)}
    print(json.dumps(out, sort_keys=True))
    return 0


def _gen(args):
    if args.family == "grid":
        inst = gen_grid(args.m)
    elif args.family == "colgrid":
        inst = gen_column_deleted_grid(args.m)
    elif args.family == "random-planar":
        inst = gen_random_planar(args.n, args.k, args.seed)
    else:  # random-points
        from .euclid import gen_random_points
        ps = gen_random_points(args.n, args.k, args.seed)
        inst = _points_instance(ps)
    _write(args.output, serialize_instance(inst))
    return 0


def _points_instance(ps):
    """Wrap a PointSet as an Instance carrying coordinates, with the edges of
    its Delaunay spanner (the euclid solver rebuilds its own graph)."""
    from .euclid import delaunay_spanner
    g = delaunay_spanner(ps)
    return Instance(ps.n, g.edges, ps.anchor_indices, points=ps.points)


def _verify(args):
    inst = _read_instance(args.input)
    ret, claimed = parse_retraction(_read_text(args.retraction))
    rep = stretch(inst, ret)   # validates and measures
    if claimed is not None and claimed != rep.max_stretch:
        raise ValidationError("claimed stretch %r, actual %d"
                              % (claimed, rep.max_stretch))
    print(json.dumps({"valid": True, "stretch": rep.max_stretch},
                     sort_keys=True))
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(prog="retract",
                                description="minimum-stretch retraction "
                                            "toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("solve", help="run a solver on an instance")
    sp.add_argument("--algo", required=True,
                    choices=["planar", "approx", "treewidth", "euclid",
                             "oracle"])
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-o", "--output", default="-")
    sp.add_argument("--host-edges",
                    help="JSON {anchors: [...], edges: [[u,v],...]} for "
                         "treewidth with a non-cycle host")
    sp.set_defaults(func=_solve)

    lp = sub.add_parser("lb", help="compute a stretch lower bound")
    lp.add_argument("--method", required=True,
                    choices=["distance", "lp", "sperner"])
    lp.add_argument("-i", "--input", required=True)
    lp.set_defaults(func=_lb)

    gp = sub.add_parser("gen", help="generate an instance")
    gp.add_argument("family",
                    choices=["grid", "colgrid", "random-planar",
                             "random-points"])
    gp.add_argument("--m", type=int, default=3)
    gp.add_argument("--n", type=int, default=5)
    gp.add_argument("--k", type=int, default=8)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("-o", "--output", default="-")
    gp.set_defaults(func=_gen)

    vp = sub.add_parser("verify", help="re-check a retraction file")
    vp.add_argument("-i", "--input", required=True)
    vp.add_argument("-r", "--retraction", required=True)
    vp.set_defaults(func=_verify)
    return p


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write("validation error: %s\n" % exc)
        return 2
    except (SolverError, ResourceError) as exc:
        sys.stderr.write("solver error: %s\n" % exc)
        return 3
    except OSError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
