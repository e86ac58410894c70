"""One workload in one fresh interpreter: set up, run the closed loop, check
every answer, and print one JSON object. Started by run.py.

The loop has one caller: an item's input is built afresh, its solver call
is timed, and its answer is checked before the next item starts. Rounds of
the workload's ladder repeat until --seconds have passed, ending on a round
boundary so every run solves whole rounds.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def solve_once(item, recorder=None):
    """Build the item's input afresh, time its solve, with the trace
    wrappers installed only when a recorder is given, and check the answer.
    Returns ((instance, solve_s, ok, gap), failure message or None)."""
    import spans
    import workloads
    build, solve, _ = workloads.ROUTES[item.route]
    arg = build(item)
    if recorder is None and spans.installed():
        raise SystemExit("trace wrappers present in the timed run: %s"
                         % spans.installed())
    patches = spans.install(recorder) if recorder else []
    try:
        # collect earlier solves' garbage now, not inside this solve
        gc.collect()
        t0 = time.perf_counter()
        try:
            answer = recorder.solve(solve, arg) if recorder else solve(arg)
        except Exception as exc:  # a raising solve is a failed solve
            answer = exc
        t1 = time.perf_counter()
    finally:
        spans.uninstall(patches)
    if isinstance(answer, Exception):
        ok, gap = False, None
        failure = "%s: %s" % (item.key, "".join(
            traceback.format_exception_only(answer)).strip())
    else:
        ok, gap = workloads.check(item, answer)
        failure = None if ok else "%s: check failed" % item.key
    return ((item.key, item.route), t1 - t0, ok, gap), failure


def measure(rounds, seconds, recorder=None):
    """Run whole rounds until `seconds` pass. Returns the untraced and the
    traced (instance, solve_s, ok, gap) samples, the number of rounds and
    the failures.

    With a recorder every item is solved twice back to back, untraced and
    traced, so that drift of the host's speed cancels in the ratio of the
    two; which goes first alternates, because a second solve of the same
    input runs on warmer caches."""
    samples, traced, failures = [], [], []
    start = time.perf_counter()
    n_rounds = 0
    while True:
        for i, item in enumerate(rounds[n_rounds % len(rounds)]):
            order = [None] if recorder is None else (
                [None, recorder] if i % 2 == 0 else [recorder, None])
            for rec in order:
                sample, failure = solve_once(item, rec)
                (samples if rec is None else traced).append(sample)
                failures += [failure] if failure else []
        n_rounds += 1
        if time.perf_counter() - start >= seconds:
            return samples, traced, n_rounds, failures


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import retract
    if Path(retract.__file__).resolve().parent != ROOT / "src" / "retract":
        raise SystemExit("retract imported from %s, not from this checkout"
                         % retract.__file__)
    import spans
    import summary
    import workloads

    spec = json.loads((HERE / "metrics.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        rounds = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workloads.warm_up(args.workload, workdir)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        workloads.attach_references(rounds, workloads.load_references())

        info = {"setup_s": setup_s}
        if args.trace == 0:
            samples, _, n_rounds, failures = measure(rounds, args.seconds)
            pct = spec["workloads"][args.workload]["tail_percentile"]
            metrics = summary.end_to_end(samples, pct)
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            info.update(tail_percentile=pct,
                        tail_beyond=summary.beyond(len(samples), pct))
            if info["tail_beyond"] < summary.TAIL_BEYOND:
                print("warning: %d samples beyond p%s; for %d samples the "
                      "tail rule gives p%s" % (
                          info["tail_beyond"], pct, len(samples),
                          summary.tail_percentile(len(samples))),
                      file=sys.stderr)
        else:
            recorder = spans.Recorder()
            samples, traced, n_rounds, failures = measure(
                rounds, args.seconds, recorder)
            overhead = (sum(s[1] for s in traced)
                        / sum(s[1] for s in samples))
            metrics = summary.layer_metrics(recorder.spans, len(traced),
                                            overhead, spec["per_layer"])
            samples += traced
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}
        for line in failures:
            print("failed: " + line, file=sys.stderr)
        failed = sum(1 for s in samples if not s[2])
        info["rounds"] = n_rounds
        print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                          "failed": failed, "metrics": metrics,
                          "info": info}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
