"""The retract benchmark: one command, each workload in its own fresh
single-threaded interpreter.

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload planar-exact --seed 3
    python3 perfbench/run.py --workload euclid-points --trace 1

With --trace 0 it prints every end-to-end metric; with --trace 1 the
per-layer metrics of a traced run. --seconds defaults to run_seconds in
BENCHMARK.json; the tail percentiles in metrics.json are chosen for runs
that long, and a shorter run warns when it leaves fewer than ten solves
beyond its percentile. The last line of standard output is one
JSON object: for a single workload {"correct", "attempted", "failed",
"metrics"}, for all of them one such object per workload name. Run it from
the root of a checkout; it builds nothing and imports retract from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run must end within 180 s; the worker gets what is left of this
BUDGET_S = 170
# fresh interpreters whose set-up time is measured, the timed one included
SETUPS = 5


def child(args, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                          stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT,
                          timeout=max(1, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    common = ["--workload", name, "--seed", str(seed)]
    res = child(common + ["--seconds", str(seconds), "--trace", str(trace)],
                deadline)
    info = res.pop("info")
    tail = ""
    if trace == 0:
        setups = [info["setup_s"]] + [
            child(common + ["--seconds", "0", "--setup-only"],
                  deadline)["setup_s"] for _ in range(SETUPS - 1)]
        res["metrics"] = dict(
            setup_s={"value": statistics.median(setups), "unit": "s"},
            **res["metrics"])
        tail = "tail p%s with %d beyond; " % (info["tail_percentile"],
                                              info["tail_beyond"])
    print("%s seed %d: %d solves in %d rounds, %d failed; %s%s" % (
        name, seed, res["attempted"], info["rounds"], res["failed"], tail,
        ", ".join("%s %.6g %s" % (k, m["value"], m["unit"])
                  for k, m in res["metrics"].items())))
    return res


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "retract" / "__init__.py").is_file():
        print("no src/retract in %s: run from a checkout of the repository"
              % ROOT, file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S * (len(names) if args.workload
                                              == "all" else 1)
    try:
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds,
                               args.trace, deadline)
        else:
            res = {n: run_workload(n, args.seed, args.seconds, args.trace,
                                   deadline) for n in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
