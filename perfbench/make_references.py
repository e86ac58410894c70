"""Write references.json: the reference optimum of every seed-independent
instance the workloads solve.

Each is the brute-force oracle's optimum where the oracle can decide, and
otherwise the exact planar solver's; "by" records which. Every timed exact
solve is checked against these, so where the oracle decided, each run
cross-checks the solver against it.

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    table = {}
    for item in workloads.reference_ladder():
        opt, by = workloads.compute_reference(item)
        if isinstance(opt, Fraction):
            opt = [opt.numerator, opt.denominator]
        table[item.key] = {"optimum": opt, "by": by}
    workloads.REFERENCES.write_text(json.dumps(table, indent=1,
                                               sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
