#!/usr/bin/env python3
"""Compares the exact counters of two perfbench traces, job by job.

    python3 tools/exact_counts_diff.py BASE_TRACE NEW_TRACE

Each trace is a file perfbench/run.py --trace 1 wrote, named
<build>/traces/<workload>-<seed>-<pool seed>.json. Every cegar and pdr job
of the first pass is compared on the counters workloads.json declares
exact (LP checks, pivots, SAT conflicts, PDR obligations, ARG expansions,
refinements), using perfbench's own exact_counts(). Prints each job that
differs or is missing from one trace; exits 0 when none does, 1 otherwise
(2 on a usage error).
"""

import os
import sys

# Import perfbench's run.py without leaving a __pycache__ in perfbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
from run import exact_counts  # noqa: E402


def main(argv):
    if len(argv) != 3:
        print("usage: exact_counts_diff.py BASE_TRACE NEW_TRACE", file=sys.stderr)
        return 2
    base, new = exact_counts(argv[1]), exact_counts(argv[2])
    differing = 0
    for key in sorted(set(base) | set(new)):
        program, engine = key
        if key not in new or key not in base:
            where = "base" if key in base else "new"
            print(f"{engine} {program}: only in the {where} trace")
            differing += 1
            continue
        changed = {c: (base[key][c], new[key][c])
                   for c in base[key] if base[key][c] != new[key][c]}
        if changed:
            print(f"{engine} {program}: " + ", ".join(
                f"{c} {old} -> {cur}" for c, (old, cur) in sorted(changed.items())))
            differing += 1
    print(f"{len(set(base) | set(new))} jobs compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
