"""The bundled LP solver command with spans, for the traced `hop-lp` run.

Used as the adapter's solver command in place of
`python -m curesched.lpsolve`: it wraps the names `curesched.lpsolve`
holds for the LP parser and the HiGHS call, runs the stock `main`, and
appends its spans as one JSON line to the file named by the
PERFBENCH_CHILD_SPANS environment variable.  The parent takes the child's
start-up time as the child's wall time minus the `main` span.

    python3 perfbench/lpsolve_traced.py model.lp out.sol
"""

import json
import os
import sys
import time

import curesched.lpsolve as lpsolve

_spans = []


def _traced(name, fn):
    def call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _spans.append((name, t0, time.perf_counter()))
    return call


def main(argv) -> int:
    lpsolve.parse_lp = _traced("lpformat.parse_lp", lpsolve.parse_lp)
    lpsolve.milp = _traced("lpsolve.highs", lpsolve.milp)
    t0 = time.perf_counter()
    try:
        return lpsolve.main(argv)
    finally:
        _spans.append(("lpsolve.main", t0, time.perf_counter()))
        with open(os.environ["PERFBENCH_CHILD_SPANS"], "a") as fh:
            fh.write(json.dumps(_spans) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
