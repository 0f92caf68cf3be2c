"""Bundled MILP solver command:

    python3 -m curesched.lpsolve model.lp out.sol

Reads a model file `emit_lp` wrote with `parse_lp`, solves it with HiGHS
through scipy and writes the solution with `format_solution`.  Exit codes:
0 solved to proven optimality, 10 proven infeasible, 1 on an unreadable
model or a failed solve, 2 on a usage error.  CURESCHED_LPSOLVE_TIME_LIMIT
(seconds) caps the solve; a value that is not a positive finite number is
reported and ignored.  This is the only module that imports numpy or scipy.
"""

import math
import os
import sys

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .lpformat import (
    EXIT_INFEASIBLE,
    TIME_LIMIT_ENV,
    format_solution,
    parse_lp,
)

_USAGE = "usage: curesched-lpsolve <model.lp> <out.sol>"


def to_arrays(model):
    """HiGHS arrays for a model with `objective`, `constraints` and
    `variables` (a `MilpModel` or a `ParsedLp`), one integer column from 0
    per variable, in order: (c, A, con_lo, con_hi, lo, hi, integrality)."""
    index = {v.name: i for i, v in enumerate(model.variables)}
    c = np.zeros(len(index))
    for coef, name in model.objective:
        c[index[name]] += coef
    lo = np.zeros(len(index))
    hi = np.array([np.inf if v.hi is None else v.hi for v in model.variables],
                  dtype=float)
    integrality = np.ones(len(index), dtype=int)

    rows, cols, vals = [], [], []
    con_lo, con_hi = [], []
    for r, row in enumerate(model.constraints):
        for coef, name in row.terms:
            rows.append(r)
            cols.append(index[name])
            vals.append(coef)
        con_lo.append(-np.inf if row.sense == "<=" else row.rhs)
        con_hi.append(np.inf if row.sense == ">=" else row.rhs)
    a = sparse.csc_matrix(
        (vals, (rows, cols)), shape=(len(model.constraints), len(index)))
    return c, a, np.array(con_lo), np.array(con_hi), lo, hi, integrality


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 2:
        print(_USAGE, file=sys.stderr)
        return 2
    lp_path, sol_path = args

    try:
        with open(lp_path) as fh:
            parsed = parse_lp(fh.read())
    except OSError as exc:
        print(f"cannot read {lp_path}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"cannot parse {lp_path}: {exc}", file=sys.stderr)
        return 1

    c, a, con_lo, con_hi, lo, hi, integrality = to_arrays(parsed)
    if not parsed.variables:
        # nothing to decide: each row reads 0 <sense> rhs, and the model is
        # optimal at objective 0 exactly when every such row holds
        if not (np.all(con_lo <= 0) and np.all(con_hi >= 0)):
            print("proven infeasible", file=sys.stderr)
            return EXIT_INFEASIBLE
        with open(sol_path, "w") as fh:
            fh.write(format_solution((), 0))
        return 0

    kwargs = {"integrality": integrality, "bounds": Bounds(lo, hi)}
    raw_limit = os.environ.get(TIME_LIMIT_ENV)
    if raw_limit:
        try:
            limit = float(raw_limit)
        except ValueError:
            limit = math.nan
        if 0 < limit < math.inf:
            kwargs["options"] = {"time_limit": limit}
        else:
            print(f"ignoring bad {TIME_LIMIT_ENV} {raw_limit!r}",
                  file=sys.stderr)

    if len(parsed.constraints):
        kwargs["constraints"] = LinearConstraint(a, con_lo, con_hi)
    result = milp(c, **kwargs)

    if result.status == 2:
        print("proven infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    if result.status != 0 or result.x is None:
        print(f"solve failed: {result.message}", file=sys.stderr)
        return 1

    names = [v.name for v in parsed.variables]
    with open(sol_path, "w") as fh:
        fh.write(format_solution(zip(names, result.x), result.fun))
    return 0


if __name__ == "__main__":
    sys.exit(main())
