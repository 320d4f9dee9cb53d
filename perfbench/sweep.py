"""(n, L) scaling sweep of the joint n-copy construction; reported, not gated.

Usage, from the repository root::

    python3 perfbench/sweep.py

For each case, times ``fibanyon.multicopy.n_copy`` on a state with L
distinct Schmidt coefficients at copy count n, and prints the time, the
compositions enumerated, C(n+L-1, L-1), and the groups in the result.  The
grid covers the tau-pair at n = 24, rank 6 at n = 12 and L = 20 at n = 6.
A case that runs past ``BUDGET_S`` seconds is stopped and printed as
"over budget", so a blow-up shows as a line instead of a hang.  The
coefficients come from a fixed seed; the cost of ``n_copy`` depends only
on (n, L).
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

from run import OpTimeout, import_program, time_limit
from tracing import group_count

#: (L, copy counts); L = 1 is the tau-pair, larger L split over both sectors.
GRID = ((1, (6, 12, 24)), (6, (4, 8, 12)), (10, (4, 6, 8)), (20, (2, 4, 6)))

#: Seconds each case may run before it is stopped.
BUDGET_S = 3.0


def _state(fibanyon, rng: np.random.Generator, distinct: int):
    if distinct == 1:
        return fibanyon.new_schmidt_state({"tau": [1.0]})
    values = rng.dirichlet(np.full(distinct, 2.0))
    half = distinct // 2
    return fibanyon.new_schmidt_state({"1": list(values[:half]), "tau": list(values[half:])})


def main() -> int:
    import_program()
    import fibanyon
    from fibanyon.multicopy import n_copy

    rng = np.random.default_rng(0)
    rows = []
    print(f"{'L':>3} {'n':>3} {'compositions':>13} {'groups':>9} {'ms':>10}")
    for distinct, copies in GRID:
        state = _state(fibanyon, rng, distinct)
        for n in copies:
            row = {"L": distinct, "n": n, "compositions": math.comb(n + distinct - 1, distinct - 1)}
            start = time.perf_counter()
            try:
                with time_limit(BUDGET_S):
                    joint = n_copy(state, n)
                row["ms"] = (time.perf_counter() - start) * 1e3
                row["groups"] = group_count(joint)
                shown = f"{row['groups']:>9} {row['ms']:>10.2f}"
            except OpTimeout:
                row["over_budget_s"] = BUDGET_S
                shown = f"{'-':>9} over budget ({BUDGET_S:g} s)"
            print(f"{distinct:>3} {n:>3} {row['compositions']:>13} {shown}", flush=True)
            rows.append(row)
    print(json.dumps({"sweep": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
