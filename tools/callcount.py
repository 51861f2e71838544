"""Call counts of the chain_solve workload's bookkeeping, which repeat exactly.

    python tools/callcount.py <src dir> [--seed S]

imports ffmin from <src dir> and counts, with sys.setprofile, the
Python-level calls ("call" events) and builtin calls ("c_call" events) of
two operations on make_chain_system(30, S, strain=0.3): chain_solve's
set-up (the system, its oracle and the first fused call), and one
lbfgs-par solve from there (m = 5, |g| <= 1e-4, at most 500 iterations),
divided by the iterations it took. It prints one JSON object: the solve's
iterations, and {operation: [python, builtin]}. The counts are the same
on every run in a new process, so a change to the bookkeeping shows
without host noise; the hook does not see ufuncs, array operators or
np.bincount, so the counts say nothing about kernel work.
"""

from __future__ import annotations

import argparse
import json
import sys

ATOMS = 30
MAX_ITERATIONS = 500
GRAD_TOL = 1e-4


def profiled(fn):
    """(fn(), Python-level calls, builtin calls) of one call of fn."""
    counts = {"call": 0, "c_call": 0}

    def hook(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts["call"], counts["c_call"]


def count_calls(seed):
    """The counts callcount.py prints, from the ffmin on sys.path."""
    from ffmin import MolecularOracle, StopCriteria, lbfgs, make_chain_system, make_linesearch

    def setup():
        system = make_chain_system(ATOMS, seed, strain=0.3)
        x0 = system.coords.ravel().copy()
        oracle = MolecularOracle(system)
        oracle.value_and_gradient(x0)
        return oracle, x0

    setup()  # the first set-up in a process also pays one-time imports and caches
    (oracle, x0), py_setup, c_setup = profiled(setup)
    stop = StopCriteria(max_iterations=MAX_ITERATIONS, gradient_norm_tol=GRAD_TOL,
                        gradient_norm_rtol=0.0)
    res, py, c = profiled(
        lambda: lbfgs(oracle, x0, m=5, linesearch=make_linesearch("par"), stop=stop))
    per = max(res.iterations, 1)
    return {"iterations": res.iterations,
            "calls": {"setup": [py_setup, c_setup], "lbfgs-par per iteration": [py / per, c / per]}}


def main(argv):
    p = argparse.ArgumentParser(prog=argv[0], description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="the directory ffmin is imported from")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv[1:])
    sys.path.insert(0, args.src)
    print(json.dumps(count_calls(args.seed)))


if __name__ == "__main__":
    main(sys.argv)
