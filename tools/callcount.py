"""Call counts of the gated workloads' bookkeeping, which repeat exactly.

    python tools/callcount.py <src dir> [--seed S]

imports ffmin from <src dir> and counts, with sys.setprofile, the
Python-level calls ("call" events) and builtin calls ("c_call" events) of
three operations:

  * chain_solve's set-up on make_chain_system(30, S, strain=0.3): the
    system, its oracle and the first fused call;
  * chain_solve's lbfgs-par solve from there (m = 5, |g| <= 1e-4, at most
    500 iterations);
  * rank_demo's solve: batch-rank's lbfgs with the CLI's defaults on the
    first candidate of a make-demo pool of 12-atom chains with seed S,
    written to a temporary directory and loaded as batch-rank loads it.

A solve's counts are divided by the iterations it took. It prints one JSON
object: each solve's iterations, and {operation: [python, builtin]}. The
counts are the same on every run in a new process, so a change to the
bookkeeping shows without host noise; the hook does not see ufuncs, array
operators or np.bincount, so the counts say nothing about kernel work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ATOMS = 30
MAX_ITERATIONS = 500
GRAD_TOL = 1e-4
DEMO_ATOMS = 12


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


def per_iteration(res, py, c):
    """[python, builtin] calls per iteration of the solve res."""
    per = max(res.iterations, 1)
    return [py / per, c / per]


def chain_solve_counts(seed):
    """(iterations, {operation: counts}) of chain_solve's set-up and solve."""
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
    return res.iterations, {"chain_solve setup": [py_setup, c_setup],
                            "chain_solve lbfgs-par per iteration": per_iteration(res, py, c)}


def rank_demo_counts(seed):
    """(iterations, {operation: counts}) of rank_demo's solve of one candidate."""
    from ffmin import cli
    from ffmin.sysio import load_system

    with tempfile.TemporaryDirectory(prefix="callcount-") as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["make-demo", tmp, "--candidates", "1",
                             "--atoms", str(DEMO_ATOMS), "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"make-demo exited with {code}")
        pool = Path(tmp)
        args = cli.build_parser().parse_args(
            ["batch-rank", str(pool / "candidates"), "--ref", str(pool / "reference.ffs")])
        system = load_system(pool / "candidates" / "cand_00.ffs")
    res, py, c = profiled(lambda: cli._run_method(args, system))
    return res.iterations, {"rank_demo lbfgs per iteration": per_iteration(res, py, c)}


def count_calls(seed):
    """The counts callcount.py prints, from the ffmin on sys.path."""
    chain_iterations, chain = chain_solve_counts(seed)
    demo_iterations, demo = rank_demo_counts(seed)
    return {"iterations": {"chain_solve lbfgs-par": chain_iterations,
                           "rank_demo lbfgs": demo_iterations},
            "calls": {**chain, **demo}}


def main(argv):
    p = argparse.ArgumentParser(prog=argv[0], description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="the directory ffmin is imported from")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv[1:])
    sys.path.insert(0, args.src)
    print(json.dumps(count_calls(args.seed)))


if __name__ == "__main__":
    main(sys.argv)
