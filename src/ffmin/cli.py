"""Command line interface.

What the library raises passes through unchanged: main prints a ValueError
(a file, model or energy fault among them), a DivergenceError or an OSError
as one `ffmin: error:` line and exits 2, and batch-rank makes a candidate's
file, model, energy or divergence fault its error row. So a bad geometry
gets the fault the energy layer names from every subcommand and method.

Exit codes: 0 success, 2 input/configuration error, 3 line-search
failure, 4 budget exhausted (iterations, oracle calls, or wall time).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .energy import EnergyEvaluationError, energy_and_gradient
from .model import ModelError
from .oracle import MolecularOracle
from .optimizers import (
    CG_VARIANTS,
    CONVERGED,
    HORIZON_COMPLETE,
    LINESEARCH_FAILURE,
    CgVariant,
    DivergenceError,
    StopCriteria,
    WiggleConfig,
    atom_wiggle,
    cg,
    fgm,
    gradient_descent_fixed,
    lbfgs,
    make_linesearch,
    ofgm,
    steepest_descent,
)
from .ranking import CandidateResult, RankingReport, rmsd
from .synth import make_chain_system, perturbed_copy
from .sysio import SystemFileError, load_system, save_system
from .tracefile import write_trace

METHODS = ("gd", "sd", "fgm", "ofgm", "cg", "lbfgs", "wiggle")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LINESEARCH = 3
EXIT_BUDGET = 4

_STATUS_EXIT = {
    CONVERGED: EXIT_OK,
    HORIZON_COMPLETE: EXIT_OK,
    LINESEARCH_FAILURE: EXIT_LINESEARCH,
}


class CliError(Exception):
    """Input or configuration problem; maps to exit code 2."""


def _fail(msg):
    raise CliError(msg)


def _add_method_options(p):
    p.add_argument("--method", choices=METHODS, default="lbfgs",
                   help="minimization method (default: %(default)s)")
    p.add_argument("--ls", choices=("h", "par"), default="par",
                   help="line search for sd/fgm/cg/lbfgs; gd and ofgm step 1/L "
                        "instead (default: %(default)s)")
    p.add_argument("--h0", type=float, default=1.0,
                   help="initial line-search step (default: %(default)s)")
    p.add_argument("--ls-budget", type=int, default=6, metavar="K",
                   help="parabolic search cap K: at most K + 2 value calls "
                        "(default: %(default)s)")
    p.add_argument("--no-gradient-start", action="store_true",
                   help="seed the parabolic search from two probes instead of "
                        "the directional derivative")
    p.add_argument("--m", type=int, default=3,
                   help="lbfgs memory depth (default: %(default)s)")
    p.add_argument("--cg-variant", default="prp",
                   help=f"cg beta formula: {'|'.join(CG_VARIANTS)} (default: %(default)s)")
    p.add_argument("--restart", type=int, default=100, metavar="K",
                   help="cg restart period (default: %(default)s)")
    p.add_argument("--L", type=float, default=None,
                   help="smoothness constant; gd and ofgm need it, and ofgm "
                        "also --horizon")
    p.add_argument("--horizon", type=int, default=None, metavar="N",
                   help="ofgm horizon")
    p.add_argument("--wiggle-h", type=float, default=0.05,
                   help="wiggle probe step in angstrom (default: %(default)s)")
    p.add_argument("--wiggle-cutoff", type=float, default=7.0,
                   help="wiggle near-field radius in angstrom (default: %(default)s)")
    p.add_argument("--full-recompute", action="store_true",
                   help="wiggle probes are exact single-atom deltas, O(n) each, "
                        "instead of the far-field model")
    p.add_argument("--epoch", type=int, default=100,
                   help="wiggle iterations between full-energy resyncs "
                        "(default: %(default)s)")
    p.add_argument("--max-iters", type=int, default=10_000,
                   help="iteration budget (default: %(default)s)")
    p.add_argument("--max-oracle-calls", type=int, default=None,
                   help="total oracle call budget (default: unlimited)")
    p.add_argument("--max-time", type=float, default=None,
                   help="wall-time budget in seconds (default: unlimited)")
    p.add_argument("--tol", type=float, default=0.0,
                   help="absolute gradient-norm tolerance (default: %(default)s)")
    p.add_argument("--rtol", type=float, default=1e-6,
                   help="relative gradient-norm tolerance (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for stochastic methods, echoed into traces "
                        "(default: %(default)s)")


def _build_stop(args):
    return StopCriteria(
        max_iterations=args.max_iters,
        max_oracle_calls=args.max_oracle_calls,
        gradient_norm_tol=args.tol,
        gradient_norm_rtol=args.rtol,
        max_wall_time=args.max_time,
    )


def _build_linesearch(args):
    if args.ls == "h":
        return make_linesearch("h", h0=args.h0)
    return make_linesearch(
        "par", h0=args.h0, K=args.ls_budget,
        use_gradient_start=not args.no_gradient_start,
    )


def _run_method(args, system):
    stop = _build_stop(args)
    if args.method == "wiggle":
        cfg = WiggleConfig(
            h=args.wiggle_h,
            seed=args.seed,
            epoch_iterations=args.epoch,
            use_incremental_coulomb=not args.full_recompute,
            cutoff=args.wiggle_cutoff,
        )
        return atom_wiggle(system, cfg, stop)
    oracle = MolecularOracle(system)
    x0 = system.coords.ravel()
    m = args.method
    if m in ("gd", "ofgm") and args.L is None:
        _fail(f"{m} requires --L")
    if m == "gd":
        return gradient_descent_fixed(oracle, x0, args.L, stop)
    if m == "sd":
        return steepest_descent(oracle, x0, _build_linesearch(args), stop)
    if m == "fgm":
        return fgm(oracle, x0, _build_linesearch(args), stop)
    if m == "ofgm":
        if args.horizon is None:
            _fail("ofgm requires --horizon")
        return ofgm(oracle, x0, args.horizon, args.L, stop)
    if m == "cg":
        return cg(oracle, x0, CgVariant(args.cg_variant, restart_period=args.restart),
                  _build_linesearch(args), stop)
    if m == "lbfgs":
        return lbfgs(oracle, x0, m=args.m, linesearch=_build_linesearch(args),
                     stop=stop)


def _print_breakdown(bd, grad_max, out=None):
    out = out if out is not None else sys.stdout
    for name in ("stretch", "bend", "torsion", "coulomb", "vdw"):
        print(f"{name:<8} {getattr(bd, name):.10g}", file=out)
    print(f"{'total':<8} {bd.total:.10g}", file=out)
    print(f"{'grad_max':<8} {grad_max:.10g}", file=out)


def cmd_energy(args):
    system = load_system(args.file)
    bd, g = energy_and_gradient(system)
    _print_breakdown(bd, float(np.max(np.abs(g), initial=0.0)))
    return EXIT_OK


def cmd_minimize(args):
    system = load_system(args.file)
    result = _run_method(args, system)
    final = system.with_coords(result.x)
    bd, g = energy_and_gradient(final)
    print(f"method   {args.method}")
    print(f"status   {result.status}")
    print(f"iters    {result.trace.iterations}")
    _print_breakdown(bd, float(np.max(np.abs(g), initial=0.0)))
    if args.out:
        save_system(final, args.out)
    if args.trace:
        write_trace(args.trace, result.trace, seed=args.seed)
    return _STATUS_EXIT.get(result.status, EXIT_BUDGET)


def cmd_batch_rank(args):
    ref = load_system(args.ref)
    paths = sorted(p for p in Path(args.dir).iterdir() if p.is_file())
    if not paths:
        _fail(f"no candidate files in {args.dir}")
    results = []
    for path in paths:
        cid = path.stem
        try:
            cand = load_system(path)
            if cand.natoms != ref.natoms:
                raise SystemFileError(
                    f"{path}: candidate has {cand.natoms} atoms, "
                    f"reference has {ref.natoms}"
                )
            res = _run_method(args, cand)
            final = cand.with_coords(res.x)
            results.append(CandidateResult(
                id=cid,
                energy=float(res.f),
                rmsd=rmsd(final.coords, ref.coords),
                status=res.status,
            ))
        except (SystemFileError, ModelError, EnergyEvaluationError,
                DivergenceError) as exc:
            results.append(CandidateResult(
                id=cid, energy=math.inf, rmsd=math.inf,
                status=f"error: {exc}",
            ))
    report = RankingReport.build(results)
    out = io.StringIO()
    out.write(
        f"# first_near_native: "
        f"{report.first_near_native if report.first_near_native is not None else 'none'}\n"
        f"# success: {'true' if report.success else 'false'}\n")
    # minimal quoting: a status that holds a comma, as a pair fault's
    # "(i,j)" does, is quoted, so every row has the header's five fields
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(("rank", "id", "energy", "rmsd", "status"))
    rows.writerows((rank, cand.id, f"{cand.energy:.10g}", f"{cand.rmsd:.6g}", cand.status)
                   for rank, cand in enumerate(report.candidates))
    text = out.getvalue()
    print(text, end="")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_make_demo(args):
    if args.candidates < 1 or args.atoms < 2:
        _fail(f"make-demo needs --candidates >= 1 and --atoms >= 2, "
              f"got {args.candidates} and {args.atoms}")
    if args.seed < 0:
        _fail(f"make-demo needs --seed >= 0, got {args.seed}")
    out = Path(args.dir)
    cand_dir = out / "candidates"
    if (out / "reference.ffs").exists() or (cand_dir.is_dir() and any(cand_dir.iterdir())):
        _fail(f"make-demo: {out} already holds a pool; use a new or empty directory")
    cand_dir.mkdir(parents=True, exist_ok=True)
    ref = make_chain_system(args.atoms, seed=args.seed, strain=0.15)
    save_system(ref, out / "reference.ffs")
    rng = np.random.default_rng(args.seed)
    for i in range(args.candidates):
        # half the pool stays near the reference, half is scrambled far away
        scale = 0.3 if i % 2 == 0 else 8.0
        cand = perturbed_copy(ref, scale, seed=int(rng.integers(2**31)))
        save_system(cand, cand_dir / f"cand_{i:02d}.ffs")
    print(f"wrote reference.ffs and {args.candidates} candidates under {out}")
    return EXIT_OK


@functools.cache
def build_parser():
    """The CLI's parser, built once: parse_args returns a fresh namespace,
    and each subcommand's fn looks up what it calls when it runs."""
    parser = argparse.ArgumentParser(
        prog="ffmin",
        description="Force-field energy evaluation and minimization toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"ffmin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="print the energy breakdown of a system file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("minimize", help="minimize a system and report the result")
    p.add_argument("file")
    _add_method_options(p)
    p.add_argument("--trace", default=None, metavar="CSV",
                   help="write the per-iteration trace here")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the minimized system here")
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("batch-rank",
                       help="minimize every candidate in a directory and rank "
                            "by final energy")
    p.add_argument("dir")
    p.add_argument("--ref", required=True, help="reference (native) system file")
    _add_method_options(p)
    p.add_argument("--report", default=None, metavar="CSV",
                   help="also write the ranking table here")
    p.set_defaults(fn=cmd_batch_rank)

    p = sub.add_parser("make-demo",
                       help="write a synthetic reference + candidate set for "
                            "batch-rank")
    p.add_argument("dir")
    p.add_argument("--candidates", type=int, default=20)
    p.add_argument("--atoms", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_make_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, DivergenceError, OSError, ValueError) as exc:
        print(f"ffmin: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
