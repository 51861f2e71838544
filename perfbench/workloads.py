"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one round of
fixed work in `round`, and checks a round's outputs in `check`, outside the
timed region. A round returns one Op per operation (a solve, a wiggle run,
or a batch-rank call), carrying its wall time, the iterations and oracle
calls it took, and a fingerprint that must repeat bit-for-bit for the seed.

A round calls `between`, if given, between its operations; the untraced
run times set-ups there. With a tracer, a round runs the same work with
the traced oracle class and traced optimizer entry points (see
tracing.py); the caller holds the patched() block that rebinds the names
the package's own callers import.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ffmin.cli import build_parser, main as cli_main
from ffmin.energy import (
    energy_and_gradient,
    energy_bend,
    energy_coulomb,
    energy_stretch,
    energy_torsion,
    energy_total,
    exact_delta_atom_move,
    delta_energy_atom_move,
    linearize_farfield_coulomb,
)
from ffmin.oracle import MolecularOracle
from ffmin.optimizers import (
    CONVERGED,
    ITERATION_BUDGET,
    CgVariant,
    StopCriteria,
    WiggleConfig,
    atom_wiggle,
    cg,
    lbfgs,
    make_linesearch,
)
from ffmin.synth import make_chain_system
from ffmin.sysio import load_system, save_system

import tracing

GRAD_TOL = 1e-4
_clock = time.perf_counter


@dataclass
class Solve:
    """One optimizer run inside an operation: its wall time, from before the
    call to after it returns, and the per-iteration records of its trace."""

    seconds: float
    records: list = field(repr=False)

    @property
    def outside_loop_s(self):
        """Time not between two trace records: the start-point evaluation,
        and what the operation does before the loop starts and after it ends."""
        return self.seconds - (self.records[-1].wall_seconds - self.records[0].wall_seconds)


@dataclass
class Op:
    variant: str
    seconds: float
    iterations: int
    calls: int  # value + gradient calls (wiggle: probes, exact deltas, full energies)
    fingerprint: tuple
    result: object = field(default=None, repr=False)
    detail: dict = field(default_factory=dict)
    # the optimizer runs whose iterations the gated time is taken from
    solves: list = field(default_factory=list, repr=False)


def _fingerprint(res):
    last = res.trace.records[-1]
    return (res.status, int(res.iterations), int(last.value_calls),
            int(last.grad_calls), float(res.f).hex())


def _op_from_result(variant, seconds, res):
    last = res.trace.records[-1]
    return Op(variant, seconds, int(res.iterations),
              int(last.value_calls) + int(last.grad_calls), _fingerprint(res), res,
              solves=[Solve(seconds, res.trace.records)])


def _median_time(fn, min_reps=3, budget_s=0.5, max_reps=200):
    times = []
    t_end = _clock() + budget_s
    while len(times) < min_reps or (_clock() < t_end and len(times) < max_reps):
        t0 = _clock()
        fn()
        times.append(_clock() - t0)
    return statistics.median(times)


def energy_micro(system, workdir):
    """Per-term, delta-path, model and sysio timings on one system."""
    import tracemalloc

    x = system.coords.ravel().copy()
    n = system.natoms
    out = {
        "energy.eval_ms": 1e3 * _median_time(lambda: energy_total(system)),
        "energy.eval_grad_ms": 1e3 * _median_time(lambda: energy_and_gradient(system)),
        "energy.term_ms.stretch": 1e3 * _median_time(lambda: energy_stretch(system)),
        "energy.term_ms.bend": 1e3 * _median_time(lambda: energy_bend(system)),
        "energy.term_ms.torsion": 1e3 * _median_time(lambda: energy_torsion(system)),
        # energy_coulomb runs the one nonbonded kernel that yields both terms
        "energy.term_ms.nonbonded": 1e3 * _median_time(lambda: energy_coulomb(system)),
    }
    # oracle time minus the energy time inside the same calls; a difference
    # of two separately timed medians drowns in noise at large n
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        oracle = tracing.traced_oracle_class(tracer, MolecularOracle)(system)
        _median_time(lambda: oracle.value_and_gradient(x))
    out["oracle.overhead_us_per_call"] = tracing.summarize(tracer.spans)["oracle.overhead_us"]

    tracemalloc.start()
    try:
        energy_and_gradient(system)
        out["energy.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    atom = n // 2
    step = np.array([0.05, 0.0, 0.0])
    out["energy.farfield_build_us"] = 1e6 * _median_time(
        lambda: linearize_farfield_coulomb(system, atom, 7.0))
    out["energy.exact_delta_us"] = 1e6 * _median_time(
        lambda: exact_delta_atom_move(system, atom, step))
    # the delta path rejects systems with a nonbonded cutoff; there it is
    # timed on the same chain without one
    free = system
    if system.nonbonded.cutoff is not None:
        free = _without_cutoff(system)
    lin = linearize_farfield_coulomb(free, atom, 7.0)
    out["energy.delta_us"] = 1e6 * _median_time(lambda: delta_energy_atom_move(free, lin, step))

    shifted = system.coords + 1e-3
    out["model.with_coords_us"] = 1e6 * _median_time(lambda: system.with_coords(shifted))
    builds = []
    while len(builds) < 3 or (sum(builds) < 0.5 and len(builds) < 200):
        fresh = _fresh(system)
        t0 = _clock()
        fresh.arrays()
        builds.append(_clock() - t0)
    out["model.arrays_build_ms"] = 1e3 * statistics.median(builds)

    path = Path(workdir) / "micro.ffs"
    save_system(system, path)
    out["sysio.load_ms"] = 1e3 * _median_time(lambda: load_system(path))
    out["energy.interacting_pair_frac"] = interacting_pair_frac(system)
    return out


def _fresh(system):
    """An equal system with empty caches, as a newly parsed file gives."""
    from ffmin.model import MolecularSystem

    return MolecularSystem(atoms=system.atoms, coords=system.coords, bonds=system.bonds,
                           angles=system.angles, dihedrals=system.dihedrals,
                           nonbonded=system.nonbonded)


def _without_cutoff(system):
    from ffmin.model import MolecularSystem, NonbondedPolicy

    nb = system.nonbonded
    return MolecularSystem(atoms=system.atoms, coords=system.coords, bonds=system.bonds,
                           angles=system.angles, dihedrals=system.dihedrals,
                           nonbonded=NonbondedPolicy(nb.excluded, nb.scaled14, nb.s14, None))


def interacting_pair_frac(system):
    """Share of the i<j pairs that are neither excluded nor beyond the cutoff."""
    c = system.coords
    n = system.natoms
    cutoff = system.nonbonded.cutoff
    total = n * (n - 1) // 2
    if cutoff is None:
        inside = total
        excluded = len(system.nonbonded.excluded)
    else:
        inside = 0
        for i in range(0, n - 1, 256):  # row blocks keep the distance matrix small
            block = c[i:i + 256]
            d = np.sqrt(((block[:, None, :] - c[None, :, :]) ** 2).sum(-1))
            rows = np.arange(i, i + len(block))[:, None]
            inside += int(np.count_nonzero((d <= cutoff) & (np.arange(n)[None, :] > rows)))
        excluded = sum(1 for i, j in system.nonbonded.excluded
                       if math.dist(c[i], c[j]) <= cutoff)
    return (inside - excluded) / total


# ---------------------------------------------------------------------------

class ChainSolve:
    """Three solves of one strained 30-atom chain to |g| <= 1e-4."""

    name = "chain_solve"
    natoms = 30
    methods = ("lbfgs-par", "lbfgs-h", "cg-prp")
    ops_per_round = len(methods)
    round_seconds = 25.0  # nominal length of one round at seed 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.system = make_chain_system(self.natoms, self.seed, strain=0.3)
        self.x0 = self.system.coords.ravel().copy()
        self.oracle = MolecularOracle(self.system)
        self.oracle.value_and_gradient(self.x0)  # lets lazy per-system set-up finish
        self.oracle.reset_counters()

    def _stop(self):
        return StopCriteria(max_iterations=100_000, gradient_norm_tol=GRAD_TOL,
                            gradient_norm_rtol=0.0)

    def _solve(self, method, oracle, wrap):
        if method == "cg-prp":
            fn = wrap(cg, "optimizers.cg")
            return fn(oracle, self.x0, CgVariant("prp"), make_linesearch("par"), self._stop())
        fn = wrap(lbfgs, "optimizers.lbfgs")
        ls = make_linesearch("par" if method == "lbfgs-par" else "h")
        return fn(oracle, self.x0, m=5, linesearch=ls, stop=self._stop())

    def round(self, tracer=None, between=None):
        ops = []
        for i, method in enumerate(self.methods):
            if i and between:
                between()
            if tracer is None:
                oracle, wrap = self.oracle, lambda fn, name: fn
            else:
                oracle = tracing.traced_oracle_class(tracer, MolecularOracle)(self.system)
                wrap = lambda fn, name: tracing.traced_optimizer(tracer, fn, name)
            oracle.reset_counters()
            t0 = _clock()
            res = self._solve(method, oracle, wrap)
            ops.append(_op_from_result(method, _clock() - t0, res))
        return ops

    def check(self, op):
        res = op.result
        if res.status != CONVERGED:
            return [f"{op.variant}: status {res.status}"]
        bd, g = energy_and_gradient(self.system.with_coords(res.x))
        gn = float(np.linalg.norm(g))
        if gn > GRAD_TOL:
            return [f"{op.variant}: fresh |g| = {gn:.3g} > {GRAD_TOL}"]
        if not math.isclose(bd.total, res.f, rel_tol=1e-12, abs_tol=1e-12):
            return [f"{op.variant}: fresh f = {bd.total!r}, reported {res.f!r}"]
        return []

    def micro_system(self):
        return self.system

    def reference(self):
        """scipy L-BFGS-B on the same system through the fused oracle call."""
        try:
            from scipy.optimize import minimize
        except ImportError as exc:
            return {"reference.note": f"scipy unavailable: {exc}"}
        oracle = MolecularOracle(self.system)
        # scipy's gtol bounds the max-norm; this bound implies |g|_2 <= GRAD_TOL
        gtol = GRAD_TOL / math.sqrt(self.x0.size)
        t0 = _clock()
        res = minimize(oracle.value_and_gradient, self.x0, jac=True, method="L-BFGS-B",
                       options={"maxcor": 5, "gtol": gtol, "ftol": 0.0,
                                "maxiter": 100_000, "maxfun": 1_000_000})
        seconds = _clock() - t0
        _, g = energy_and_gradient(self.system.with_coords(res.x))
        return {
            "reference.scipy_s": seconds,
            "reference.scipy_evals": oracle.value_calls,
            "reference.scipy_iterations": int(res.nit),
            "reference.scipy_grad_norm": float(np.linalg.norm(g)),
            "reference.scipy_f": float(res.fun),
        }


class RankDemo:
    """`ffmin batch-rank` with CLI defaults on a make-demo pool of 20 x 12."""

    name = "rank_demo"
    candidates = 20
    natoms = 12
    ops_per_round = candidates + 1  # the candidates and the ranking itself
    round_seconds = 22.0

    def __init__(self, seed, workdir, expected):
        self.seed = seed
        self.workdir = Path(workdir)
        self.expected = expected  # (first_near_native, success) or None
        self.pool = self.workdir / "pool"

    def setup(self):
        if self.pool.exists():
            shutil.rmtree(self.pool)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["make-demo", str(self.pool), "--candidates", str(self.candidates),
                           "--atoms", str(self.natoms), "--seed", str(self.seed)])
        if rc != 0:
            raise RuntimeError(f"make-demo exited with {rc}")

    def _argv(self):
        return ["batch-rank", str(self.pool / "candidates"),
                "--ref", str(self.pool / "reference.ffs")]

    def round(self, tracer=None, between=None):
        paths = sorted(p for p in (self.pool / "candidates").iterdir() if p.is_file())
        direct = paths[::2]
        half = len(direct) // 2
        if tracer is None:
            # every other candidate is also solved directly, half of them
            # before the timed batch and half after it, so that the
            # iterations the gated time is taken from span the whole round
            solves, counts = self.replay(direct[:half])
            if between:
                between()
        run = cli_main if tracer is None else tracer.wrap("cli", "cli.main", cli_main)
        out = io.StringIO()
        t0 = _clock()
        with contextlib.redirect_stdout(out):
            rc = run(self._argv())
        seconds = _clock() - t0
        text = out.getvalue()
        if tracer is None:
            if between:
                between()
            more_solves, more_counts = self.replay(direct[half:])
            solves += more_solves
            counts += more_counts
            solved = counts
        else:
            solves = []
            # the batch's own solves, in the order it takes the files
            solved = [(e["iterations"], e["value_calls"] + e["grad_calls"], e["status"],
                       float(e["f"]).hex())
                      for _, name, *_, e in tracer.spans if name == "optimizers.lbfgs"]
            counts = solved[::2]
        op = Op("batch-rank", seconds, sum(c[0] for c in solved), sum(c[1] for c in solved),
                (rc, text, tuple(counts)), solves=solves)
        op.detail = {"rc": rc, "lines": text.splitlines(), "counts": counts}
        return [op]

    def replay(self, paths):
        """Each candidate file's load and solve as batch-rank makes them,
        with the CLI's defaults, timed one by one; and per candidate its
        (iterations, calls, status, f).

        Runs outside the timed batch. Its status and energy must match the
        batch-rank report, which also ties the counts to that run.
        """
        args = build_parser().parse_args(self._argv())
        stop = StopCriteria(max_iterations=args.max_iters, max_oracle_calls=args.max_oracle_calls,
                            gradient_norm_tol=args.tol, gradient_norm_rtol=args.rtol,
                            max_wall_time=args.max_time)
        solves, counts = [], []
        for path in paths:
            t0 = _clock()
            system = load_system(path)
            # a line search keeps a warm-started step, so each solve gets its own
            ls = (make_linesearch("h", h0=args.h0) if args.ls == "h" else
                  make_linesearch("par", h0=args.h0, K=args.ls_budget,
                                  use_gradient_start=not args.no_gradient_start))
            oracle = MolecularOracle(system)
            res = lbfgs(oracle, system.coords.ravel(), m=args.m, linesearch=ls, stop=stop)
            solves.append(Solve(_clock() - t0, res.trace.records))
            last = res.trace.records[-1]
            counts.append((int(res.iterations), int(last.value_calls) + int(last.grad_calls),
                           res.status, float(res.f).hex()))
        return solves, counts

    def check(self, op):
        """Failure messages, one per failed candidate or ranking."""
        lines = op.detail["lines"]
        fails = []
        if op.detail["rc"] != 0:
            return [f"batch-rank exited with {op.detail['rc']}"]
        first = lines[0].split(":", 1)[1].strip()
        success = lines[1].split(":", 1)[1].strip() == "true"
        rows = [ln.split(",", 4) for ln in lines[3:]]
        by_id = {r[1]: r for r in rows}
        counts = op.detail["counts"]
        ids = sorted(by_id)
        if len(rows) != self.candidates or len(counts) != len(ids[::2]):
            return [f"expected {self.candidates} candidates, report has {len(rows)}"]
        fails += [f"{r[1]}: {r[4]}" for r in rows if r[4].startswith("error:")]
        for cid, (_, _, status, fhex) in zip(ids[::2], counts):
            _, _, energy, _, rstatus = by_id[cid]
            if rstatus.startswith("error:"):
                continue
            if rstatus != status or energy != f"{float.fromhex(fhex):.10g}":
                fails.append(f"{cid}: report ({energy}, {rstatus}) differs from the "
                             f"direct solve ({float.fromhex(fhex):.10g}, {status})")
        if self.expected is not None:
            want = (str(self.expected[0]), bool(self.expected[1]))
        else:
            want = (first, True)  # no record for this seed: require success only
        if (first, success) != want:
            fails.append(f"ranking gave first_near_native={first} success={success}, "
                         f"recorded {want}")
        return fails

    def micro_system(self):
        return load_system(sorted((self.pool / "candidates").iterdir())[0])


class Wiggle:
    """atom_wiggle on a 300-atom chain, incremental and full-recompute branches."""

    name = "wiggle"
    natoms = 300
    # the incremental count is not a multiple of the resync epoch, so the
    # final energy check compares against deltas accumulated since a resync
    iterations = {"incremental": 350, "full": 25}
    ops_per_round = len(iterations)
    round_seconds = 2.5

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.system = make_chain_system(self.natoms, self.seed, strain=0.3)
        energy_total(self.system)  # lets lazy per-system set-up finish

    def round(self, tracer=None, between=None):
        run = atom_wiggle if tracer is None else tracing.traced_optimizer(
            tracer, atom_wiggle, "optimizers.atom_wiggle")
        ops = []
        for i, (branch, iters) in enumerate(self.iterations.items()):
            if i and between:
                between()
            cfg = WiggleConfig(seed=self.seed, use_incremental_coulomb=branch == "incremental")
            t0 = _clock()
            res = run(self.system, cfg, StopCriteria(max_iterations=iters))
            ops.append(_op_from_result(branch, _clock() - t0, res))
        return ops

    def check(self, op):
        res = op.result
        if res.status != ITERATION_BUDGET:
            return [f"{op.variant}: status {res.status}"]
        records = res.trace.records
        epoch = WiggleConfig().epoch_iterations
        for prev, rec in zip(records, records[1:]):
            resync = op.variant == "incremental" and rec.iteration % epoch == 0
            # between resyncs the running energy moves only by the exact delta
            # of an accepted move; a resync may shift it by rounding alone
            drift = 1e-9 * abs(prev.f) if resync else 0.0
            if rec.step > 0.0 and not rec.f < prev.f + drift:
                return [f"{op.variant}: accepted move at {rec.iteration} did not lower f"]
            if rec.step == 0.0 and abs(rec.f - prev.f) > drift:
                return [f"{op.variant}: f changed without a move at {rec.iteration}"]
        e_final = energy_total(res.system).total
        if not math.isclose(e_final, res.f, rel_tol=1e-9, abs_tol=1e-9):
            return [f"{op.variant}: final f {res.f!r} but energy_total gives {e_final!r}"]
        return []

    def micro_system(self):
        return self.system


class LargeChain:
    """A few LBFGS iterations on a 1000-atom chain with a 10 A cutoff."""

    name = "large_chain"
    # at 2000 atoms a round takes about 12 s, so a 10 s run would hold one
    # round and could not set a slowed one aside; the O(n^2) kernel still
    # dominates at 1000
    natoms = 1000
    iterations = 5
    ops_per_round = 1
    round_seconds = 2.8

    def __init__(self, seed, workdir, naive):
        self.seed = seed
        self.workdir = workdir
        self.naive = naive
        self._naive = {}

    def setup(self):
        self.system = make_chain_system(self.natoms, self.seed, strain=0.3, cutoff=10.0)
        self.x0 = self.system.coords.ravel().copy()
        self.oracle = MolecularOracle(self.system)
        self.oracle.value_and_gradient(self.x0)  # lets lazy per-system set-up finish
        self.oracle.reset_counters()

    def round(self, tracer=None, between=None):
        if tracer is None:
            oracle, run = self.oracle, lbfgs
        else:
            oracle = tracing.traced_oracle_class(tracer, MolecularOracle)(self.system)
            run = tracing.traced_optimizer(tracer, lbfgs, "optimizers.lbfgs")
        oracle.reset_counters()
        t0 = _clock()
        res = run(oracle, self.x0, m=5, linesearch=make_linesearch("par"),
                  stop=StopCriteria(max_iterations=self.iterations, gradient_norm_rtol=0.0))
        return [_op_from_result("lbfgs-par", _clock() - t0, res)]

    def check(self, op):
        res = op.result
        if res.status != ITERATION_BUDGET or res.iterations != self.iterations:
            return [f"status {res.status} after {res.iterations} iterations"]
        if not res.f < res.trace.records[0].f:
            return ["energy did not decrease"]
        key = float(res.f).hex()
        if key not in self._naive:  # rounds that repeat exactly share one check
            self._naive[key] = self.naive.total_energy(self.system.with_coords(res.x))
        ref = self._naive[key]
        if not math.isclose(ref, res.f, rel_tol=1e-9, abs_tol=1e-9):
            return [f"final f {res.f!r} but the naive oracle gives {ref!r}"]
        return []

    def micro_system(self):
        return self.system
