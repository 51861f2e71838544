"""Identity digest of the optimizers' results.

    python tools/identity.py <src dir>

imports ffmin from <src dir>, makes a fixed list of runs and prints one line
per run (name, status, iterations, the head of its sha256), then the run
count and one sha256 over every run's digest. A run's digest covers the
bytes of x, f, |g|, the status, the trace metadata and every TraceRecord
field but wall_seconds; a run that raises hashes its exception's type and
text instead. Two trees that print the same total returned the same bits on
every run, so a refactor that must change no result is checked by running
this on a `git archive` of the parent and on the change.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from functools import partial

CAPS = range(2, 61)
L_CHAIN = 2000.0


def digest(res) -> str:
    h = hashlib.sha256()
    h.update(res.x.tobytes())
    h.update(struct.pack("<dd", res.f, res.grad_norm))
    h.update(res.status.encode())
    h.update(repr(sorted(res.trace.meta.items())).encode())
    for r in res.trace.records:
        h.update(struct.pack("<idddiid", r.iteration, r.f, r.grad_norm, r.step,
                             r.value_calls, r.grad_calls, r.best_f))
    return h.hexdigest()


def outcome(make):
    """(status, iterations, digest) of make(), or of the exception it raises."""
    try:
        res = make()
    except Exception as e:  # a raising run is an outcome to compare like any other
        text = f"{type(e).__name__}: {e}"
        return "raised", -1, hashlib.sha256(text.encode()).hexdigest()
    return res.status, res.iterations, digest(res)


def runs():
    """Yield (name, make) for every run; make() returns an OptimizeResult and
    holds its own fresh oracle and line search, so it is called once."""
    from ffmin import (CgVariant, MolecularOracle, QuadraticInstance, StopCriteria,
                       WiggleConfig, atom_wiggle, cg, fgm, gradient_descent_fixed, lbfgs,
                       make_chain_system, make_linesearch, ofgm, steepest_descent)

    def searches(tag, oracle, x0, stop, m, **ls_args):
        for kind in ("par", "h"):
            ls = partial(make_linesearch, kind, **ls_args)
            yield f"sd-{kind} {tag}", partial(steepest_descent, oracle(), x0, ls(), stop)
            yield f"fgm-{kind} {tag}", partial(fgm, oracle(), x0, ls(), stop)
            yield f"cg-prp-{kind} {tag}", partial(cg, oracle(), x0, CgVariant("prp"), ls(), stop)
            yield (f"lbfgs{m}-{kind} {tag}",
                   partial(lbfgs, oracle(), x0, m=m, linesearch=ls(), stop=stop))

    def wiggles(tag, system, stop, seed, epoch):
        for inc in (True, False):
            cfg = WiggleConfig(seed=seed, use_incremental_coulomb=inc, epoch_iterations=epoch)
            yield f"wiggle inc={inc} {tag}", partial(atom_wiggle, system, cfg, stop)

    # the grid: every method to |g| <= 1e-4 or 300 iterations, wiggle for 60
    for n in (8, 12, 30):
        for s in (0, 1):
            system = make_chain_system(n, s, 0.3)
            x0, tag = system.coords.ravel(), f"n={n} s={s}"
            oracle = partial(MolecularOracle, system)
            stop = StopCriteria(max_iterations=300, gradient_norm_tol=1e-4,
                                gradient_norm_rtol=0.0)
            for L in (2e4, 5e4):
                yield f"gd {tag} L={L}", partial(gradient_descent_fixed, oracle(), x0, L, stop)
                yield f"ofgm-L {tag} L={L}", partial(ofgm, oracle(), x0, 40, L=L, stop=stop)
            yield from searches(tag, oracle, x0, stop, 5)
            yield from wiggles(tag, system, StopCriteria(max_iterations=60), s, 25)

    # quadratics: the fixed steps, two line-search methods and exact-search cg
    for seed in (0, 1, 2):
        inst = (QuadraticInstance.isotropic(6, seed=seed) if seed == 2
                else QuadraticInstance.random(10, 100.0, seed=seed))
        stop = StopCriteria(max_iterations=200, gradient_norm_rtol=1e-8)
        tag = f"quad {seed}"
        yield f"gd {tag}", partial(gradient_descent_fixed, inst.oracle(), inst.x0, inst.L, stop)
        yield f"ofgm {tag}", partial(ofgm, inst.oracle(), inst.x0, 30, L=inst.L, stop=stop)
        for kind in ("par", "h"):
            yield (f"lbfgs5-{kind} {tag}", partial(
                lbfgs, inst.oracle(), inst.x0, m=5, linesearch=make_linesearch(kind), stop=stop))
            yield f"fgm-{kind} {tag}", partial(fgm, inst.oracle(), inst.x0,
                                               make_linesearch(kind), stop)
        yield f"cg-fr-exact {tag}", partial(cg, inst.oracle(), inst.x0, CgVariant("fr"),
                                            inst.exact_linesearch(), stop)

    # every method under an oracle-call cap: refusals inside searches,
    # natural steps, gradient finishes, fused steps and wiggle probes; the
    # iteration cap, which no run reaches, ends a run whose call cap fails
    system = make_chain_system(12, 0, 0.3)
    x0 = system.coords.ravel()
    oracle = partial(MolecularOracle, system)
    for cap in CAPS:
        stop = StopCriteria(max_iterations=1000, max_oracle_calls=cap, gradient_norm_rtol=0.0)
        tag = f"cap={cap}"
        yield from searches(tag, oracle, x0, stop, 3)
        yield f"gd {tag}", partial(gradient_descent_fixed, oracle(), x0, L_CHAIN, stop)
        yield f"ofgm-L {tag}", partial(ofgm, oracle(), x0, 100, L=L_CHAIN, stop=stop)
        yield from wiggles(tag, system, stop, 1, 3)

    # a first probe that overflows the energy, and so must not relax
    system = make_chain_system(6)
    stop = StopCriteria(max_iterations=20, gradient_norm_rtol=0.0)
    yield from searches("h0=1e300", partial(MolecularOracle, system), system.coords.ravel(),
                        stop, 3, h0=1e300)

    # a nonbonded cutoff: lbfgs with each search, and cg-prp
    stop = StopCriteria(max_iterations=300, gradient_norm_tol=1e-4, gradient_norm_rtol=0.0)
    for s in (0, 1):
        system = make_chain_system(30, s, 0.3, cutoff=6.0)
        x0, tag = system.coords.ravel(), f"n=30 s={s} cutoff=6"
        for kind in ("par", "h"):
            yield (f"lbfgs5-{kind} {tag}", partial(lbfgs, MolecularOracle(system), x0, m=5,
                                                   linesearch=make_linesearch(kind), stop=stop))
        yield f"cg-prp-par {tag}", partial(cg, MolecularOracle(system), x0, CgVariant("prp"),
                                           make_linesearch("par"), stop)


def main(argv):
    if len(argv) != 2:
        sys.exit(f"usage: {argv[0]} <src dir>")
    sys.path.insert(0, argv[1])
    import ffmin

    print(f"ffmin from {ffmin.__file__}", file=sys.stderr)
    total = hashlib.sha256()
    count = 0
    for name, make in runs():
        status, iterations, d = outcome(make)
        total.update(d.encode())
        count += 1
        print(f"{name:28s} {status:18s} it={iterations:5d} {d[:16]}")
    print(f"{count} runs, total {total.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv)
