"""ffmin benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload chain_solve --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

Run from the repository root or anywhere else; the package is imported
from the `src` directory next to this one, never from an installed copy.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 the per-layer ones.
Everything else (per-variant samples, reference rows, the environment
record) goes to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# pinned before NumPy is first imported, which happens below
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("chain_solve", "rank_demo", "wiggle", "large_chain")
EXIT_SETUP = 2
EXIT_REPEAT = 3


class BenchError(Exception):
    """The benchmark cannot run here."""

    exit_code = EXIT_SETUP


class RepeatMismatch(BenchError):
    """Counts or energies of one seed did not repeat bit-for-bit."""

    exit_code = EXIT_REPEAT


def import_ffmin():
    if not (SRC / "ffmin" / "__init__.py").is_file():
        raise BenchError(f"no ffmin package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ffmin

    if Path(ffmin.__file__).resolve().parent != (SRC / "ffmin").resolve():
        raise BenchError(f"imported ffmin from {ffmin.__file__}, not from {SRC}")
    return ffmin


def load_naive_oracles():
    path = ROOT / "tests" / "naive_oracles.py"
    if not path.is_file():
        raise BenchError(f"missing reference oracle {path}")
    spec = importlib.util.spec_from_file_location("naive_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import platform

    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }
    try:
        import scipy

        env["scipy"] = scipy.__version__
    except ImportError:
        env["scipy"] = None
    env["numba_importable"] = importlib.util.find_spec("numba") is not None
    try:
        from ffmin.kernels import get_backend

        env["backend"] = get_backend().name
    except (ImportError, AttributeError, RuntimeError, ValueError) as exc:
        # a package with a single kernel path may no longer have get_backend
        env["backend"] = f"unresolved ({type(exc).__name__})"
    return env


def repeat_key(env):
    """Digest of what decides the counts and energies: the package and
    benchmark sources, and the interpreter, NumPy, kernel backend and CPU."""
    import platform

    h = hashlib.sha256()
    for base in (SRC / "ffmin", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    h.update(json.dumps([env[k] for k in ("python", "numpy", "numba_importable", "backend")]
                        + [platform.machine()]).encode())
    return h.hexdigest()[:16]


def _jsonable(fp):
    return json.loads(json.dumps(fp))


def check_repeat(key, workload, seed, fingerprints):
    """Compare this run's per-operation fingerprints with the first run of
    the same key and seed in this checkout, recording them if none exists."""
    fps = _jsonable(fingerprints)
    path = OUT / "repeat" / key / f"{workload}-{seed}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(fps))
        os.replace(tmp, path)
        return
    if fps != json.loads(path.read_text()):
        raise RepeatMismatch(f"{workload} seed {seed}: counts or energies differ from the "
                             f"run recorded in {path}")


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values, p):
    """The p-quantile of values, interpolated between order statistics."""
    v = sorted(values)
    pos = p * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def sample_row(values):
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75), "n": len(values)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------

def make_workload(name, seed, workdir):
    import workloads

    if name == "chain_solve":
        return workloads.ChainSolve(seed, workdir)
    if name == "rank_demo":
        table = json.loads((HERE / "expected_rank.json").read_text())
        return workloads.RankDemo(seed, workdir, table.get(str(seed)))
    if name == "wiggle":
        return workloads.Wiggle(seed, workdir)
    return workloads.LargeChain(seed, workdir, load_naive_oracles())


def timed_setups(w, min_reps=3, budget_s=0.3, max_reps=50):
    """Wall times of a burst of the workload's set-ups in this process."""
    times = []
    t_end = time.perf_counter() + budget_s
    while len(times) < min_reps or (time.perf_counter() < t_end and len(times) < max_reps):
        t0 = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_checks(w, rounds):
    """Operations attempted and the failure messages of the failed ones."""
    failures = []
    for op in (op for ops in rounds for op in ops):
        msgs = w.check(op)
        if not isinstance(msgs, list):
            raise TypeError(f"{w.name}.check returned {type(msgs).__name__}, not a list")
        failures += msgs
    return w.ops_per_round * len(rounds), failures


def round_count(w, seconds):
    """Rounds in one run: a fixed number for a given --seconds, set by the
    workload's nominal round length, so the number of rounds the fastest is
    taken from does not depend on how fast the program runs."""
    return max(1, round(seconds / w.round_seconds))


def iteration_key(variant, prev, rec):
    """What decides an iteration's work: the calls it made and whether it moved."""
    return (variant, rec.value_calls - prev.value_calls, rec.grad_calls - prev.grad_calls,
            rec.step != 0.0)


def fast_path_seconds(rounds):
    """Per variant, the wall time of one round's operations at the host's
    full speed.

    Each iteration is charged the fastest time, anywhere in the run, of an
    iteration of the same variant that made the same oracle calls and the
    same kind of move, so every iteration counts at its own kind's cost. The
    time outside the iteration loops (the start-point evaluation, and on
    rank_demo the file load and oracle build) is the fastest over the rounds.
    Other tenants of a shared host only ever slow the process down, in
    phases from a fraction of a second to minutes; this sets aside the
    phases shorter than the run.
    """
    fastest = {}
    for ops in rounds:
        for op in ops:
            for solve in op.solves:
                recs = solve.records
                for prev, rec in zip(recs, recs[1:]):
                    key = iteration_key(op.variant, prev, rec)
                    dt = rec.wall_seconds - prev.wall_seconds
                    if dt < fastest.get(key, math.inf):
                        fastest[key] = dt
    out = {}
    for j, op in enumerate(rounds[0]):
        total = 0.0
        for k, solve in enumerate(op.solves):
            total += min(r[j].solves[k].outside_loop_s for r in rounds)
            recs = solve.records
            total += sum(fastest[iteration_key(op.variant, prev, rec)]
                         for prev, rec in zip(recs, recs[1:]))
        out[op.variant] = out.get(op.variant, 0.0) + total
    return out


def run_untraced(w, seconds, detail):
    # set-ups in bursts before, within and after the rounds, so that they
    # are spread over the whole run like the rounds' iterations
    setups = timed_setups(w)
    rounds = []
    for _ in range(round_count(w, seconds)):
        rounds.append(w.round(between=lambda: setups.extend(timed_setups(w))))
        setups += timed_setups(w)
    ops = [op for r in rounds for op in r]
    attempted, failures = run_checks(w, rounds)
    for r in rounds[1:]:
        if [op.fingerprint for op in r] != [op.fingerprint for op in rounds[0]]:
            raise RepeatMismatch(f"{w.name}: rounds of one run gave different counts or energies")
    check_repeat(detail["repeat_key"], w.name, w.seed, [op.fingerprint for op in rounds[0]])

    fast = fast_path_seconds(rounds)
    variants = {}
    for op in ops:
        variants.setdefault(op.variant, []).append(op)
    per_variant = {}
    for v, vops in variants.items():
        per_variant[v] = {
            "seconds": sample_row([op.seconds for op in vops]),
            "iterations": vops[0].iterations,
            "oracle_calls": vops[0].calls,
            "calls_per_iter": vops[0].calls / vops[0].iterations,
            "ms_per_iter": 1e3 * fast[v] / vops[0].iterations,
            "wall_ms_per_iter": sample_row([1e3 * op.seconds / op.iterations for op in vops]),
        }
    detail["rounds"] = len(rounds)
    detail["setup_s"] = sample_row(setups)
    detail["variants"] = per_variant
    detail["failures"] = failures
    detail["failed_frac"] = len(failures) / attempted
    detail["oracle_calls"] = sum(op.calls for op in rounds[0])
    detail.update(named_end_to_end(w, per_variant))

    metrics = {
        "setup_s": (min(setups), "s"),
        "ms_per_iter": (geomean([p["ms_per_iter"] for p in per_variant.values()]), "ms"),
        "calls_per_iter": (geomean([p["calls_per_iter"] for p in per_variant.values()]),
                           "calls"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail["peak_rss_mb"] = metrics["peak_rss_mb"][0]
    return attempted, len(failures), metrics


def named_end_to_end(w, per_variant):
    """The workload-specific figures users quote, kept beside the gated ones."""
    if w.name == "chain_solve":
        return {f"time_to_tol_s.{v}": p["seconds"]["median"] for v, p in per_variant.items()}
    if w.name == "rank_demo":
        return {"candidates_per_s": w.candidates / per_variant["batch-rank"]["seconds"]["median"]}
    if w.name == "wiggle":
        return {f"wiggle_ms_per_iter.{v}": 1e3 * p["seconds"]["median"] / p["iterations"]
                for v, p in per_variant.items()}
    p = per_variant["lbfgs-par"]
    return {"lbfgs_ms_per_iter": 1e3 * p["seconds"]["median"] / p["iterations"]}


def run_traced(w, detail):
    import tracing
    import workloads

    w.setup()
    ops_u = w.round()
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        ops_t = w.round(tracer)
    # the timed parts of the two rounds; rank_demo's direct solves are outside
    wall_u = sum(op.seconds for op in ops_u)
    wall_t = sum(op.seconds for op in ops_t)
    attempted, failures = run_checks(w, [ops_t])
    if _jsonable([o.fingerprint for o in ops_u]) != _jsonable([o.fingerprint for o in ops_t]):
        raise RepeatMismatch(f"{w.name}: the traced round differs from the untraced one")
    check_repeat(detail["repeat_key"], w.name, w.seed, [op.fingerprint for op in ops_t])

    spans = tracer.spans
    s = tracing.summarize(spans)
    micro = workloads.energy_micro(w.micro_system(), w.workdir)
    solve_s = s["optimizers.solve_s"]
    wiggles = [sp[5] for sp in spans if sp[1] == "optimizers.atom_wiggle"]
    wiggle_iters = sum(e["iterations"] for e in wiggles)
    wiggle_acc = sum(e["accepted"] for e in wiggles)
    per_layer = {
        "oracle_calls": (sum(op.calls for op in ops_t), "count"),
        "oracle.value_calls": (s["oracle.value_calls"], "count"),
        "oracle.grad_calls": (s["oracle.grad_calls"], "count"),
        "oracle.overhead_us_per_call": (micro["oracle.overhead_us_per_call"], "us"),
        "model.with_coords_us": (micro["model.with_coords_us"], "us"),
        "model.arrays_build_ms": (micro["model.arrays_build_ms"], "ms"),
        "model.self_s": (s["self_s"]["model"], "s"),
        "energy.eval_ms": (micro["energy.eval_ms"], "ms"),
        "energy.eval_grad_ms": (micro["energy.eval_grad_ms"], "ms"),
    }
    for term in ("stretch", "bend", "torsion", "nonbonded"):
        per_layer[f"energy.term_ms.{term}"] = (micro[f"energy.term_ms.{term}"], "ms")
    per_layer.update({
        "energy.peak_alloc_mb": (micro["energy.peak_alloc_mb"], "MB"),
        "energy.interacting_pair_frac": (micro["energy.interacting_pair_frac"], "frac"),
        "energy.farfield_build_us": (micro["energy.farfield_build_us"], "us"),
        "energy.delta_us": (micro["energy.delta_us"], "us"),
        "energy.exact_delta_us": (micro["energy.exact_delta_us"], "us"),
        "energy.full_calls": (s["energy.full_calls"], "count"),
        "energy.delta_calls": (s["energy.delta_calls"], "count"),
        "energy.exact_delta_calls": (s["energy.exact_delta_calls"], "count"),
        "energy.self_s": (s["self_s"]["energy"], "s"),
        "linesearch.searches": (s["linesearch.searches"], "count"),
        "linesearch.calls_per_search": (s["linesearch.calls_per_search"], "calls"),
        "linesearch.found_frac": (s["linesearch.found_frac"], "frac"),
        "optimizers.iterations": (s["optimizers.iterations"], "count"),
        "optimizers.self_s": (s["self_s"]["optimizers"], "s"),
        "optimizers.oracle_share": (s["optimizers.oracle_share"], "frac"),
        "optimizers.solve_s.p50": (statistics.median(solve_s), "s"),
        "optimizers.solve_s.max": (max(solve_s), "s"),
        "optimizers.wiggle_accept_frac": (wiggle_acc / wiggle_iters if wiggle_iters else 0.0,
                                          "frac"),
        "sysio.load_ms": (micro["sysio.load_ms"], "ms"),
    })
    for layer in tracing.LAYERS:
        per_layer[f"{layer}.self_frac"] = (s["self_s"][layer] / wall_t, "frac")
    per_layer["trace.overhead_frac"] = (wall_t / wall_u - 1.0, "frac")
    per_layer["trace.unattributed_s"] = (wall_t - s["covered_s"], "s")

    detail["failures"] = failures
    detail["failed_frac"] = len(failures) / attempted
    detail["wall_s"] = {"untraced": wall_u, "traced": wall_t}
    detail["layers"] = {"self_s": s["self_s"], "busy_s": s["busy_s"]}
    detail["micro"] = micro
    detail["oracle.overhead_us_per_call.traced"] = s["oracle.overhead_us"]
    detail["span_mean_ms"] = s["mean_ms"]
    detail["ranking.ms"] = 1e3 * s["busy_s"]["ranking"]
    detail["cli.self_s"] = s["self_s"]["cli"]
    detail["linesearch.self_s"] = s["self_s"]["linesearch"]
    detail["oracle.busy_s"] = s["busy_s"]["oracle"]
    if w.name == "chain_solve":
        detail["per_method"] = per_method(spans, ops_t)
        detail.update(w.reference())
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_csv(OUT / f"spans-{w.name}-seed{w.seed}.csv")
    detail["spans"] = len(spans)
    return attempted, len(failures), per_layer


def per_method(spans, ops):
    """Layer figures for each chain_solve method, suffixed with its name."""
    import tracing

    tops = [i for i, sp in enumerate(spans) if sp[4] == -1] + [len(spans)]
    out = {}
    for op, lo, hi in zip(ops, tops, tops[1:]):
        s = tracing.summarize(spans, lo, hi)
        m = op.variant
        out.update({
            f"oracle.value_calls.{m}": s["oracle.value_calls"],
            f"oracle.grad_calls.{m}": s["oracle.grad_calls"],
            f"oracle.busy_s.{m}": s["busy_s"]["oracle"],
            f"oracle.overhead_us_per_call.{m}": s["oracle.overhead_us"],
            f"linesearch.searches.{m}": s["linesearch.searches"],
            f"linesearch.calls_per_search.{m}": s["linesearch.calls_per_search"],
            f"linesearch.found_frac.{m}": s["linesearch.found_frac"],
            f"linesearch.self_s.{m}": s["self_s"]["linesearch"],
            f"model.self_s.{m}": s["self_s"]["model"],
            f"energy.self_s.{m}": s["self_s"]["energy"],
            f"optimizers.iterations.{m}": s["optimizers.iterations"],
            f"optimizers.self_s.{m}": s["self_s"]["optimizers"],
            f"optimizers.oracle_share.{m}": s["optimizers.oracle_share"],
        })
    return out


def run_one(args):
    import_ffmin()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = environment()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "repeat_key": repeat_key(env)}
    try:
        w = make_workload(args.workload, args.seed, workdir)
        if args.trace:
            attempted, failed, metrics = run_traced(w, detail)
        else:
            attempted, failed, metrics = run_untraced(w, args.seconds, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    for failure in detail["failures"]:
        print(f"FAILED: {failure}")
    for key, val in detail.items():
        if key.startswith(("time_to_tol", "candidates_per_s", "wiggle_ms", "lbfgs_ms",
                           "reference.", "failed_frac", "oracle_calls")):
            print(f"{key:<36} {val}")
    for key, (val, unit) in metrics.items():
        print(f"{key:<36} {val:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload, untraced then traced, each in a process of its own."""
    summary = {}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            summary[f"{name}/trace{trace}"] = result
            ok = ok and result["correct"]
            for key, m in result["metrics"].items():
                print(f"{name:<12} {key:<36} {m['value']:.6g} {m['unit']}")
    (OUT / f"summary-seed{args.seed}.json").write_text(json.dumps(summary, indent=1))
    return {"correct": ok,
            "attempted": sum(r["attempted"] for r in summary.values()) or 1,
            "failed": sum(r["failed"] for r in summary.values()),
            "metrics": {}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="run length; a run makes round(seconds / nominal round length) "
                        "rounds of its workload, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        OUT.mkdir(parents=True, exist_ok=True)
        result = run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ImportError as exc:
        print(f"benchmark error: cannot import the package: {exc}", file=sys.stderr)
        return EXIT_SETUP
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
