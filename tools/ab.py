"""A/B of the gated benchmark: a base revision against this tree.

    python tools/ab.py --base <rev> --workload <w> --pairs N --seed S [--seconds T] [--final]

extracts `git archive <rev>` into a temporary directory (no network is
needed), and copies this checkout's files (tracked, or untracked and not
ignored) into another, so both trees start alike, without caches or
earlier results. It first runs tools/identity.py on both trees' src and
prints how many of its runs differ and their names. It runs
tools/callcount.py on both and prints each tree's Python-level and
builtin call counts, which repeat exactly: of chain_solve's set-up, and
per iteration of chain_solve's lbfgs-par solve and of rank_demo's lbfgs
solve. Then it runs `python3
perfbench/run.py --workload <w> --seed S --seconds T --trace 0` N
times on each tree, alternating which tree runs
first in a pair. Each run's last line of standard output is its JSON
result. A run that fails, or is not correct, stops the A/B with that
run's exit code (1 if it exited 0). Then it prints one table row per
end-to-end metric of BENCHMARK.json: median [q1, q3] per side, with
perfbench/run.py's interpolated quantile, the pairs in which this tree is
better, the change of the median, and whether that change is wider than
the base's interquartile range.

Seed 7919 is kept for a final check and is refused without --final.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FINAL_SEED = 7919
SIDES = ("base", "change")


class RunFailed(Exception):
    """One benchmark run failed or was not correct."""

    def __init__(self, side, code, text):
        super().__init__(f"{side} run failed (exit {code}): {text}")
        self.code = code


def _quantile():
    """perfbench/run.py's quantile, so the table reads as its samples do."""
    return _tool("perfbench_run", ROOT / "perfbench" / "run.py").quantile


def end_to_end():
    """[(name, better)] of the end-to-end metrics BENCHMARK.json gates."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def archive(rev, dest):
    """Extract the committed files of rev into dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def snapshot(dest, root=ROOT):
    """Copy the checkout's working files, as git lists them, into dest."""
    names = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], capture_output=True, check=True).stdout
    for name in names.decode().split("\0"):
        src = Path(root) / name
        if name and src.is_file():  # a deleted file stays listed until it is staged
            (Path(dest) / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, Path(dest) / name)


def _tool(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_identity(tree, out):
    """Exit code of this checkout's tools/identity.py on tree's src, which
    writes its outcomes to out."""
    return subprocess.run([sys.executable, str(ROOT / "tools" / "identity.py"),
                           str(Path(tree) / "src"), "--write", str(out)],
                          capture_output=True).returncode


def identity_diff(outs):
    """The lines that say how many identity runs differ between the sides'
    outcome files, and name each."""
    base, change = (json.loads(Path(outs[side]).read_text())["runs"] for side in SIDES)
    moved = _tool("identity", ROOT / "tools" / "identity.py").differing(base, change)
    return [f"identity: {len(moved)} of {len({**base, **change})} runs differ",
            *(f"  {name}" for name in moved)]


def run_counts(tree, seed):
    """(exit code, the counts as JSON or None) of this checkout's
    tools/callcount.py on tree's src."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "callcount.py"),
                           str(Path(tree) / "src"), "--seed", str(seed)],
                          capture_output=True, text=True)
    return proc.returncode, json.loads(proc.stdout) if proc.returncode == 0 else None


def counts_lines(counts):
    """The lines that give each side's call counts, base -> change."""
    base, change = (counts[side] for side in SIDES)
    solves = ", ".join(f"{solve} {n} -> {change['iterations'][solve]}"
                       for solve, n in base["iterations"].items())
    lines = [f"calls, base -> change, over iterations {solves}:"]
    for op, (py, c) in base["calls"].items():
        py2, c2 = change["calls"][op]
        lines.append(f"  {op}: python {py:.6g} -> {py2:.6g}, builtin {c:.6g} -> {c2:.6g}")
    return lines


def run_bench(tree, workload, seed, seconds):
    """(exit code, the last stdout line as JSON or None) of one untraced run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def run_pairs(trees, workload, seed, seconds, pairs, run=run_bench):
    """Per side, the metrics of each run, the sides alternating first."""
    samples = {side: [] for side in SIDES}
    for k in range(pairs):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            code, result = run(trees[side], workload, seed, seconds)
            if code != 0 or not result or not result.get("correct"):
                raise RunFailed(side, code or 1, json.dumps(result))
            samples[side].append({name: m["value"] for name, m in result["metrics"].items()})
        print(f"pair {k + 1}/{pairs} done", file=sys.stderr)
    return samples


def _cell(values, quantile, scale):
    q1, med, q3 = (scale * quantile(values, p) for p in (0.25, 0.5, 0.75))
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def table(workload, samples, metrics, quantile):
    """The CHANGES.md table rows of one workload's A/B, as lines of text."""
    lines = ["| workload | metric | base | change | change better | Δ median | beyond base IQR |",
             "|---|---|---|---|---|---|---|"]
    for name, better in metrics:
        base = [s[name] for s in samples["base"]]
        change = [s[name] for s in samples["change"]]
        # times in seconds read better in ms
        scale, unit = (1e3, " ms") if name.endswith("_s") else (1.0, "")
        sign = -1.0 if better == "lower" else 1.0
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        mb, mc = quantile(base, 0.5), quantile(change, 0.5)
        iqr = quantile(base, 0.75) - quantile(base, 0.25)
        delta = f"{100.0 * (mc - mb) / mb:+.1f} %" if mb else f"{mc - mb:+.4g}"
        lines.append(
            f"| `{workload}` | `{name}` | {_cell(base, quantile, scale)}{unit} | "
            f"{_cell(change, quantile, scale)}{unit} | {won} of {len(base)} | {delta} | "
            f"{'yes' if abs(mc - mb) > iqr else 'no'} |")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--final", action="store_true",
                   help=f"allow seed {FINAL_SEED}, which is kept for a final check")
    return p.parse_args(argv)


def main(argv=None, run=run_bench, extract=archive, copy=snapshot, identify=run_identity,
         count=run_counts):
    args = parse_args(argv)
    if args.seed == FINAL_SEED and not args.final:
        print(f"ab: seed {FINAL_SEED} is kept for a final check; pass --final to use it",
              file=sys.stderr)
        return 2
    if args.pairs < 1:
        print(f"ab: --pairs must be >= 1, got {args.pairs}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: str(Path(tmp) / side) for side in SIDES}
        extract(args.base, trees["base"])
        copy(trees["change"])
        outs = {side: Path(tmp) / f"{side}.json" for side in SIDES}
        for side in SIDES:
            code = identify(trees[side], outs[side])
            if code:
                print(f"ab: identity failed on the {side} tree (exit {code})", file=sys.stderr)
                return code
        print("\n".join(identity_diff(outs)), flush=True)
        counts = {}
        for side in SIDES:
            code, counts[side] = count(trees[side], args.seed)
            if code:
                print(f"ab: call counts failed on the {side} tree (exit {code})",
                      file=sys.stderr)
                return code
        print("\n".join(counts_lines(counts)), flush=True)
        try:
            samples = run_pairs(trees, args.workload, args.seed, args.seconds, args.pairs, run)
        except RunFailed as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return exc.code
    print("\n".join(table(args.workload, samples, end_to_end(), _quantile())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
