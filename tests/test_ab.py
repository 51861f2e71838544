"""tools/ab.py, the A/B of the gated benchmark: its identity diff, its call
counts, its table and its refusals, on canned results with the identity,
call-count and benchmark runners stubbed, so none runs here; and
tools/callcount.py on this tree, whose counts repeat exactly."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.fixture
def ab(monkeypatch):
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the table loads perfbench/run.py for its quantile, which pins these
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    return module


def result(setup_s, ms_per_iter, calls_per_iter, peak_rss_mb, correct=True):
    values = {"setup_s": setup_s, "ms_per_iter": ms_per_iter,
              "calls_per_iter": calls_per_iter, "peak_rss_mb": peak_rss_mb}
    return {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}


# three pairs of canned runs, per side in pair order
CANNED = {
    "base": [result(6e-4, 0.1, 2.5, 40.0), result(7e-4, 0.1, 2.5, 40.2),
             result(5e-4, 0.1, 2.5, 40.1)],
    "change": [result(4e-4, 0.1, 2.5, 40.3), result(8e-4, 0.1, 2.5, 40.1),
               result(3e-4, 0.1, 2.5, 40.5)],
}

TABLE = """\
| workload | metric | base | change | change better | Δ median | beyond base IQR |
|---|---|---|---|---|---|---|
| `chain_solve` | `setup_s` | 0.6 [0.55, 0.65] ms | 0.4 [0.35, 0.6] ms | 2 of 3 | -33.3 % | yes |
| `chain_solve` | `ms_per_iter` | 0.1 [0.1, 0.1] | 0.1 [0.1, 0.1] | 0 of 3 | +0.0 % | no |
| `chain_solve` | `calls_per_iter` | 2.5 [2.5, 2.5] | 2.5 [2.5, 2.5] | 0 of 3 | +0.0 % | no |
| `chain_solve` | `peak_rss_mb` | 40.1 [40.05, 40.15] | 40.3 [40.2, 40.4] | 1 of 3 | +0.5 % | yes |
"""


class Stub:
    """The runner, from canned results; it records which side ran when."""

    def __init__(self, canned, code=0):
        self.canned, self.code, self.calls = canned, code, []

    def __call__(self, tree, workload, seed, seconds):
        side = (Path(tree) / "SIDE").read_text()
        k = sum(s == side for s, *_ in self.calls)
        self.calls.append((side, workload, seed, seconds))
        res = self.canned[side][k]
        return (self.code if res is None else 0), res


# canned tools/identity.py outcomes: the change moves one run's digest
IDENTITY = {
    "base": {"gd a": ["converged", 3, "aa"], "lbfgs3-par b": ["oracle_budget", 9, "bb"],
             "wiggle c": ["raised", -1, "cc"]},
    "change": {"gd a": ["converged", 3, "aa"], "lbfgs3-par b": ["oracle_budget", 9, "bd"],
               "wiggle c": ["raised", -1, "cc"]},
}
IDENTITY_OUT = "identity: 1 of 3 runs differ\n  lbfgs3-par b\n"


def canned_identity(tree, out):
    """The identity runner, writing a side's canned outcomes as --write does."""
    side = (Path(tree) / "SIDE").read_text()
    Path(out).write_text(json.dumps({"numpy": "2", "total": "t", "runs": IDENTITY[side]}))
    return 0


# canned tools/callcount.py outcomes: the change makes one call fewer an iteration
COUNTS = {
    "base": {"iterations": 500, "calls": {"setup": [227, 558],
                                          "lbfgs-par per iteration": [57.79, 114.488]}},
    "change": {"iterations": 500, "calls": {"setup": [227, 558],
                                            "lbfgs-par per iteration": [56.79, 114.488]}},
}
COUNTS_OUT = """\
calls, base -> change, over 500 -> 500 lbfgs-par iterations:
  setup: python 227 -> 227, builtin 558 -> 558
  lbfgs-par per iteration: python 57.79 -> 56.79, builtin 114.488 -> 114.488
"""


def canned_counts(tree, seed):
    """The call-count runner, returning a side's canned counts."""
    assert seed in (0, 7919)
    return 0, COUNTS[(Path(tree) / "SIDE").read_text()]


def no_archive(rev, dest):
    assert rev == "HEAD~1"
    Path(dest).mkdir()
    (Path(dest) / "SIDE").write_text("base")


def no_copy(dest):
    Path(dest).mkdir()
    (Path(dest) / "SIDE").write_text("change")


ARGS = ["--base", "HEAD~1", "--workload", "chain_solve", "--pairs", "3", "--seed", "0"]


def test_ab_prints_the_table_of_canned_runs_in_alternating_order(ab, capsys):
    run = Stub(CANNED)
    assert ab.main(ARGS + ["--seconds", "2"], run=run, extract=no_archive, copy=no_copy,
                   identify=canned_identity, count=canned_counts) == 0
    assert capsys.readouterr().out == IDENTITY_OUT + COUNTS_OUT + TABLE
    # each pair alternates which side runs first; every run gets the options
    assert [side for side, *_ in run.calls] == ["base", "change", "change", "base",
                                                "base", "change"]
    assert {tuple(rest) for _, *rest in run.calls} == {("chain_solve", 0, 2.0)}


def test_ab_counts_a_pair_as_won_in_the_direction_the_metric_improves(ab):
    samples = {"base": [{"x": 1.0}, {"x": 2.0}], "change": [{"x": 3.0}, {"x": 1.0}]}
    quantile = ab._quantile()
    higher = ab.table("w", samples, [("x", "higher")], quantile)[-1]
    lower = ab.table("w", samples, [("x", "lower")], quantile)[-1]
    assert higher.split(" | ")[4:6] == ["1 of 2", "+33.3 %"]
    assert lower.split(" | ")[4] == "1 of 2"
    assert ab.table("w", samples, [("x", "lower")], quantile)[:2] == TABLE.splitlines()[:2]


def test_ab_reads_the_gated_metrics_from_the_benchmark(ab):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ab.end_to_end() == [(m["name"], m["better"]) for m in spec["end_to_end"]]


@pytest.mark.parametrize("final", [False, True])
def test_ab_refuses_seed_7919_unless_final(ab, capsys, final):
    run = Stub(CANNED)
    args = ARGS[:-1] + ["7919"] + (["--final"] if final else [])
    code = ab.main(args, run=run, extract=no_archive, copy=no_copy,
                   identify=canned_identity, count=canned_counts)
    out, err = capsys.readouterr()
    if final:
        assert code == 0 and out == IDENTITY_OUT + COUNTS_OUT + TABLE and len(run.calls) == 6
        assert {seed for _, _, seed, _ in run.calls} == {7919}
    else:
        assert code == 2 and out == "" and run.calls == []
        assert err == "ab: seed 7919 is kept for a final check; pass --final to use it\n"


@pytest.mark.parametrize("code,bad,want", [
    (3, None, 3),  # the run exits 3 with no result
    (0, result(4e-4, 0.1, 2.5, 40.3, correct=False), 1),  # exits 0 but is not correct
])
def test_ab_stops_at_a_run_that_fails(ab, capsys, code, bad, want):
    canned = {"base": CANNED["base"], "change": [CANNED["change"][0], bad, CANNED["change"][2]]}
    run = Stub(canned, code=code)
    assert ab.main(ARGS, run=run, extract=no_archive, copy=no_copy,
                   identify=canned_identity, count=canned_counts) == want
    out, err = capsys.readouterr()
    assert out == IDENTITY_OUT + COUNTS_OUT
    assert err.splitlines()[-1].startswith(f"ab: change run failed (exit {want}): ")
    # the second pair runs the change first, and nothing runs after it
    assert [side for side, *_ in run.calls] == ["base", "change", "change"]


def test_ab_diffs_identity_before_it_times_anything(ab, capsys):
    # the same outcomes on both sides: no run differs
    same = {"base": IDENTITY["base"], "change": IDENTITY["base"]}

    def identify(tree, out):
        assert run.calls == []
        side = (Path(tree) / "SIDE").read_text()
        Path(out).write_text(json.dumps({"runs": same[side]}))
        return 0

    run = Stub(CANNED)
    assert ab.main(ARGS, run=run, extract=no_archive, copy=no_copy, identify=identify,
                   count=canned_counts) == 0
    assert capsys.readouterr().out == "identity: 0 of 3 runs differ\n" + COUNTS_OUT + TABLE
    # a run present on one side only differs too
    same["change"] = {**IDENTITY["base"], "ofgm d": ["converged", 1, "dd"]}
    run = Stub(CANNED)
    assert ab.main(ARGS, run=run, extract=no_archive, copy=no_copy, identify=identify,
                   count=canned_counts) == 0
    assert capsys.readouterr().out == ("identity: 1 of 4 runs differ\n  ofgm d\n"
                                       + COUNTS_OUT + TABLE)


def test_ab_stops_when_identity_fails_on_a_tree(ab, capsys):
    run = Stub(CANNED)
    failing = lambda tree, out: 3 if (Path(tree) / "SIDE").read_text() == "base" else 0
    assert ab.main(ARGS, run=run, extract=no_archive, copy=no_copy, identify=failing,
                   count=canned_counts) == 3
    out, err = capsys.readouterr()
    assert out == "" and run.calls == []
    assert err == "ab: identity failed on the base tree (exit 3)\n"


def test_ab_copies_the_checkout_s_files_without_caches(ab, tmp_path):
    repo = tmp_path / "repo"
    (repo / "src" / "__pycache__").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\nout/\n")
    (repo / "src" / "m.py").write_text("tracked, then edited\n")
    (repo / "src" / "__pycache__" / "m.pyc").write_bytes(b"cache")
    (repo / "out").mkdir()
    (repo / "out" / "result.json").write_text("{}")
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(["git", "-C", str(repo), "add", ".gitignore", "src/m.py"], check=True)
    (repo / "src" / "m.py").write_text("edited\n")
    (repo / "new.py").write_text("untracked\n")
    ab.snapshot(tmp_path / "copy", root=repo)
    copied = sorted(p.relative_to(tmp_path / "copy").as_posix()
                    for p in (tmp_path / "copy").rglob("*") if p.is_file())
    assert copied == [".gitignore", "new.py", "src/m.py"]
    assert (tmp_path / "copy" / "src" / "m.py").read_text() == "edited\n"


def test_ab_stops_when_call_counts_fail_on_a_tree(ab, capsys):
    run = Stub(CANNED)
    counted = []

    def failing(tree, seed):
        side = (Path(tree) / "SIDE").read_text()
        counted.append(side)
        return (4, None) if side == "change" else canned_counts(tree, seed)

    assert ab.main(ARGS, run=run, extract=no_archive, copy=no_copy,
                   identify=canned_identity, count=failing) == 4
    out, err = capsys.readouterr()
    assert out == IDENTITY_OUT and run.calls == [] and counted == ["base", "change"]
    assert err == "ab: call counts failed on the change tree (exit 4)\n"


def test_callcount_on_this_tree_repeats_exactly(ab):
    first, again = ab.run_counts(ROOT, 0), ab.run_counts(ROOT, 0)
    assert first == again
    code, counts = first
    assert code == 0 and counts["iterations"] > 0
    assert list(counts["calls"]) == ["setup", "lbfgs-par per iteration"]
    assert all(py > 0 and builtin > 0 for py, builtin in counts["calls"].values())
    # its lines name each operation once, with the same counts on both sides
    lines = ab.counts_lines({"base": counts, "change": counts})
    assert len(lines) == 3 and lines[1].startswith("  setup: python ")


@pytest.fixture
def callcount():
    spec = importlib.util.spec_from_file_location("callcount", ROOT / "tools" / "callcount.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_callcount_counts_python_and_builtin_calls_apart(callcount):
    def leaf():
        return 1

    def calls(python, builtin):
        def fn():
            for _ in range(python):
                leaf()
            for _ in range(builtin):
                len(())
            return "done"
        return fn

    result, py0, c0 = callcount.profiled(calls(0, 0))
    assert result == "done"
    # each extra Python call and each extra builtin call counts once, apart
    assert callcount.profiled(calls(3, 0))[1:] == (py0 + 3, c0)
    assert callcount.profiled(calls(0, 5))[1:] == (py0, c0 + 5)


def test_callcount_removes_its_hook_when_the_call_raises(callcount):
    def fails():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        callcount.profiled(fails)
    assert sys.getprofile() is None
