"""tools/identity.py, the digest that shows a refactor changed no result:
its digests repeat exactly, one ulp of input shows in them, its degenerate
start points hash the one fault each geometry gets, and a fixed subset of
runs still gives the digests committed in tools/identity.json."""

import hashlib
import importlib.util
import itertools
import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ffmin.oracle import MolecularOracle
from ffmin.optimizers import StopCriteria, lbfgs, make_linesearch
from ffmin.synth import make_chain_system

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def some_runs(identity):
    """The grid's n=8, s=0 block (every method, both wiggle branches) and
    every method under a cap of 25 calls."""
    runs = identity.runs()
    return [*itertools.islice(runs, 14), *((n, m) for n, m in runs if n.endswith(" cap=25"))]


def test_digests_repeat_exactly(identity):
    first = [(name, identity.outcome(make)) for name, make in some_runs(identity)]
    again = [(name, identity.outcome(make)) for name, make in some_runs(identity)]
    assert len(first) == 26
    assert {status for _, (status, _, _) in first} >= {"converged", "oracle_budget"}
    assert first == again


def test_degenerate_starts_hash_the_fault_the_energy_names(identity):
    faults = {"n=6 s=1 x1=x0": "bend term 0 (atoms 0-1-2): zero-length arm",
              "n=6 s=1 x4=x0": "nonbonded pair (0,4): coincident atoms",
              "n=6 s=1 x3=x2": "bend term 1 (atoms 1-2-3): zero-length arm",
              "n=6 s=1 x5=x0": "nonbonded pair (0,5): coincident atoms",
              # a zero-length bond has an energy, so only wiggle, which needs
              # no gradient, runs from it
              "n=2 s=0 x1=x0": "stretch term 0 (atoms 0-1): coincident endpoints"}
    seen = {}
    for name, make in identity.runs():
        words = name.split()
        tag = " ".join(words[-3:])
        if tag in faults and not (tag.startswith("n=2") and words[0] == "wiggle"):
            text = f"EnergyEvaluationError: {faults[tag]}"
            assert identity.outcome(make) == ("raised", -1, hashlib.sha256(
                text.encode()).hexdigest()), name
            seen[tag] = seen.get(tag, 0) + 1
    # gd, ofgm, four search methods with two searches each, two wiggle branches
    assert seen == {tag: 10 if tag.startswith("n=2") else 12 for tag in faults}


def test_one_ulp_of_x0_changes_the_digest(identity):
    system = make_chain_system(8, 0, 0.3)
    x0 = system.coords.ravel()
    nudged = x0.copy()
    nudged[5] = np.nextafter(nudged[5], np.inf)

    def digest(x):
        stop = StopCriteria(max_iterations=20, gradient_norm_rtol=0.0)
        return identity.digest(lbfgs(MolecularOracle(system), x, m=5,
                                     linesearch=make_linesearch("par"), stop=stop))

    assert digest(x0) == digest(x0.copy())
    assert digest(nudged) != digest(x0)


def test_main_prints_a_line_per_run_and_the_total(identity, monkeypatch, capsys, tmp_path):
    selected = some_runs(identity)[:3]
    monkeypatch.setattr(identity, "runs", lambda: iter(selected))
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the src dir first
    identity.main(["identity.py", str(ROOT / "src"), "--write", str(tmp_path / "id.json")])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("gd n=8 s=0 L=20000.0")
    assert lines[-1].startswith("3 runs, total ")
    assert len(lines[-1].split()[-1]) == 64
    # --write stores what it printed, one run a line
    written = (tmp_path / "id.json").read_text()
    stored = json.loads(written)
    assert stored["numpy"] == np.__version__ and stored["total"] == lines[-1].split()[-1]
    assert list(stored["runs"]) == [name for name, _ in selected]
    for line, (status, iterations, d) in zip(lines, stored["runs"].values()):
        assert line.endswith(f" {status:18s} it={iterations:5d} {d[:16]}")
    assert len(written.splitlines()) == 5 + 3 + 2


def test_differing_names_each_run_that_moved_or_is_missing(identity):
    a = {"x": ["converged", 3, "aa"], "y": ["raised", -1, "bb"], "z": ["converged", 1, "cc"]}
    b = {"x": ["converged", 3, "aa"], "y": ["raised", -1, "bd"], "w": ["converged", 1, "cc"]}
    assert identity.differing(a, b) == ["y", "z", "w"]
    assert identity.differing(a, a) == []


# the committed-digest check runs every run but the grid's n=30 and s=1
# rows and most of the call caps, so that it takes at most 3 s; it keeps the
# quadratics, whose lbfgs runs are the ones a change to the curvature test moves
PINNED_CAPS = {2, 3, 5, 8, 13, 21, 34, 55}


def pinned(name):
    grid = re.search(r" n=(\d+) s=(\d)( L=\S+)?$", name)
    if grid:
        return grid[1] in ("8", "12") and grid[2] == "0"
    cap = re.search(r" cap=(\d+)$", name)
    return not cap or int(cap[1]) in PINNED_CAPS


def test_committed_digests_hold_on_a_fixed_subset(identity):
    committed = json.loads((ROOT / "tools" / "identity.json").read_text())
    runs = list(identity.runs())
    # the file lists every run, and its total is the one main prints
    assert list(committed["runs"]) == [name for name, _ in runs]
    total = hashlib.sha256()
    for _, _, d in committed["runs"].values():
        total.update(d.encode())
    assert committed["total"] == total.hexdigest()

    start = time.perf_counter()
    got = {name: list(identity.outcome(make)) for name, make in runs if pinned(name)}
    took = time.perf_counter() - start
    moved = identity.differing({name: committed["runs"][name] for name in got}, got)
    problems = [f"{len(moved)} of {len(got)} runs differ from tools/identity.json: "
                + ", ".join(moved)] if moved else []
    if committed["numpy"] != np.__version__:
        problems.append(f"tools/identity.json was written under NumPy {committed['numpy']} "
                        f"and this is NumPy {np.__version__}, whose summation order may differ")
    assert not problems, "; ".join(problems) + (
        "; a change that means to change results rewrites the file with "
        "`python tools/identity.py src --write tools/identity.json`")
    assert len(got) == 219
    print(f"{len(got)} pinned runs in {took:.2f} s")
