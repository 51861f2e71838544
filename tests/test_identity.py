"""tools/identity.py, the digest that shows a refactor changed no result:
its digests repeat exactly, and one ulp of input shows in them."""

import importlib.util
import itertools
import sys
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


def test_main_prints_a_line_per_run_and_the_total(identity, monkeypatch, capsys):
    selected = some_runs(identity)[:3]
    monkeypatch.setattr(identity, "runs", lambda: iter(selected))
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the src dir first
    identity.main(["identity.py", str(ROOT / "src")])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("gd n=8 s=0 L=20000.0")
    assert lines[-1].startswith("3 runs, total ")
    assert len(lines[-1].split()[-1]) == 64
