import csv
import importlib
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import ffmin.cli
from ffmin.cli import METHODS, build_parser, main
from ffmin.energy import energy_total
from ffmin.model import AtomSpec, BondTerm, ModelError, MolecularSystem, NonbondedPolicy
from ffmin.oracle import MolecularOracle
from ffmin.optimizers import (
    CG_VARIANTS,
    CgVariant,
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
from ffmin.synth import make_chain_system
from ffmin.sysio import load_system, save_system
from ffmin.tracefile import read_trace, strip_wall_column, trace_text


def write_chain(tmp_path, n=8, seed=0, strain=0.3, name="sys.ffs"):
    path = tmp_path / name
    save_system(make_chain_system(n, seed=seed, strain=strain), path)
    return path


def write_diatomic(tmp_path, r=1.8):
    atoms = (
        AtomSpec(id=0, label="A0", q=0.0, sigma=3.0, epsilon=0.0),
        AtomSpec(id=1, label="A1", q=0.0, sigma=3.0, epsilon=0.0),
    )
    system = MolecularSystem(
        atoms=atoms,
        coords=np.array([[0.0, 0.0, 0.0], [r, 0.0, 0.0]]),
        bonds=(BondTerm(0, 1, 300.0, 1.5),),
        nonbonded=NonbondedPolicy(excluded=frozenset({(0, 1)})),
    )
    path = tmp_path / "pair.ffs"
    save_system(system, path)
    return path


def grab(capsys):
    cap = capsys.readouterr()
    return cap.out, cap.err


def subcommand_parsers():
    return build_parser()._subparsers._group_actions[0].choices


# ---------------------------------------------------------------- energy

def test_energy_zero_system(tmp_path, capsys):
    path = write_diatomic(tmp_path, r=1.5)  # at rest length, no charges
    assert main(["energy", str(path)]) == 0
    out, _ = grab(capsys)
    lines = dict(l.split() for l in out.splitlines())
    assert float(lines["total"]) == 0.0
    assert float(lines["grad_max"]) == 0.0


def test_energy_matches_library(tmp_path, capsys):
    path = write_chain(tmp_path, n=10, seed=4)
    assert main(["energy", str(path)]) == 0
    out, _ = grab(capsys)
    lines = dict(l.split() for l in out.splitlines())
    bd = energy_total(load_system(path))
    assert float(lines["total"]) == pytest.approx(bd.total, rel=1e-9)
    assert float(lines["stretch"]) == pytest.approx(bd.stretch, rel=1e-9)
    assert float(lines["vdw"]) == pytest.approx(bd.vdw, rel=1e-9)


# flags each method needs to start a run
FAULT_FLAGS = {"gd": ["--L", "2000"], "sd": [], "fgm": [],
               "ofgm": ["--L", "2000", "--horizon", "10"], "cg": [], "lbfgs": [], "wiggle": []}


@pytest.mark.parametrize("seed,src,dst,msg", [
    # coincident bonded atoms: the energy's bend fault, not the gradient's stretch fault
    (0, 1, 2, "bend term 0 (atoms 0-1-2): zero-length arm"),
    (1, 0, 1, "bend term 0 (atoms 0-1-2): zero-length arm"),
    (1, 2, 3, "bend term 1 (atoms 1-2-3): zero-length arm"),
    # coincident atoms of a pair that interacts
    (1, 0, 4, "nonbonded pair (0,4): coincident atoms"),
    (1, 0, 5, "nonbonded pair (0,5): coincident atoms"),
])
def test_every_entry_point_names_the_one_fault_of_degenerate_geometry(tmp_path, capsys, seed,
                                                                      src, dst, msg):
    system = make_chain_system(6, seed=seed)
    coords = system.coords.copy()
    coords[dst] = coords[src]
    pool = tmp_path / "candidates"
    pool.mkdir()
    path = pool / "degenerate.ffs"
    save_system(system.with_coords(coords), path)
    ref = tmp_path / "ref.ffs"
    save_system(system, ref)
    assert main(["energy", str(path)]) == 2
    assert grab(capsys) == ("", f"ffmin: error: {msg}\n")
    assert set(FAULT_FLAGS) == set(METHODS)
    for method, flags in FAULT_FLAGS.items():
        assert main(["minimize", str(path), "--method", method, *flags]) == 2, method
        assert grab(capsys) == ("", f"ffmin: error: {msg}\n"), method
        assert main(["batch-rank", str(pool), "--ref", str(ref), "--method", method,
                     *flags]) == 0, method
        # the rows are CSV: a fault with a comma in it is one quoted status field
        out = grab(capsys)[0]
        assert list(csv.reader(out.splitlines()[2:])) == [
            ["rank", "id", "energy", "rmsd", "status"],
            ["0", "degenerate", "inf", "inf", f"error: {msg}"]], method
    report = tmp_path / "report.csv"
    assert main(["batch-rank", str(pool), "--ref", str(ref), "--report", str(report)]) == 0
    assert report.read_text() == grab(capsys)[0]
    assert list(csv.reader(report.read_text().splitlines()[3:])) == [
        ["0", "degenerate", "inf", "inf", f"error: {msg}"]]


def test_energy_names_the_gradient_fault_when_the_energy_has_none(tmp_path, capsys):
    # a bond of length 0 has a finite energy but no gradient
    path = write_diatomic(tmp_path, r=0.0)
    assert main(["energy", str(path)]) == 2
    assert grab(capsys) == ("", "ffmin: error: stretch term 0 (atoms 0-1): coincident endpoints\n")


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.ffs"
    path.write_text("this is not a system file\n")
    assert main(["energy", str(path)]) == 2
    _, err = grab(capsys)
    assert err.startswith("ffmin: error:")


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["energy", str(tmp_path / "nope.ffs")]) == 2
    _, err = grab(capsys)
    assert err.startswith("ffmin: error:")


def test_unknown_method_rejected_by_parser(tmp_path):
    path = write_diatomic(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(["minimize", str(path), "--method", "downhill"])
    assert e.value.code == 2


# ---------------------------------------------------------------- minimize

def test_minimize_writes_trace_and_system(tmp_path, capsys):
    path = write_chain(tmp_path, n=8, seed=1)
    trace = tmp_path / "run.trace"
    out_file = tmp_path / "min.ffs"
    code = main([
        "minimize", str(path), "--method", "lbfgs", "--max-iters", "500",
        "--trace", str(trace), "--out", str(out_file), "--seed", "7",
    ])
    out, _ = grab(capsys)
    assert code == 0
    assert "status   converged" in out
    f0 = energy_total(load_system(path)).total
    f1 = energy_total(load_system(out_file)).total
    assert f1 < f0
    header, rows = read_trace(trace)
    assert header["method"] == "lbfgs"
    assert header["seed"] == "7"
    assert header["status"] == "converged"
    assert rows[-1]["f"] == pytest.approx(f1, rel=1e-9)


@pytest.mark.parametrize("ls,config", [
    ("h", '{"linesearch": {"h0": 1.0, "kind": "h"}, "m": 3}'),
    ("par", '{"linesearch": {"K": 6, "h0": 1.0, "kind": "par", "use_gradient_start": true},'
            ' "m": 3}'),
], ids=["h", "par"])
def test_minimize_trace_config_lists_the_search_fields(tmp_path, capsys, ls, config):
    # the search's settable fields, and none of its constants
    path = write_chain(tmp_path, n=6, seed=0)
    trace = tmp_path / "run.trace"
    main(["minimize", str(path), "--method", "lbfgs", "--ls", ls, "--max-iters", "5",
          "--trace", str(trace)])
    grab(capsys)
    assert f"# config: {config}\n" in trace.read_text()


def test_minimize_trace_deterministic(tmp_path, capsys):
    path = write_chain(tmp_path, n=8, seed=2)
    texts = []
    for name in ("a.trace", "b.trace"):
        trace = tmp_path / name
        assert main(["minimize", str(path), "--method", "lbfgs",
                     "--max-iters", "500", "--trace", str(trace)]) == 0
        texts.append(trace.read_text())
    grab(capsys)
    assert strip_wall_column(texts[0]) == strip_wall_column(texts[1])


def test_minimize_gd_requires_L(tmp_path, capsys):
    path = write_diatomic(tmp_path)
    assert main(["minimize", str(path), "--method", "gd"]) == 2
    _, err = grab(capsys)
    assert "--L" in err


def test_minimize_stall_exits_3(tmp_path, capsys):
    # tol 0 forces the run past numerical convergence until no probe
    # direction relaxes the energy any further
    path = write_chain(tmp_path, n=4, seed=0)
    code = main(["minimize", str(path), "--method", "sd",
                 "--tol", "0", "--rtol", "0", "--max-iters", "100000"])
    out, _ = grab(capsys)
    assert code == 3
    assert "status   linesearch_failure" in out


def test_minimize_budget_exits_4(tmp_path, capsys):
    path = write_chain(tmp_path, n=10, seed=3)
    code = main(["minimize", str(path), "--method", "lbfgs",
                 "--max-iters", "1"])
    out, _ = grab(capsys)
    assert code == 4
    assert "status   iteration_budget" in out
    assert "iters    1" in out


def test_minimize_wiggle_budget_status(tmp_path, capsys):
    path = write_chain(tmp_path, n=6, seed=5)
    out_file = tmp_path / "w.ffs"
    code = main(["minimize", str(path), "--method", "wiggle",
                 "--max-iters", "200", "--out", str(out_file)])
    grab(capsys)
    assert code == 4  # wiggle has no gradient, so it always runs out its budget
    f0 = energy_total(load_system(path)).total
    assert energy_total(load_system(out_file)).total < f0


def test_minimize_wiggle_trace_records_its_status(tmp_path, capsys):
    path = write_chain(tmp_path, n=6, seed=5)
    trace = tmp_path / "w.trace"
    assert main(["minimize", str(path), "--method", "wiggle", "--max-iters", "20",
                 "--trace", str(trace)]) == 4
    grab(capsys)
    assert "# status: iteration_budget\n" in trace.read_text()
    assert read_trace(trace)[0]["status"] == "iteration_budget"


def on_chain(system):
    return MolecularOracle(system), system.coords.ravel()


# each case's CLI flags, and the library call those flags must dispatch to
DISPATCH = {
    "gd": (["--L", "2000"],
           lambda s, stop: gradient_descent_fixed(*on_chain(s), 2000.0, stop)),
    "sd": (["--ls", "h", "--h0", "0.5"],
           lambda s, stop: steepest_descent(*on_chain(s), make_linesearch("h", h0=0.5), stop)),
    "fgm": (["--ls-budget", "4", "--no-gradient-start"],
            lambda s, stop: fgm(*on_chain(s), make_linesearch(
                "par", K=4, use_gradient_start=False), stop)),
    "ofgm": (["--horizon", "10", "--L", "2000"],
             lambda s, stop: ofgm(*on_chain(s), 10, L=2000.0, stop=stop)),
    "cg": (["--cg-variant", "hs", "--restart", "5"],
           lambda s, stop: cg(*on_chain(s), CgVariant("hs", restart_period=5),
                              make_linesearch("par"), stop)),
    "lbfgs": (["--m", "5", "--h0", "0.5"],
              lambda s, stop: lbfgs(*on_chain(s), m=5, linesearch=make_linesearch(
                  "par", h0=0.5), stop=stop)),
    "wiggle": (["--wiggle-h", "0.04"],
               lambda s, stop: atom_wiggle(s, WiggleConfig(
                   h=0.04, seed=3, use_incremental_coulomb=False), stop)),
}


def test_dispatch_covers_every_method():
    assert set(DISPATCH) == set(METHODS)


@pytest.mark.parametrize("case", list(DISPATCH))
def test_minimize_dispatches_each_method(tmp_path, capsys, case):
    flags, library = DISPATCH[case]
    path = write_chain(tmp_path, n=8, seed=1)
    trace = tmp_path / "run.trace"
    out_file = tmp_path / "min.ffs"
    code = main(["minimize", str(path), "--method", case, *flags,
                 "--max-iters", "20", "--seed", "3", "--trace", str(trace),
                 "--out", str(out_file)])
    out, _ = grab(capsys)
    res = library(load_system(path), StopCriteria(max_iterations=20))
    assert code == (0 if res.status in ("converged", "horizon_complete") else 4)
    assert f"status   {res.status}\n" in out
    assert strip_wall_column(trace.read_text()) == strip_wall_column(
        trace_text(res.trace, seed=3))
    assert np.array_equal(load_system(out_file).coords.ravel(), res.x)


@pytest.mark.parametrize("cutoff", [3.0, 7.0, 12.0])
def test_minimize_wiggle_takes_a_system_with_cutoff(tmp_path, capsys, cutoff):
    # the CLI's wiggle probes with exact single-atom deltas, which take the
    # cutoff the library's far-field model refuses
    system = make_chain_system(8, seed=5, strain=0.3, cutoff=cutoff)
    path = tmp_path / "cut.ffs"
    save_system(system, path)
    out_file = tmp_path / "min.ffs"
    assert main(["minimize", str(path), "--method", "wiggle", "--max-iters", "30",
                 "--out", str(out_file)]) == 4
    grab(capsys)
    res = atom_wiggle(load_system(path), WiggleConfig(use_incremental_coulomb=False),
                      StopCriteria(max_iterations=30))
    assert np.array_equal(load_system(out_file).coords.ravel(), res.x)
    assert res.f < energy_total(system).total
    with pytest.raises(ModelError, match="cutoff"):
        atom_wiggle(load_system(path), WiggleConfig(), StopCriteria(max_iterations=1))


@pytest.mark.parametrize("flag", ["--full-recompute", "--wiggle-cutoff=7", "--epoch=7"])
@pytest.mark.parametrize("command", ["minimize", "batch-rank"])
def test_dropped_wiggle_flags_are_refused(tmp_path, capsys, command, flag):
    # the CLI's wiggle has one probe model, so the flags that chose or tuned
    # the far-field one are unknown options, refused before any file is read
    target = tmp_path / "missing"
    ref = ["--ref", str(tmp_path / "ref.ffs")] if command == "batch-rank" else []
    with pytest.raises(SystemExit) as e:
        main([command, str(target), *ref, "--method", "wiggle", flag])
    assert e.value.code == 2
    out, err = grab(capsys)
    assert out == "" and f"unrecognized arguments: {flag}" in err
    assert not target.exists()


@pytest.mark.parametrize("flags,msg", [
    (["--method", "gd"], "gd requires --L"),
    (["--method", "gd", "--L", "0"], "L must be positive"),
    (["--method", "ofgm", "--horizon", "5", "--L", "0"], "L must be positive"),
    (["--method", "ofgm", "--horizon", "0", "--L", "1"], "horizon N must be >= 1"),
    (["--method", "ofgm", "--L", "2000"], "ofgm requires --horizon"),
    (["--max-time", "nan"], "max_wall_time must be >= 0 seconds, got nan"),
    (["--method", "cg", "--cg-variant", "bogus"],
     f"unknown cg variant 'bogus'; expected one of {CG_VARIANTS}"),
    (["--method", "cg", "--restart", "0"], "restart_period must be >= 1"),
    (["--method", "ofgm", "--horizon", "10"], "ofgm requires --L"),
    (["--tol", "nan"], "gradient_norm_tol must be >= 0, got nan"),
    (["--rtol", "nan"], "gradient_norm_rtol must be >= 0, got nan"),
    (["--method", "wiggle", "--seed", "-1"], "wiggle seed must be >= 0, got -1"),
    (["--h0", "inf"], "h0 must be finite and > 0, got inf"),
    (["--ls", "h", "--h0", "inf"], "h0 must be finite and > 0, got inf"),
    (["--h0", "1e-300"], "h0 = 1e-300 is too small for ls_par: h0 * h0 underflows to 0"),
    (["--method", "wiggle", "--wiggle-h", "inf"], "probe step h must be finite and > 0, got inf"),
    (["--method", "gd", "--L", "inf"], "L must be finite, got inf"),
    (["--method", "ofgm", "--horizon", "5", "--L", "inf"], "L must be finite, got inf"),
])
def test_minimize_missing_method_flag_exits_2(tmp_path, capsys, flags, msg):
    path = write_diatomic(tmp_path)
    assert main(["minimize", str(path), *flags]) == 2
    assert grab(capsys) == ("", f"ffmin: error: {msg}\n")


def test_minimize_time_budget_exits_4(tmp_path, capsys):
    path = write_chain(tmp_path, n=8, seed=1)
    assert main(["minimize", str(path), "--max-time", "0"]) == 4
    out, _ = grab(capsys)
    assert "status   time_budget" in out
    assert "iters    0" in out


def test_minimize_divergence_exits_2(tmp_path, capsys):
    path = write_chain(tmp_path, n=8, seed=6)
    code = main(["minimize", str(path), "--method", "gd", "--L", "1e-6",
                 "--max-iters", "2000"])
    _, err = grab(capsys)
    assert code == 2
    assert err.startswith("ffmin: error:")


# the flags that make a minimize option take effect: the methods that read it
OPTION_METHOD = {"--L": ["--method", "gd"], "--wiggle-h": ["--method", "wiggle"]}
ODD_FLOATS = ("nan", "inf", "-inf", "0", "-0.0", "1e-300", "1e300")


def float_option_cases():
    sub = subcommand_parsers()["minimize"]
    options = sorted(a.option_strings[0] for a in sub._actions if a.type is float)
    cases = [OPTION_METHOD.get(o, []) + [f"{o}={v}"] for o in options for v in ODD_FLOATS]
    return cases + [["--method", "ofgm", "--horizon", "5", "--L=inf"]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", float_option_cases(), ids=" ".join)
def test_minimize_float_options_end_in_a_result_or_one_error_line(tmp_path, capsys, flags):
    # every float option of minimize, at each of the odd values, either runs
    # to a documented exit or is refused with one error line; no exception
    # or warning escapes main
    path = write_chain(tmp_path, n=6)
    try:
        code = main(["minimize", str(path), "--max-iters", "20", *flags])
    except BaseException as exc:  # noqa: BLE001 - any escape is the failure
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    _, err = grab(capsys)
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert len(re.findall(r"^ffmin: error:", err, re.M)) == 1 == len(err.splitlines()), err
    if flags[-1] == "--L=inf":  # gd and ofgm
        assert code == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["lbfgs", "sd", "cg"])
@pytest.mark.parametrize("ls,code,status", [("par", 3, "linesearch_failure"),
                                            ("h", 4, "iteration_budget")])
def test_minimize_overflowing_first_step_is_a_probe_that_does_not_relax(
        tmp_path, capsys, method, ls, code, status):
    # h0 = 1e300 overflows the energy at the first probe: ls_par stops there
    # and finds nothing, ls_h contracts past it; neither is an input error
    path = write_chain(tmp_path, n=6)
    assert main(["minimize", str(path), "--method", method, "--ls", ls, "--h0", "1e300",
                 "--max-iters", "20"]) == code
    out, err = grab(capsys)
    assert err == ""
    assert f"status   {status}" in out


@pytest.mark.parametrize("flags,msg", [
    (["--method", "gd"], "non-finite objective or gradient at iteration 1"),
    (["--method", "ofgm", "--horizon", "5"], "ofgm diverged at iteration 1: f=nan"),
])
def test_minimize_overflowing_fixed_step_is_a_divergence(tmp_path, capsys, flags, msg):
    path = write_chain(tmp_path, n=6)
    assert main(["minimize", str(path), *flags, "--L", "1e-300", "--max-iters", "20"]) == 2
    assert grab(capsys) == ("", f"ffmin: error: {msg}\n")


# the flags that make an int option of minimize or batch-rank take effect
INT_OPTION_METHOD = {"--restart": ["--method", "cg"],
                     "--horizon": ["--method", "ofgm", "--L", "2000"],
                     "--seed": ["--method", "wiggle"]}
ODD_INTS = (-1, 0, 1, 2, 3)


def int_option_cases():
    cases = []
    for command, sub in subcommand_parsers().items():
        options = sorted(a.option_strings[0] for a in sub._actions if a.type is int)
        method = INT_OPTION_METHOD if command != "make-demo" else {}
        cases += [(command, method.get(o, []) + [f"{o}={v}"]) for o in options for v in ODD_INTS]
    return cases


@pytest.fixture(scope="module")
def small_pool(tmp_path_factory):
    pool = tmp_path_factory.mktemp("pool")
    assert main(["make-demo", str(pool), "--candidates", "2", "--atoms", "6"]) == 0
    return pool


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,flags", int_option_cases(),
                         ids=[" ".join([c, *f]) for c, f in int_option_cases()])
def test_int_options_end_in_a_result_or_one_error_line(tmp_path, capsys, small_pool,
                                                      command, flags):
    # every int option at -1, 0, 1, 2 and 3 either runs to a documented exit
    # or is refused with one error line and no file written; no exception
    # or warning escapes main
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "minimize": ["minimize", str(small_pool / "reference.ffs"), "--max-iters", "20",
                     "--trace", str(out / "trace.csv"), "--out", str(out / "final.ffs")],
        "batch-rank": ["batch-rank", str(small_pool / "candidates"),
                       "--ref", str(small_pool / "reference.ffs"), "--max-iters", "20",
                       "--report", str(out / "rank.csv")],
        "make-demo": ["make-demo", str(out / "demo"), "--candidates", "2", "--atoms", "6"],
    }[command]
    try:
        code = main([*argv, *flags])
    except BaseException as exc:  # noqa: BLE001 - any escape is the failure
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    _, err = grab(capsys)
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert len(re.findall(r"^ffmin: error:", err, re.M)) == 1 == len(err.splitlines()), err
        assert list(out.iterdir()) == []
    elif command == "make-demo":
        # the pool is what the command says it wrote
        wanted = int(flags[-1].split("=")[1]) if flags[-1].startswith("--candidates") else 2
        assert len(list((out / "demo" / "candidates").iterdir())) == wanted
        assert (out / "demo" / "reference.ffs").is_file()


# ---------------------------------------------------------------- batch rank

def test_make_demo_then_batch_rank(tmp_path, capsys):
    demo = tmp_path / "demo"
    assert main(["make-demo", str(demo), "--candidates", "8",
                 "--atoms", "8", "--seed", "3"]) == 0
    grab(capsys)
    report = tmp_path / "rank.csv"
    code = main([
        "batch-rank", str(demo / "candidates"),
        "--ref", str(demo / "reference.ffs"),
        "--method", "lbfgs", "--max-iters", "400",
        "--report", str(report),
    ])
    out, _ = grab(capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# first_near_native:")
    assert lines[1] == "# success: true"
    assert lines[2] == "rank,id,energy,rmsd,status"
    body = lines[3:]
    assert len(body) == 8
    assert body[0].startswith("0,cand_")
    energies = [float(row.split(",")[2]) for row in body]
    assert energies == sorted(energies)
    assert report.read_text() == out


@pytest.mark.parametrize("flags", [["--candidates", "-3"], ["--candidates", "0"],
                                   ["--atoms", "1"]])
def test_make_demo_rejects_bad_sizes_before_writing(tmp_path, capsys, flags):
    demo = tmp_path / "demo"
    assert main(["make-demo", str(demo), *flags]) == 2
    out, err = grab(capsys)
    assert out == ""
    assert err.startswith("ffmin: error: make-demo needs --candidates >= 1 and --atoms >= 2")
    assert not demo.exists()


def test_make_demo_rejects_a_negative_seed_before_writing(tmp_path, capsys):
    demo = tmp_path / "demo"
    assert main(["make-demo", str(demo), "--seed", "-1"]) == 2
    assert grab(capsys) == ("", "ffmin: error: make-demo needs --seed >= 0, got -1\n")
    assert not demo.exists()


def pool_bytes(demo):
    return {p.relative_to(demo): p.read_bytes() for p in demo.rglob("*") if p.is_file()}


def test_make_demo_refuses_a_directory_that_holds_a_pool(tmp_path, capsys):
    demo = tmp_path / "demo"
    assert main(["make-demo", str(demo), "--candidates", "6", "--atoms", "6"]) == 0
    grab(capsys)
    first = pool_bytes(demo)
    assert main(["make-demo", str(demo), "--candidates", "2", "--atoms", "8"]) == 2
    assert grab(capsys) == ("", f"ffmin: error: make-demo: {demo} already holds a pool; "
                                "use a new or empty directory\n")
    assert pool_bytes(demo) == first
    assert main(["batch-rank", str(demo / "candidates"),
                 "--ref", str(demo / "reference.ffs")]) == 0
    rows = grab(capsys)[0].splitlines()[3:]
    assert sorted(row.split(",")[1] for row in rows) == [f"cand_{i:02d}" for i in range(6)]
    assert "inf" not in {row.split(",")[2] for row in rows}
    # a candidate file alone is a pool too
    (demo / "reference.ffs").unlink()
    assert main(["make-demo", str(demo), "--candidates", "2", "--atoms", "8"]) == 2
    assert "already holds a pool" in grab(capsys)[1]
    assert not (demo / "reference.ffs").exists()


def test_batch_rank_empty_dir_exits_2(tmp_path, capsys):
    ref = write_diatomic(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["batch-rank", str(empty), "--ref", str(ref)]) == 2
    _, err = grab(capsys)
    assert "no candidate files" in err


def test_batch_rank_sinks_bad_candidate(tmp_path, capsys):
    demo = tmp_path / "demo"
    assert main(["make-demo", str(demo), "--candidates", "4",
                 "--atoms", "6", "--seed", "1"]) == 0
    grab(capsys)
    # an atom-count mismatch must not abort the batch
    save_system(make_chain_system(9, seed=0), demo / "candidates" / "cand_99.ffs")
    code = main([
        "batch-rank", str(demo / "candidates"),
        "--ref", str(demo / "reference.ffs"),
        "--method", "lbfgs", "--max-iters", "300",
    ])
    out, _ = grab(capsys)
    assert code == 0
    body = out.splitlines()[3:]
    assert len(body) == 5
    last = body[-1].split(",")
    assert last[1] == "cand_99"
    assert float(last[2]) == float("inf")
    assert "error:" in body[-1]


def write_not_utf8(directory, name="utf16.ffs"):
    path = directory / name
    path.write_bytes(b"\xff\xfe\x00" + "format_version: 1\n".encode("utf-16-le"))
    return path


def test_energy_of_a_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    path = write_not_utf8(tmp_path)
    assert main(["energy", str(path)]) == 2
    assert grab(capsys) == ("", f"ffmin: error: {path}: not UTF-8 text (invalid start byte)\n")


def test_batch_rank_sinks_a_candidate_that_is_not_utf8(tmp_path, capsys):
    pool = tmp_path / "candidates"
    pool.mkdir()
    ref = write_chain(tmp_path, n=6, name="ref.ffs")
    write_chain(pool, n=6, seed=1, name="good.ffs")
    bad = write_not_utf8(pool)
    code = main(["batch-rank", str(pool), "--ref", str(ref), "--max-iters", "50"])
    out, err = grab(capsys)
    assert (code, err) == (0, "")
    body = out.splitlines()[3:]
    assert [row.split(",")[1] for row in body] == ["good", "utf16"]
    assert body[-1] == f"1,utf16,inf,inf,error: {bad}: not UTF-8 text (invalid start byte)"


def test_batch_rank_wiggle_ranks_candidate_with_cutoff(tmp_path, capsys):
    demo = tmp_path / "demo"
    assert main(["make-demo", str(demo), "--candidates", "2",
                 "--atoms", "6", "--seed", "1"]) == 0
    grab(capsys)
    # the CLI's wiggle probes with exact single-atom deltas, which take a
    # system cutoff, so this candidate is ranked like the other
    cut = demo / "candidates" / "cand_01.ffs"
    text = cut.read_text()
    assert "cutoff: none" in text
    cut.write_text(text.replace("cutoff: none", "cutoff: 9"))
    code = main([
        "batch-rank", str(demo / "candidates"),
        "--ref", str(demo / "reference.ffs"),
        "--method", "wiggle", "--max-iters", "50",
    ])
    out, _ = grab(capsys)
    assert code == 0
    rows = {row[1]: row for row in (line.split(",") for line in out.splitlines()[3:])}
    assert sorted(rows) == ["cand_00", "cand_01"]
    assert {rows[c][0] for c in rows} == {"0", "1"}
    _, _, energy, rmsd, status = rows["cand_01"]
    assert math.isfinite(float(energy)) and math.isfinite(float(rmsd))
    assert status == "iteration_budget"
    res = atom_wiggle(load_system(cut), WiggleConfig(use_incremental_coulomb=False),
                      StopCriteria(max_iterations=50))
    assert energy == f"{res.f:.10g}"


def test_batch_rank_does_not_hide_programming_errors(tmp_path, capsys, monkeypatch):
    demo = tmp_path / "demo"
    assert main(["make-demo", str(demo), "--candidates", "2",
                 "--atoms", "6", "--seed", "1"]) == 0
    grab(capsys)

    def broken_solve(args, system):
        raise ValueError("solver bug")

    # only typed input/geometry errors may turn into failed-candidate rows
    monkeypatch.setattr(ffmin.cli, "_run_method", broken_solve)
    code = main([
        "batch-rank", str(demo / "candidates"),
        "--ref", str(demo / "reference.ffs"),
    ])
    out, err = grab(capsys)
    assert code == 2
    assert "ffmin: error: solver bug" in err
    assert "rank,id" not in out


# ------------------------------------------------ a system without atoms

# a valid input (see test_sysio): each method family ends in a result or,
# for wiggle, which has no atom to move, one named error
EMPTY_METHODS = {"lbfgs": [], "gd": ["--L", "100"], "wiggle": []}
NO_ATOM_TO_MOVE = "atom_wiggle needs a system with at least one atom"


def write_empty(directory, name="empty.ffs"):
    path = directory / name
    save_system(MolecularSystem(atoms=(), coords=np.zeros((0, 3))), path)
    return path


def test_energy_of_a_system_without_atoms(tmp_path, capsys):
    assert main(["energy", str(write_empty(tmp_path))]) == 0
    out, err = grab(capsys)
    lines = dict(l.split() for l in out.splitlines())
    assert err == ""
    assert float(lines["total"]) == float(lines["grad_max"]) == 0.0


@pytest.mark.parametrize("method", sorted(EMPTY_METHODS))
def test_minimize_a_system_without_atoms(tmp_path, capsys, method):
    code = main(["minimize", str(write_empty(tmp_path)), "--method", method,
                 *EMPTY_METHODS[method]])
    out, err = grab(capsys)
    if method == "wiggle":
        assert (code, out, err) == (2, "", f"ffmin: error: {NO_ATOM_TO_MOVE}\n")
        return
    assert (code, err) == (0, "")
    lines = dict(l.split() for l in out.splitlines())
    assert (lines["status"], lines["iters"], lines["grad_max"]) == ("converged", "0", "0")


@pytest.mark.parametrize("method", sorted(EMPTY_METHODS))
def test_batch_rank_a_pool_without_atoms(tmp_path, capsys, method):
    ref = write_empty(tmp_path)
    (tmp_path / "candidates").mkdir()
    write_empty(tmp_path / "candidates", "cand_00.ffs")
    code = main(["batch-rank", str(tmp_path / "candidates"), "--ref", str(ref),
                 "--method", method, *EMPTY_METHODS[method]])
    out, err = grab(capsys)
    assert (code, err) == (0, "")
    # wiggle's refusal sinks its candidate as one error row
    assert out.splitlines()[3:] == [f"0,cand_00,inf,inf,error: {NO_ATOM_TO_MOVE}"
                                    if method == "wiggle" else "0,cand_00,0,0,converged"]


# ---------------------------------------------------------------- parser

def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_parser_reuse_after_an_error_matches_a_fresh_process(tmp_path, capsys):
    path = write_chain(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(["minimize", "--bogus"])
    assert e.value.code == 2
    grab(capsys)
    assert main(["energy", str(path)]) == 0
    out, err = grab(capsys)
    root = Path(__file__).resolve().parents[1]
    launcher = "import sys; from ffmin.cli import main; sys.exit(main())"
    proc = subprocess.run([sys.executable, "-c", launcher, "energy", str(path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert (out, err) == (proc.stdout, proc.stderr)


def test_parses_do_not_share_values():
    parser = build_parser()
    a = parser.parse_args(["batch-rank", "c", "--ref", "r.ffs", "--m", "7"])
    b = parser.parse_args(["batch-rank", "d", "--ref", "s.ffs"])
    assert a is not b
    assert (a.dir, a.ref, a.m) == ("c", "r.ffs", 7)
    assert (b.dir, b.ref, b.m) == ("d", "s.ffs", 3)


# ---------------------------------------------------------------- docs

def readme_section(title):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_methods_line_names_every_method():
    line = re.search(r"^Methods: (.*?)\.\s", readme_section("CLI"), re.M | re.S).group(1)
    named = {name for name in re.findall(r"`([^`]+)`", line) if not name.startswith("--")}
    assert named == set(METHODS)


def readme_cli_flags():
    return set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme_section("CLI")))


def test_readme_cli_flags_parse():
    known = set(build_parser()._option_string_actions)
    for sub in subcommand_parsers().values():
        known |= set(sub._option_string_actions)
    flags = readme_cli_flags()
    assert flags and flags <= known, sorted(flags - known)


def test_readme_cli_section_names_every_flag():
    documented = readme_cli_flags()
    for name, sub in subcommand_parsers().items():
        missing = {o for o in sub._option_string_actions if o.startswith("--")} - documented
        assert not missing, (name, sorted(missing))


def test_readme_cli_section_names_every_subcommand():
    section = readme_section("CLI")
    count = re.search(r"entry point has (\w+) subcommands", section).group(1)
    first_sh = section.split("```sh\n", 1)[1].split("```", 1)[0]
    named = re.findall(r"^ffmin ([\w-]+)", first_sh, re.M)
    subs = list(subcommand_parsers())
    assert named == subs
    assert count == ("one", "two", "three", "four", "five", "six", "seven")[len(subs) - 1]


# ---------------------------------------------------------------- script

def _script_smoke(command, tmp_path, env=None):
    """command runs `energy` on a diatomic and `--version` like the ffmin script."""
    path = write_diatomic(tmp_path, r=1.5)
    proc = subprocess.run([*command, "energy", str(path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "total" in proc.stdout
    ver = subprocess.run([*command, "--version"], capture_output=True, text=True,
                         timeout=120, env=env)
    assert ver.returncode == 0, ver.stderr
    assert ver.stdout.startswith("ffmin ")


def test_installed_script_smoke(tmp_path):
    exe = shutil.which("ffmin")
    if exe is None:
        pytest.skip("ffmin script not on PATH")
    _script_smoke([exe], tmp_path)


def test_running_the_module_as_main_exits_with_main_s_code(tmp_path, capsys, monkeypatch):
    """python -m ffmin.cli runs main on sys.argv and exits with its code."""
    path = write_chain(tmp_path)
    assert main(["energy", str(path)]) == 0
    want = grab(capsys)
    monkeypatch.setattr(sys, "argv", ["ffmin", "energy", str(path)])
    # this module imported ffmin.cli already, so runpy warns it runs a second copy
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
            pytest.raises(SystemExit) as stop:
        runpy.run_module("ffmin.cli", run_name="__main__")
    assert stop.value.code == 0
    assert grab(capsys) == want


def test_project_script_entry_point_runs(tmp_path):
    """The entry point pyproject.toml declares for the ffmin script resolves,
    and runs in a fresh interpreter the way an installed script calls it."""
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"ffmin": "ffmin.cli:main"}
    module, func = scripts["ffmin"].split(":")
    assert getattr(importlib.import_module(module), func) is main
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    _script_smoke([sys.executable, "-c", launcher], tmp_path, env)
