"""The benchmark harness under perfbench/ imports the package's names and,
while it traces, rebinds the module names the oracle and wiggle call
through. These checks import the harness and use what it uses, so a
refactor that breaks the benchmark fails here in seconds."""

import sys
from pathlib import Path

import pytest

import ffmin.oracle as oracle_module
import ffmin.optimizers.wiggle as wiggle_module
from ffmin.optimizers import StopCriteria
from ffmin.synth import make_chain_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HARNESS = ("tracing", "workloads")


@pytest.fixture
def perfbench():
    """The harness's tracing and workloads modules, imported from perfbench/;
    sys.path and the harness's sys.modules entries are restored afterwards.
    The ffmin modules the harness imports stay, as other tests hold them."""
    path = list(sys.path)
    saved = {name: sys.modules.pop(name) for name in HARNESS if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
        yield tracing, workloads
    finally:
        sys.path[:] = path
        for name in HARNESS:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_tracing_rebinds_and_restores_the_names_it_traces(perfbench):
    tracing, workloads = perfbench
    before = {(module, name): getattr(module, name) for module, name in (
        (oracle_module, "energy_total"), (oracle_module, "energy_and_gradient"),
        (wiggle_module, "energy_total"), (wiggle_module, "exact_delta_atom_move"))}
    system = make_chain_system(8, seed=0, strain=0.3)
    x = system.coords.ravel()
    config = workloads.WiggleConfig(seed=0, use_incremental_coulomb=False)
    with tracing.patched(tracing.Tracer()) as tracer:
        assert all(getattr(m, n) is not fn for (m, n), fn in before.items())
        # the oracle calls energy_total(system, x, kept) and
        # energy_and_gradient(system, x, kept) through its module's names
        oracle = oracle_module.MolecularOracle(system)
        f, g = oracle.value(x), oracle.gradient(x)
        res = wiggle_module.atom_wiggle(system, config, StopCriteria(max_iterations=3,
                                                                     gradient_norm_rtol=0.0))
    assert all(getattr(m, n) is fn for (m, n), fn in before.items())
    assert {"energy.energy_total", "energy.energy_and_gradient",
            "energy.exact_delta_atom_move"} <= {span[1] for span in tracer.spans}
    bd, want = oracle_module.energy_and_gradient(system, x)
    assert (f, g.tobytes()) == (bd.total, want.tobytes())
    assert res.iterations == 3


def test_the_gated_workloads_set_up_and_replay(perfbench, tmp_path):
    # the set-up of chain_solve and rank_demo, which runs outside their timed
    # loops and which no other test runs
    _, workloads = perfbench
    chain = workloads.ChainSolve(0, tmp_path)
    chain.setup()
    assert chain.system.natoms == chain.natoms
    assert (chain.oracle.value_calls, chain.oracle.grad_calls) == (0, 0)
    demo = workloads.RankDemo(0, tmp_path, None)
    demo.setup()  # make-demo, written with save_system
    paths = sorted((demo.pool / "candidates").iterdir())
    assert len(paths) == demo.candidates
    _, counts = demo.replay(paths[:2])
    assert [status for _, _, status, _ in counts] == ["converged", "converged"]


def test_the_cli_parser_has_what_the_rank_demo_replay_reads(perfbench):
    _, workloads = perfbench
    args = workloads.build_parser().parse_args(["batch-rank", "candidates", "--ref", "ref.ffs"])
    for name in ("max_iters", "max_oracle_calls", "tol", "rtol", "max_time", "h0", "ls",
                 "ls_budget", "no_gradient_start", "m"):
        assert hasattr(args, name), name
