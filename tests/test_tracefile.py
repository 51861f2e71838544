import re
import tracemalloc

import numpy as np
import pytest

import ffmin.optimizers.common as common
from ffmin.bench import QuadraticInstance
from ffmin.oracle import FunctionOracle, MolecularOracle
from ffmin.optimizers import (
    StopCriteria,
    TraceRecord,
    gradient_descent_fixed,
    lbfgs,
    make_linesearch,
)
from ffmin.synth import make_chain_system
from ffmin.tracefile import (
    COLUMNS,
    read_trace,
    strip_wall_column,
    trace_text,
    write_trace,
)


def small_trace():
    inst = QuadraticInstance.random(5, 20.0, seed=1)
    stop = StopCriteria(max_iterations=6, gradient_norm_rtol=0.0)
    return gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop).trace


def lbfgs_trace():
    system = make_chain_system(8, 0, 0.3)
    stop = StopCriteria(max_iterations=20, gradient_norm_rtol=0.0)
    return lbfgs(MolecularOracle(system), system.coords.ravel(), m=5,
                 linesearch=make_linesearch("par"), stop=stop).trace


def test_trace_header_lines():
    text = trace_text(small_trace(), seed=17)
    lines = text.splitlines()
    assert lines[0] == "# method: gd"
    assert lines[1].startswith("# config: {")
    assert '"L":' in lines[1]
    assert lines[2] == "# seed: 17"
    assert lines[3] == "# status: iteration_budget"
    assert lines[4] == ",".join(COLUMNS)
    assert len(lines) == 5 + 7  # header + column row + 7 records


def test_trace_round_trip(tmp_path):
    for method, trace in (("gd", small_trace()), ("lbfgs", lbfgs_trace())):
        path = tmp_path / "run.trace"
        write_trace(path, trace, seed=3)
        header, rows = read_trace(path)
        assert header["method"] == method
        assert header["seed"] == "3"
        assert header["status"] == "iteration_budget"
        assert len(rows) == len(trace.records)
        for rec, row in zip(trace.records, rows):
            assert row["iteration"] == rec.iteration
            assert row["f"] == rec.f  # .17g round-trips float64 exactly
            assert row["grad_norm"] == rec.grad_norm
            assert row["step"] == rec.step
            assert row["oracle_value_calls"] == rec.value_calls
            assert row["oracle_grad_calls"] == rec.grad_calls


def test_trace_records_read_back_what_the_run_recorded(monkeypatch):
    recorded = []  # each record's fields but wall_seconds, as Run.record saw them
    original = common.Run.record

    def spy(run, iteration, f, grad_norm, step):
        recorded.append((iteration, float(f), float(grad_norm), float(step), run.value_calls,
                         run.grad_calls, min(run.best_f, f)))
        original(run, iteration, f, grad_norm, step)

    monkeypatch.setattr(common.Run, "record", spy)
    recs = lbfgs_trace().records
    n = len(recs)
    assert n == len(recorded) == 21
    assert all(isinstance(r, TraceRecord) for r in recs)
    got = [(r.iteration, r.f, r.grad_norm, r.step, r.value_calls, r.grad_calls, r.best_f)
           for r in recs]
    assert got == recorded
    assert all(type(v) is int for r in recs for v in (r.iteration, r.value_calls, r.grad_calls))
    walls = [r.wall_seconds for r in recs]
    assert walls == sorted(walls) and walls[0] >= 0.0
    # indexing as a list does, and nothing else
    assert recs[0] == next(iter(recs)) and recs[0].iteration == 0
    assert recs[-1] == recs[n - 1] and recs[-1].iteration == 20
    for past in (n, -n - 1):
        with pytest.raises(IndexError):
            recs[past]
    assert not hasattr(recs, "append")
    with pytest.raises(TypeError):
        recs[0] = recs[1]
    # a slice is a view of the same records
    tail = recs[1:]
    assert type(tail) is type(recs) and len(tail) == n - 1
    assert tail[0] == recs[1] and tail[-1] == recs[-1]
    assert list(recs[::5]) == [recs[k] for k in range(0, n, 5)]
    # perfbench's fast_path_seconds pairs each record with the next one
    pairs = list(zip(recs, recs[1:]))
    assert len(pairs) == n - 1
    assert all(b.iteration == a.iteration + 1 for a, b in pairs)


def test_a_run_holds_at_most_80_bytes_of_trace_per_iteration():
    d = np.array([1.0, 1e-3])
    oracle = FunctionOracle(2, lambda x: 0.5 * float(x @ (d * x)), lambda x: d * x)
    stop = StopCriteria(max_iterations=20_000, gradient_norm_rtol=0.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = gradient_descent_fixed(oracle, np.ones(2), 1.0, stop)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(res.trace.records) == 20_001
    # eight float64 values per record, plus the storage's growth slack
    assert held / len(res.trace.records) <= 80


def test_read_trace_accepts_legacy_precision_header(tmp_path):
    # older files carry a "# precision:" line between seed and status
    lines = trace_text(small_trace(), seed=3).splitlines(keepends=True)
    path = tmp_path / "old.trace"
    path.write_text("".join(lines[:3] + ["# precision: f64\n"] + lines[3:]))
    header, rows = read_trace(path)
    assert header["precision"] == "f64"
    assert header["status"] == "iteration_budget"
    assert len(rows) == 7


def test_read_trace_rejects_unknown_columns(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("# method: x\niteration,foo\n1,2\n")
    try:
        read_trace(path)
    except ValueError as exc:
        assert "columns" in str(exc)
    else:
        raise AssertionError("expected ValueError")


@pytest.mark.parametrize("row,match", [
    ("3,0.1,1.5,2.0\n", "trace row has 4 fields, expected 7"),
    ("3,0.1,1.5,2.0,0.5,4,2,9\n", "trace row has 8 fields, expected 7"),
    ("3,0.1,1.5,abc,0.5,4,2\n", "could not convert string to float: 'abc'"),
    ("3,0.1,1.5,2.0,0.5,4.5,2\n", "invalid literal for int\\(\\) with base 10: '4.5'"),
], ids=["short", "long", "float", "int"])
def test_read_trace_names_the_line_of_a_malformed_row(tmp_path, row, match):
    lines = trace_text(small_trace(), seed=3).splitlines(keepends=True)
    path = tmp_path / "bad.trace"
    # the third record, on line 8 (four header lines, the column row, records)
    path.write_text("".join(lines[:7] + [row] + lines[8:]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:8: {match}"):
        read_trace(path)


def test_strip_wall_column_makes_reruns_byte_identical():
    inst = QuadraticInstance.random(5, 20.0, seed=2)
    stop = StopCriteria(max_iterations=8, gradient_norm_rtol=0.0)
    a = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop).trace
    b = gradient_descent_fixed(inst.oracle(), inst.x0, inst.L, stop).trace
    ta, tb = trace_text(a), trace_text(b)
    # wall clock makes raw texts differ almost surely; stripped they match
    assert strip_wall_column(ta) == strip_wall_column(tb)
    stripped = strip_wall_column(ta)
    assert "wall_seconds" not in stripped.splitlines()[4]
    assert stripped.endswith("\n")


def test_strip_wall_column_leaves_headers_alone():
    text = trace_text(small_trace())
    stripped = strip_wall_column(text)
    for line in stripped.splitlines():
        if line.startswith("#"):
            assert line in text
