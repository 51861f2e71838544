"""CSV trace emission: one row per optimizer iteration plus a commented
header carrying method, config, seed and status.

Reruns with identical inputs produce byte-identical files except for the
wall_seconds column; strip_wall_column gives the comparable body.
"""

from __future__ import annotations

import csv
import io
import json

COLUMNS = (
    "iteration",
    "wall_seconds",
    "f",
    "grad_norm",
    "step",
    "oracle_value_calls",
    "oracle_grad_calls",
)
_KINDS = (int, float, float, float, float, int, int)  # each column's type


def _fmt(x):
    return format(float(x), ".17g")


def trace_text(trace, seed=None) -> str:
    """Render an OptimizerTrace as the trace-file text."""
    meta = dict(trace.meta)
    method = meta.pop("method", "unknown")
    out = io.StringIO()
    out.write(f"# method: {method}\n")
    out.write(f"# config: {json.dumps(meta, sort_keys=True, default=str)}\n")
    out.write(f"# seed: {seed if seed is not None else 'none'}\n")
    out.write(f"# status: {trace.status}\n")
    w = csv.writer(out, lineterminator="\n")
    w.writerow(COLUMNS)
    for rec in trace.records:
        w.writerow([
            rec.iteration,
            format(rec.wall_seconds, ".6f"),
            _fmt(rec.f),
            _fmt(rec.grad_norm),
            _fmt(rec.step),
            rec.value_calls,
            rec.grad_calls,
        ])
    return out.getvalue()


def write_trace(path, trace, seed=None):
    with open(path, "w") as fh:
        fh.write(trace_text(trace, seed=seed))


def read_trace(path):
    """Parse a trace file back into (header dict, list of row dicts).

    Every "# key: value" line lands in the header dict, so files written
    before the "# precision:" line was dropped still parse. A column row
    other than COLUMNS, or a row without one number per column, raises
    ValueError naming the path and the line.
    """
    header = {}
    rows = []
    with open(path) as fh:
        columns_seen = False
        for lineno, line in enumerate(fh, 1):
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                header[key.strip()] = val.strip()
                continue
            vals = next(csv.reader([line]))
            if not columns_seen:
                if tuple(vals) != COLUMNS:
                    raise ValueError(f"{path}:{lineno}: unexpected trace columns {vals}")
                columns_seen = True
                continue
            if len(vals) != len(COLUMNS):
                raise ValueError(f"{path}:{lineno}: trace row has {len(vals)} fields, "
                                 f"expected {len(COLUMNS)}")
            try:
                rows.append({name: kind(v) for name, kind, v in zip(COLUMNS, _KINDS, vals)})
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return header, rows


def strip_wall_column(text: str) -> str:
    """Drop the wall_seconds field from every row (for byte comparisons)."""
    out_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            out_lines.append(line)
            continue
        parts = line.split(",")
        if len(parts) == len(COLUMNS):
            del parts[1]
        out_lines.append(",".join(parts))
    return "\n".join(out_lines) + "\n"
