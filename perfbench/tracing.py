"""In-memory span tracing for the traced benchmark run.

Spans come only from wrappers that this module installs around the public
names each ffmin layer exposes to its callers. Nothing inside the package
is edited: `patched` rebinds the names for the duration of a `with` block
and restores the originals on exit, so the untraced runs execute the
package exactly as users do.

A span is (layer, name, start, end, parent, extra). Spans are appended in
start order, so the subtree of any span is the contiguous slice that
starts at it and ends before the next span with the same or a shallower
depth.
"""

from __future__ import annotations

import contextlib
import time

LAYERS = ("cli", "sysio", "model", "oracle", "energy", "linesearch",
          "optimizers", "ranking")

_clock = time.perf_counter
_ORACLE_NAMES = ("oracle.value", "oracle.gradient", "oracle.value_and_gradient")


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, name, t0, t1, parent, extra]
        self._stack = []

    def wrap(self, layer, name, fn, after=None):
        """Return fn wrapped in a span; after(result, extra) may fill extra
        with counts read from the call's result."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = [layer, name, _clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _clock()
                stack.pop()
            if after is not None:
                span[5] = {}
                after(result, span[5])
            return result

        return traced

    def write_csv(self, path):
        t_base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,parent,layer,name,start_us,end_us\n")
            for i, (layer, name, t0, t1, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{layer},{name},"
                         f"{(t0 - t_base) * 1e6:.1f},{(t1 - t_base) * 1e6:.1f}\n")


def _linesearch_after(result, extra):
    extra["found"] = result.status == "found"
    extra["calls"] = result.oracle_calls


def _optimizer_after(result, extra):
    extra["iterations"] = int(result.iterations)
    extra["value_calls"] = int(result.trace.records[-1].value_calls)
    extra["grad_calls"] = int(result.trace.records[-1].grad_calls)
    extra["status"] = result.status
    extra["f"] = float(result.f)
    extra["accepted"] = sum(1 for rec in result.trace.records[1:] if rec.step != 0.0)


def traced_oracle_class(tracer, base):
    """A MolecularOracle subclass whose public calls open oracle spans."""
    value = tracer.wrap("oracle", "oracle.value", base.value)
    gradient = tracer.wrap("oracle", "oracle.gradient", base.gradient)
    fused = tracer.wrap("oracle", "oracle.value_and_gradient", base.value_and_gradient)
    return type("TracedMolecularOracle", (base,), {
        "value": value, "gradient": gradient, "value_and_gradient": fused,
    })


def traced_optimizer(tracer, fn, name):
    return tracer.wrap("optimizers", name, fn, after=_optimizer_after)


@contextlib.contextmanager
def patched(tracer):
    """Rebind the public names each layer's callers import to traced wrappers."""
    import ffmin.cli as cli
    import ffmin.model as model
    import ffmin.oracle as oracle
    import ffmin.optimizers.common as common
    import ffmin.optimizers.wiggle as wiggle
    import ffmin.ranking as ranking

    w = tracer.wrap
    targets = [
        (cli, "load_system", w("sysio", "sysio.load_system", cli.load_system)),
        (cli, "rmsd", w("ranking", "ranking.rmsd", cli.rmsd)),
        (cli, "lbfgs", traced_optimizer(tracer, cli.lbfgs, "optimizers.lbfgs")),
        (cli, "MolecularOracle", traced_oracle_class(tracer, oracle.MolecularOracle)),
        (model.MolecularSystem, "with_coords",
         w("model", "model.with_coords", model.MolecularSystem.with_coords)),
        (model.MolecularSystem, "arrays",
         w("model", "model.arrays", model.MolecularSystem.arrays)),
        (oracle, "energy_total", w("energy", "energy.energy_total", oracle.energy_total)),
        (oracle, "energy_and_gradient",
         w("energy", "energy.energy_and_gradient", oracle.energy_and_gradient)),
        (wiggle, "energy_total", w("energy", "energy.energy_total", wiggle.energy_total)),
        (wiggle, "linearize_farfield_coulomb",
         w("energy", "energy.linearize_farfield_coulomb", wiggle.linearize_farfield_coulomb)),
        (wiggle, "delta_energy_atom_move",
         w("energy", "energy.delta_energy_atom_move", wiggle.delta_energy_atom_move)),
        (wiggle, "exact_delta_atom_move",
         w("energy", "energy.exact_delta_atom_move", wiggle.exact_delta_atom_move)),
        (common.LineSearcher, "search",
         w("linesearch", "linesearch.search", common.LineSearcher.search,
           after=_linesearch_after)),
        (common, "ls_h", w("linesearch", "linesearch.ls_h", common.ls_h)),
        (common, "ls_par", w("linesearch", "linesearch.ls_par", common.ls_par)),
        (ranking.RankingReport, "build",
         staticmethod(w("ranking", "ranking.build", ranking.RankingReport.build))),
    ]
    saved = []
    for owner, attr, new in targets:
        # class attributes are saved from __dict__ so a staticmethod stays one
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, old))
        setattr(owner, attr, new)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def summarize(spans, lo=0, hi=None):
    """Per-layer counts and times over spans[lo:hi], a set of whole subtrees."""
    hi = len(spans) if hi is None else hi
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = spans[i][4]
        if p >= lo:
            child[p - lo] += spans[i][3] - spans[i][2]
    self_s = dict.fromkeys(LAYERS, 0.0)
    busy_s = dict.fromkeys(LAYERS, 0.0)
    names = {}
    searches = found = search_calls = 0
    iterations = 0
    eval_under_opt = opt_s = 0.0
    solve_s = []
    energy_in_oracle = 0.0
    total_s = {}
    for i in range(lo, hi):
        layer, name, t0, t1, parent, extra = spans[i]
        dur = t1 - t0
        self_s[layer] += dur - child[i - lo]
        names[name] = names.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + dur
        parent_layer = spans[parent][0] if parent >= 0 else None
        if parent_layer != layer:
            busy_s[layer] += dur
        if name == "linesearch.search":
            searches += 1
            found += extra["found"]
            search_calls += extra["calls"]
        elif layer == "optimizers":
            iterations += extra["iterations"]
            opt_s += dur
            solve_s.append(dur)
        if layer in ("oracle", "energy") and parent_layer not in ("oracle", "energy", None):
            eval_under_opt += dur
        if layer == "energy" and parent_layer == "oracle":
            energy_in_oracle += dur
    value_calls = names.get("oracle.value", 0) + names.get("oracle.value_and_gradient", 0)
    grad_calls = names.get("oracle.gradient", 0) + names.get("oracle.value_and_gradient", 0)
    oracle_calls = sum(names.get(k, 0) for k in _ORACLE_NAMES)
    return {
        "self_s": self_s,
        "busy_s": busy_s,
        "oracle.value_calls": value_calls,
        "oracle.grad_calls": grad_calls,
        "linesearch.searches": searches,
        "linesearch.calls_per_search": search_calls / searches if searches else 0.0,
        "linesearch.found_frac": found / searches if searches else 0.0,
        "optimizers.iterations": iterations,
        "optimizers.oracle_share": eval_under_opt / opt_s if opt_s else 0.0,
        "optimizers.solve_s": solve_s,
        # mean oracle call time minus the mean energy time inside it
        "oracle.overhead_us": (1e6 * (busy_s["oracle"] - energy_in_oracle) / oracle_calls
                               if oracle_calls else 0.0),
        "mean_ms": {k: 1e3 * total_s[k] / names[k] for k in names},
        "energy.full_calls": names.get("energy.energy_total", 0)
        + names.get("energy.energy_and_gradient", 0),
        "energy.delta_calls": names.get("energy.delta_energy_atom_move", 0),
        "energy.exact_delta_calls": names.get("energy.exact_delta_atom_move", 0),
        "covered_s": sum(t1 - t0 for _, _, t0, t1, p, _ in spans[lo:hi] if p < lo),
    }
