"""Per-layer spans and counters, installed around trisol's functions from outside.

Every hot name is replaced in each module namespace that imports it, so a
call through `from .grid import neg_laplacian_values` is seen the same way
as a call inside `grid` itself.  A span records calls, inclusive time and
self time (inclusive time minus the time of its direct child spans).  Spans
opened with no span enclosing them are the top-level stages; their sum is
compared with the wall time of `main` to show what the trace accounts for.

Nothing here edits the package's files.  A name that a later refactor
removes is listed in `missing`, and every metric that depends on it is
reported as absent rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

# (module, attribute, span).  One span name may cover several namespaces.
SPANS = [
    ("grid", "neg_laplacian_values", "grid.stencil"),
    ("energy", "neg_laplacian_values", "grid.stencil"),
    ("analysis", "neg_laplacian_values", "grid.stencil"),
    ("grid", "solve_poisson_values", "grid.poisson"),
    ("energy", "solve_poisson_values", "grid.poisson"),
    ("grid", "h1_seminorm_sq_values", "grid.h1"),
    ("energy", "h1_seminorm_sq_values", "grid.h1"),
    ("mountainpass", "h1_seminorm_sq_values", "grid.h1"),
    ("energy", "antiderivative", "energy.quad"),
    ("energy", "truncation_increments", "energy.quad"),
    ("mountainpass", "morse_index", "analysis.morse"),
    ("analysis", "morse_index", "analysis.morse"),
    ("oracle", "shoot", "oracle.shoot"),
    # stages: the functions `cli` and `pipeline` call one after another
    ("cli", "cubic_nonlinearity", "cli.nonlinearity"),
    ("pipeline", "validate_condition_g", "nonlinearity.validate"),
    ("cli", "validate_condition_g", "nonlinearity.validate"),
    ("pipeline", "eigenpairs", "pipeline.eigenpairs"),
    ("pipeline", "initial_guess", "descent.initial_guess"),
    ("pipeline", "minimize", "descent"),
    ("pipeline", "find_mountain_pass", "mountainpass"),
    ("pipeline", "assemble_report", "analysis.report"),
    ("cli", "sweep", "oracle.sweep"),
    ("cli", "sign_change_brackets", "oracle.brackets"),
    ("cli", "find_branch", "oracle.branch"),
    ("cli", "write_field_csv", "cli.write"),
    ("cli", "report_to_json", "cli.write"),
    ("cli", "_maybe_write", "cli.write"),
]

# per-layer metric -> (unit, better, names it needs)
METRICS = {
    "grid.stencil_calls": ("count", "lower", ["grid.neg_laplacian_values"]),
    "grid.stencil_s": ("s", "lower", ["grid.neg_laplacian_values"]),
    "grid.poisson_calls": ("count", "lower", ["grid.solve_poisson_values"]),
    "grid.poisson_s": ("s", "lower", ["grid.solve_poisson_values"]),
    "grid.stencil_per_poisson": ("count/call", "lower",
                                 ["grid.solve_poisson_values", "grid.neg_laplacian_values"]),
    "grid.h1_calls": ("count", "lower", ["grid.h1_seminorm_sq_values"]),
    "grid.h1_s": ("s", "lower", ["grid.h1_seminorm_sq_values"]),
    "nonlinearity.validate_s": ("s", "lower", ["pipeline.validate_condition_g"]),
    "nonlinearity.g_points": ("count", "lower", ["cli.cubic_nonlinearity"]),
    "nonlinearity.gprime_points": ("count", "lower", ["cli.cubic_nonlinearity"]),
    "energy.quad_calls": ("count", "lower",
                          ["energy.antiderivative", "energy.truncation_increments"]),
    "energy.quad_s": ("s", "lower",
                      ["energy.antiderivative", "energy.truncation_increments"]),
    "energy.g_points_per_node": ("count/node", "lower",
                                 ["energy.antiderivative", "energy.truncation_increments",
                                  "cli.cubic_nonlinearity"]),
    "descent.s": ("s", "lower", ["pipeline.minimize"]),
    "descent.self_s": ("s", "lower", ["pipeline.minimize"]),
    "descent.iters": ("count", "lower", ["pipeline.minimize"]),
    "descent.backtracks": ("count", "lower",
                           ["descent._armijo_step", "energy.EnergyModel.phi_increment"]),
    "mountainpass.s": ("s", "lower", ["pipeline.find_mountain_pass"]),
    "mountainpass.self_s": ("s", "lower", ["pipeline.find_mountain_pass"]),
    "mountainpass.iters": ("count", "lower", ["mountainpass._run_path_loop"]),
    "mountainpass.restarts": ("count", "lower",
                              ["pipeline.find_mountain_pass", "mountainpass._run_path_loop"]),
    "analysis.morse_s": ("s", "lower", ["analysis.morse_index"]),
    "analysis.morse_calls": ("count", "lower", ["analysis.morse_index"]),
    "analysis.morse_stencil_calls": ("count", "lower",
                                     ["analysis.morse_index", "grid.neg_laplacian_values"]),
    "analysis.report_s": ("s", "lower", ["pipeline.assemble_report"]),
    "oracle.sweep_s": ("s", "lower", ["cli.sweep"]),
    "oracle.branch_s": ("s", "lower", ["cli.find_branch"]),
    "oracle.shots": ("count", "lower", ["oracle.shoot"]),
    "cli.write_s": ("s", "lower", ["cli.write_field_csv", "cli.report_to_json"]),
}

# counts that must repeat exactly between two traced runs of the same input
DETERMINISTIC = [
    "grid.stencil_calls", "grid.poisson_calls", "grid.h1_calls",
    "nonlinearity.g_points", "nonlinearity.gprime_points", "energy.quad_calls",
    "descent.iters", "descent.backtracks", "mountainpass.iters",
    "mountainpass.restarts", "analysis.morse_calls",
    "analysis.morse_stencil_calls", "oracle.shots",
]


class Tracer:
    """Spans and counters of one traced `main` call."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.stages: dict[str, float] = {}  # top-level span name -> total_s
        self.counts: Counter = Counter()
        self.active: Counter = Counter()    # open spans by name
        self.missing: list[str] = []
        self._children: list[float] = []    # child time of each open span

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        children, active, clock = self._children, self.active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            active[name] += 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = children.pop()
                active[name] -= 1
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - inner
                if children:
                    children[-1] += duration
                else:
                    self.stages[name] = self.stages.get(name, 0.0) + duration
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def hook(self, fn, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args)
            result = fn(*args, **kwargs)
            after(state, result)
            return result
        return wrapper

    def counted(self, fn, key):
        """Count the points g or g' is evaluated at, also inside quadrature."""
        counts, active = self.counts, self.active

        @functools.wraps(fn)
        def wrapper(t):
            n = int(np.size(t))
            counts[key] += n
            if active["energy.quad"]:
                counts[key + "_in_quad"] += n
            return fn(t)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every listed name that exists; record the rest as missing."""
        counts, active = self.counts, self.active

        def stencil_before(args):
            if active["grid.poisson"]:
                counts["stencil_in_poisson"] += 1
            if active["analysis.morse"]:
                counts["stencil_in_morse"] += 1

        def quad_before(args):
            counts["quad_nodes"] += int(np.size(args[2]))

        def minimize_after(args, point):
            counts["descent.iters"] += int(point.iterations)

        def nonlinearity_after(args, nl):
            nl.g = self.counted(nl.g, "g_points")
            nl.gprime = self.counted(nl.gprime, "gprime_points")

        befores = {"grid.stencil": stencil_before, "energy.quad": quad_before}
        afters = {"descent": minimize_after, "cli.nonlinearity": nonlinearity_after}
        for module, attr, name in SPANS:
            self._replace(module, attr, lambda fn, name=name: self.span(
                name, fn, befores.get(name), afters.get(name)))

        def armijo_before(args):
            return counts["phi_increments"]

        def armijo_after(start, result):
            used = counts["phi_increments"] - start
            counts["descent.backtracks"] += used - (result[0] is not None)

        def increment_before(args):
            counts["phi_increments"] += 1

        def path_after(state, result):
            counts["mountainpass.iters"] += int(result[1])
            counts["path_loops"] += 1

        # counted only: their time stays in the caller's span, so descent
        # and path self time include the line search
        hooks = [
            ("descent", "_armijo_step", armijo_before, armijo_after),
            ("mountainpass", "_run_path_loop", lambda args: None, path_after),
            ("energy", "EnergyModel.phi_increment", increment_before, lambda s, r: None),
        ]
        for module, attr, before, after in hooks:
            self._replace(module, attr, lambda fn, b=before, a=after: self.hook(fn, b, a))

    def _replace(self, module, attr, make):
        try:
            owner = importlib.import_module(f"trisol.{module}")
        except ImportError:
            self.missing.append(f"{module}.{attr}")
            return
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, leaf, None)):
            self.missing.append(f"{module}.{attr}")
            return
        setattr(owner, leaf, make(getattr(owner, leaf)))

    # -- results -----------------------------------------------------------

    def record(self) -> dict:
        return {"spans": self.spans, "stages": self.stages,
                "counts": dict(self.counts), "missing": self.missing}


def layer_metrics(record: dict) -> dict:
    """Per-layer metric values from one traced op; absent metrics are left out."""
    spans, counts = record["spans"], record["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    poisson_calls = calls("grid.poisson")
    values = {
        "grid.stencil_calls": calls("grid.stencil"),
        "grid.stencil_s": total("grid.stencil"),
        "grid.poisson_calls": poisson_calls,
        "grid.poisson_s": total("grid.poisson"),
        "grid.stencil_per_poisson": ratio(counts.get("stencil_in_poisson", 0), poisson_calls),
        "grid.h1_calls": calls("grid.h1"),
        "grid.h1_s": total("grid.h1"),
        "nonlinearity.validate_s": total("nonlinearity.validate"),
        "nonlinearity.g_points": counts.get("g_points", 0),
        "nonlinearity.gprime_points": counts.get("gprime_points", 0),
        "energy.quad_calls": calls("energy.quad"),
        "energy.quad_s": total("energy.quad"),
        "energy.g_points_per_node": ratio(counts.get("g_points_in_quad", 0),
                                          counts.get("quad_nodes", 0)),
        "descent.s": total("descent"),
        "descent.self_s": own("descent"),
        "descent.iters": counts.get("descent.iters", 0),
        "descent.backtracks": counts.get("descent.backtracks", 0),
        "mountainpass.s": total("mountainpass"),
        "mountainpass.self_s": own("mountainpass"),
        "mountainpass.iters": counts.get("mountainpass.iters", 0),
        "mountainpass.restarts": max(counts.get("path_loops", 0) - calls("mountainpass"), 0),
        "analysis.morse_s": total("analysis.morse"),
        "analysis.morse_calls": calls("analysis.morse"),
        "analysis.morse_stencil_calls": counts.get("stencil_in_morse", 0),
        "analysis.report_s": total("analysis.report"),
        "oracle.sweep_s": total("oracle.sweep"),
        "oracle.branch_s": total("oracle.branch"),
        "oracle.shots": calls("oracle.shoot"),
        "cli.write_s": total("cli.write"),
    }
    missing = set(record["missing"])
    return {name: values[name] for name, (_, _, needs) in METRICS.items()
            if not missing.intersection(needs)}
